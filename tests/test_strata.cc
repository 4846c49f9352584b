// Unit tests for the parallel engine's building blocks — the thread-pool
// primitive and the pivot-window partitioning — and the engine's
// determinism, truncation and epoch guards on hand-built programs (the
// broad randomized differential sweep lives in test_join_differential.cc).

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "constraint/canonical.h"
#include "core/thread_pool.h"
#include "maintenance/batch.h"
#include "plan/partition.h"
#include "test_util.h"
#include "workload/generators.h"

namespace mmv {
namespace {

using testutil::ParseOrDie;
using testutil::TestWorld;
using testutil::Unwrap;

// ---- thread pool ----------------------------------------------------------

TEST(ThreadPoolTest, ParallelForRunsEveryItemExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  ThreadPool::Global().ParallelFor(hits.size(), 8,
                                   [&](size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SingleThreadAndEmptyBatchesRunInline) {
  int calls = 0;
  ThreadPool::Global().ParallelFor(0, 8, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ThreadPool::Global().ParallelFor(5, 1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 5);
}

TEST(ThreadPoolTest, NestedParallelForFallsBackInline) {
  std::atomic<int> inner_total{0};
  ThreadPool::Global().ParallelFor(4, 4, [&](size_t) {
    ThreadPool::Global().ParallelFor(3, 4,
                                     [&](size_t) { inner_total++; });
  });
  EXPECT_EQ(inner_total.load(), 12);
}

TEST(ThreadPoolTest, ReentrantSubmissionRunsInnerItemsOnCallingThread) {
  // The degrade-inline contract, pinned precisely: a ParallelFor issued
  // from inside a pool worker must not re-enter the pool's batch state —
  // every inner item runs on the thread that submitted it. Slices and
  // StDel shards rely on this to nest arbitrary library code that may
  // itself call ParallelFor.
  std::atomic<int> mismatches{0};
  ThreadPool::Global().ParallelFor(4, 4, [&](size_t) {
    std::thread::id outer = std::this_thread::get_id();
    ThreadPool::Global().ParallelFor(8, 4, [&](size_t) {
      if (std::this_thread::get_id() != outer) mismatches++;
    });
  });
  EXPECT_EQ(mismatches.load(), 0);
}

// ---- pivot-window partitioning --------------------------------------------

TEST(PartitionTest, RangesAreContiguousDisjointAndComplete) {
  // The shard ranges must cover [0, items) exactly once, in order: a
  // boundary that split or duplicated a pivot bucket entry would break
  // the merge's sequential-append replay.
  for (size_t items : {size_t{0}, size_t{1}, size_t{5}, size_t{63},
                       size_t{64}, size_t{127}, size_t{128}, size_t{129},
                       size_t{300}, size_t{1000}}) {
    for (int parts : {1, 2, 3, 7, 8, 16}) {
      size_t expect_begin = 0;
      for (int s = 0; s < parts; ++s) {
        auto [begin, end] = plan::PartitionRange(items, parts, s);
        EXPECT_EQ(begin, expect_begin)
            << items << " items, " << parts << " parts, shard " << s;
        EXPECT_LE(begin, end);
        expect_begin = end;
      }
      EXPECT_EQ(expect_begin, items) << items << " items, " << parts
                                     << " parts";
    }
  }
}

TEST(PartitionTest, CountForRespectsFloorAndCap) {
  // Below twice the per-shard floor a window is not worth splitting; above
  // it the count is items/floor capped at the thread budget. The decision
  // depends only on (window size, threads) — never on scheduling — so the
  // schedule shape itself is deterministic.
  EXPECT_EQ(plan::PartitionCountFor(0, 8), 1);
  EXPECT_EQ(plan::PartitionCountFor(2 * plan::kMinPartitionItems - 1, 8), 1);
  EXPECT_EQ(plan::PartitionCountFor(2 * plan::kMinPartitionItems, 8), 2);
  EXPECT_EQ(plan::PartitionCountFor(16 * plan::kMinPartitionItems, 8), 8);
  EXPECT_EQ(plan::PartitionCountFor(16 * plan::kMinPartitionItems, 1), 1);
  EXPECT_EQ(plan::PartitionCountFor(1000, 8, /*min_per_shard=*/2), 8);
  EXPECT_EQ(plan::PartitionCountFor(7, 8, /*min_per_shard=*/2), 3);
}

// ---- parallel engine on hand-built programs -------------------------------

std::multiset<std::string> Canon(const View& v) {
  std::multiset<std::string> out;
  for (const ViewAtom& a : v.atoms()) {
    out.insert(CanonicalAtomString(a.pred, a.args, a.constraint));
  }
  return out;
}

std::multiset<std::string> Sups(const View& v) {
  std::multiset<std::string> out;
  for (const ViewAtom& a : v.atoms()) out.insert(a.support.ToString());
  return out;
}

TEST(ParallelStrataTest, GuardedMultiChainMatchesSequentialByteForByte) {
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeGuardedMultiChain(/*chains=*/4, /*depth=*/4,
                                              /*width=*/5);
  FixpointOptions opts;
  FixpointStats seq;
  View sequential = Unwrap(Materialize(p, w.domains.get(), opts, &seq));
  for (int threads : {2, 3, 8}) {
    opts.num_threads = threads;
    FixpointStats par;
    View parallel = Unwrap(Materialize(p, w.domains.get(), opts, &par));
    EXPECT_EQ(Canon(sequential), Canon(parallel)) << threads << " threads";
    EXPECT_EQ(Sups(sequential), Sups(parallel)) << threads << " threads";
    EXPECT_EQ(seq.atoms_created, par.atoms_created);
    EXPECT_EQ(seq.duplicates_suppressed, par.duplicates_suppressed);
    EXPECT_EQ(seq.derivations_attempted, par.derivations_attempted);
    EXPECT_EQ(seq.iterations, par.iterations);
    // The atom ORDER is part of the parallel merge contract (clause index,
    // then enumeration order — the sequential append order), not just the
    // multiset: assert it positionally via supports.
    ASSERT_EQ(sequential.size(), parallel.size());
    for (size_t i = 0; i < sequential.size(); ++i) {
      EXPECT_EQ(sequential.atoms()[i].support.ToString(),
                parallel.atoms()[i].support.ToString())
          << "position " << i;
    }
    // Run-to-run determinism is STRONGER than sequential equivalence:
    // two parallel runs at the same thread count must agree on the whole
    // rendered view, fresh-variable numbering included (the merge assigns
    // real ids in replay order, never in scheduling order).
    View again = Unwrap(Materialize(p, w.domains.get(), opts));
    EXPECT_EQ(parallel.ToString(), again.ToString()) << threads << " threads";
  }
}

// Transitive closure over \p edges with a DCA guard on the recursive
// clause — in(S, arith:plus(X,Y)) — so every recursive derivation pays a
// real domain evaluation. One recursive predicate means ONE SCC: any
// fan-out comes from sharding a large pivot window.
Program MakeGuardedTc(const std::vector<std::pair<int, int>>& edges) {
  Program p;
  for (const auto& [from, to] : edges) {
    Clause c;
    c.head_pred = "e";
    VarId x = p.factory()->Fresh(), y = p.factory()->Fresh();
    c.head_args = {Term::Var(x), Term::Var(y)};
    c.constraint.Add(Primitive::Eq(Term::Var(x), Term::Const(Value(from))));
    c.constraint.Add(Primitive::Eq(Term::Var(y), Term::Const(Value(to))));
    p.AddClause(std::move(c));
  }
  {
    Clause c;
    VarId x = p.factory()->Fresh(), y = p.factory()->Fresh();
    c.head_pred = "path";
    c.head_args = {Term::Var(x), Term::Var(y)};
    c.body.push_back(BodyAtom{"e", {Term::Var(x), Term::Var(y)}});
    p.AddClause(std::move(c));
  }
  {
    Clause c;
    VarId x = p.factory()->Fresh(), y = p.factory()->Fresh(),
          z = p.factory()->Fresh(), s = p.factory()->Fresh();
    c.head_pred = "path";
    c.head_args = {Term::Var(x), Term::Var(y)};
    c.body.push_back(BodyAtom{"e", {Term::Var(x), Term::Var(z)}});
    c.body.push_back(BodyAtom{"path", {Term::Var(z), Term::Var(y)}});
    DomainCall call;
    call.domain = "arith";
    call.function = "plus";
    call.args = {Term::Var(x), Term::Var(y)};
    c.constraint.Add(Primitive::In(Term::Var(s), std::move(call)));
    p.AddClause(std::move(c));
  }
  return p;
}

// Byte-identity for both semantics on a single-SCC recursive chain: many
// small rounds whose windows all stay below the partition threshold, so
// every pivot runs inline whatever the thread count.
TEST(ParallelStrataTest, SingleSccGuardedTcMatchesSequentialByteForByte) {
  TestWorld w = TestWorld::Make();
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i + 1 < 20; ++i) edges.push_back({i, i + 1});
  Program p = MakeGuardedTc(edges);
  for (DupSemantics semantics :
       {DupSemantics::kDuplicate, DupSemantics::kSet}) {
    FixpointOptions opts;
    opts.semantics = semantics;
    FixpointStats seq;
    View sequential = Unwrap(Materialize(p, w.domains.get(), opts, &seq));
    for (int threads : {2, 8}) {
      opts.num_threads = threads;
      FixpointStats par;
      View parallel = Unwrap(Materialize(p, w.domains.get(), opts, &par));
      EXPECT_EQ(Canon(sequential), Canon(parallel)) << threads << " threads";
      EXPECT_EQ(Sups(sequential), Sups(parallel)) << threads << " threads";
      EXPECT_EQ(seq.atoms_created, par.atoms_created);
      EXPECT_EQ(seq.duplicates_suppressed, par.duplicates_suppressed);
      EXPECT_EQ(seq.derivations_attempted, par.derivations_attempted);
      EXPECT_EQ(seq.iterations, par.iterations);
      ASSERT_EQ(sequential.size(), parallel.size());
      for (size_t i = 0; i < sequential.size(); ++i) {
        EXPECT_EQ(sequential.atoms()[i].support.ToString(),
                  parallel.atoms()[i].support.ToString())
            << "position " << i;
      }
    }
  }
}

// A single-SCC star whose fact window (300 spokes into the hub) clears the
// partition threshold: at 2 and 8 threads the recursive clause's pivot
// bucket is actually SPLIT into shards — partitions_run proves it ran that
// way — and the guarded derivations hit the shared evaluator from several
// workers at once (the TSan job's quarry). The merged view must still be
// byte-identical to the sequential run, supports and positions included.
TEST(ParallelStrataTest, ShardedSingleSccStarMatchesSequentialByteForByte) {
  TestWorld w = TestWorld::Make();
  std::vector<std::pair<int, int>> edges;
  for (int j = 2; j <= 301; ++j) edges.push_back({j, 0});
  edges.push_back({0, 1});  // every spoke reaches 1 through the hub
  Program p = MakeGuardedTc(edges);
  FixpointOptions opts;
  FixpointStats seq;
  View sequential = Unwrap(Materialize(p, w.domains.get(), opts, &seq));
  EXPECT_EQ(seq.partitions_run, 0);  // the sequential engine never shards
  for (int threads : {2, 8}) {
    opts.num_threads = threads;
    FixpointStats par;
    View parallel = Unwrap(Materialize(p, w.domains.get(), opts, &par));
    EXPECT_GT(par.partitions_run, 0) << threads << " threads";
    EXPECT_EQ(Canon(sequential), Canon(parallel)) << threads << " threads";
    EXPECT_EQ(Sups(sequential), Sups(parallel)) << threads << " threads";
    EXPECT_EQ(seq.atoms_created, par.atoms_created);
    EXPECT_EQ(seq.duplicates_suppressed, par.duplicates_suppressed);
    EXPECT_EQ(seq.derivations_attempted, par.derivations_attempted);
    EXPECT_EQ(seq.iterations, par.iterations);
    ASSERT_EQ(sequential.size(), parallel.size());
    for (size_t i = 0; i < sequential.size(); ++i) {
      EXPECT_EQ(sequential.atoms()[i].support.ToString(),
                parallel.atoms()[i].support.ToString())
          << "position " << i;
    }
    View again = Unwrap(Materialize(p, w.domains.get(), opts));
    EXPECT_EQ(parallel.ToString(), again.ToString()) << threads << " threads";
  }
}

// Regression: the staging budget counts PRE-dedup atoms, so a capped
// shard may stop before derivations the sequential engine (which caps on
// the deduped view size) would still reach. Such runs must report
// truncated=true — silently returning an incomplete view as complete is
// the one way the parallel engine could lie.
TEST(ParallelStrataTest, StagingBudgetCutoffIsFlaggedTruncated) {
  TestWorld w = TestWorld::Make();
  std::ostringstream os;
  for (int i = 0; i < 200; ++i) os << "a(X) <- X = " << i << ".\n";
  for (int i = 0; i < 10; ++i) os << "t(X) <- X = " << 1000 + i << ".\n";
  os << "e(X) <- true || a(X), t(Y).\n";
  Program p = ParseOrDie(os.str());
  FixpointOptions opts;
  opts.semantics = DupSemantics::kSet;
  opts.num_threads = 4;
  // 210 facts, then one round whose a-pivot window (200 atoms) splits into
  // 3 shards of ~67 a atoms. Each shard enumerates ~670 (a, t) pairs
  // projecting to ~67 canonical e atoms, but its staging budget caps at
  // 500 - 210 = 290 raw derivations (29 uniques + canonical duplicates)
  // and never reaches the rest — while the MERGED view lands near
  // 210 + 3 * 29 < 500, so only the capped-shard flag can report the
  // cutoff (the view-size cap never fires). Unsharded, the run is
  // complete at 410 atoms.
  opts.max_atoms = 500;
  FixpointStats stats;
  View v = Unwrap(Materialize(p, w.domains.get(), opts, &stats));
  EXPECT_GT(stats.partitions_run, 0);
  EXPECT_TRUE(stats.truncated);
  EXPECT_LT(v.size(), 410u);
}

// Small windows never fan out: a continuation whose pivot windows all stay
// under the partition threshold runs every pivot inline at any thread
// count — no shard, no evaluator sharing — and so renders exactly the
// 1-thread view, fresh-variable numbering included.
TEST(ParallelStrataTest, SmallWindowsRunInline) {
  TestWorld w = TestWorld::Make();
  const int chains = 8, width = 16, k = 16;
  Program p = workload::MakeGuardedMultiChain(chains, /*depth=*/8, width);
  View base = Unwrap(Materialize(p, w.domains.get(), FixpointOptions()));
  auto run = [&](int threads, FixpointStats* stats) {
    View v = base;
    size_t delta_begin = v.size();
    for (int i = 0; i < k; ++i) {
      ViewAtom a;
      a.pred = "c" + std::to_string(i % chains) + "_p0";
      a.args = {Term::Const(Value(width + 1000 + i / chains))};
      a.support = Support(-1 - i);
      v.Add(std::move(a));
    }
    FixpointOptions opts;
    opts.num_threads = threads;
    Status s = ContinueFixpoint(p, &v, w.domains.get(), opts, stats,
                                delta_begin);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return v;
  };
  FixpointStats seq, par;
  View sequential = run(1, &seq);
  View parallel = run(4, &par);
  EXPECT_GT(parallel.size(), base.size() + k);  // the continuation derived
  EXPECT_EQ(sequential.ToString(), parallel.ToString());
  EXPECT_EQ(seq.atoms_created, par.atoms_created);
  EXPECT_EQ(seq.derivations_attempted, par.derivations_attempted);
  EXPECT_EQ(seq.index_probes, par.index_probes);
  EXPECT_EQ(seq.iterations, par.iterations);
  EXPECT_EQ(par.partitions_run, 0);
  EXPECT_EQ(par.evaluator_clones, 0);
}

// A concurrent-read-safe evaluator whose external state moves while
// shards run: every Evaluate() call advances the epoch, standing in for a
// writer that slipped in mid-fan-out. Delegates the actual evaluation.
class MovingEpochEvaluator : public DcaEvaluator {
 public:
  explicit MovingEpochEvaluator(DcaEvaluator* inner) : inner_(inner) {}
  Result<DcaResult> Evaluate(const std::string& domain,
                             const std::string& function,
                             const std::vector<Value>& args) override {
    epoch_++;
    return inner_->Evaluate(domain, function, args);
  }
  int64_t StateEpoch() const override { return epoch_.load(); }
  bool ConcurrentReadSafe() const override { return true; }

 private:
  DcaEvaluator* inner_;
  std::atomic<int64_t> epoch_{0};
};

// 300 spokes into hub 0 plus the edge 0 -> 1: the recursive clause's
// path-pivot window holds 301 atoms and shards, and the shard holding
// path(0, 1) pays 300 guarded evaluations.
std::vector<std::pair<int, int>> StarEdges() {
  std::vector<std::pair<int, int>> edges;
  for (int j = 2; j <= 301; ++j) edges.push_back({j, 0});
  edges.push_back({0, 1});
  return edges;
}

// True when \p s is the loud epoch-mismatch failure of fan-out \p site.
bool IsEpochMismatch(const Status& s, const std::string& site) {
  return s.code() == StatusCode::kInternal &&
         s.message().find("external state changed under a parallel " +
                          site) != std::string::npos;
}

TEST(ParallelStrataTest, EpochMoveUnderShardedPivotFailsLoudly) {
  TestWorld w = TestWorld::Make();
  Program p = MakeGuardedTc(StarEdges());
  FixpointOptions opts;
  opts.max_iterations = 0;  // the edge facts only
  View v = Unwrap(Materialize(p, w.domains.get(), opts));
  ASSERT_EQ(v.size(), 301u);
  opts.max_iterations = 100;
  opts.num_threads = 4;
  MovingEpochEvaluator moving(w.domains.get());
  FixpointStats stats;
  Status s = ContinueFixpoint(p, &v, &moving, opts, &stats,
                              /*delta_begin=*/0);
  EXPECT_TRUE(IsEpochMismatch(s, "fixpoint pivot")) << s.ToString();
  EXPECT_GT(stats.partitions_run, 0);
}

TEST(ParallelStrataTest, EpochMoveUnderLiftSweepFailsLoudly) {
  TestWorld w = TestWorld::Make();
  Program p = MakeGuardedTc(StarEdges());
  FixpointOptions opts;
  View v = Unwrap(Materialize(p, w.domains.get(), opts));
  // Deleting e(0, 1) retracts path(0, 1), whose 300 guarded parents
  // path(j, 1) are the step-3 lift sweep that fans out.
  maint::UpdateAtom req;
  VarId x = p.factory()->Fresh(), y = p.factory()->Fresh();
  req.pred = "e";
  req.args = {Term::Var(x), Term::Var(y)};
  req.constraint.Add(Primitive::Eq(Term::Var(x), Term::Const(Value(0))));
  req.constraint.Add(Primitive::Eq(Term::Var(y), Term::Const(Value(1))));
  std::vector<maint::Update> burst = {
      maint::Update{maint::Update::Kind::kDelete, std::move(req)}};
  opts.num_threads = 4;
  MovingEpochEvaluator moving(w.domains.get());
  maint::BatchStats stats;
  Status s = maint::ApplyBatch(p, &v, burst, &moving, opts, &stats);
  EXPECT_TRUE(IsEpochMismatch(s, "StDel lift sweep")) << s.ToString();
}

TEST(ParallelStrataTest, NaiveJoinModeIgnoresThreadCount) {
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeGuardedChain(3, 4);
  FixpointOptions opts;
  opts.join_mode = JoinMode::kNaive;
  opts.num_threads = 8;  // must silently run the sequential oracle
  FixpointStats stats;
  View v = Unwrap(Materialize(p, w.domains.get(), opts, &stats));
  EXPECT_EQ(stats.index_probes, 0);
  opts.join_mode = JoinMode::kIndexed;
  opts.num_threads = 1;
  View s = Unwrap(Materialize(p, w.domains.get(), opts));
  EXPECT_EQ(Canon(s), Canon(v));
}

// Forwards every call to another evaluator but keeps the default
// ConcurrentReadSafe() == false, as an evaluator that writes on
// evaluation must.
class SerialOnlyEvaluator : public DcaEvaluator {
 public:
  explicit SerialOnlyEvaluator(DcaEvaluator* inner) : inner_(inner) {}
  Result<DcaResult> Evaluate(const std::string& domain,
                             const std::string& function,
                             const std::vector<Value>& args) override {
    return inner_->Evaluate(domain, function, args);
  }
  int64_t StateEpoch() const override { return inner_->StateEpoch(); }

 private:
  DcaEvaluator* inner_;
};

// An evaluator that does not report ConcurrentReadSafe() must run the
// sequential engine and the sequential StDel sweep whatever num_threads
// says, like the naive join above: nothing fans out, and the view is the
// threads=1 oracle's.
TEST(ParallelStrataTest, NonReadSafeEvaluatorIgnoresThreadCount) {
  TestWorld w = TestWorld::Make();
  ASSERT_TRUE(w.domains->ConcurrentReadSafe());
  SerialOnlyEvaluator serial(w.domains.get());
  ASSERT_FALSE(serial.ConcurrentReadSafe());
  Program p = workload::MakeGuardedMultiChain(/*chains=*/3, /*depth=*/4,
                                              /*width=*/6);
  std::vector<maint::Update> burst;
  for (int chain = 0; chain < 3; ++chain) {
    maint::UpdateAtom req;
    req.pred = "c" + std::to_string(chain) + "_p0";
    VarId x = p.factory()->Fresh();
    req.args = {Term::Var(x)};
    req.constraint.Add(
        Primitive::Eq(Term::Var(x), Term::Const(Value(int64_t{chain + 1}))));
    burst.push_back(maint::Update{maint::Update::Kind::kDelete,
                                  std::move(req)});
  }
  auto run = [&](int threads, FixpointStats* fix_stats,
                 maint::BatchStats* batch_stats) {
    FixpointOptions opts;
    opts.num_threads = threads;
    View v = Unwrap(Materialize(p, &serial, opts, fix_stats));
    Status s = maint::ApplyBatch(p, &v, burst, &serial, opts, batch_stats);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return v;
  };
  FixpointStats seq_fix, par_fix;
  maint::BatchStats seq_batch, par_batch;
  View sequential = run(1, &seq_fix, &seq_batch);
  View parallel = run(8, &par_fix, &par_batch);
  EXPECT_GT(seq_batch.step3_replacements, 0u);  // the lift sweep ran
  EXPECT_EQ(Canon(sequential), Canon(parallel));
  EXPECT_EQ(par_fix.partitions_run, 0);
  EXPECT_EQ(par_fix.evaluator_clones, 0);
  EXPECT_EQ(par_batch.partitions_run, 0);
  EXPECT_EQ(par_batch.evaluator_clones, 0);
}

// StDel's parallel step-3 lift checks: a burst of deletions through
// ApplyBatch must leave the canonically identical view (and identical
// propagation counters) whatever num_threads says.
TEST(ParallelStrataTest, ParallelStepThreeMatchesSequential) {
  TestWorld w = TestWorld::Make();
  for (uint64_t seed = 100; seed < 110; ++seed) {
    Rng rng(seed);
    Program p = workload::MakeGuardedMultiChain(
        /*chains=*/3, /*depth=*/static_cast<int>(rng.Int(2, 5)),
        /*width=*/static_cast<int>(rng.Int(3, 6)));
    std::vector<maint::Update> burst;
    for (int i = 0; i < 4; ++i) {
      maint::UpdateAtom req;
      req.pred = "c" + std::to_string(rng.Int(0, 2)) + "_p0";
      VarId x = p.factory()->Fresh();
      req.args = {Term::Var(x)};
      req.constraint.Add(Primitive::Eq(
          Term::Var(x), Term::Const(Value(rng.Int(0, 5)))));
      burst.push_back(maint::Update{maint::Update::Kind::kDelete,
                                    std::move(req)});
    }
    auto run = [&](int threads, maint::BatchStats* stats) {
      FixpointOptions opts;
      opts.num_threads = threads;
      View v = Unwrap(Materialize(p, w.domains.get(), opts));
      Status s = maint::ApplyBatch(p, &v, burst, w.domains.get(), opts,
                                   stats);
      EXPECT_TRUE(s.ok()) << s.ToString();
      return v;
    };
    maint::BatchStats seq_stats, par_stats;
    View sequential = run(1, &seq_stats);
    View parallel = run(8, &par_stats);
    EXPECT_EQ(Canon(sequential), Canon(parallel)) << "seed " << seed;
    EXPECT_EQ(Sups(sequential), Sups(parallel)) << "seed " << seed;
    EXPECT_EQ(seq_stats.replacements, par_stats.replacements);
    EXPECT_EQ(seq_stats.step3_replacements, par_stats.step3_replacements);
    EXPECT_EQ(seq_stats.removed_unsolvable, par_stats.removed_unsolvable);
    if (::testing::Test::HasFailure()) return;
  }
}

// ---- option plumbing ------------------------------------------------------

TEST(ParallelStrataTest, ParseThreadsFailsLoudly) {
  EXPECT_EQ(*ParseThreads("1"), 1);
  EXPECT_EQ(*ParseThreads("8"), 8);
  EXPECT_EQ(*ParseThreads("4096"), 4096);
  for (const char* bad : {"", "0", "-1", "two", "8x", "99999", "1.5"}) {
    Result<int> r = ParseThreads(bad);
    EXPECT_FALSE(r.ok()) << bad;
    EXPECT_NE(r.status().message().find("unknown thread count"),
              std::string::npos);
  }
}

TEST(ParallelStrataTest, ThreadsFromEnvDefaultsToSequential) {
  if (std::getenv("MMV_THREADS") == nullptr) {
    EXPECT_EQ(*ThreadsFromEnv(), 1);
  } else {
    EXPECT_TRUE(ThreadsFromEnv().ok());  // CI exports a valid count
  }
}

}  // namespace
}  // namespace mmv
