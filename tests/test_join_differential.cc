// Differential oracle for the join pipeline: the constraint-aware indexed
// join (arg-value probes, incremental unification with ground rejection,
// rename-free fully-ground derivations, solver memo) must produce exactly
// the view the legacy nested-loop join produces — same canonical atom
// multiset AND same support multiset — over randomized programs, under both
// duplicate and set semantics, for materialization and for insertion
// continuations.
//
// Views are compared by canonical atom strings (variables renamed by first
// appearance) because the two modes legitimately issue different fresh
// variable ids: the indexed join skips renames for fully-ground tuples and
// never standardizes rejected candidates apart.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "constraint/canonical.h"
#include "constraint/simplify.h"
#include "constraint/solve_cache.h"
#include "maintenance/insert.h"
#include "test_util.h"
#include "workload/generators.h"

namespace mmv {
namespace {

using testutil::TestWorld;
using testutil::Unwrap;

std::multiset<std::string> CanonicalAtoms(const View& v) {
  std::multiset<std::string> out;
  for (const ViewAtom& a : v.atoms()) {
    out.insert(CanonicalAtomString(a.pred, a.args, a.constraint));
  }
  return out;
}

std::multiset<std::string> Supports(const View& v) {
  std::multiset<std::string> out;
  for (const ViewAtom& a : v.atoms()) out.insert(a.support.ToString());
  return out;
}

workload::RandomProgramOptions RandomOptions(Rng* rng) {
  // Derived predicates join over earlier DERIVED predicates too, and under
  // duplicate semantics every distinct derivation is an atom — so deep
  // derived chains with wide bodies compound combinatorially. Keep bodies
  // wide only when the derived chain is shallow.
  workload::RandomProgramOptions o;
  o.base_preds = static_cast<int>(rng->Int(1, 3));
  o.max_body = static_cast<int>(rng->Int(1, 3));
  o.derived_preds = o.max_body >= 3 ? 1 : static_cast<int>(rng->Int(1, 3));
  o.facts_per_pred = static_cast<int>(rng->Int(2, 4));
  o.rules_per_pred = o.max_body >= 2 ? 1 : static_cast<int>(rng->Int(1, 2));
  o.const_pool = static_cast<int>(rng->Int(3, 8));
  o.neq_prob = rng->Double(0, 0.5);
  o.cmp_prob = rng->Double(0, 0.5);
  o.interval_fact_prob = rng->Double(0, 0.4);
  return o;
}

// Materializes under the naive oracle and the indexed join with its
// compiled plans, and asserts view equality plus the sharp per-run
// invariants the equivalence argument predicts: identical created-atom and
// suppressed-duplicate counts (rejected candidates are exactly tuples the
// oracle prunes as unsatisfiable, never ones it dedups, whatever the
// enumeration order).
void ExpectModesAgree(const Program& p, DcaEvaluator* eval,
                      FixpointOptions opts, const std::string& trace,
                      FixpointStats* indexed_stats_out = nullptr) {
  FixpointStats naive_stats, indexed_stats;
  opts.max_atoms = 50'000;  // terminate runaway joins; flagged below
  opts.join_mode = JoinMode::kNaive;
  View naive = Unwrap(Materialize(p, eval, opts, &naive_stats));
  opts.join_mode = JoinMode::kIndexed;
  View indexed = Unwrap(Materialize(p, eval, opts, &indexed_stats));
  EXPECT_FALSE(naive_stats.truncated) << "generator produced a blow-up\n"
                                      << trace;

  EXPECT_EQ(CanonicalAtoms(naive), CanonicalAtoms(indexed)) << trace;
  // Support multisets are only contractual under DUPLICATE semantics
  // (every derivation kept — order-independent). Set semantics retains
  // ONE representative derivation per canonical atom, and which one wins
  // follows enumeration order: the compiled plans legitimately meet a
  // different derivation first than the oracle's written-order join.
  if (opts.semantics == DupSemantics::kDuplicate) {
    EXPECT_EQ(Supports(naive), Supports(indexed)) << trace;
  }
  EXPECT_EQ(naive_stats.atoms_created, indexed_stats.atoms_created) << trace;
  EXPECT_EQ(naive_stats.duplicates_suppressed,
            indexed_stats.duplicates_suppressed)
      << trace;
  EXPECT_EQ(naive_stats.index_probes, 0) << "oracle must not probe";
  EXPECT_EQ(naive_stats.plan_reorders, 0) << "oracle must not plan";

  if (indexed_stats_out) *indexed_stats_out = indexed_stats;
}

// The num_threads sweep: 1 (the sequential reference) against 2 and 8,
// plus whatever $MMV_THREADS asks for (the TSan CI job exports 8). A typo
// in the variable fails the suite loudly, like the engine-mode parsers.
std::vector<int> ThreadSweep() {
  std::vector<int> sweep{2, 8};
  Result<int> env = ThreadsFromEnv();
  EXPECT_TRUE(env.ok()) << env.status().ToString();
  if (env.ok() && *env > 1 &&
      std::find(sweep.begin(), sweep.end(), *env) == sweep.end()) {
    sweep.push_back(*env);
  }
  return sweep;
}

// Parallel execution must match the sequential engine in everything
// contractual: canonical atom multiset, support multiset — under BOTH
// semantics, since each sharded pivot's merge replays the sequential
// (shard, enumeration) append order, so even set-semantics representative
// supports coincide — and the derivation counters. (Fresh-variable
// numbering and solver cache_hits are the carved-out non-contract.)
void ExpectThreadsAgree(const Program& p, DcaEvaluator* eval,
                        FixpointOptions opts, const std::string& trace) {
  opts.max_atoms = 50'000;
  opts.join_mode = JoinMode::kIndexed;
  opts.num_threads = 1;
  FixpointStats seq_stats;
  View sequential = Unwrap(Materialize(p, eval, opts, &seq_stats));
  for (int threads : ThreadSweep()) {
    opts.num_threads = threads;
    FixpointStats par_stats;
    View parallel = Unwrap(Materialize(p, eval, opts, &par_stats));
    std::string where = trace + "\n(num_threads " +
                        std::to_string(threads) + ")";
    EXPECT_EQ(CanonicalAtoms(sequential), CanonicalAtoms(parallel)) << where;
    EXPECT_EQ(Supports(sequential), Supports(parallel)) << where;
    EXPECT_EQ(seq_stats.atoms_created, par_stats.atoms_created) << where;
    EXPECT_EQ(seq_stats.duplicates_suppressed,
              par_stats.duplicates_suppressed)
        << where;
    EXPECT_EQ(seq_stats.derivations_attempted,
              par_stats.derivations_attempted)
        << where;
    EXPECT_EQ(seq_stats.unsat_pruned, par_stats.unsat_pruned) << where;
    EXPECT_EQ(seq_stats.index_probes, par_stats.index_probes) << where;
    EXPECT_EQ(seq_stats.ground_rejects, par_stats.ground_rejects) << where;
    EXPECT_EQ(seq_stats.rename_skipped, par_stats.rename_skipped) << where;
    EXPECT_EQ(seq_stats.probe_intersections, par_stats.probe_intersections)
        << where;
    EXPECT_EQ(seq_stats.iterations, par_stats.iterations) << where;
  }
}

void RunRandomPrograms(DupSemantics semantics, uint64_t seed_base,
                       int seeds) {
  TestWorld w = TestWorld::Make();
  for (uint64_t seed = seed_base; seed < seed_base + seeds; ++seed) {
    Rng rng(seed);
    workload::RandomProgramOptions o = RandomOptions(&rng);
    Program p = workload::MakeRandomProgram(&rng, o);
    FixpointOptions opts;
    opts.semantics = semantics;
    std::string trace = "seed " + std::to_string(seed) + "\n" + p.ToString();
    ExpectModesAgree(p, w.domains.get(), opts, trace);
    ExpectThreadsAgree(p, w.domains.get(), opts, trace);
    if (::testing::Test::HasFailure()) return;  // keep the first trace
  }
}

// Directed single-SCC recursion through the same thread sweep: one
// recursive predicate group, so all parallelism comes from sharding a
// pivot window. The chain exercises many small rounds (windows below the
// partition threshold, run inline); the star's 301-edge fact window
// clears it, so the pivot bucket is actually sharded across workers.
TEST(JoinDifferential, SingleSccRecursionThreadSweep) {
  TestWorld w = TestWorld::Make();
  for (DupSemantics semantics :
       {DupSemantics::kDuplicate, DupSemantics::kSet}) {
    FixpointOptions opts;
    opts.semantics = semantics;
    {
      Program p =
          workload::MakeTransitiveClosure(workload::ChainEdges(12));
      ExpectThreadsAgree(p, w.domains.get(), opts, "chain TC");
    }
    {
      std::vector<std::pair<int, int>> edges;
      for (int j = 2; j <= 302; ++j) edges.push_back({j, 0});
      edges.push_back({0, 1});
      Program p = workload::MakeTransitiveClosure(edges);
      ExpectThreadsAgree(p, w.domains.get(), opts, "star TC");
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(JoinDifferential, RandomProgramsDuplicateSemantics) {
  RunRandomPrograms(DupSemantics::kDuplicate, 1, 100);
}

TEST(JoinDifferential, RandomProgramsSetSemantics) {
  RunRandomPrograms(DupSemantics::kSet, 1000, 100);
}

// The W_P operator (no solvability requirement) with simplification and
// static-contradiction pruning on: the indexed pipeline stays active and
// must agree. (With pruning or simplification off it silently falls back
// to the oracle, so agreement is structural.)
TEST(JoinDifferential, WpOperatorAgrees) {
  TestWorld w = TestWorld::Make();
  for (uint64_t seed = 2000; seed < 2020; ++seed) {
    Rng rng(seed);
    workload::RandomProgramOptions o = RandomOptions(&rng);
    Program p = workload::MakeRandomProgram(&rng, o);
    FixpointOptions opts;
    opts.op = OperatorKind::kWp;
    ExpectModesAgree(p, w.domains.get(), opts, "wp seed " + std::to_string(seed));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(JoinDifferential, NaiveFallbackConfigurations) {
  // simplify / pruning off: the engine must fall back to the oracle join
  // (probes stay zero) and trivially agree.
  TestWorld w = TestWorld::Make();
  Rng rng(77);
  Program p = workload::MakeRandomProgram(&rng, RandomOptions(&rng));
  for (int mask = 0; mask < 3; ++mask) {
    // mask 0: both on (pipeline active); 1: pruning off; 2: simplify off.
    FixpointOptions opts;
    opts.simplify = mask != 2;
    opts.prune_static_contradictions = mask != 1;
    opts.join_mode = JoinMode::kIndexed;
    FixpointStats stats;
    View v = Unwrap(Materialize(p, w.domains.get(), opts, &stats));
    if (!opts.simplify || !opts.prune_static_contradictions) {
      EXPECT_EQ(stats.index_probes, 0) << "expected oracle fallback";
      EXPECT_EQ(stats.rename_skipped, 0);
    }
    opts.join_mode = JoinMode::kNaive;
    View n = Unwrap(Materialize(p, w.domains.get(), opts));
    EXPECT_EQ(CanonicalAtoms(n), CanonicalAtoms(v)) << "mask " << mask;
  }
}

// Transitive closure over random DAGs: binary predicates and a recursive
// join — the workload where index probes and the rename-free fast path
// actually fire. (Ground rejection does NOT fire here: the bucket probe is
// exact for these rules, so every candidate it returns already matches —
// see the star test below for rejects.)
TEST(JoinDifferential, TransitiveClosureJoinsAgreeAndProbe) {
  TestWorld w = TestWorld::Make();
  bool saw_probes = false, saw_rename_skip = false;
  for (uint64_t seed = 3000; seed < 3020; ++seed) {
    Rng rng(seed);
    int n = static_cast<int>(rng.Int(4, 10));
    Program p = workload::MakeTransitiveClosure(
        workload::RandomDagEdges(&rng, n, static_cast<int>(rng.Int(0, 6))));
    FixpointStats stats;
    ExpectModesAgree(p, w.domains.get(), FixpointOptions(),
                     "tc seed " + std::to_string(seed), &stats);
    saw_probes = saw_probes || stats.index_probes > 0;
    saw_rename_skip = saw_rename_skip || stats.rename_skipped > 0;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_TRUE(saw_probes);
  EXPECT_TRUE(saw_rename_skip);
}

// A reciprocal join over a star graph: sym(X,Y) <- e(X,Y), e(Y,X) with
// edges e(j,0) and e(0,j). Probing position 0 of the second body atom
// leaves position 1 to check against the already-bound X — the regime
// where incremental unification rejects candidates mid-join.
TEST(JoinDifferential, ReciprocalStarJoinGroundRejects) {
  TestWorld w = TestWorld::Make();
  Program p;
  const int m = 6;
  auto add_edge = [&p](int a, int b) {
    Clause c;
    c.head_pred = "e";
    VarId x = p.factory()->Fresh(), y = p.factory()->Fresh();
    c.head_args = {Term::Var(x), Term::Var(y)};
    c.constraint.Add(Primitive::Eq(Term::Var(x), Term::Const(Value(a))));
    c.constraint.Add(Primitive::Eq(Term::Var(y), Term::Const(Value(b))));
    p.AddClause(std::move(c));
  };
  for (int j = 1; j <= m; ++j) {
    add_edge(j, 0);
    add_edge(0, j);
  }
  {
    Clause c;
    VarId x = p.factory()->Fresh(), y = p.factory()->Fresh();
    c.head_pred = "sym";
    c.head_args = {Term::Var(x), Term::Var(y)};
    c.body.push_back(BodyAtom{"e", {Term::Var(x), Term::Var(y)}});
    c.body.push_back(BodyAtom{"e", {Term::Var(y), Term::Var(x)}});
    p.AddClause(std::move(c));
  }
  FixpointStats stats;
  ExpectModesAgree(p, w.domains.get(), FixpointOptions(), "reciprocal star",
                   &stats);
  // BOTH positions of the second body atom are bound when it runs, so the
  // multi-position probe weighs both buckets and takes the smaller (exact)
  // one.
  EXPECT_GT(stats.probe_intersections, 0);
  EXPECT_GT(stats.index_probes, 0);
  // Every reciprocal pair must be found: sym(j,0) and sym(0,j) for each j.
  FixpointOptions opts;
  View v = Unwrap(Materialize(p, w.domains.get(), opts));
  EXPECT_EQ(v.AtomsFor("sym").size(), 2u * m);
}

// Regression: a head variable not bound through the body ("unsafe") that
// occurs at SEVERAL head positions must stay one variable in the fast
// path's output — p(X, X) <- q(Y) denotes the diagonal, not the cross
// product. (A clause rename maps every occurrence to one fresh variable;
// the first fast-path implementation issued one per occurrence.)
TEST(JoinDifferential, RepeatedUnsafeHeadVariableStaysDiagonal) {
  TestWorld w = TestWorld::Make();
  Program p;
  {
    Clause c;
    VarId y = p.factory()->Fresh();
    c.head_pred = "q";
    c.head_args = {Term::Var(y)};
    c.constraint.Add(Primitive::Eq(Term::Var(y), Term::Const(Value(1))));
    p.AddClause(std::move(c));
  }
  {
    Clause c;
    VarId x = p.factory()->Fresh(), y = p.factory()->Fresh();
    c.head_pred = "p";
    c.head_args = {Term::Var(x), Term::Var(x)};
    c.body.push_back(BodyAtom{"q", {Term::Var(y)}});
    p.AddClause(std::move(c));
  }
  FixpointStats stats;
  ExpectModesAgree(p, w.domains.get(), FixpointOptions(), "p(X,X) <- q(Y)",
                   &stats);
  EXPECT_GT(stats.rename_skipped, 0);  // the fast path must actually run
  View v = Unwrap(Materialize(p, w.domains.get(), FixpointOptions()));
  ASSERT_EQ(v.AtomsFor("p").size(), 1u);
  const ViewAtom& atom = v.atoms()[v.AtomsFor("p")[0]];
  ASSERT_EQ(atom.args.size(), 2u);
  EXPECT_EQ(atom.args[0], atom.args[1]) << atom.ToString();
}

// Guarded chains (every level re-joins the base relation) are the
// sideways-information-passing showcase the benches score on; pin their
// equivalence and counters deterministically.
TEST(JoinDifferential, GuardedChainAgreesAndProbes) {
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeGuardedChain(/*depth=*/5, /*width=*/6);
  FixpointStats stats;
  ExpectModesAgree(p, w.domains.get(), FixpointOptions(), "guarded chain",
                   &stats);
  EXPECT_GT(stats.index_probes, 0);
  EXPECT_GT(stats.rename_skipped, 0);
  View v = Unwrap(Materialize(p, w.domains.get(), FixpointOptions()));
  EXPECT_EQ(v.size(), 6u * 6u);  // width x (depth + 1), one derivation each
}

// The reversed guarded chain — p{k+1}(X) <- p0(X), p{k}(X), most selective
// atom written LAST — is the join-order showcase: the cost model must
// reorder (pivot-first) and the indexed join must still agree with the
// oracle.
TEST(JoinDifferential, ReversedGuardedChainReordersAndAgrees) {
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeGuardedChainReversed(/*depth=*/5, /*width=*/6);
  FixpointStats stats;
  ExpectModesAgree(p, w.domains.get(), FixpointOptions(),
                   "reversed guarded chain", &stats);
  EXPECT_GT(stats.plan_reorders, 0);
  EXPECT_GT(stats.index_probes, 0);
  View v = Unwrap(Materialize(p, w.domains.get(), FixpointOptions()));
  EXPECT_EQ(v.size(), 6u * 6u);  // width x (depth + 1), one derivation each
}

// Interval facts whose conjunction is empty. The fact constraints cannot
// dissolve into ground head arguments, so the join candidate reaches the
// solver, which refutes it from the two half-ground comparisons: no r atom
// survives and the candidate is counted as pruned.
TEST(JoinDifferential, ContradictoryJoinPruned) {
  TestWorld w = TestWorld::Make();
  Program p;
  auto add_interval_fact = [&p](const char* pred, CmpOp op, int64_t bound) {
    Clause c;
    VarId x = p.factory()->Fresh();
    c.head_pred = pred;
    c.head_args = {Term::Var(x)};
    c.constraint.Add(Primitive::Cmp(Term::Var(x), op, Term::Const(Value(bound))));
    p.AddClause(std::move(c));
  };
  add_interval_fact("p", CmpOp::kGt, 5);
  add_interval_fact("q", CmpOp::kLt, 2);
  {
    Clause c;
    VarId x = p.factory()->Fresh();
    c.head_pred = "r";
    c.head_args = {Term::Var(x)};
    c.body.push_back(BodyAtom{"p", {Term::Var(x)}});
    c.body.push_back(BodyAtom{"q", {Term::Var(x)}});
    p.AddClause(std::move(c));
  }
  FixpointStats stats;
  ExpectModesAgree(p, w.domains.get(), FixpointOptions(),
                   "contradictory interval join", &stats);
  View v = Unwrap(Materialize(p, w.domains.get(), FixpointOptions()));
  EXPECT_TRUE(v.AtomsFor("r").empty());
  EXPECT_GT(stats.unsat_pruned, 0);
}

// Insertion continuations (the InsertBatch path: BuildAdd diffs, then one
// seminaive continuation per flush) must agree between modes too.
void RunContinuationDifferential(DupSemantics semantics, uint64_t seed_base) {
  TestWorld w = TestWorld::Make();
  for (uint64_t seed = seed_base; seed < seed_base + 40; ++seed) {
    Rng rng(seed);
    workload::RandomProgramOptions o = RandomOptions(&rng);
    Program p = workload::MakeRandomProgram(&rng, o);

    std::vector<maint::UpdateAtom> requests;
    int k = static_cast<int>(rng.Int(1, 4));
    for (int i = 0; i < k; ++i) {
      maint::UpdateAtom req;
      req.pred = "base" + std::to_string(rng.Int(0, o.base_preds - 1));
      VarId x = p.factory()->Fresh();
      req.args = {Term::Var(x)};
      req.constraint.Add(Primitive::Eq(
          Term::Var(x), Term::Const(Value(rng.Int(0, o.const_pool + 4)))));
      requests.push_back(std::move(req));
    }

    auto run = [&](JoinMode mode, int threads, maint::InsertStats* stats) {
      FixpointOptions opts;
      opts.semantics = semantics;
      opts.join_mode = mode;
      opts.num_threads = threads;
      View v = Unwrap(Materialize(p, w.domains.get(), opts));
      int ext = 0;
      Status s = maint::InsertBatch(p, &v, requests, w.domains.get(), opts,
                                    stats, &ext);
      EXPECT_TRUE(s.ok()) << s.ToString();
      return v;
    };
    View naive = run(JoinMode::kNaive, 1, nullptr);
    maint::InsertStats seq_stats;
    View indexed = run(JoinMode::kIndexed, 1, &seq_stats);
    EXPECT_EQ(CanonicalAtoms(naive), CanonicalAtoms(indexed))
        << "seed " << seed << "\n"
        << p.ToString();
    if (semantics == DupSemantics::kDuplicate) {  // see ExpectModesAgree
      EXPECT_EQ(Supports(naive), Supports(indexed)) << "seed " << seed;
    }
    // The insertion continuation under the num_threads sweep: the parallel
    // engine replays the sequential append order, so the whole maintained
    // view — supports included, both semantics — and the insertion
    // counters must match the single-threaded run exactly.
    for (int threads : ThreadSweep()) {
      maint::InsertStats par_stats;
      View parallel = run(JoinMode::kIndexed, threads, &par_stats);
      EXPECT_EQ(CanonicalAtoms(indexed), CanonicalAtoms(parallel))
          << "seed " << seed << " num_threads " << threads << "\n"
          << p.ToString();
      EXPECT_EQ(Supports(indexed), Supports(parallel))
          << "seed " << seed << " num_threads " << threads;
      EXPECT_EQ(seq_stats.add_atoms, par_stats.add_atoms);
      EXPECT_EQ(seq_stats.atoms_added, par_stats.atoms_added);
      EXPECT_EQ(seq_stats.unfold_derivations, par_stats.unfold_derivations);
      EXPECT_EQ(seq_stats.index_probes, par_stats.index_probes);
      EXPECT_EQ(seq_stats.ground_rejects, par_stats.ground_rejects);
      EXPECT_EQ(seq_stats.rename_skipped, par_stats.rename_skipped);
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(JoinDifferential, InsertionContinuationsDuplicateSemantics) {
  RunContinuationDifferential(DupSemantics::kDuplicate, 4000);
}

TEST(JoinDifferential, InsertionContinuationsSetSemantics) {
  RunContinuationDifferential(DupSemantics::kSet, 5000);
}

// The BM_Continuation_IntervalChain shape: K non-ground interval atoms
// (lo <= X <= hi plus the arith:between DCA-atom) continue a ground chain,
// and every level of the chain re-derives the same symbolic constraint
// modulo fresh-variable numbering. That is where the indexed run's solver
// memo hits; the naive oracle runs memo-free. Both derive the same view.
TEST(JoinDifferential, IntervalChainContinuationHitsTheMemo) {
  TestWorld w = TestWorld::Make();
  const int depth = 8;
  const int width = 8;
  Program p = workload::MakeChain(depth, width);
  std::vector<ViewAtom> externals;
  for (int i = 0; i < 4; ++i) {
    int64_t lo = width + 1000 + 8 * i;
    int64_t hi = lo + 3;
    ViewAtom a;
    a.pred = "p0";
    VarId x = p.factory()->Fresh();
    a.args = {Term::Var(x)};
    a.constraint.Add(
        Primitive::Cmp(Term::Var(x), CmpOp::kGe, Term::Const(Value(lo))));
    a.constraint.Add(
        Primitive::Cmp(Term::Var(x), CmpOp::kLe, Term::Const(Value(hi))));
    a.constraint.Add(Primitive::In(
        Term::Var(x), DomainCall{"arith", "between",
                                 {Term::Const(Value(lo)),
                                  Term::Const(Value(hi))}}));
    a.support = Support(-1 - i);
    externals.push_back(std::move(a));
  }
  auto run = [&](JoinMode mode, FixpointStats* stats) {
    FixpointOptions opts;
    opts.join_mode = mode;
    View v = Unwrap(Materialize(p, w.domains.get(), opts));
    size_t delta_begin = v.size();
    for (const ViewAtom& a : externals) v.Add(a);
    Status s = ContinueFixpoint(p, &v, w.domains.get(), opts, stats,
                                delta_begin);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return v;
  };
  FixpointStats naive_stats, indexed_stats;
  View naive = run(JoinMode::kNaive, &naive_stats);
  View indexed = run(JoinMode::kIndexed, &indexed_stats);
  EXPECT_EQ(CanonicalAtoms(naive), CanonicalAtoms(indexed));
  EXPECT_EQ(Supports(naive), Supports(indexed));
  EXPECT_EQ(naive_stats.atoms_created, indexed_stats.atoms_created);
  EXPECT_GT(indexed_stats.atoms_created, 0);
  EXPECT_EQ(naive_stats.solver.cache_hits, 0);
  EXPECT_GT(indexed_stats.solver.cache_hits, 0);
}

// The set-semantics dedup and the fast-path derive both rely on SimplifyAtom
// being idempotent: an atom that already went through the simplifier must
// canonicalize identically whether or not the canonical pass simplifies
// again (AddAtom passes assume_simplified=true for derived atoms).
TEST(JoinDifferential, CanonicalAssumeSimplifiedIsConsistent) {
  TestWorld w = TestWorld::Make();
  std::string scratch1, scratch2;
  for (uint64_t seed = 6000; seed < 6030; ++seed) {
    Rng rng(seed);
    Program p = workload::MakeRandomProgram(&rng, RandomOptions(&rng));
    View v = Unwrap(Materialize(p, w.domains.get(), FixpointOptions()));
    for (const ViewAtom& a : v.atoms()) {
      // Engine output is simplified (options.simplify default on); a second
      // simplify must not change the canonical form.
      SimplifiedAtom s = SimplifyAtom(a.args, a.constraint);
      CanonicalKey once = CanonicalAtomKey(a.pred, s.head, s.constraint,
                                           /*assume_simplified=*/true,
                                           &scratch1);
      CanonicalKey full = CanonicalAtomKey(a.pred, a.args, a.constraint,
                                           /*assume_simplified=*/false,
                                           &scratch2);
      EXPECT_EQ(scratch1, scratch2) << a.ToString();
      EXPECT_TRUE(once == full);
      // And the hashed key matches the legacy canonical string.
      EXPECT_EQ(scratch2,
                CanonicalAtomString(a.pred, a.args, a.constraint));
    }
  }
}

// Constraints identical modulo fresh-variable numbering share one solver
// memo entry.
TEST(SolveCacheTest, RenamedConstraintsHitTheMemo) {
  SolveCache cache;
  Solver solver(nullptr);

  Constraint c1;
  c1.Add(Primitive::Eq(Term::Var(3), Term::Const(Value(5))));
  c1.Add(Primitive::Cmp(Term::Var(4), CmpOp::kLe, Term::Var(3)));
  Constraint c2;  // same shape, shifted variable ids
  c2.Add(Primitive::Eq(Term::Var(90), Term::Const(Value(5))));
  c2.Add(Primitive::Cmp(Term::Var(91), CmpOp::kLe, Term::Var(90)));
  Constraint c3;  // different constant: its own entry
  c3.Add(Primitive::Eq(Term::Var(2), Term::Const(Value(6))));
  c3.Add(Primitive::Cmp(Term::Var(1), CmpOp::kLe, Term::Var(2)));

  EXPECT_EQ(cache.Solve(&solver, c1), cache.Solve(&solver, c2));
  EXPECT_EQ(cache.hits(), 1);
  cache.Solve(&solver, c3);
  EXPECT_EQ(cache.hits(), 1);
  cache.Solve(&solver, c3);
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(solver.stats().solve_calls, 2);  // hits never reach the solver
  EXPECT_EQ(cache.size(), 2u);

  // Trivially true/false constraints short-circuit before the memo.
  EXPECT_EQ(cache.Solve(&solver, Constraint::True()), SolveOutcome::kSat);
  EXPECT_EQ(cache.Solve(&solver, Constraint::False()), SolveOutcome::kUnsat);
  EXPECT_EQ(cache.size(), 2u);
}

}  // namespace
}  // namespace mmv
