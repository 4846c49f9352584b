// E3 — incremental insertion (Algorithm 3) vs full recomputation, plus the
// join-pipeline comparison (E10): the same seminaive insertion continuation
// under the naive nested-loop join (the oracle) and the constraint-aware
// indexed join (arg-value probes, incremental unification, rename-free
// fully-ground derivations, solver memo).
//
// Expected shape: InsertAtom's cost tracks the size of the *delta* (the
// inserted atom plus its unfolded consequences), while recompute tracks the
// size of the whole view; the ratio widens with view size. The mode-paired
// cases (trailing arg 0 = naive, 1 = indexed) must derive identical atom
// counts — CI diffs their counters — with the indexed join >= 3x faster on
// the chain continuations at the largest size.

#include "bench_util.h"

#include <chrono>

#include "plan/plan_cache.h"

namespace mmv {
namespace bench {
namespace {

maint::UpdateAtom FreshInsertRequest(Program* p, int value) {
  maint::UpdateAtom req;
  req.pred = "p0";
  VarId x = p->factory()->Fresh();
  req.args = {Term::Var(x)};
  req.constraint.Add(
      Primitive::Eq(Term::Var(x), Term::Const(Value(value))));
  return req;
}

void BM_Insert_Incremental(benchmark::State& state) {
  World w = World::Make();
  Program p = workload::MakeChain(static_cast<int>(state.range(0)),
                                  static_cast<int>(state.range(1)));
  FixpointOptions opts = DefaultOptions();
  plan::PlanCache plans;
  opts.plan_cache = &plans;
  View base = MustMaterialize(p, w.domains.get(), opts);
  // Insert a value outside the existing range.
  maint::UpdateAtom req =
      FreshInsertRequest(&p, static_cast<int>(state.range(1)) + 1000);

  maint::InsertStats stats;
  for (auto _ : state) {
    state.PauseTiming();
    View v = base;
    int ext = 0;
    state.ResumeTiming();
    Status s = maint::InsertAtom(p, &v, req, w.domains.get(), opts, &stats,
                                 &ext);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  }
  state.counters["view_atoms"] = static_cast<double>(base.size());
  state.counters["atoms_added"] = static_cast<double>(stats.atoms_added);
  state.counters["unfold_derivs"] =
      static_cast<double>(stats.unfold_derivations);
  state.counters["index_probes"] = static_cast<double>(stats.index_probes);
  state.counters["ground_rejects"] =
      static_cast<double>(stats.ground_rejects);
  state.counters["rename_skipped"] =
      static_cast<double>(stats.rename_skipped);
  state.counters["solver_cache_hits"] =
      static_cast<double>(stats.unfold_solver.cache_hits);
  View::IndexStats idx = base.index_stats();
  state.counters["index_postings"] = static_cast<double>(idx.postings);
  state.counters["index_support_entries"] =
      static_cast<double>(idx.support_entries);
}

void BM_Insert_Recompute(benchmark::State& state) {
  World w = World::Make();
  Program p = workload::MakeChain(static_cast<int>(state.range(0)),
                                  static_cast<int>(state.range(1)));
  View base = MustMaterialize(p, w.domains.get());
  maint::UpdateAtom req =
      FreshInsertRequest(&p, static_cast<int>(state.range(1)) + 1000);

  for (auto _ : state) {
    Result<View> v =
        maint::RecomputeAfterInsertion(p, req, w.domains.get());
    if (!v.ok()) state.SkipWithError(v.status().ToString().c_str());
    benchmark::DoNotOptimize(v->size());
  }
  state.counters["view_atoms"] = static_cast<double>(base.size());
}

void BM_Insert_Bulk(benchmark::State& state) {
  // A burst of k insertions, maintained incrementally.
  World w = World::Make();
  Program p = workload::MakeChain(8, 8);
  FixpointOptions opts = DefaultOptions();
  plan::PlanCache plans;
  opts.plan_cache = &plans;
  View base = MustMaterialize(p, w.domains.get(), opts);
  int k = static_cast<int>(state.range(0));

  for (auto _ : state) {
    state.PauseTiming();
    View v = base;
    int ext = 0;
    state.ResumeTiming();
    for (int i = 0; i < k; ++i) {
      maint::UpdateAtom req = FreshInsertRequest(&p, 1000 + i);
      Status s = maint::InsertAtom(p, &v, req, w.domains.get(), opts, nullptr,
                                   &ext);
      if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    }
    benchmark::DoNotOptimize(v.size());
  }
  state.counters["insertions"] = k;
}

// ---- join-pipeline comparison (mode-paired cases) -------------------------

// Appends K external ground facts of \p pred to the view (bypassing the
// BuildAdd diff so the timed region isolates the join) and returns the
// pre-append size to continue from.
size_t AppendExternals(View* v, const std::string& pred, int first_value,
                       int k, int* ext_counter) {
  size_t delta_begin = v->size();
  for (int i = 0; i < k; ++i) {
    ViewAtom a;
    a.pred = pred;
    a.args = {Term::Const(Value(first_value + i))};
    a.support = Support(--(*ext_counter));
    v->Add(std::move(a));
  }
  return delta_begin;
}

// One seminaive continuation over a K-fact delta of a ground chain: every
// derivation is fully ground, the regime where the indexed join's
// rename-free fast path pays. {depth, width, K, mode}.
void BM_Continuation_Chain(benchmark::State& state) {
  World w = World::Make();
  Program p = workload::MakeChain(static_cast<int>(state.range(0)),
                                  static_cast<int>(state.range(1)));
  FixpointOptions opts = DefaultOptions();
  opts.join_mode = ModeArg(state.range(3));
  plan::PlanCache plans;
  opts.plan_cache = &plans;
  View base = MustMaterialize(p, w.domains.get(), opts);
  int k = static_cast<int>(state.range(2));

  FixpointStats fs;
  size_t added = 0;
  for (auto _ : state) {
    state.PauseTiming();
    View v = base;
    int ext = 0;
    size_t delta_begin = AppendExternals(
        &v, "p0", static_cast<int>(state.range(1)) + 1000, k, &ext);
    fs = FixpointStats();
    state.ResumeTiming();
    Status s = ContinueFixpoint(p, &v, w.domains.get(), opts, &fs,
                                delta_begin);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    added = v.size() - base.size();
    benchmark::DoNotOptimize(added);
  }
  state.counters["atoms_added"] = static_cast<double>(added);
  ExportJoinCounters(state, fs);
}

// The same continuation over a chain, but the K inserted facts are
// NON-GROUND interval atoms (lo <= X <= hi plus the integral DCA-atom):
// every level of the chain re-derives the same symbolic constraint, so the
// indexed run's canonical-form memo answers most of its solves
// (solver_cache_hits); solve_calls counts only the solves that reach the
// solver. The naive oracle runs memo-free. {depth, width, K, mode}.
void BM_Continuation_IntervalChain(benchmark::State& state) {
  World w = World::Make();
  int depth = static_cast<int>(state.range(0));
  int width = static_cast<int>(state.range(1));
  Program p = workload::MakeChain(depth, width);
  FixpointOptions opts = DefaultOptions();
  opts.join_mode = ModeArg(state.range(3));
  plan::PlanCache plans;
  opts.plan_cache = &plans;
  View base = MustMaterialize(p, w.domains.get(), opts);
  int k = static_cast<int>(state.range(2));

  // K disjoint interval atoms beyond the ground range, built once.
  std::vector<ViewAtom> externals;
  for (int i = 0; i < k; ++i) {
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
    DomainCall call;
    call.domain = "arith";
    call.function = "between";
    call.args = {Term::Const(Value(lo)), Term::Const(Value(hi))};
    a.constraint.Add(Primitive::In(Term::Var(x), std::move(call)));
    a.support = Support(-1 - i);
    externals.push_back(std::move(a));
  }

  FixpointStats fs;
  size_t added = 0;
  for (auto _ : state) {
    state.PauseTiming();
    View v = base;
    size_t delta_begin = v.size();
    for (const ViewAtom& a : externals) v.Add(a);
    fs = FixpointStats();
    state.ResumeTiming();
    Status s = ContinueFixpoint(p, &v, w.domains.get(), opts, &fs,
                                delta_begin);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    added = v.size() - base.size();
    benchmark::DoNotOptimize(added);
  }
  state.counters["atoms_added"] = static_cast<double>(added);
  state.counters["solve_calls"] =
      static_cast<double>(fs.solver.solve_calls);
  ExportJoinCounters(state, fs);
}

// Transitive-closure edge insertion: the recursive path rule joins the new
// edge against every path atom; the indexed join probes the arg-value
// bucket for the bound join position where the oracle scans the whole
// predicate and rejects via the solver. {n, mode}.
void BM_Continuation_TransitiveClosure(benchmark::State& state) {
  World w = World::Make();
  int n = static_cast<int>(state.range(0));
  Program p = workload::MakeTransitiveClosure(workload::ChainEdges(n));
  FixpointOptions opts = DefaultOptions();
  opts.join_mode = ModeArg(state.range(1));
  plan::PlanCache plans;
  opts.plan_cache = &plans;
  View base = MustMaterialize(p, w.domains.get(), opts);

  FixpointStats fs;
  size_t added = 0;
  for (auto _ : state) {
    state.PauseTiming();
    View v = base;
    size_t delta_begin = v.size();
    {  // the new edge e(n-1, n), appended as an external fact
      ViewAtom a;
      a.pred = "e";
      a.args = {Term::Const(Value(n - 1)), Term::Const(Value(n))};
      a.support = Support(-1);
      v.Add(std::move(a));
    }
    fs = FixpointStats();
    state.ResumeTiming();
    Status s = ContinueFixpoint(p, &v, w.domains.get(), opts, &fs,
                                delta_begin);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    added = v.size() - base.size();
    benchmark::DoNotOptimize(added);
  }
  state.counters["atoms_added"] = static_cast<double>(added);
  ExportJoinCounters(state, fs);
}

// A guarded chain — p{k+1}(X) <- p{k}(X), p0(X): every level re-joins the
// delta against the base relation. The oracle enumerates |delta| x |p0|
// candidates per level and lets the solver reject the mismatches; the
// indexed join probes the p0 bucket for the already-bound X, visiting one
// candidate. This is the sideways-information-passing case the pipeline
// exists for. {depth, width, K, mode}.
void BM_Continuation_GuardedChain(benchmark::State& state) {
  World w = World::Make();
  Program p = workload::MakeGuardedChain(static_cast<int>(state.range(0)),
                                         static_cast<int>(state.range(1)));
  FixpointOptions opts = DefaultOptions();
  opts.join_mode = ModeArg(state.range(3));
  plan::PlanCache plans;
  opts.plan_cache = &plans;
  View base = MustMaterialize(p, w.domains.get(), opts);
  int k = static_cast<int>(state.range(2));

  FixpointStats fs;
  size_t added = 0;
  for (auto _ : state) {
    state.PauseTiming();
    View v = base;
    int ext = 0;
    size_t delta_begin = AppendExternals(
        &v, "p0", static_cast<int>(state.range(1)) + 1000, k, &ext);
    fs = FixpointStats();
    state.ResumeTiming();
    Status s = ContinueFixpoint(p, &v, w.domains.get(), opts, &fs,
                                delta_begin);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    added = v.size() - base.size();
    benchmark::DoNotOptimize(added);
  }
  state.counters["atoms_added"] = static_cast<double>(added);
  ExportJoinCounters(state, fs);
}

// The guarded chain with the guard written FIRST — p{k+1}(X) <- p0(X),
// p{k}(X): the most selective body atom (the seminaive delta) is textually
// last, so this is the one case whose compiled plans really reorder the
// body. The indexed join (trailing arg 1) runs the delta atom first and
// probes p0's bucket per binding, exactly like the forward-written chain;
// the naive oracle (trailing arg 0) enumerates the written order's cross
// product. Its atom counters must match across the pair (CI diffs them).
// {depth, width, K, mode}.
void BM_Continuation_GuardedChainReversed(benchmark::State& state) {
  World w = World::Make();
  Program p = workload::MakeGuardedChainReversed(
      static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  FixpointOptions opts = DefaultOptions();
  opts.join_mode = ModeArg(state.range(3));
  plan::PlanCache plans;
  opts.plan_cache = &plans;
  View base = MustMaterialize(p, w.domains.get(), opts);
  int k = static_cast<int>(state.range(2));

  FixpointStats fs;
  size_t added = 0;
  // Manual timing: the untimed per-iteration view copy is large here (the
  // wide base relation dominates the view), and Pause/Resume accounting
  // noise would swamp the continuation being measured.
  for (auto _ : state) {
    View v = base;
    int ext = 0;
    size_t delta_begin = AppendExternals(
        &v, "p0", static_cast<int>(state.range(1)) + 1000, k, &ext);
    fs = FixpointStats();
    auto start = std::chrono::steady_clock::now();
    Status s = ContinueFixpoint(p, &v, w.domains.get(), opts, &fs,
                                delta_begin);
    auto end = std::chrono::steady_clock::now();
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
    added = v.size() - base.size();
    benchmark::DoNotOptimize(added);
  }
  state.counters["atoms_added"] = static_cast<double>(added);
  ExportJoinCounters(state, fs);
}

// Eight independent guarded chains fed K round-robin deltas: many clauses
// with small pivot windows, none large enough to shard, so with T threads
// every pivot still runs inline and the pair should cost the same — the
// check that threads never lose on small rounds. Thread-paired: trailing
// arg 0 = 1 thread (the sequential engine), 1 = every hardware thread;
// the derived-atom counters must match across the pair byte for byte (CI
// diffs them). {depth, width, K, threads flag}.
void BM_Continuation_GuardedMultiChain(benchmark::State& state) {
  World w = World::Make();
  const int chains = 8;
  int depth = static_cast<int>(state.range(0));
  int width = static_cast<int>(state.range(1));
  int k = static_cast<int>(state.range(2));
  Program p = workload::MakeGuardedMultiChain(chains, depth, width);
  FixpointOptions opts = DefaultOptions();
  opts.join_mode = JoinMode::kIndexed;
  opts.num_threads = ThreadsArg(state.range(3));
  plan::PlanCache plans;
  opts.plan_cache = &plans;
  View base = MustMaterialize(p, w.domains.get(), opts);

  FixpointStats fs;
  size_t added = 0;
  // Manual timing, like the reversed chain: the untimed per-iteration view
  // copy dominates wall time here and Pause/Resume accounting noise would
  // swamp the continuation being measured.
  for (auto _ : state) {
    View v = base;
    size_t delta_begin = v.size();
    int ext = 0;
    // K fresh externals, round-robin across the chains: every chain gets a
    // delta, so every chain's clause group has work each round.
    for (int i = 0; i < k; ++i) {
      ViewAtom a;
      a.pred = "c" + std::to_string(i % chains) + "_p0";
      a.args = {Term::Const(Value(width + 1000 + i / chains))};
      a.support = Support(--ext);
      v.Add(std::move(a));
    }
    fs = FixpointStats();
    auto start = std::chrono::steady_clock::now();
    Status s = ContinueFixpoint(p, &v, w.domains.get(), opts, &fs,
                                delta_begin);
    auto end = std::chrono::steady_clock::now();
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
    added = v.size() - base.size();
    benchmark::DoNotOptimize(added);
  }
  state.counters["atoms_added"] = static_cast<double>(added);
  state.counters["threads"] = static_cast<double>(opts.num_threads);
  ExportJoinCounters(state, fs);
}

// Transitive closure with a DCA-guarded recursive clause — ONE recursive
// predicate, so the whole program is a single SCC: any speedup here comes
// from sharding its large pivot window. The K delta edges e(n+j, 0) all
// land in one frozen pivot window of the recursive clause, which the
// engine shards across workers; the arith guard makes each candidate pay
// a real solver + domain evaluation on the worker, the regime sharding is
// for. Thread-paired like GuardedMultiChain: trailing arg 0 = 1 thread,
// 1 = every hardware thread, and the derived-atom counters must match
// across the pair byte for byte (CI diffs them; partitions_run shows how
// many shards actually ran). {n, K, threads flag}.
void BM_Continuation_TransitiveClosureThreads(benchmark::State& state) {
  World w = World::Make();
  int n = static_cast<int>(state.range(0));
  int k = static_cast<int>(state.range(1));
  Program p;
  for (int i = 0; i + 1 < n; ++i) {  // the chain edges e(i, i+1)
    Clause c;
    c.head_pred = "e";
    VarId x = p.factory()->Fresh(), y = p.factory()->Fresh();
    c.head_args = {Term::Var(x), Term::Var(y)};
    c.constraint.Add(Primitive::Eq(Term::Var(x), Term::Const(Value(i))));
    c.constraint.Add(
        Primitive::Eq(Term::Var(y), Term::Const(Value(i + 1))));
    p.AddClause(std::move(c));
  }
  {  // path(X,Y) <- e(X,Y)
    Clause c;
    VarId x = p.factory()->Fresh(), y = p.factory()->Fresh();
    c.head_pred = "path";
    c.head_args = {Term::Var(x), Term::Var(y)};
    c.body.push_back(BodyAtom{"e", {Term::Var(x), Term::Var(y)}});
    p.AddClause(std::move(c));
  }
  {  // path(X,Y) <- in(S, arith:plus(X,Y)) || e(X,Z), path(Z,Y)
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
  FixpointOptions opts = DefaultOptions();
  opts.join_mode = JoinMode::kIndexed;
  opts.num_threads = ThreadsArg(state.range(2));
  plan::PlanCache plans;
  opts.plan_cache = &plans;
  View base = MustMaterialize(p, w.domains.get(), opts);

  FixpointStats fs;
  size_t added = 0;
  // Manual timing: the per-iteration copy of the closed view (O(n^2) path
  // atoms) is setup, not the continuation being measured.
  for (auto _ : state) {
    View v = base;
    size_t delta_begin = v.size();
    int ext = 0;
    // K fresh-source edges into node 0: each joins path(0, *) in round
    // one, so the recursive clause sees a single K-atom pivot window
    // fanning out to K * (n-1) guarded derivations.
    for (int j = 0; j < k; ++j) {
      ViewAtom a;
      a.pred = "e";
      a.args = {Term::Const(Value(n + j)), Term::Const(Value(0))};
      a.support = Support(--ext);
      v.Add(std::move(a));
    }
    fs = FixpointStats();
    auto start = std::chrono::steady_clock::now();
    Status s = ContinueFixpoint(p, &v, w.domains.get(), opts, &fs,
                                delta_begin);
    auto end = std::chrono::steady_clock::now();
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
    added = v.size() - base.size();
    benchmark::DoNotOptimize(added);
  }
  state.counters["atoms_added"] = static_cast<double>(added);
  state.counters["threads"] = static_cast<double>(opts.num_threads);
  ExportJoinCounters(state, fs);
}

// A record chain: the same propagation shape as BM_Continuation_Chain but
// with arity-3 atoms (id, attr, attr) — the realistic mediated-view case
// where view atoms are records, not bare keys. Every extra column widens
// the rename/substitution/simplify work the oracle pays per derivation
// while the indexed fast path just copies constants. {depth, width, K, mode}.
void BM_Continuation_RecordChain(benchmark::State& state) {
  World w = World::Make();
  int depth = static_cast<int>(state.range(0));
  int width = static_cast<int>(state.range(1));
  Program p;
  for (int i = 0; i < width; ++i) {
    Clause c;
    c.head_pred = "r0";
    VarId x = p.factory()->Fresh(), y = p.factory()->Fresh(),
          z = p.factory()->Fresh();
    c.head_args = {Term::Var(x), Term::Var(y), Term::Var(z)};
    c.constraint.Add(Primitive::Eq(Term::Var(x), Term::Const(Value(i))));
    c.constraint.Add(Primitive::Eq(Term::Var(y), Term::Const(Value(i + 1))));
    c.constraint.Add(
        Primitive::Eq(Term::Var(z), Term::Const(Value(2 * i))));
    p.AddClause(std::move(c));
  }
  for (int kk = 0; kk < depth; ++kk) {
    Clause c;
    VarId x = p.factory()->Fresh(), y = p.factory()->Fresh(),
          z = p.factory()->Fresh();
    c.head_pred = "r" + std::to_string(kk + 1);
    c.head_args = {Term::Var(x), Term::Var(y), Term::Var(z)};
    c.body.push_back(BodyAtom{
        "r" + std::to_string(kk), {Term::Var(x), Term::Var(y), Term::Var(z)}});
    p.AddClause(std::move(c));
  }
  FixpointOptions opts = DefaultOptions();
  opts.join_mode = ModeArg(state.range(3));
  plan::PlanCache plans;
  opts.plan_cache = &plans;
  View base = MustMaterialize(p, w.domains.get(), opts);
  int k = static_cast<int>(state.range(2));

  FixpointStats fs;
  size_t added = 0;
  for (auto _ : state) {
    state.PauseTiming();
    View v = base;
    size_t delta_begin = v.size();
    int ext = 0;
    for (int i = 0; i < k; ++i) {
      ViewAtom a;
      a.pred = "r0";
      a.args = {Term::Const(Value(width + 1000 + i)),
                Term::Const(Value(width + 1001 + i)),
                Term::Const(Value(2 * (width + 1000 + i)))};
      a.support = Support(--ext);
      v.Add(std::move(a));
    }
    fs = FixpointStats();
    state.ResumeTiming();
    Status s = ContinueFixpoint(p, &v, w.domains.get(), opts, &fs,
                                delta_begin);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    added = v.size() - base.size();
    benchmark::DoNotOptimize(added);
  }
  state.counters["atoms_added"] = static_cast<double>(added);
  ExportJoinCounters(state, fs);
}

// Reciprocal join over a star graph: base edges e(j, 0) into the hub, a
// delta of K out-edges e(0, j), and sym(X,Y) <- e(X,Y) & e(Y,X). Probing
// the second body atom's position 0 returns the whole delta bucket; its
// position 1 must then match the bound X, so incremental unification
// rejects K-1 of K candidates mid-join where the oracle assembles and
// solves every pair. {m, mode}.
void BM_Continuation_ReciprocalStar(benchmark::State& state) {
  World w = World::Make();
  int m = static_cast<int>(state.range(0));
  Program p;
  for (int j = 1; j <= m; ++j) {
    Clause c;
    c.head_pred = "e";
    VarId x = p.factory()->Fresh(), y = p.factory()->Fresh();
    c.head_args = {Term::Var(x), Term::Var(y)};
    c.constraint.Add(Primitive::Eq(Term::Var(x), Term::Const(Value(j))));
    c.constraint.Add(Primitive::Eq(Term::Var(y), Term::Const(Value(0))));
    p.AddClause(std::move(c));
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
  FixpointOptions opts = DefaultOptions();
  opts.join_mode = ModeArg(state.range(1));
  plan::PlanCache plans;
  opts.plan_cache = &plans;
  View base = MustMaterialize(p, w.domains.get(), opts);

  FixpointStats fs;
  size_t added = 0;
  for (auto _ : state) {
    state.PauseTiming();
    View v = base;
    size_t delta_begin = v.size();
    int ext = 0;
    for (int j = 1; j <= m; ++j) {  // the K out-edges e(0, j)
      ViewAtom a;
      a.pred = "e";
      a.args = {Term::Const(Value(0)), Term::Const(Value(j))};
      a.support = Support(--ext);
      v.Add(std::move(a));
    }
    fs = FixpointStats();
    state.ResumeTiming();
    Status s = ContinueFixpoint(p, &v, w.domains.get(), opts, &fs,
                                delta_begin);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    added = v.size() - base.size();
    benchmark::DoNotOptimize(added);
  }
  state.counters["atoms_added"] = static_cast<double>(added);
  ExportJoinCounters(state, fs);
}

void InsertArgs(benchmark::internal::Benchmark* b) {
  b->Args({8, 8})->Args({16, 16})->Args({24, 32})->Unit(
      benchmark::kMillisecond);
}

void ContinuationArgs(benchmark::internal::Benchmark* b) {
  // {depth, width, K, mode}; mode 0 = naive oracle, 1 = indexed.
  for (int64_t mode : {0, 1}) {
    b->Args({8, 8, 8, mode})
        ->Args({16, 32, 32, mode})
        ->Args({24, 64, 64, mode});
  }
  b->Unit(benchmark::kMillisecond);
}

void IntervalContinuationArgs(benchmark::internal::Benchmark* b) {
  for (int64_t mode : {0, 1}) {
    b->Args({8, 8, 4, mode})->Args({24, 16, 16, mode});
  }
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_Insert_Incremental)->Apply(InsertArgs);
BENCHMARK(BM_Insert_Recompute)->Apply(InsertArgs);
BENCHMARK(BM_Insert_Bulk)->Arg(1)->Arg(4)->Arg(16)->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_Continuation_Chain)->Apply(ContinuationArgs);
BENCHMARK(BM_Continuation_RecordChain)->Apply(ContinuationArgs);
BENCHMARK(BM_Continuation_GuardedChain)
    ->Args({8, 8, 8, 0})
    ->Args({8, 8, 8, 1})
    ->Args({12, 16, 16, 0})
    ->Args({12, 16, 16, 1})
    ->Args({16, 32, 32, 0})
    ->Args({16, 32, 32, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Continuation_GuardedChainReversed)
    ->Args({8, 8, 8, 0})
    ->Args({8, 8, 8, 1})
    ->Args({12, 256, 8, 0})
    ->Args({12, 256, 8, 1})
    ->Args({16, 1024, 8, 0})
    ->Args({16, 1024, 8, 1})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Continuation_GuardedMultiChain)
    ->Args({8, 16, 16, 0})
    ->Args({8, 16, 16, 1})
    ->Args({12, 64, 32, 0})
    ->Args({12, 64, 32, 1})
    ->Args({16, 256, 64, 0})
    ->Args({16, 256, 64, 1})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Continuation_IntervalChain)->Apply(IntervalContinuationArgs);
BENCHMARK(BM_Continuation_TransitiveClosureThreads)
    ->Args({64, 512, 0})
    ->Args({64, 512, 1})
    ->Args({128, 512, 0})
    ->Args({128, 512, 1})
    ->Args({256, 512, 0})
    ->Args({256, 512, 1})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Continuation_TransitiveClosure)
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Continuation_ReciprocalStar)
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({96, 0})
    ->Args({96, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace mmv
