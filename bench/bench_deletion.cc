// E1 — deletion algorithms head to head (paper Section 3.1, Conclusion):
//   StDel (Algorithm 2)      — support-indexed, no rederivation
//   Extended DRed (Algorithm 1) — overdelete + rederive
//   full recompute            — the non-incremental baseline
//
// Expected shape: StDel < DRed < recompute, with the gap growing in view
// size; DRed's disadvantage concentrates in the rederivation phase (see
// bench_dred_ablation for the split).

#include "bench_util.h"

namespace mmv {
namespace bench {
namespace {

enum Shape { kChain = 0, kDiamond = 1, kTc = 2, kMultiChain = 3 };

Program MakeShape(int shape, int depth, int width) {
  switch (shape) {
    case kChain:
      return workload::MakeChain(depth, width);
    case kDiamond:
      return workload::MakeDiamond(depth, width);
    case kMultiChain:
      // depth doubles as the chain count; one chain is affected, the rest
      // is ballast that incremental algorithms must not touch.
      return workload::MakeMultiChain(depth, 6, width);
    default:
      return workload::MakeTransitiveClosure(workload::ChainEdges(width));
  }
}

maint::UpdateAtom MakeRequest(Program& p, int shape) {
  if (shape == kTc) {
    auto parsed = parser::ParseConstrainedAtom("e(X, Y) <- X = 1 & Y = 2.",
                                               &p);
    return maint::UpdateAtom{parsed->pred, parsed->args, parsed->constraint};
  }
  return workload::DeleteFactRequest(p, 0);
}

void BM_Delete_StDel(benchmark::State& state) {
  World w = World::Make();
  Program p = MakeShape(static_cast<int>(state.range(0)),
                        static_cast<int>(state.range(1)),
                        static_cast<int>(state.range(2)));
  View base = MustMaterialize(p, w.domains.get());
  maint::UpdateAtom req = MakeRequest(p, static_cast<int>(state.range(0)));

  maint::StDelStats stats;
  for (auto _ : state) {
    state.PauseTiming();
    View v = base;
    state.ResumeTiming();
    Status s = maint::DeleteStDel(p, &v, req, w.domains.get(), {}, &stats);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  }
  state.counters["view_atoms"] = static_cast<double>(base.size());
  state.counters["replacements"] = static_cast<double>(stats.replacements);
  state.counters["removed"] = static_cast<double>(stats.removed_unsolvable);
  state.counters["rederivations"] = 0;  // StDel never rederives
  View::IndexStats idx = base.index_stats();
  state.counters["index_postings"] = static_cast<double>(idx.postings);
  state.counters["index_child_entries"] =
      static_cast<double>(idx.child_entries);
}

void BM_Delete_DRed(benchmark::State& state) {
  World w = World::Make();
  Program p = MakeShape(static_cast<int>(state.range(0)),
                        static_cast<int>(state.range(1)),
                        static_cast<int>(state.range(2)));
  FixpointOptions opts = SetSemantics();
  View base = MustMaterialize(p, w.domains.get(), opts);
  maint::UpdateAtom req = MakeRequest(p, static_cast<int>(state.range(0)));

  maint::DRedStats stats;
  for (auto _ : state) {
    Result<View> v =
        maint::DeleteDRed(p, base, req, w.domains.get(), opts, &stats);
    if (!v.ok()) state.SkipWithError(v.status().ToString().c_str());
    benchmark::DoNotOptimize(v->size());
  }
  state.counters["view_atoms"] = static_cast<double>(base.size());
  state.counters["pout_atoms"] = static_cast<double>(stats.pout_atoms);
  state.counters["rederivations"] =
      static_cast<double>(stats.rederive_derivations);
}

void BM_Delete_Recompute(benchmark::State& state) {
  World w = World::Make();
  Program p = MakeShape(static_cast<int>(state.range(0)),
                        static_cast<int>(state.range(1)),
                        static_cast<int>(state.range(2)));
  View base = MustMaterialize(p, w.domains.get());
  maint::UpdateAtom req = MakeRequest(p, static_cast<int>(state.range(0)));

  for (auto _ : state) {
    Result<View> v =
        maint::RecomputeAfterDeletion(p, req, w.domains.get());
    if (!v.ok()) state.SkipWithError(v.status().ToString().c_str());
    benchmark::DoNotOptimize(v->size());
  }
  state.counters["view_atoms"] = static_cast<double>(base.size());
}

void DeletionArgs(benchmark::internal::Benchmark* b) {
  // {shape, depth, width}
  b->Args({kChain, 8, 8})
      ->Args({kChain, 16, 16})
      ->Args({kChain, 24, 32})
      ->Args({kDiamond, 4, 8})
      ->Args({kDiamond, 8, 16})
      ->Args({kTc, 0, 8})
      ->Args({kTc, 0, 12})
      ->Args({kMultiChain, 8, 8})
      ->Args({kMultiChain, 16, 8})
      // Report-only ballast row: 63 of 64 chains are untouched, so an
      // incremental pass that costs what it touches stays flat here.
      ->Args({kMultiChain, 64, 8})
      ->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_Delete_StDel)->Apply(DeletionArgs);
BENCHMARK(BM_Delete_DRed)->Apply(DeletionArgs);
BENCHMARK(BM_Delete_Recompute)->Apply(DeletionArgs);

}  // namespace
}  // namespace bench
}  // namespace mmv
