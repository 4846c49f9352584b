// Unit tests for the clause-plan compilation layer: the cost model's
// ordering on hand-built clauses, plan-cache lifetime (program-identity
// invalidation) and its determinism contract, the evaluator state epoch,
// and the loud-failure engine-option parsing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "maintenance/batch.h"
#include "plan/plan_cache.h"
#include "test_util.h"
#include "workload/generators.h"

namespace mmv {
namespace {

using testutil::CanonicalState;
using testutil::ParseOrDie;
using testutil::ParseUpdate;
using testutil::TestWorld;
using testutil::Unwrap;

std::vector<int> Order(const plan::ClausePlan& plan, size_t pivot) {
  std::vector<int> out;
  for (const plan::PlanStep& s : plan.order(pivot).steps) {
    out.push_back(static_cast<int>(s.decl_pos));
  }
  return out;
}

// Hand-written clause shapes plus the generators' rule shapes: chains,
// constants, ties, repeated predicates, wide bodies.
std::vector<Program> PlanShapes() {
  std::vector<Program> programs;
  programs.push_back(ParseOrDie(
      "h(X, Z) <- true || a(X), b(X, Y), c(Y, Z).\n"
      "h(X, Y) <- true || p(X, Y), q(X), r(5, Y).\n"
      "h(X, X) <- true || a(X), b(X, X), c(X, 3), d(3).\n"
      "g(X, Y) <- X != 3 || e(X, Y), e(Y, X).\n"
      "g(X, W) <- true || w(X, Y, Z, W), a(Z), b(Y, 7), c(W, X)."));
  programs.push_back(workload::MakeGuardedChain(4, 3));
  programs.push_back(workload::MakeGuardedChainReversed(4, 3));
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    workload::RandomProgramOptions o;
    o.max_body = 3;
    o.derived_preds = 2;
    programs.push_back(workload::MakeRandomProgram(&rng, o));
  }
  return programs;
}

// ---- cost model ordering --------------------------------------------------

TEST(ClausePlanTest, PivotRunsFirstThenBoundAtoms) {
  // h(X,Z) <- a(X), b(X,Y), c(Y,Z): a chain of bindings. Whatever the
  // pivot, the plan must run it first and then follow the binding
  // chain (each next atom shares a variable with an already-run one).
  Program p = ParseOrDie("h(X, Z) <- true || a(X), b(X, Y), c(Y, Z).");
  const Clause& c = p.clauses()[0];
  plan::ClausePlan plan = plan::CompileClause(c);
  EXPECT_TRUE(plan.reordered);
  EXPECT_EQ(Order(plan, 0), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(Order(plan, 1), (std::vector<int>{1, 0, 2}));  // a, c tie: decl
  EXPECT_EQ(Order(plan, 2), (std::vector<int>{2, 1, 0}));  // follow Y then X
}

TEST(ClausePlanTest, ConstantsOutweighBoundVariables) {
  // h(X,Y) <- p(X,Y), q(X), r(5,Y): after the pivot p both X and Y are
  // bound; r's constant plus bound Y (score 3) must beat q's bound X
  // (score 1).
  Program p = ParseOrDie("h(X, Y) <- true || p(X, Y), q(X), r(5, Y).");
  plan::ClausePlan plan = plan::CompileClause(p.clauses()[0]);
  EXPECT_EQ(Order(plan, 0), (std::vector<int>{0, 2, 1}));
}

// The invariant the engine's sharding relies on (clause_plan.h): order p
// starts at body position p, and is a permutation of the body.
TEST(ClausePlanTest, EveryOrderStartsAtItsPivot) {
  size_t checked = 0;
  for (const Program& p : PlanShapes()) {
    for (const Clause& c : p.clauses()) {
      plan::ClausePlan plan = plan::CompileClause(c);
      ASSERT_EQ(plan.orders.size(), c.body.size()) << c.ToString();
      for (size_t pivot = 0; pivot < c.body.size(); ++pivot) {
        std::vector<int> order = Order(plan, pivot);
        ASSERT_EQ(order.size(), c.body.size()) << c.ToString();
        EXPECT_EQ(order.front(), static_cast<int>(pivot)) << c.ToString();
        std::vector<int> sorted = order;
        std::sort(sorted.begin(), sorted.end());
        for (size_t i = 0; i < sorted.size(); ++i) {
          EXPECT_EQ(sorted[i], static_cast<int>(i)) << c.ToString();
        }
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 50u);
}

TEST(ClausePlanTest, ProbePositionsCoverConstantsAndBoundSlots) {
  // h(X) <- wide(X, Y), sel(X, 7): when sel runs second, BOTH its
  // positions are probe candidates — X is bound by wide, 7 is a constant.
  Program p = ParseOrDie("h(X) <- true || wide(X, Y), sel(X, 7).");
  plan::ClausePlan plan = plan::CompileClause(p.clauses()[0]);
  const plan::PlanStep& second = plan.orders[0].steps[1];
  EXPECT_EQ(second.decl_pos, 1);
  EXPECT_EQ(second.probe_positions, (std::vector<uint16_t>{0, 1}));
  // The first step has nothing ground yet: no probe candidates.
  EXPECT_TRUE(plan.orders[0].steps[0].probe_positions.empty());
}

TEST(ClausePlanTest, ClauseVarsMatchVariablesAndRenameWithAgrees) {
  Program p =
      ParseOrDie("h(X, Z) <- X != 3 || a(X), b(X, Y), c(Y, Z).");
  const Clause& c = p.clauses()[0];
  plan::ClausePlan plan = plan::CompileClause(c);
  EXPECT_EQ(plan.clause_vars, c.Variables());
  VarFactory f1, f2;
  EXPECT_EQ(c.Rename(&f1).ToString(),
            c.RenameWith(plan.clause_vars, &f2).ToString());
  EXPECT_EQ(f1.issued(), f2.issued());
}

// ---- plan cache -----------------------------------------------------------

TEST(PlanCacheTest, CachesPerClauseAndCountsHits) {
  Program p = ParseOrDie(
      "h(X) <- true || a(X), b(X).\n"
      "g(X) <- true || h(X), a(X).");
  plan::PlanCache cache;
  auto plan1 = cache.PlanFor(p, p.clauses()[0]);
  auto plan1_again = cache.PlanFor(p, p.clauses()[0]);
  EXPECT_EQ(plan1.get(), plan1_again.get());
  EXPECT_EQ(cache.stats().compiles, 1);
  EXPECT_EQ(cache.stats().cache_hits, 1);
  cache.PlanFor(p, p.clauses()[1]);
  EXPECT_EQ(cache.stats().compiles, 2);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheTest, FlushesWhenHandedADifferentProgram) {
  Program a = ParseOrDie("h(X) <- true || a(X), b(X).");
  Program b = a;  // copies take a fresh identity
  EXPECT_NE(a.id(), b.id());
  plan::PlanCache cache;
  cache.PlanFor(a, a.clauses()[0]);
  EXPECT_EQ(cache.size(), 1u);
  cache.PlanFor(b, b.clauses()[0]);
  EXPECT_EQ(cache.stats().invalidations, 1);
  EXPECT_EQ(cache.size(), 1u);  // repopulated for b
  // Moves carry the identity: no flush when the same program moves.
  Program c = std::move(b);
  cache.PlanFor(c, c.clauses()[0]);
  EXPECT_EQ(cache.stats().invalidations, 1);
  EXPECT_EQ(cache.stats().cache_hits, 1);
}

// ---- engine integration ---------------------------------------------------

// A shared plan cache threaded through FixpointOptions survives across
// materializations of the same program (hits on the second run) and
// flushes for a different program.
TEST(PlanCacheTest, SharedAcrossEngineRuns) {
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeGuardedChain(4, 4);
  plan::PlanCache shared;
  FixpointOptions opts;
  opts.plan_cache = &shared;
  FixpointStats first, second;
  Unwrap(Materialize(p, w.domains.get(), opts, &first));
  int64_t compiles_after_first = shared.stats().compiles;
  EXPECT_GT(compiles_after_first, 0);
  Unwrap(Materialize(p, w.domains.get(), opts, &second));
  EXPECT_EQ(shared.stats().compiles, compiles_after_first)
      << "second run must not recompile";
  EXPECT_GT(second.plan_cache_hits, first.plan_cache_hits);
}

// The determinism contract (plan_cache.h): a plan depends only on its
// clause, so cache history never changes a result. Set semantics is the
// sharp probe — the support it retains for a deduped atom follows
// enumeration order — so two runs through one shared cache and a run
// through a fresh cache must agree on every (atom, support) pair.
TEST(PlanCacheTest, SharedCacheHistoryNeverChangesSetSemanticsResults) {
  TestWorld w = TestWorld::Make();
  for (const Program& p : PlanShapes()) {
    FixpointOptions opts;
    opts.semantics = DupSemantics::kSet;
    opts.max_atoms = 50'000;
    plan::PlanCache shared;
    opts.plan_cache = &shared;
    View first = Unwrap(Materialize(p, w.domains.get(), opts));
    int64_t compiles = shared.stats().compiles;
    View second = Unwrap(Materialize(p, w.domains.get(), opts));
    plan::PlanCache fresh_cache;
    opts.plan_cache = &fresh_cache;
    View fresh = Unwrap(Materialize(p, w.domains.get(), opts));

    std::string trace = p.ToString();
    EXPECT_EQ(CanonicalState(first), CanonicalState(second)) << trace;
    EXPECT_EQ(CanonicalState(first), CanonicalState(fresh)) << trace;
    // The second run really ran on the first run's plans.
    EXPECT_EQ(shared.stats().compiles, compiles) << trace;
    if (::testing::Test::HasFailure()) return;  // keep the first trace
  }
}

// ---- evaluator state epoch ---------------------------------------------

// Same-tick table writes (the convenience Catalog::Insert/Delete path)
// must move the evaluator's state epoch even though the clock tick stands
// still. plan::RunShards compares the epoch before and after a parallel
// fan-out, so an epoch that missed such a write would let a fan-out that
// raced a writer pass silently.
TEST(StateEpochTest, SameTickMutationMovesTheEpoch) {
  TestWorld w = TestWorld::Make();
  int64_t before = w.domains->StateEpoch();
  w.catalog->clock().NoteMutation();
  EXPECT_NE(w.domains->StateEpoch(), before);
  int64_t after_mutation = w.domains->StateEpoch();
  w.catalog->clock().Advance();
  EXPECT_NE(w.domains->StateEpoch(), after_mutation);
  // Domain-LOCAL state (catalog-invisible, e.g. pinning a geocode) must
  // move the epoch too.
  int64_t after_advance = w.domains->StateEpoch();
  w.handles.spatial->AddAddress("key", 1.0, 2.0);
  EXPECT_NE(w.domains->StateEpoch(), after_advance);
}

// A plan cache threaded through ApplyBatch carries compiled plans across
// batches — including into StDel's step-3 renames.
TEST(PlanCacheTest, SharedAcrossMaintenanceBatches) {
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeChain(4, 6);
  FixpointOptions opts;
  plan::PlanCache shared;
  opts.plan_cache = &shared;
  View v = Unwrap(Materialize(p, w.domains.get(), opts));
  int ext = 0;

  auto one = [&p](const std::string& text, bool del) {
    maint::UpdateAtom atom = ParseUpdate(text, &p);
    return std::vector<maint::Update>{
        del ? maint::Update::Delete(std::move(atom))
            : maint::Update::Insert(std::move(atom))};
  };

  maint::BatchStats stats;
  ASSERT_TRUE(maint::ApplyBatch(p, &v, one("p0(X) <- X = 50.", false),
                                w.domains.get(), opts, &stats, &ext)
                  .ok());
  int64_t compiles_after_first = shared.stats().compiles;
  EXPECT_GT(compiles_after_first, 0);

  // A deletion batch: step 3 renames deriving clauses through the SAME
  // cache — plans compiled by the insert run are served as hits.
  ASSERT_TRUE(maint::ApplyBatch(p, &v, one("p0(X) <- X = 50.", true),
                                w.domains.get(), opts, &stats, &ext)
                  .ok());
  EXPECT_EQ(shared.stats().compiles, compiles_after_first);
  EXPECT_GT(stats.plan_cache_hits, 0);
}

// ---- engine option parsing ------------------------------------------------

TEST(EngineOptionsTest, ParseModesAcceptKnownAndRejectUnknown) {
  EXPECT_EQ(*ParseJoinMode("naive"), JoinMode::kNaive);
  EXPECT_EQ(*ParseJoinMode("indexed"), JoinMode::kIndexed);
  EXPECT_FALSE(ParseJoinMode("fast").ok());
  EXPECT_FALSE(ParseJoinMode("NAIVE").ok());
}

TEST(EngineOptionsTest, EnvParsingFailsLoudlyOnUnknownValues) {
  ASSERT_EQ(setenv("MMV_JOIN_MODE", "bogus", 1), 0);
  EXPECT_FALSE(JoinModeFromEnv().ok());
  ASSERT_EQ(setenv("MMV_JOIN_MODE", "naive", 1), 0);
  EXPECT_EQ(*JoinModeFromEnv(), JoinMode::kNaive);
  ASSERT_EQ(unsetenv("MMV_JOIN_MODE"), 0);
  EXPECT_EQ(*JoinModeFromEnv(), JoinMode::kIndexed);  // default
}

}  // namespace
}  // namespace mmv
