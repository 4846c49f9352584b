// Unit tests for the Straight Delete (StDel) algorithm beyond the paper's
// worked examples.

#include <gtest/gtest.h>

#include "maintenance/stdel.h"
#include "query/query.h"
#include "test_util.h"
#include "workload/generators.h"

namespace mmv {
namespace {

using testutil::Instances;
using testutil::InstancesOf;
using testutil::MaterializeOrDie;
using testutil::ParseOrDie;
using testutil::ParseUpdate;
using testutil::TestWorld;
using testutil::Unwrap;

// Convenience: run StDel and compare against the declarative rewrite.
void ExpectStDelMatchesOracle(Program& program, const maint::UpdateAtom& req,
                              TestWorld& world) {
  View view = MaterializeOrDie(program, world.domains.get());
  Status s = maint::DeleteStDel(program, &view, req, world.domains.get());
  ASSERT_TRUE(s.ok()) << s.ToString();
  View oracle = Unwrap(
      maint::RecomputeAfterDeletion(program, req, world.domains.get()));
  EXPECT_EQ(Instances(view, world.domains.get()),
            Instances(oracle, world.domains.get()));
}

// Largest variable id actually occurring in the view's atoms.
VarId ScanMaxVar(const View& view) {
  VarId max_id = -1;
  for (const ViewAtom& a : view.atoms()) {
    std::vector<VarId> vars;
    CollectVars(a.args, &vars);
    for (VarId v : vars) max_id = std::max(max_id, v);
    for (VarId v : a.constraint.Variables()) max_id = std::max(max_id, v);
  }
  return max_id;
}

TEST(StDelTest, HighWaterMarkCoversInjectedVariables) {
  // Deletion subtraction writes freshly-issued variables into surviving
  // constraints (symbolic not-blocks). The view's MaxVarId must stay above
  // every variable actually present, or the next update's standardize-apart
  // renaming could capture them.
  TestWorld w = TestWorld::Make();
  // Interval-only constraints: not finitely enumerable, so subtraction
  // takes the symbolic path that injects renamed request variables.
  Program p = ParseOrDie(
      "a(X) <- X >= 0 & X <= 100. b(X) <- a(X). c(X) <- b(X).");
  View view = MaterializeOrDie(p, w.domains.get());
  maint::UpdateAtom req = ParseUpdate("a(X) <- X >= 10 & X <= 90.", &p);
  ASSERT_TRUE(maint::DeleteStDel(p, &view, req, w.domains.get()).ok());
  EXPECT_GE(view.MaxVarId(), ScanMaxVar(view));

  // A second deletion over the mutated view must also hold the invariant
  // (this is the sequential-capture scenario).
  maint::UpdateAtom req2 = ParseUpdate("b(X) <- X >= 20 & X <= 80.", &p);
  ASSERT_TRUE(maint::DeleteStDel(p, &view, req2, w.domains.get()).ok());
  EXPECT_GE(view.MaxVarId(), ScanMaxVar(view));

  // Point probes of the maintained view (intervals are not enumerable, but
  // ground membership is decidable).
  auto ask = [&](const char* pred, int64_t v) {
    return Unwrap(query::Ask(view, pred, {Value(v)}, w.domains.get()));
  };
  EXPECT_TRUE(ask("a", 5));
  EXPECT_FALSE(ask("a", 50));  // first deletion
  EXPECT_TRUE(ask("b", 5));
  EXPECT_FALSE(ask("b", 50));  // removed by both deletions
  EXPECT_TRUE(ask("b", 95));
  EXPECT_TRUE(ask("c", 95));
  EXPECT_FALSE(ask("c", 30));  // second deletion propagated to c
}

TEST(StDelTest, NoOpWhenNothingMatches) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("a(X) <- X = 1. b(X) <- a(X).");
  View view = MaterializeOrDie(p, w.domains.get());
  size_t before = view.size();
  maint::UpdateAtom req = ParseUpdate("a(X) <- X = 99.", &p);
  maint::StDelStats stats;
  ASSERT_TRUE(
      maint::DeleteStDel(p, &view, req, w.domains.get(), {}, &stats).ok());
  EXPECT_EQ(view.size(), before);
  EXPECT_EQ(stats.replacements, 0u);
}

TEST(StDelTest, DeleteEntireBaseFact) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("a(X) <- X = 1. a(X) <- X = 2. b(X) <- a(X).");
  View view = MaterializeOrDie(p, w.domains.get());
  maint::UpdateAtom req = ParseUpdate("a(X) <- X = 1.", &p);
  maint::StDelStats stats;
  ASSERT_TRUE(
      maint::DeleteStDel(p, &view, req, w.domains.get(), {}, &stats).ok());
  EXPECT_EQ(Instances(view, w.domains.get()),
            (std::set<std::string>{"a(2)", "b(2)"}));
  EXPECT_GT(stats.removed_unsolvable, 0u);
}

TEST(StDelTest, DeleteAllInstancesOfPredicate) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie("a(X) <- X = 1. a(X) <- X = 2. b(X) <- a(X).");
  View view = MaterializeOrDie(p, w.domains.get());
  maint::UpdateAtom req = ParseUpdate("a(X) <- true.", &p);
  ASSERT_TRUE(maint::DeleteStDel(p, &view, req, w.domains.get()).ok());
  EXPECT_TRUE(Instances(view, w.domains.get()).empty());
}

TEST(StDelTest, ChainDepthPropagation) {
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeChain(5, 4);
  maint::UpdateAtom req = workload::DeleteFactRequest(p, 1);
  ExpectStDelMatchesOracle(p, req, *const_cast<TestWorld*>(&w));
}

TEST(StDelTest, DiamondKeepsSecondProof) {
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeDiamond(2, 3);
  View view = MaterializeOrDie(p, w.domains.get());
  // Delete l(0): the duplicate m-atom derived via r survives, so m(0)
  // remains an instance. (This is where duplicate semantics shines: no
  // rederivation is needed.)
  maint::UpdateAtom req = ParseUpdate("l(X) <- X = 0.", &p);
  ASSERT_TRUE(maint::DeleteStDel(p, &view, req, w.domains.get()).ok());
  auto m = InstancesOf(view, "m", w.domains.get());
  EXPECT_EQ(m.count("m(0)"), 1u);
  auto l = InstancesOf(view, "l", w.domains.get());
  EXPECT_EQ(l.count("l(0)"), 0u);

  View oracle = Unwrap(
      maint::RecomputeAfterDeletion(p, req, w.domains.get()));
  EXPECT_EQ(Instances(view, w.domains.get()),
            Instances(oracle, w.domains.get()));
}

TEST(StDelTest, PartialIntervalDeletion) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie(R"(
    a(X) <- in(X, arith:between(0, 9)).
    b(X) <- a(X).
  )");
  View view = MaterializeOrDie(p, w.domains.get());
  maint::UpdateAtom req =
      ParseUpdate("a(X) <- in(X, arith:between(3, 5)).", &p);
  ASSERT_TRUE(maint::DeleteStDel(p, &view, req, w.domains.get()).ok());
  auto b = InstancesOf(view, "b", w.domains.get());
  EXPECT_EQ(b.size(), 7u);
  EXPECT_EQ(b.count("b(4)"), 0u);
  EXPECT_EQ(b.count("b(2)"), 1u);
}

TEST(StDelTest, SequentialDeletionsAccumulate) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie(R"(
    a(X) <- in(X, arith:between(0, 9)).
    b(X) <- a(X).
  )");
  View view = MaterializeOrDie(p, w.domains.get());
  for (int k = 0; k < 4; ++k) {
    maint::UpdateAtom req = ParseUpdate(
        "a(X) <- X = " + std::to_string(k) + ".", &p);
    ASSERT_TRUE(maint::DeleteStDel(p, &view, req, w.domains.get()).ok());
  }
  EXPECT_EQ(InstancesOf(view, "b", w.domains.get()).size(), 6u);
  EXPECT_EQ(InstancesOf(view, "a", w.domains.get()).size(), 6u);
}

TEST(StDelTest, JoinRuleSiblingsConsidered) {
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie(R"(
    e(X, Y) <- X = 1 & Y = 2.
    e(X, Y) <- X = 2 & Y = 3.
    e(X, Y) <- X = 1 & Y = 4.
    j(X, Z) <- e(X, Y) & e(Y, Z).
  )");
  View view = MaterializeOrDie(p, w.domains.get());
  ASSERT_EQ(InstancesOf(view, "j", w.domains.get()),
            (std::set<std::string>{"j(1, 3)"}));
  // Deleting e(2,3) (the second joinand) kills j(1,3).
  maint::UpdateAtom req = ParseUpdate("e(X, Y) <- X = 2 & Y = 3.", &p);
  ASSERT_TRUE(maint::DeleteStDel(p, &view, req, w.domains.get()).ok());
  EXPECT_TRUE(InstancesOf(view, "j", w.domains.get()).empty());
  EXPECT_EQ(InstancesOf(view, "e", w.domains.get()).size(), 2u);
}

TEST(StDelTest, RecursiveTransitiveClosure) {
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeTransitiveClosure(workload::ChainEdges(5));
  View view = MaterializeOrDie(p, w.domains.get());
  // Cut the chain in the middle: edge (2,3).
  maint::UpdateAtom req = ParseUpdate("e(X, Y) <- X = 2 & Y = 3.", &p);
  ASSERT_TRUE(maint::DeleteStDel(p, &view, req, w.domains.get()).ok());
  auto paths = InstancesOf(view, "path", w.domains.get());
  // Remaining paths: within 0-1-2 (3) and within 3-4 (1).
  EXPECT_EQ(paths.size(), 4u);
  EXPECT_EQ(paths.count("path(0, 4)"), 0u);
  EXPECT_EQ(paths.count("path(0, 2)"), 1u);
  EXPECT_EQ(paths.count("path(3, 4)"), 1u);

  View oracle = Unwrap(
      maint::RecomputeAfterDeletion(p, req, w.domains.get()));
  EXPECT_EQ(Instances(view, w.domains.get()),
            Instances(oracle, w.domains.get()));
}

TEST(StDelTest, TransitiveClosureWithDagShortcuts) {
  TestWorld w = TestWorld::Make();
  Rng rng(3);
  auto edges = workload::RandomDagEdges(&rng, 6, 4);
  Program p = workload::MakeTransitiveClosure(edges);
  maint::UpdateAtom req = ParseUpdate(
      "e(X, Y) <- X = 1 & Y = 2.", &p);
  ExpectStDelMatchesOracle(p, req, *const_cast<TestWorld*>(&w));
}

TEST(StDelTest, StatsArePopulated) {
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeChain(3, 2);
  View view = MaterializeOrDie(p, w.domains.get());
  maint::UpdateAtom req = workload::DeleteFactRequest(p, 0);
  maint::StDelStats stats;
  ASSERT_TRUE(
      maint::DeleteStDel(p, &view, req, w.domains.get(), {}, &stats).ok());
  EXPECT_EQ(stats.del_elements, 1u);
  // One replacement per chain level (fact + 3 derived).
  EXPECT_EQ(stats.replacements, 4u);
  EXPECT_EQ(stats.pout_pairs, 4u);
  EXPECT_EQ(stats.removed_unsolvable, 4u);
  EXPECT_GT(stats.solver.solve_calls, 0);
}

TEST(StDelTest, SiblingsDyingTogetherLiftAgainstOriginalConstraints) {
  // Both body atoms of p(1)'s only derivation die in one pass. Each
  // sibling's P_OUT pair lifts through the OTHER sibling's pre-pass
  // constraint; read against the already-replaced (false) constraint, both
  // lifts would be unsatisfiable and p(1) would survive the pass.
  TestWorld w = TestWorld::Make();
  Program p = ParseOrDie(R"(
    a(X) <- X = 1.
    a(X) <- X = 2.
    b(X) <- X = 1.
    b(X) <- X = 2.
    p(X) <- a(X) & b(X).
  )");
  View view = MaterializeOrDie(p, w.domains.get());
  ASSERT_EQ(InstancesOf(view, "p", w.domains.get()),
            (std::set<std::string>{"p(1)", "p(2)"}));
  std::vector<maint::UpdateAtom> requests = {
      ParseUpdate("a(X) <- X = 1.", &p), ParseUpdate("b(X) <- X = 1.", &p)};
  maint::StDelStats stats;
  ASSERT_TRUE(maint::DeleteStDelBatch(p, &view, requests, w.domains.get(), {},
                                      &stats)
                  .ok());
  EXPECT_EQ(stats.step2_replacements, 2u);
  EXPECT_EQ(InstancesOf(view, "p", w.domains.get()),
            (std::set<std::string>{"p(2)"}));
  EXPECT_EQ(InstancesOf(view, "a", w.domains.get()),
            (std::set<std::string>{"a(2)"}));
  EXPECT_EQ(InstancesOf(view, "b", w.domains.get()),
            (std::set<std::string>{"b(2)"}));
}

TEST(StDelTest, DeletePassSolvesOnlyWhatItTouches) {
  // A one-fact delete on a large multi-chain view: the other 49 chains and
  // the rest of chain 0 are ballast the pass must not visit. Del
  // construction solves one overlap per Del element (the ground probe finds
  // one candidate), step 3 one lift per replacement it makes (every chain
  // atom has one parent) and step 4 at most one constraint per replaced
  // atom — at most 2 x (Del elements + replacements) solves, where a
  // whole-view step 4 would solve every atom.
  TestWorld w = TestWorld::Make();
  Program p = workload::MakeMultiChain(/*chains=*/50, /*depth=*/5,
                                       /*width=*/80);
  View view = MaterializeOrDie(p, w.domains.get());
  ASSERT_GE(view.size(), 20000u);
  const size_t before = view.size();
  maint::UpdateAtom req = workload::DeleteFactRequest(p, 0);
  maint::StDelStats stats;
  ASSERT_TRUE(
      maint::DeleteStDel(p, &view, req, w.domains.get(), {}, &stats).ok());
  EXPECT_EQ(stats.del_elements, 1u);
  EXPECT_EQ(stats.replacements, 6u);  // the fact and its 5 descendants
  EXPECT_EQ(stats.removed_unsolvable, 6u);
  EXPECT_EQ(view.size(), before - 6);
  const size_t bound = 2 * (stats.del_elements + stats.replacements);
  EXPECT_LE(stats.solver.solve_calls, static_cast<int64_t>(bound));
  std::set<std::string> tip = InstancesOf(view, "c0_p5", w.domains.get());
  EXPECT_EQ(tip.count("c0_p5(0)"), 0u);
  EXPECT_EQ(tip.size(), 79u);
}

}  // namespace
}  // namespace mmv
