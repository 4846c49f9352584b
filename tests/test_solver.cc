// Unit tests for the constraint solver.

#include <gtest/gtest.h>

#include "constraint/solver.h"

namespace mmv {
namespace {

Term V(VarId v) { return Term::Var(v); }
Term C(int64_t c) { return Term::Const(Value(c)); }
Term S(const char* s) { return Term::Const(Value(s)); }

// A scripted evaluator: finite sets and intervals by function name.
class FakeEvaluator : public DcaEvaluator {
 public:
  Result<DcaResult> Evaluate(const std::string& domain,
                             const std::string& function,
                             const std::vector<Value>& args) override {
    calls++;
    if (domain != "fake") {
      return Status::NotFound("no domain " + domain);
    }
    if (function == "set123") {
      return DcaResult::Finite({Value(1), Value(2), Value(3)});
    }
    if (function == "empty") return DcaResult::Finite({});
    if (function == "greater") {
      Interval i;
      i.integral = true;
      i.lo = args.at(0).numeric();
      i.lo_strict = true;
      return DcaResult::Of(i);
    }
    if (function == "unknown") return DcaResult::Unknown();
    if (function == "double_of") {
      return DcaResult::Finite({Value(args.at(0).numeric() * 2)});
    }
    if (function == "arity") {
      return DcaResult::Finite({Value(static_cast<int64_t>(args.size()))});
    }
    return Status::NotFound("no function " + function);
  }
  int calls = 0;
};

class SolverTest : public ::testing::Test {
 protected:
  FakeEvaluator eval_;
  Solver solver_{&eval_};

  SolveOutcome Solve(const Constraint& c) { return solver_.Solve(c); }
};

TEST_F(SolverTest, TrueAndFalse) {
  EXPECT_EQ(Solve(Constraint::True()), SolveOutcome::kSat);
  EXPECT_EQ(Solve(Constraint::False()), SolveOutcome::kUnsat);
}

TEST_F(SolverTest, EqualityPropagation) {
  Constraint c;
  c.Add(Primitive::Eq(V(0), V(1)));
  c.Add(Primitive::Eq(V(1), C(5)));
  EXPECT_EQ(Solve(c), SolveOutcome::kSat);

  c.Add(Primitive::Eq(V(0), C(6)));  // conflict through the chain
  EXPECT_EQ(Solve(c), SolveOutcome::kUnsat);
}

TEST_F(SolverTest, DisequalityBasic) {
  Constraint c;
  c.Add(Primitive::Eq(V(0), C(5)));
  c.Add(Primitive::Neq(V(0), C(5)));
  EXPECT_EQ(Solve(c), SolveOutcome::kUnsat);

  Constraint ok;
  ok.Add(Primitive::Eq(V(0), C(5)));
  ok.Add(Primitive::Neq(V(0), C(6)));
  EXPECT_EQ(Solve(ok), SolveOutcome::kSat);
}

TEST_F(SolverTest, VarVarDisequalityViaUnification) {
  Constraint c;
  c.Add(Primitive::Eq(V(0), V(1)));
  c.Add(Primitive::Neq(V(0), V(1)));
  EXPECT_EQ(Solve(c), SolveOutcome::kUnsat);
}

TEST_F(SolverTest, IntervalReasoning) {
  Constraint c;
  c.Add(Primitive::Cmp(V(0), CmpOp::kGe, C(3)));
  c.Add(Primitive::Cmp(V(0), CmpOp::kLe, C(5)));
  EXPECT_EQ(Solve(c), SolveOutcome::kSat);

  c.Add(Primitive::Cmp(V(0), CmpOp::kLt, C(3)));
  EXPECT_EQ(Solve(c), SolveOutcome::kUnsat);
}

TEST_F(SolverTest, OpenIntervalPointIsEmpty) {
  Constraint c;
  c.Add(Primitive::Cmp(V(0), CmpOp::kGt, C(3)));
  c.Add(Primitive::Cmp(V(0), CmpOp::kLt, C(4)));
  // Real interval (3, 4) is nonempty.
  EXPECT_EQ(Solve(c), SolveOutcome::kSat);
}

TEST_F(SolverTest, IntegralOpenIntervalIsEmpty) {
  Constraint c;
  DomainCall gc{"fake", "greater", {C(3)}};
  c.Add(Primitive::In(V(0), gc));  // integers > 3
  c.Add(Primitive::Cmp(V(0), CmpOp::kLt, C(4)));
  // No integer in (3, 4).
  EXPECT_EQ(Solve(c), SolveOutcome::kUnsat);
}

TEST_F(SolverTest, ExclusionsCanEmptyIntegralInterval) {
  Constraint c;
  DomainCall gc{"fake", "greater", {C(3)}};
  c.Add(Primitive::In(V(0), gc));
  c.Add(Primitive::Cmp(V(0), CmpOp::kLe, C(5)));  // {4, 5}
  c.Add(Primitive::Neq(V(0), C(4)));
  EXPECT_EQ(Solve(c), SolveOutcome::kSat);  // 5 remains
  c.Add(Primitive::Neq(V(0), C(5)));
  EXPECT_EQ(Solve(c), SolveOutcome::kUnsat);
}

TEST_F(SolverTest, FiniteSetMembership) {
  Constraint c;
  c.Add(Primitive::In(V(0), DomainCall{"fake", "set123", {}}));
  c.Add(Primitive::Eq(V(0), C(2)));
  EXPECT_EQ(Solve(c), SolveOutcome::kSat);

  Constraint miss;
  miss.Add(Primitive::In(V(0), DomainCall{"fake", "set123", {}}));
  miss.Add(Primitive::Eq(V(0), C(9)));
  EXPECT_EQ(Solve(miss), SolveOutcome::kUnsat);
}

TEST_F(SolverTest, EmptySetIsUnsat) {
  Constraint c;
  c.Add(Primitive::In(V(0), DomainCall{"fake", "empty", {}}));
  EXPECT_EQ(Solve(c), SolveOutcome::kUnsat);
}

TEST_F(SolverTest, NotInExcludes) {
  Constraint c;
  c.Add(Primitive::In(V(0), DomainCall{"fake", "set123", {}}));
  c.Add(Primitive::NotInCall(V(0), DomainCall{"fake", "set123", {}}));
  EXPECT_EQ(Solve(c), SolveOutcome::kUnsat);
}

TEST_F(SolverTest, ChainedCallsGroundThroughSingletons) {
  // X = 3, Y in double_of(X) -> Y = 6, then Y = 6 consistent, Y = 7 not.
  Constraint c;
  c.Add(Primitive::Eq(V(0), C(3)));
  c.Add(Primitive::In(V(1), DomainCall{"fake", "double_of", {V(0)}}));
  c.Add(Primitive::Eq(V(1), C(6)));
  EXPECT_EQ(Solve(c), SolveOutcome::kSat);

  Constraint c2;
  c2.Add(Primitive::Eq(V(0), C(3)));
  c2.Add(Primitive::In(V(1), DomainCall{"fake", "double_of", {V(0)}}));
  c2.Add(Primitive::Eq(V(1), C(7)));
  EXPECT_EQ(Solve(c2), SolveOutcome::kUnsat);
}

TEST_F(SolverTest, CandidateSplittingDecidesChains) {
  // X in {1,2,3}, Y in double_of(X), Y = 4 -> X must be 2: satisfiable
  // only via the split on X's candidates.
  Constraint c;
  c.Add(Primitive::In(V(0), DomainCall{"fake", "set123", {}}));
  c.Add(Primitive::In(V(1), DomainCall{"fake", "double_of", {V(0)}}));
  c.Add(Primitive::Eq(V(1), C(4)));
  EXPECT_EQ(Solve(c), SolveOutcome::kSat);

  Constraint c2;
  c2.Add(Primitive::In(V(0), DomainCall{"fake", "set123", {}}));
  c2.Add(Primitive::In(V(1), DomainCall{"fake", "double_of", {V(0)}}));
  c2.Add(Primitive::Eq(V(1), C(7)));  // 7 is not double of 1, 2 or 3
  EXPECT_EQ(Solve(c2), SolveOutcome::kUnsat);
}

TEST_F(SolverTest, UnknownDefers) {
  Constraint c;
  c.Add(Primitive::In(V(0), DomainCall{"fake", "unknown", {}}));
  EXPECT_EQ(Solve(c), SolveOutcome::kSatDeferred);
}

TEST_F(SolverTest, NullEvaluatorDefersEverything) {
  Solver wp(nullptr);
  Constraint c;
  c.Add(Primitive::In(V(0), DomainCall{"fake", "empty", {}}));
  EXPECT_EQ(wp.Solve(c), SolveOutcome::kSatDeferred);
}

TEST_F(SolverTest, EvaluateDcaFalseDefers) {
  SolverOptions opts;
  opts.evaluate_dca = false;
  Solver wp(&eval_, opts);
  Constraint c;
  c.Add(Primitive::In(V(0), DomainCall{"fake", "empty", {}}));
  EXPECT_EQ(wp.Solve(c), SolveOutcome::kSatDeferred);
  EXPECT_EQ(eval_.calls, 0);
}

TEST_F(SolverTest, UnknownDomainIsError) {
  Constraint c;
  c.Add(Primitive::In(V(0), DomainCall{"nodomain", "f", {}}));
  EXPECT_EQ(Solve(c), SolveOutcome::kError);
  EXPECT_FALSE(solver_.last_status().ok());
}

TEST_F(SolverTest, NotBlockSimple) {
  // X = 1 & not(X = 1) is unsat; X = 1 & not(X = 2) is sat.
  Constraint c;
  c.Add(Primitive::Eq(V(0), C(1)));
  NotBlock b;
  b.prims.push_back(Primitive::Eq(V(0), C(1)));
  c.AddNot(b);
  EXPECT_EQ(Solve(c), SolveOutcome::kUnsat);

  Constraint c2;
  c2.Add(Primitive::Eq(V(0), C(1)));
  NotBlock b2;
  b2.prims.push_back(Primitive::Eq(V(0), C(2)));
  c2.AddNot(b2);
  EXPECT_EQ(Solve(c2), SolveOutcome::kSat);
}

TEST_F(SolverTest, NotBlockConjunctionChoices) {
  // X in [0,5] & not(X >= 2 & X <= 3): satisfiable (e.g. X = 0).
  Constraint c;
  c.Add(Primitive::Cmp(V(0), CmpOp::kGe, C(0)));
  c.Add(Primitive::Cmp(V(0), CmpOp::kLe, C(5)));
  NotBlock b;
  b.prims.push_back(Primitive::Cmp(V(0), CmpOp::kGe, C(2)));
  b.prims.push_back(Primitive::Cmp(V(0), CmpOp::kLe, C(3)));
  c.AddNot(b);
  EXPECT_EQ(Solve(c), SolveOutcome::kSat);

  // X in [2,3] & not(X >= 2 & X <= 3): unsat.
  Constraint c2;
  c2.Add(Primitive::Cmp(V(0), CmpOp::kGe, C(2)));
  c2.Add(Primitive::Cmp(V(0), CmpOp::kLe, C(3)));
  c2.AddNot(b);
  EXPECT_EQ(Solve(c2), SolveOutcome::kUnsat);
}

TEST_F(SolverTest, NestedNotBlocks) {
  // not(X = 1 & not(X = 1)) is a tautology: any X works (the body is
  // self-contradictory).
  Constraint c;
  NotBlock self;
  self.prims.push_back(Primitive::Eq(V(0), C(1)));
  NotBlock self_inner;
  self_inner.prims.push_back(Primitive::Eq(V(0), C(1)));
  self.inner.push_back(self_inner);
  c.AddNot(self);
  EXPECT_EQ(Solve(c), SolveOutcome::kSat);

  // X = 1 & not(X = 1 & not(X = 1)): the block body is contradictory, so
  // its negation is a tautology: still satisfiable.
  Constraint c1;
  c1.Add(Primitive::Eq(V(0), C(1)));
  c1.AddNot(self);
  EXPECT_EQ(Solve(c1), SolveOutcome::kSat);

  // X = 1 & not(X = 1 & not(X = 2)): at X = 1 the inner not(X = 2) holds,
  // so the outer body holds, so its negation fails -> unsat.
  Constraint c2;
  c2.Add(Primitive::Eq(V(0), C(1)));
  NotBlock outer;
  outer.prims.push_back(Primitive::Eq(V(0), C(1)));
  NotBlock inner;
  inner.prims.push_back(Primitive::Eq(V(0), C(2)));
  outer.inner.push_back(inner);
  c2.AddNot(outer);
  EXPECT_EQ(Solve(c2), SolveOutcome::kUnsat);

  // X = 3 & not(X = 1 & not(X = 2)): the outer body fails (X != 1): sat.
  Constraint c3;
  c3.Add(Primitive::Eq(V(0), C(3)));
  c3.AddNot(outer);
  EXPECT_EQ(Solve(c3), SolveOutcome::kSat);
}

TEST_F(SolverTest, TypeMismatchComparisonIsUnsat) {
  Constraint c;
  c.Add(Primitive::Eq(V(0), S("abc")));
  c.Add(Primitive::Cmp(V(0), CmpOp::kLe, C(3)));
  EXPECT_EQ(Solve(c), SolveOutcome::kUnsat);
}

TEST_F(SolverTest, StringsAndNumbersDistinct) {
  Constraint c;
  c.Add(Primitive::Eq(V(0), S("1")));
  c.Add(Primitive::Eq(V(0), C(1)));
  EXPECT_EQ(Solve(c), SolveOutcome::kUnsat);
}

TEST_F(SolverTest, StatsAccumulate) {
  Constraint c;
  c.Add(Primitive::In(V(0), DomainCall{"fake", "set123", {}}));
  solver_.ResetStats();
  Solve(c);
  EXPECT_EQ(solver_.stats().solve_calls, 1);
  EXPECT_GE(solver_.stats().dca_evaluations, 1);
}

// The per-Solve map of domain-call results must key calls injectively:
// two calls whose arguments print alike are still two calls.
TEST_F(SolverTest, DcaKeysKeepNearbyDoublesApart) {
  // Both arguments print as 0.123457 at six significant digits.
  Constraint c;
  c.Add(Primitive::In(V(0), DomainCall{"fake", "double_of",
                                       {Term::Const(Value(0.1234567))}}));
  c.Add(Primitive::Eq(V(0), Term::Const(Value(0.2469134))));
  c.Add(Primitive::In(V(1), DomainCall{"fake", "double_of",
                                       {Term::Const(Value(0.1234568))}}));
  c.Add(Primitive::Eq(V(1), Term::Const(Value(0.2469136))));
  EXPECT_EQ(Solve(c), SolveOutcome::kSat);
  EXPECT_EQ(eval_.calls, 2);
}

TEST_F(SolverTest, DcaKeysKeepQuotedStringsApart) {
  // One argument a"|"b against the two arguments "a", "b".
  Constraint c;
  c.Add(Primitive::In(V(0), DomainCall{"fake", "arity", {S("a\"|\"b")}}));
  c.Add(Primitive::Eq(V(0), C(1)));
  c.Add(Primitive::In(V(1), DomainCall{"fake", "arity", {S("a"), S("b")}}));
  c.Add(Primitive::Eq(V(1), C(2)));
  EXPECT_EQ(Solve(c), SolveOutcome::kSat);
  EXPECT_EQ(eval_.calls, 2);
}

TEST(IntervalTest, EmptyAndContains) {
  Interval i = Interval::Point(3);
  EXPECT_FALSE(i.Empty());
  EXPECT_TRUE(i.Contains(3));
  EXPECT_FALSE(i.Contains(3.5));

  Interval open;
  open.lo = 1;
  open.hi = 1;
  open.lo_strict = true;
  EXPECT_TRUE(open.Empty());
}

TEST(IntervalTest, IntersectWith) {
  Interval a;
  a.lo = 0;
  a.hi = 10;
  Interval b;
  b.lo = 5;
  b.hi = 15;
  EXPECT_TRUE(a.IntersectWith(b));
  EXPECT_EQ(a.lo, 5);
  EXPECT_EQ(a.hi, 10);

  Interval c;
  c.lo = 11;
  c.hi = 12;
  EXPECT_FALSE(a.IntersectWith(c));
}

TEST(IntervalTest, IntegralCount) {
  Interval i;
  i.integral = true;
  i.lo = 1;
  i.hi = 3;
  EXPECT_EQ(i.IntegralCount().value(), 3);
  i.lo_strict = true;
  EXPECT_EQ(i.IntegralCount().value(), 2);
  i.hi_strict = true;
  EXPECT_EQ(i.IntegralCount().value(), 1);
  Interval inf;
  inf.integral = true;
  EXPECT_FALSE(inf.IntegralCount().has_value());
}

TEST(AnalyzeTest, ReportsDomains) {
  FakeEvaluator eval;
  Solver solver(&eval);
  Constraint c;
  c.Add(Primitive::In(V(0), DomainCall{"fake", "set123", {}}));
  c.Add(Primitive::Neq(V(0), C(2)));
  auto classes = solver.Analyze(c);
  ASSERT_TRUE(classes.ok());
  ASSERT_EQ(classes->size(), 1u);
  ASSERT_TRUE((*classes)[0].candidates.has_value());
  // The exclusion (X != 2) is already applied to the candidate set by
  // propagation, leaving {1, 3}.
  EXPECT_EQ((*classes)[0].candidates->size(), 2u);
}

}  // namespace
}  // namespace mmv
