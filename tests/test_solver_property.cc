// Property-based solver validation: random constraints over a small finite
// universe are checked against a brute-force ground evaluator. The solver
// must never report kUnsat for a constraint with a witness, and never
// report kSat for one without (kSatDeferred is allowed to be wrong only
// towards "sat" — it flags undecided literals, which the generator below
// avoids by keeping every domain call decidable).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>

#include "common/rng.h"
#include "constraint/simplify.h"
#include "constraint/solver.h"

namespace mmv {
namespace {

constexpr int kUniverseLo = 0;
constexpr int kUniverseHi = 7;  // brute force explores [0,7]^vars
constexpr int kMaxVars = 3;

// A deterministic finite evaluator: three scripted set-valued functions.
class GridEvaluator : public DcaEvaluator {
 public:
  Result<DcaResult> Evaluate(const std::string& domain,
                             const std::string& function,
                             const std::vector<Value>& args) override {
    if (domain != "g") return Status::NotFound("no domain " + domain);
    if (function == "evens") {
      return DcaResult::Finite({Value(0), Value(2), Value(4), Value(6)});
    }
    if (function == "small") {
      return DcaResult::Finite({Value(0), Value(1), Value(2)});
    }
    if (function == "succ") {
      if (args.size() != 1 || !args[0].is_int()) {
        return Status::TypeError("succ(int)");
      }
      return DcaResult::Finite({Value(args[0].as_int() + 1)});
    }
    if (function == "ge") {
      if (args.size() != 1 || !args[0].is_numeric()) {
        return Status::TypeError("ge(num)");
      }
      Interval i;
      i.integral = true;
      i.lo = args[0].numeric();
      return DcaResult::Of(i);
    }
    return Status::NotFound("no function " + function);
  }

  // Ground truth for the brute-force checker.
  static bool Member(const std::string& function, int64_t x,
                     const std::vector<int64_t>& args) {
    if (function == "evens") return x >= 0 && x <= 6 && x % 2 == 0;
    if (function == "small") return x >= 0 && x <= 2;
    if (function == "succ") return x == args.at(0) + 1;
    if (function == "ge") return x >= args.at(0);
    return false;
  }
};

// Generates a random constraint over variables 0..n-1.
Constraint RandomConstraint(Rng* rng, int n, int depth) {
  auto random_const = [&]() -> Term {
    return Term::Const(Value(rng->Int(kUniverseLo - 1, kUniverseHi + 1)));
  };
  auto random_var = [&]() -> Term {
    return Term::Var(static_cast<VarId>(rng->Int(0, n - 1)));
  };
  auto random_term = [&](bool allow_const) -> Term {
    if (allow_const && rng->Chance(0.4)) return random_const();
    return random_var();
  };
  // Eq, Neq or a random comparison between two given terms.
  auto relate = [&](const Term& l, const Term& r) -> Primitive {
    switch (rng->Int(0, 2)) {
      case 0:
        return Primitive::Eq(l, r);
      case 1:
        return Primitive::Neq(l, r);
      default:
        return Primitive::Cmp(l, static_cast<CmpOp>(rng->Int(0, 3)), r);
    }
  };
  auto random_prim = [&]() -> Primitive {
    switch (rng->Int(0, 7)) {
      case 0:
        return Primitive::Eq(random_term(false), random_term(true));
      case 1:
        return Primitive::Neq(random_term(false), random_term(true));
      case 2: {
        CmpOp op = static_cast<CmpOp>(rng->Int(0, 3));
        return Primitive::Cmp(random_term(false), op, random_term(true));
      }
      case 3: {
        const char* fns[] = {"evens", "small"};
        return Primitive::In(random_term(false),
                             DomainCall{"g", fns[rng->Int(0, 1)], {}});
      }
      case 4:
        return Primitive::In(
            random_term(false),
            DomainCall{"g", "succ", {random_term(true)}});
      case 5:  // ground against ground, e.g. 3 < 2
        return relate(random_const(), random_const());
      case 6: {  // one variable against itself, e.g. X < X or X != X
        Term x = random_var();
        return relate(x, x);
      }
      default:
        return Primitive::In(
            random_term(false),
            DomainCall{"g", "ge",
                       {Term::Const(Value(rng->Int(0, kUniverseHi)))}});
    }
  };

  Constraint c;
  int prims = static_cast<int>(rng->Int(1, 4));
  for (int i = 0; i < prims; ++i) c.Add(random_prim());
  // An equality chain X = Y, Y = a, X = b, whose conflict (a != b) shows
  // only once the binding of Y has propagated back through X = Y.
  if (n > 1 && rng->Chance(0.15)) {
    Term x = Term::Var(0), y = Term::Var(1);
    c.Add(Primitive::Eq(x, y));
    c.Add(Primitive::Eq(y, random_const()));
    c.Add(Primitive::Eq(x, random_const()));
  }
  if (depth > 0) {
    int blocks = static_cast<int>(rng->Int(0, 2));
    for (int b = 0; b < blocks; ++b) {
      Constraint inner = RandomConstraint(rng, n, depth - 1);
      if (!inner.is_true() && !inner.is_false()) {
        c.AddNot(Constraint::Negate(inner));
      }
    }
  }
  return c;
}

// Brute-force ground truth over assignments [lo,hi]^vars.
bool EvalPrimGround(const Primitive& p,
                    const std::map<VarId, int64_t>& env) {
  auto val = [&](const Term& t) -> Value {
    if (t.is_const()) return t.constant();
    return Value(env.at(t.var()));
  };
  switch (p.kind) {
    case PrimKind::kEq:
      return val(p.lhs) == val(p.rhs);
    case PrimKind::kNeq:
      return !(val(p.lhs) == val(p.rhs));
    case PrimKind::kCmp: {
      Value a = val(p.lhs), b = val(p.rhs);
      if (!a.is_numeric() || !b.is_numeric()) return false;
      switch (p.op) {
        case CmpOp::kLt:
          return a.numeric() < b.numeric();
        case CmpOp::kLe:
          return a.numeric() <= b.numeric();
        case CmpOp::kGt:
          return a.numeric() > b.numeric();
        case CmpOp::kGe:
          return a.numeric() >= b.numeric();
      }
      return false;
    }
    case PrimKind::kIn:
    case PrimKind::kNotIn: {
      Value x = val(p.lhs);
      if (!x.is_int()) return p.kind == PrimKind::kNotIn;
      std::vector<int64_t> args;
      for (const Term& t : p.call.args) {
        Value v = val(t);
        if (!v.is_int()) return p.kind == PrimKind::kNotIn;
        args.push_back(v.as_int());
      }
      bool member = GridEvaluator::Member(p.call.function, x.as_int(), args);
      return p.kind == PrimKind::kIn ? member : !member;
    }
  }
  return false;
}

bool EvalBlockGround(const NotBlock& b, const std::map<VarId, int64_t>& env);

bool EvalConstraintGround(const Constraint& c,
                          const std::map<VarId, int64_t>& env) {
  if (c.is_false()) return false;
  for (const Primitive& p : c.prims()) {
    if (!EvalPrimGround(p, env)) return false;
  }
  for (const NotBlock& b : c.nots()) {
    if (EvalBlockGround(b, env)) return false;  // body true -> not() false
  }
  return true;
}

bool EvalBlockGround(const NotBlock& b, const std::map<VarId, int64_t>& env) {
  for (const Primitive& p : b.prims) {
    if (!EvalPrimGround(p, env)) return false;
  }
  for (const NotBlock& i : b.inner) {
    if (EvalBlockGround(i, env)) return false;
  }
  return true;
}

// Does any assignment over the grid satisfy c? (Variables range over the
// finite universe only — the solver explores an unbounded domain, so a
// solver "sat" with no grid witness is NOT automatically a bug; we check
// implications in the sound directions only.)
bool BruteForceSatOnGrid(const Constraint& c, const std::vector<VarId>& vars) {
  std::map<VarId, int64_t> env;
  std::function<bool(size_t)> rec = [&](size_t i) -> bool {
    if (i == vars.size()) return EvalConstraintGround(c, env);
    for (int64_t v = kUniverseLo; v <= kUniverseHi; ++v) {
      env[vars[i]] = v;
      if (rec(i + 1)) return true;
    }
    return false;
  };
  return rec(0);
}

class SolverGridProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverGridProperty, SolveAgreesWithBruteForce) {
  Rng rng(GetParam());
  GridEvaluator eval;
  Solver solver(&eval);

  for (int trial = 0; trial < 60; ++trial) {
    int n = static_cast<int>(rng.Int(1, kMaxVars));
    Constraint c = RandomConstraint(&rng, n, 2);
    std::vector<VarId> vars = c.Variables();

    bool grid_sat = BruteForceSatOnGrid(c, vars);
    SolveOutcome o = solver.Solve(c);
    ASSERT_NE(o, SolveOutcome::kError) << solver.last_status().ToString();

    // Soundness: a grid witness contradicts kUnsat.
    if (grid_sat) {
      EXPECT_NE(o, SolveOutcome::kUnsat)
          << "seed " << GetParam() << " trial " << trial << "\nconstraint: "
          << c.ToString();
    }
    // kSat claims a solution exists somewhere (possibly off-grid); verify
    // only when the constraint confines all variables to the grid, which
    // our generator guarantees whenever an in(X, g:small/evens) literal
    // covers each variable. Cheap sufficient check: if brute force says
    // unsat AND some grid-confining literal exists per variable, kSat is a
    // bug. We approximate by re-checking on a wider grid.
    if (!grid_sat && o == SolveOutcome::kSat) {
      // Widen the universe; the generator only uses constants in
      // [-1, kUniverseHi + 1], so [-3, kUniverseHi + 3] catches boundary
      // witnesses.
      std::map<VarId, int64_t> env;
      std::function<bool(size_t)> rec = [&](size_t i) -> bool {
        if (i == vars.size()) return EvalConstraintGround(c, env);
        for (int64_t v = kUniverseLo - 3; v <= kUniverseHi + 3; ++v) {
          env[vars[i]] = v;
          if (rec(i + 1)) return true;
        }
        return false;
      };
      EXPECT_TRUE(rec(0)) << "solver says kSat but no witness in widened "
                             "universe\nseed "
                          << GetParam() << " trial " << trial
                          << "\nconstraint: " << c.ToString();
    }
  }
}

// Brute-force satisfiability on an explicitly given range.
bool BruteForceSatOnRange(const Constraint& c, const std::vector<VarId>& vars,
                          int64_t lo, int64_t hi) {
  std::map<VarId, int64_t> env;
  std::function<bool(size_t)> rec = [&](size_t i) -> bool {
    if (i == vars.size()) return EvalConstraintGround(c, env);
    for (int64_t v = lo; v <= hi; ++v) {
      env[vars[i]] = v;
      if (rec(i + 1)) return true;
    }
    return false;
  };
  return rec(0);
}

TEST_P(SolverGridProperty, SimplifyPreservesSatisfiability) {
  // SimplifyAtom dissolves equalities into the head, so it preserves the
  // *solution set projected onto the head*, not pointwise evaluation of
  // free variables; with an empty head the preserved property is
  // satisfiability. The generator's constants lie in [-1, kUniverseHi+1],
  // so a widened grid [-3, kUniverseHi+3] sees every relevant witness.
  Rng rng(GetParam() * 7919 + 13);

  for (int trial = 0; trial < 60; ++trial) {
    int n = static_cast<int>(rng.Int(1, kMaxVars));
    Constraint c = RandomConstraint(&rng, n, 2);
    SimplifiedAtom s = SimplifyAtom({}, c);

    bool orig_sat = BruteForceSatOnRange(c, c.Variables(), kUniverseLo - 3,
                                         kUniverseHi + 3);
    bool simp_sat =
        BruteForceSatOnRange(s.constraint, s.constraint.Variables(),
                             kUniverseLo - 3, kUniverseHi + 3);
    EXPECT_EQ(orig_sat, simp_sat)
        << "seed " << GetParam() << " trial " << trial << "\noriginal:   "
        << c.ToString() << "\nsimplified: " << s.constraint.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverGridProperty,
                         ::testing::Range(uint64_t{100}, uint64_t{112}));

}  // namespace
}  // namespace mmv
