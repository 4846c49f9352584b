// Failure-injection tests: every layer must surface evaluator failures as
// Status errors (never crash, never silently produce wrong views).

#include <gtest/gtest.h>

#include "maintenance/batch.h"
#include "maintenance/dred_constrained.h"
#include "test_util.h"
#include "workload/generators.h"

namespace mmv {
namespace {

using testutil::MaterializeOrDie;
using testutil::ParseOrDie;
using testutil::ParseUpdate;
using testutil::TestWorld;
using testutil::Unwrap;

// Fails every evaluation after the first `budget` calls.
class FlakyEvaluator : public DcaEvaluator {
 public:
  FlakyEvaluator(DcaEvaluator* inner, int budget)
      : inner_(inner), budget_(budget) {}

  Result<DcaResult> Evaluate(const std::string& domain,
                             const std::string& function,
                             const std::vector<Value>& args) override {
    if (budget_-- <= 0) {
      return Status::Internal("injected failure");
    }
    return inner_->Evaluate(domain, function, args);
  }

 private:
  DcaEvaluator* inner_;
  int budget_;
};

class FailureInjectionTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { world_ = TestWorld::Make(); }
  TestWorld world_;
};

TEST_P(FailureInjectionTest, MaterializeSurfacesErrors) {
  Program p = ParseOrDie(R"(
    a(X) <- in(X, arith:between(0, 5)).
    b(X) <- a(X) & in(X, arith:between(0, 3)).
    c(X) <- b(X).
  )");
  FlakyEvaluator flaky(world_.domains.get(), GetParam());
  Result<View> v = Materialize(p, &flaky);
  if (!v.ok()) {
    EXPECT_EQ(v.status().code(), StatusCode::kInternal);
  }
  // With a generous budget it must succeed.
  FlakyEvaluator generous(world_.domains.get(), 1000000);
  EXPECT_TRUE(Materialize(p, &generous).ok());
}

TEST_P(FailureInjectionTest, StDelSurfacesErrors) {
  Program p = ParseOrDie(R"(
    a(X) <- in(X, arith:between(0, 5)).
    b(X) <- a(X).
  )");
  View view = MaterializeOrDie(p, world_.domains.get());
  maint::UpdateAtom req = ParseUpdate("a(X) <- X = 2.", &p);

  FlakyEvaluator flaky(world_.domains.get(), GetParam());
  View copy = view;
  Status s = maint::DeleteStDel(p, &copy, req, &flaky);
  if (!s.ok()) {
    EXPECT_EQ(s.code(), StatusCode::kInternal);
  }
}

TEST_P(FailureInjectionTest, DRedSurfacesErrors) {
  Program p = ParseOrDie(R"(
    a(X) <- in(X, arith:between(0, 5)).
    b(X) <- a(X).
  )");
  FixpointOptions opts;
  opts.semantics = DupSemantics::kSet;
  View view = Unwrap(Materialize(p, world_.domains.get(), opts));
  maint::UpdateAtom req = ParseUpdate("a(X) <- X = 2.", &p);

  FlakyEvaluator flaky(world_.domains.get(), GetParam());
  Result<View> out = maint::DeleteDRed(p, view, req, &flaky, opts);
  if (!out.ok()) {
    EXPECT_EQ(out.status().code(), StatusCode::kInternal);
  }
}

TEST_P(FailureInjectionTest, EnumerateSurfacesErrors) {
  Program p = ParseOrDie("a(X) <- in(X, arith:between(0, 5)).");
  View view = MaterializeOrDie(p, world_.domains.get());
  FlakyEvaluator flaky(world_.domains.get(), GetParam());
  Result<query::InstanceSet> set = query::EnumerateView(view, &flaky);
  if (!set.ok()) {
    EXPECT_EQ(set.status().code(), StatusCode::kInternal);
  }
}

// Budgets straddling every phase boundary of the small workloads above.
INSTANTIATE_TEST_SUITE_P(Budgets, FailureInjectionTest,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace mmv
