#include "constraint/solve_cache.h"

namespace mmv {

SolveOutcome SolveCache::Solve(Solver* solver, const Constraint& c) {
  if (c.is_true() || c.is_false()) return solver->Solve(c);
  CanonicalKey key = CanonicalConstraintKey(c, &scratch_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    hits_++;
    return it->second;
  }
  SolveOutcome outcome = solver->Solve(c);
  // Errors are evaluator failures, not properties of the constraint.
  if (outcome != SolveOutcome::kError && map_.size() < kMaxEntries) {
    map_.emplace(key, outcome);
  }
  return outcome;
}

}  // namespace mmv
