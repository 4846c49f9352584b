// SolveCache: a memo of satisfiability outcomes keyed by canonical
// constraint form.
//
// Two call sites re-solve canonically identical constraints often enough
// to pay for rendering the key: the T_P solvability check of an indexed
// engine run's sequential ClauseRunner (one clause re-derives the same
// symbolic constraint at every level of a chain, modulo fresh-variable
// numbering), and StDel's condition-(c) check of step-3 lifts. Each owns
// one memo as a local whose lifetime is its validity scope — one engine
// run or one delete pass, with the evaluator state and the solver options
// fixed. Nothing else memoizes. Not thread-safe.

#ifndef MMV_CONSTRAINT_SOLVE_CACHE_H_
#define MMV_CONSTRAINT_SOLVE_CACHE_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "constraint/canonical.h"
#include "constraint/solver.h"

namespace mmv {

/// \brief Memo of Solve outcomes keyed by CanonicalConstraintKey.
class SolveCache {
 public:
  static constexpr size_t kMaxEntries = 1u << 20;

  /// \brief solver->Solve(c), answered from the memo when a constraint
  /// with the same canonical key was solved before. Trivially true or
  /// false constraints bypass the memo, and evaluator errors are never
  /// recorded. Once kMaxEntries are held, misses are solved unrecorded
  /// (the memo never evicts). Use one Solver per memo.
  SolveOutcome Solve(Solver* solver, const Constraint& c);

  /// \brief Solves answered from the memo.
  int64_t hits() const { return hits_; }

  size_t size() const { return map_.size(); }

 private:
  int64_t hits_ = 0;
  std::unordered_map<CanonicalKey, SolveOutcome, CanonicalKey::Hasher> map_;
  std::string scratch_;  // key rendering buffer, reused across calls
};

}  // namespace mmv

#endif  // MMV_CONSTRAINT_SOLVE_CACHE_H_
