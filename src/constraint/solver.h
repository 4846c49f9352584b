// Constraint satisfiability (the paper's "solvable" test).
//
// A conjunction of primitives is decided by union-find equality propagation
// plus a per-equivalence-class domain (bound value / numeric interval /
// finite candidate set from evaluated DCA-atoms / exclusion set). Negated
// blocks not(c1 ^ ... ^ ck) are decided by expanding into the disjunction of
// negated primitives and searching the (small) choice space.
//
// DCA-atoms are evaluated through a DcaEvaluator when their arguments are
// ground; otherwise they are *deferred*: the constraint is reported
// kSatDeferred ("satisfiable as far as decidable now"), matching the W_P
// philosophy of postponing solvability to query time (paper Section 4).

#ifndef MMV_CONSTRAINT_SOLVER_H_
#define MMV_CONSTRAINT_SOLVER_H_

#include <limits>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "constraint/constraint.h"
#include "constraint/substitution.h"

namespace mmv {

/// \brief A (possibly unbounded) numeric interval with open/closed ends.
struct Interval {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_strict = false;
  bool hi_strict = false;
  bool integral = false;  ///< domain restricted to integers

  /// \brief The full real line.
  static Interval All() { return Interval(); }

  /// \brief [v, v].
  static Interval Point(double v) {
    Interval i;
    i.lo = i.hi = v;
    return i;
  }

  /// \brief True iff no double satisfies the interval.
  bool Empty() const;

  /// \brief True iff \p v lies inside.
  bool Contains(double v) const;

  /// \brief Intersects in place; returns false when result is empty.
  bool IntersectWith(const Interval& other);

  /// \brief True iff this is (-inf, +inf) without integrality.
  bool Unbounded() const {
    return !integral && lo == -std::numeric_limits<double>::infinity() &&
           hi == std::numeric_limits<double>::infinity();
  }

  /// \brief Number of integers inside, or nullopt when infinite.
  /// Only meaningful when integral.
  std::optional<int64_t> IntegralCount() const;

  std::string ToString() const;
};

/// \brief Result kind of evaluating a DCA-atom's domain call.
enum class DcaResultKind : uint8_t {
  kFinite,    ///< an explicit finite set of values
  kInterval,  ///< a symbolic (possibly infinite) numeric interval
  kUnknown,   ///< the domain cannot decide now -> defer
};

/// \brief Set of values denoted by a domain call.
struct DcaResult {
  DcaResultKind kind = DcaResultKind::kUnknown;
  std::vector<Value> values;  ///< kFinite
  Interval interval;          ///< kInterval

  static DcaResult Finite(std::vector<Value> vs) {
    DcaResult r;
    r.kind = DcaResultKind::kFinite;
    r.values = std::move(vs);
    return r;
  }
  static DcaResult Of(Interval i) {
    DcaResult r;
    r.kind = DcaResultKind::kInterval;
    r.interval = i;
    return r;
  }
  static DcaResult Unknown() { return DcaResult(); }
};

/// \brief Evaluates domain calls; implemented by domain::DomainManager.
///
/// \p args are the call's arguments with variables already replaced by their
/// bound values (all ground).
class DcaEvaluator {
 public:
  DcaEvaluator();
  /// Copies get a FRESH identity: a copied evaluator is a distinct state
  /// source as far as epoch-gated memos are concerned (mirrors Program).
  DcaEvaluator(const DcaEvaluator& other);
  DcaEvaluator& operator=(const DcaEvaluator& other);
  virtual ~DcaEvaluator() = default;
  virtual Result<DcaResult> Evaluate(const std::string& domain,
                                     const std::string& function,
                                     const std::vector<Value>& args) = 0;

  /// \brief Process-unique identity of this evaluator instance. Epoch
  /// values (StateEpoch) are only comparable BETWEEN calls on one
  /// evaluator; memo gates pair the epoch with this id so two different
  /// evaluators that happen to report the same epoch value are never
  /// confused (see SolveCache::SyncEpoch).
  uint64_t instance_id() const { return instance_id_; }

  /// \brief Tag of the external state Evaluate() reads: two calls at the
  /// same epoch see the same function meanings, so solver memos
  /// (SolveCache::SyncEpoch) stay valid while the epoch stands still.
  /// Epochs are opaque — compare them only for equality; they are not
  /// monotone (pinning evaluation to a historical tick legitimately moves
  /// the epoch backward). Stateless evaluators keep the default constant
  /// epoch; DomainManager reports its effective tick combined with the
  /// clock's same-tick mutation counter.
  virtual int64_t StateEpoch() const { return 0; }

  /// \brief True when concurrent Evaluate() calls are safe WITHOUT
  /// external serialization, provided no writer mutates the backing state
  /// for the duration (the same single-writer contract StateEpoch already
  /// polices: parallel passes capture the epoch up front and fail loudly
  /// on a mismatch). Defaults to false — engines run sequentially over
  /// evaluators that do not opt in; DomainManager reports true when every
  /// registered domain is a pure reader and its call cache is off.
  virtual bool ConcurrentReadSafe() const { return false; }

 private:
  uint64_t instance_id_;
};

/// \brief Outcome of a satisfiability check.
enum class SolveOutcome : uint8_t {
  kUnsat,        ///< provably no solution
  kSat,          ///< provably has a solution
  kSatDeferred,  ///< no contradiction; some literals deferred (treated sat)
  kError,        ///< evaluator failure; see Solver::last_status()
};

/// \brief True for kSat and kSatDeferred (the paper's "solvable").
inline bool IsSolvable(SolveOutcome o) {
  return o == SolveOutcome::kSat || o == SolveOutcome::kSatDeferred;
}

/// \brief Counters for benchmarking the solver (E8).
struct SolveStats {
  int64_t solve_calls = 0;
  int64_t dca_evaluations = 0;
  int64_t choice_branches = 0;
  int64_t literals_processed = 0;
  int64_t cache_hits = 0;  ///< Solve calls answered by the SolveCache memo

  SolveStats& operator+=(const SolveStats& other) {
    solve_calls += other.solve_calls;
    dca_evaluations += other.dca_evaluations;
    choice_branches += other.choice_branches;
    literals_processed += other.literals_processed;
    cache_hits += other.cache_hits;
    return *this;
  }
};

/// \brief Description of one variable equivalence class after propagation,
/// used by query::Enumerate to drive solution enumeration.
struct VarDomainInfo {
  std::vector<VarId> members;            ///< variables in the class
  std::optional<Value> bound;            ///< forced single value
  std::optional<std::vector<Value>> candidates;  ///< finite candidate set
  Interval interval;                     ///< numeric restriction
  std::vector<Value> excluded;           ///< values ruled out by !=
  bool touched_by_deferred = false;      ///< a deferred literal mentions it
};

class SolveCache;

/// \brief Tuning knobs for the solver.
struct SolverOptions {
  /// Upper bound on choice combinations (not-blocks plus candidate splits)
  /// explored per Solve; exhausted budgets report kSatDeferred.
  int64_t max_choice_branches = 100000;
  /// When false, DCA-atoms are never evaluated (pure W_P syntactic mode).
  bool evaluate_dca = true;
  /// Case-split on finite DCA candidate sets to decide deferred literals
  /// (complete search; the honest cost of T_P solvability checks over
  /// chained domain calls).
  bool split_candidates = true;
  /// Optional memo of outcomes keyed by canonical constraint form
  /// (constraint/solve_cache.h). Not owned. The caller guarantees the
  /// evaluator state and solver options stay fixed for the cache lifetime;
  /// every Solver sharing one cache must use identical options.
  SolveCache* cache = nullptr;
};

/// \brief Satisfiability engine for constraints.
///
/// Not thread-safe; create one per thread. The evaluator may be null, in
/// which case every DCA-atom is deferred.
class Solver {
 public:
  explicit Solver(DcaEvaluator* evaluator, SolverOptions options = {})
      : evaluator_(evaluator), options_(options) {}

  /// \brief Decides satisfiability of \p c. When options.cache is set, a
  /// canonical-form memo answers repeated shapes without re-solving.
  SolveOutcome Solve(const Constraint& c);

  /// \brief Propagates the positive primitives of \p c and reports the
  /// per-class domains (for enumeration). Fails when the positive part is
  /// already unsatisfiable.
  Result<std::vector<VarDomainInfo>> Analyze(const Constraint& c);

  /// \brief Last evaluator error (only meaningful after kError).
  const Status& last_status() const { return last_status_; }

  const SolveStats& stats() const { return stats_; }
  void ResetStats() { stats_ = SolveStats(); }

 private:
  friend class ConjunctionState;
  SolveOutcome SolveUncached(const Constraint& c);
  SolveOutcome SolveConjunctionWithSplits(
      std::vector<Primitive>* prims, int64_t* budget,
      std::unordered_map<std::string, DcaResult>* cache);

  DcaEvaluator* evaluator_;
  SolverOptions options_;
  Status last_status_;
  SolveStats stats_;
};

}  // namespace mmv

#endif  // MMV_CONSTRAINT_SOLVER_H_
