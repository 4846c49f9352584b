// SolveCache: a memo of satisfiability outcomes keyed by canonical
// constraint form.
//
// Repeated join steps of one clause produce constraints that are identical
// modulo fresh-variable numbering (ubiquitous in chain rules), and
// maintenance passes re-solve canonically identical lifts and replaced
// constraints; the memo collapses each canonical class to one real Solve.
//
// Validity contract: a cached outcome is only as durable as the state it
// was computed against. Callers own the cache and must use one cache per
// (DcaEvaluator state, SolverOptions) regime — e.g. one per materialization
// run or per maintenance batch, during which the external database does not
// change — and Clear() or drop it when that state moves. The cache is not
// thread-safe; keep it with the Solver that owns it.
//
// Catalog-epoch tag: long-lived caches (a memo threaded through many
// maintenance batches of a read-mostly mediator) call SyncEpoch with the
// evaluator's identity and current state epoch (DcaEvaluator::instance_id
// / StateEpoch) at each batch boundary; the memo survives untouched while
// the external database stands still and flushes exactly when it moved.
// maint::ApplyBatch does this for the cache handed to it through
// FixpointOptions::solve_cache. Note the view's OWN atoms are not part of
// the solver's state — Solve decides pure constraint satisfiability
// against the domains — so view maintenance alone never invalidates the
// memo.
//
// Residual caller obligation: the tag only observes state at SyncEpoch
// call sites. Populating a TAGGED memo through paths that never sync
// (Materialize / ContinueFixpoint / standalone InsertBatch via
// FixpointOptions::solve_cache) while the evaluator is at a DIFFERENT
// state (e.g. pinned to a historical tick) plants entries the next
// same-epoch SyncEpoch cannot detect — the original one-cache-per-state
// contract above still applies to such interleavings.

#ifndef MMV_CONSTRAINT_SOLVE_CACHE_H_
#define MMV_CONSTRAINT_SOLVE_CACHE_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "constraint/canonical.h"

namespace mmv {

enum class SolveOutcome : uint8_t;

/// \brief Counters of one cache lifetime.
struct SolveCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t full = 0;  ///< inserts dropped because the cache was at capacity
  int64_t epoch_flushes = 0;  ///< SyncEpoch calls that dropped the memo
};

/// \brief Memo of Solve outcomes keyed by CanonicalConstraintKey.
class SolveCache {
 public:
  static constexpr size_t kDefaultMaxEntries = 1u << 20;

  explicit SolveCache(size_t max_entries = kDefaultMaxEntries)
      : max_entries_(max_entries) {}

  /// \brief The cached outcome for \p key, or nullptr on miss.
  const SolveOutcome* Lookup(const CanonicalKey& key);

  /// \brief Records an outcome; a no-op once max_entries is reached (the
  /// cache never evicts — bounded staleness is the caller's contract).
  void Insert(const CanonicalKey& key, SolveOutcome outcome);

  /// \brief Drops every entry (stats survive).
  void Clear() { map_.clear(); }

  /// \brief Tags the memo with the external database's current state:
  /// \p source identifies the evaluator (DcaEvaluator::instance_id — epoch
  /// values are only comparable within one evaluator) and \p epoch its
  /// DcaEvaluator::StateEpoch.
  ///
  /// Calls with the tagged (source, epoch) pair are no-ops; any other call
  /// (a different evaluator, a different epoch, or the first tagging of a
  /// memo that already holds entries — those may predate the given state)
  /// drops every entry before (re-)tagging. Returns true iff entries were
  /// dropped.
  bool SyncEpoch(uint64_t source, int64_t epoch);

  /// \brief The tagged epoch, or -1 when never tagged.
  int64_t epoch() const { return has_epoch_ ? epoch_ : -1; }

  /// \brief The tagged evaluator id, or 0 when never tagged.
  uint64_t epoch_source() const { return has_epoch_ ? source_ : 0; }

  size_t size() const { return map_.size(); }
  const SolveCacheStats& stats() const { return stats_; }

  /// \brief Reusable rendering buffer for key computation, so hot paths
  /// allocate at most once per high-water mark.
  std::string* scratch() { return &scratch_; }

 private:
  size_t max_entries_;
  bool has_epoch_ = false;
  uint64_t source_ = 0;
  int64_t epoch_ = 0;
  SolveCacheStats stats_;
  std::unordered_map<CanonicalKey, SolveOutcome, CanonicalKey::Hasher> map_;
  std::string scratch_;
};

}  // namespace mmv

#endif  // MMV_CONSTRAINT_SOLVE_CACHE_H_
