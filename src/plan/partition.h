// Sharded fan-out: the engine's one parallel axis.
//
// The fixpoint engine shards the depth-0 candidate sequence of a large
// (clause, pivot) window — the seminaive pivot bucket — into contiguous
// ranges, one ThreadPool task each; StDel's step-3 shards a P_OUT pair's
// parent lift checks the same way. The split must be deterministic (it
// feeds a byte-identity merge) and must never split or duplicate an entry,
// so the shard count, the range arithmetic and the epoch-guarded runner
// live here, shared by both sites and unit-tested directly.

#ifndef MMV_PLAN_PARTITION_H_
#define MMV_PLAN_PARTITION_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>

#include "common/status.h"

namespace mmv {

class DcaEvaluator;

namespace plan {

/// \brief Minimum depth-0 candidates per shard before a pivot window is
/// worth splitting: below this, staging/merge bookkeeping outweighs the
/// join work a shard would carry. Windows under 2x this threshold run
/// inline (reported as partition_skipped_small).
constexpr size_t kMinPartitionItems = 64;

/// \brief Number of contiguous shards for \p items work units, at most
/// \p max_partitions, requiring at least \p min_per_shard items per shard.
/// Returns 1 ("do not split") for sequential callers, empty inputs and
/// windows too small to amortize the fan-out. Deterministic in its
/// arguments only — never in thread scheduling — so a sharded pivot's
/// layout is a pure function of its frozen delta window.
inline int PartitionCountFor(size_t items, int max_partitions,
                             size_t min_per_shard = kMinPartitionItems) {
  if (max_partitions <= 1 || min_per_shard == 0) return 1;
  if (items < 2 * min_per_shard) return 1;
  size_t by_items = items / min_per_shard;
  size_t cap = static_cast<size_t>(max_partitions);
  return static_cast<int>(std::min(by_items, cap));
}

/// \brief Half-open item range [begin, end) of shard \p shard out of
/// \p partitions over \p items units. The ranges of shards 0..partitions-1
/// are contiguous, disjoint and cover [0, items) exactly — no entry is
/// split across shards or enumerated twice — with sizes differing by at
/// most one (leading shards take the remainder).
inline std::pair<size_t, size_t> PartitionRange(size_t items, int partitions,
                                                int shard) {
  size_t p = static_cast<size_t>(partitions < 1 ? 1 : partitions);
  size_t s = static_cast<size_t>(shard);
  size_t base = items / p;
  size_t rem = items % p;
  size_t begin = s * base + std::min(s, rem);
  size_t end = begin + base + (s < rem ? 1 : 0);
  return {begin, end};
}

/// \brief Runs fn(shard, begin, end) over the PartitionRange of every
/// shard in [0, \p partitions) on the global ThreadPool, with at most
/// \p max_threads threads. The shards share \p evaluator (may be null)
/// lock-free, which is sound only while no writer moves its external
/// state: the StateEpoch is captured before the fan-out and re-checked
/// after, and a move fails the call with Status::Internal naming \p what.
/// On that error the caller must discard the shards' outputs unmerged.
Status RunShards(size_t items, int partitions, int max_threads,
                 const DcaEvaluator* evaluator, const char* what,
                 const std::function<void(int, size_t, size_t)>& fn);

}  // namespace plan
}  // namespace mmv

#endif  // MMV_PLAN_PARTITION_H_
