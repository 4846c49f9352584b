#include "plan/partition.h"

#include <string>

#include "constraint/solver.h"
#include "core/thread_pool.h"

namespace mmv {
namespace plan {

Status RunShards(size_t items, int partitions, int max_threads,
                 const DcaEvaluator* evaluator, const char* what,
                 const std::function<void(int, size_t, size_t)>& fn) {
  int64_t epoch_before = evaluator != nullptr ? evaluator->StateEpoch() : 0;
  ThreadPool::Global().ParallelFor(
      static_cast<size_t>(partitions), max_threads, [&](size_t shard) {
        int s = static_cast<int>(shard);
        auto [begin, end] = PartitionRange(items, partitions, s);
        fn(s, begin, end);
      });
  if (evaluator != nullptr && evaluator->StateEpoch() != epoch_before) {
    return Status::Internal(
        std::string("external state changed under a parallel ") + what +
        " (evaluator epoch " + std::to_string(epoch_before) + " -> " +
        std::to_string(evaluator->StateEpoch()) +
        "); concurrent evaluation requires a quiescent external database");
  }
  return Status::OK();
}

}  // namespace plan
}  // namespace mmv
