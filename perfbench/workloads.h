// The benchmark's three workloads. Each is generated from the seed alone:
// the program text the mediator starts from, the stream of update bursts
// the writer sends, and the point queries the reader sends, together with
// the answer each query must get at the epoch it pins.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/value.h"

namespace perfbench {

/// \brief One read: a point query on each of \p preds for the same
/// values, and the answer the generator knows each must get.
struct ReadQuery {
  std::vector<std::string> preds;
  std::vector<mmv::Value> values;
  bool use_query_pred = false;  ///< QueryPred with constants, else Ask
  bool expect = false;          ///< pred(values) is an instance
};

/// \brief Fixed shape of one workload's run.
struct WorkloadShape {
  int engine_threads = 1;
  /// Seconds between due times of consecutive bursts; 0 = closed loop
  /// (the next burst is due when the previous one returned).
  double burst_interval_s = 0;
  double read_rate_hz = 0;  ///< open-loop point queries per second
  /// DurabilityOptions::checkpoint_every_records. Runs end on a fixed
  /// position of the full-frame cycle (see main.cc), so recovery always
  /// composes the same chain and replays the same number of bursts.
  uint64_t checkpoint_every = 16;
  uint64_t end_position = 0;  ///< committed bursts mod the cycle at the end
};

/// \brief A workload generator. NextBurst is called by the writer thread
/// only; MakeRead may be called concurrently from the reader thread.
class Workload {
 public:
  virtual ~Workload() = default;

  const std::string& name() const { return name_; }
  const WorkloadShape& shape() const { return shape_; }

  /// \brief The mediator program for the CURRENT model state: the rules
  /// plus every live base fact. Called before the first burst it is the
  /// initial program; called after the last it is the input of the
  /// declarative recompute oracle.
  virtual std::string ProgramText() const = 0;

  /// \brief Advances the model by one burst and returns its text in the
  /// burst-file format (parser::ParseBurst). Writer thread only.
  virtual std::string NextBurst() = 0;

  /// \brief A read whose answers are known after \p bursts_applied bursts
  /// (the pinned epoch's position in the stream).
  virtual ReadQuery MakeRead(uint64_t bursts_applied, mmv::Rng* rng) const = 0;

 protected:
  Workload(std::string name, WorkloadShape shape)
      : name_(std::move(name)), shape_(shape) {}

 private:
  std::string name_;
  WorkloadShape shape_;
};

/// \brief Builds the named workload from \p seed, or null for an unknown
/// name. \p nproc bounds the engine thread count.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       int nproc);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
