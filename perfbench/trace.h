// Tracing for the benchmark's traced run: spans the benchmark records
// around its own calls into each layer, and thin wrappers over the
// library's seams (DcaEvaluator, durability::Fs, maint::BurstLog) that
// count and time the calls the library makes through them.
//
// Spans live in per-thread buffers and are only read after every
// recording thread has been joined. A span's self time is its duration
// minus the time covered by its direct children (children of one span run
// on the span's thread, one after another, so they never overlap).

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "constraint/solver.h"
#include "durability/durable_log.h"
#include "durability/fs.h"

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

/// \brief Nanoseconds between two steady-clock points.
inline int64_t NanosBetween(SteadyClock::time_point a,
                            SteadyClock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// \brief One closed span.
struct SpanRecord {
  const char* name = "";
  uint64_t request = 0;  ///< burst or read number the span belongs to
  int64_t parent = -1;   ///< index in the same thread's buffer; -1 = root
  int64_t start_ns = 0;  ///< since the tracer's origin
  int64_t end_ns = 0;
  int64_t child_ns = 0;  ///< time covered by direct children

  int64_t self_ns() const { return end_ns - start_ns - child_ns; }
};

/// \brief Count and summed self time of every span with one name.
struct SpanTotals {
  int64_t count = 0;
  int64_t self_ns = 0;

  double MeanMs() const { return count == 0 ? 0 : self_ns / 1e6 / count; }
};

/// \brief Span recorder shared by the benchmark's threads.
class Tracer {
 public:
  struct ThreadBuffer {
    std::string thread;
    std::vector<SpanRecord> spans;
    std::vector<size_t> open;  // indices of the open spans, innermost last
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// \brief The calling thread's buffer, registered on first use.
  ThreadBuffer* ThisThread(const char* thread_name = "thread");

  int64_t NowNs() const { return NanosBetween(origin_, SteadyClock::now()); }

  /// \brief Per-name totals over every thread (call once recording ended).
  std::map<std::string, SpanTotals> Totals() const;

  /// \brief Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const uint64_t id_;
  const SteadyClock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> threads_;  // guarded by mu_
};

/// \brief RAII span on the calling thread; a no-op when the tracer is
/// null, so untraced runs pay one branch. A span opened inside another
/// inherits its request number.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// \brief Renames the span before it closes (for spans whose kind is
  /// only known once the call returned).
  void Rename(const char* name);

 private:
  Tracer* tracer_;
  Tracer::ThreadBuffer* buffer_ = nullptr;
  size_t index_ = 0;
};

/// \brief Forwards to another evaluator and counts calls and time spent.
/// Thread-safe: the engine's parallel passes call it concurrently when the
/// wrapped evaluator reports ConcurrentReadSafe(). Each thread counts into
/// its own slot, so the counting adds no shared cache-line traffic to the
/// parallel passes it measures; read the totals once those passes ended.
class CountingEvaluator : public mmv::DcaEvaluator {
 public:
  explicit CountingEvaluator(mmv::DcaEvaluator* inner);
  CountingEvaluator(const CountingEvaluator&) = delete;
  CountingEvaluator& operator=(const CountingEvaluator&) = delete;

  mmv::Result<mmv::DcaResult> Evaluate(
      const std::string& domain, const std::string& function,
      const std::vector<mmv::Value>& args) override;
  int64_t StateEpoch() const override { return inner_->StateEpoch(); }
  bool ConcurrentReadSafe() const override {
    return inner_->ConcurrentReadSafe();
  }

  int64_t calls() const;
  int64_t nanos() const;

 private:
  struct alignas(64) Slot {
    std::atomic<int64_t> calls{0};
    std::atomic<int64_t> nanos{0};
  };
  Slot* ThisThreadSlot();

  mmv::DcaEvaluator* inner_;
  const uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Slot>> slots_;  // guarded by mu_
};

/// \brief Forwards to another Fs and counts the bytes written into the
/// state directory. With a tracer attached it also records
/// spans around Sync ("durability.fs_sync") and ReadFile
/// ("recovery.fs_read").
class MeteredFs : public mmv::durability::Fs {
 public:
  explicit MeteredFs(mmv::durability::Fs* inner) : inner_(inner) {}

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  int64_t bytes_written() const { return bytes_written_; }

  mmv::Result<std::string> ReadFile(const std::string& path) override;
  mmv::Result<bool> Exists(const std::string& path) override {
    return inner_->Exists(path);
  }
  mmv::Result<std::vector<std::string>> List(
      const std::string& dir) override {
    return inner_->List(dir);
  }
  mmv::Status WriteFile(const std::string& path,
                        std::string_view data) override;
  mmv::Status Append(const std::string& path, std::string_view data) override;
  mmv::Status Truncate(const std::string& path, uint64_t size) override {
    return inner_->Truncate(path, size);
  }
  mmv::Status Rename(const std::string& from, const std::string& to) override {
    return inner_->Rename(from, to);
  }
  mmv::Status Remove(const std::string& path) override {
    return inner_->Remove(path);
  }
  mmv::Status Sync(const std::string& path) override;
  mmv::Status CreateDir(const std::string& dir) override {
    return inner_->CreateDir(dir);
  }

 private:
  mmv::durability::Fs* inner_;
  Tracer* tracer_ = nullptr;
  int64_t bytes_written_ = 0;
};

/// \brief Forwards ApplyBatch's log hooks to a DurableLog inside spans:
/// "durability.log_burst", and "durability.commit_checkpoint" or
/// "durability.commit_sync" depending on whether the commit wrote a
/// checkpoint frame. Counts the frames and their bytes.
class TracedBurstLog : public mmv::maint::BurstLog {
 public:
  TracedBurstLog(mmv::durability::DurableLog* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  mmv::Status LogBurst(const std::vector<mmv::maint::Update>& updates) override;
  mmv::Status CommitBurst(const mmv::SnapshotImageHandle& image,
                          mmv::maint::BatchStats* stats) override;
  void AbortBurst() override { inner_->AbortBurst(); }

  int64_t full_frames() const { return full_frames_; }
  int64_t delta_frames() const { return delta_frames_; }
  int64_t frame_bytes() const { return frame_bytes_; }

 private:
  mmv::durability::DurableLog* inner_;
  Tracer* tracer_;
  int64_t full_frames_ = 0;
  int64_t delta_frames_ = 0;
  int64_t frame_bytes_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
