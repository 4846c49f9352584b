#include "perfbench/trace.h"

#include <cstdio>

namespace perfbench {
namespace {

std::atomic<uint64_t> next_tracer_id{1};

// The calling thread's buffer in the tracer with id tl_tracer_id. Tracer
// ids are never reused, so a stale cache entry can never match.
thread_local uint64_t tl_tracer_id = 0;
thread_local Tracer::ThreadBuffer* tl_buffer = nullptr;

// Likewise for the calling thread's slot in a CountingEvaluator.
std::atomic<uint64_t> next_counter_id{1};
thread_local uint64_t tl_counter_id = 0;
thread_local void* tl_slot = nullptr;

}  // namespace

Tracer::Tracer() : id_(next_tracer_id++), origin_(SteadyClock::now()) {}

Tracer::ThreadBuffer* Tracer::ThisThread(const char* thread_name) {
  if (tl_tracer_id != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<ThreadBuffer>());
    threads_.back()->thread = thread_name;
    threads_.back()->spans.reserve(1 << 14);
    tl_buffer = threads_.back().get();
    tl_tracer_id = id_;
  }
  return tl_buffer;
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, SpanTotals> totals;
  for (const auto& thread : threads_) {
    for (const SpanRecord& span : thread->spans) {
      SpanTotals& t = totals[span.name];
      t.count += 1;
      t.self_ns += span.self_ns();
    }
  }
  return totals;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t t = 0; t < threads_.size(); ++t) {
    const ThreadBuffer& thread = *threads_[t];
    for (size_t i = 0; i < thread.spans.size(); ++i) {
      const SpanRecord& s = thread.spans[i];
      std::fprintf(f,
                   "{\"thread\":\"%s\",\"id\":%zu,\"parent\":%lld,"
                   "\"name\":\"%s\",\"request\":%llu,\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"self_ns\":%lld}\n",
                   thread.thread.c_str(), i,
                   static_cast<long long>(s.parent), s.name,
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.self_ns()));
    }
  }
  return std::fclose(f) == 0;
}

Span::Span(Tracer* tracer, const char* name, uint64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  buffer_ = tracer_->ThisThread();
  SpanRecord record;
  record.name = name;
  record.request = request;
  if (!buffer_->open.empty()) {
    record.parent = static_cast<int64_t>(buffer_->open.back());
    if (request == 0) {
      record.request = buffer_->spans[buffer_->open.back()].request;
    }
  }
  index_ = buffer_->spans.size();
  buffer_->open.push_back(index_);
  record.start_ns = tracer_->NowNs();
  buffer_->spans.push_back(record);
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  SpanRecord& record = buffer_->spans[index_];
  record.end_ns = tracer_->NowNs();
  buffer_->open.pop_back();
  if (record.parent >= 0) {
    buffer_->spans[static_cast<size_t>(record.parent)].child_ns +=
        record.end_ns - record.start_ns;
  }
}

void Span::Rename(const char* name) {
  if (tracer_ != nullptr) buffer_->spans[index_].name = name;
}

CountingEvaluator::CountingEvaluator(mmv::DcaEvaluator* inner)
    : inner_(inner), id_(next_counter_id++) {}

CountingEvaluator::Slot* CountingEvaluator::ThisThreadSlot() {
  if (tl_counter_id != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    slots_.push_back(std::make_unique<Slot>());
    tl_slot = slots_.back().get();
    tl_counter_id = id_;
  }
  return static_cast<Slot*>(tl_slot);
}

mmv::Result<mmv::DcaResult> CountingEvaluator::Evaluate(
    const std::string& domain, const std::string& function,
    const std::vector<mmv::Value>& args) {
  Slot* slot = ThisThreadSlot();
  SteadyClock::time_point start = SteadyClock::now();
  mmv::Result<mmv::DcaResult> result =
      inner_->Evaluate(domain, function, args);
  slot->nanos.fetch_add(NanosBetween(start, SteadyClock::now()),
                        std::memory_order_relaxed);
  slot->calls.fetch_add(1, std::memory_order_relaxed);
  return result;
}

int64_t CountingEvaluator::calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& slot : slots_) {
    total += slot->calls.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t CountingEvaluator::nanos() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& slot : slots_) {
    total += slot->nanos.load(std::memory_order_relaxed);
  }
  return total;
}

mmv::Result<std::string> MeteredFs::ReadFile(const std::string& path) {
  Span span(tracer_, "recovery.fs_read");
  return inner_->ReadFile(path);
}

mmv::Status MeteredFs::WriteFile(const std::string& path,
                                 std::string_view data) {
  bytes_written_ += static_cast<int64_t>(data.size());
  return inner_->WriteFile(path, data);
}

mmv::Status MeteredFs::Append(const std::string& path,
                              std::string_view data) {
  bytes_written_ += static_cast<int64_t>(data.size());
  return inner_->Append(path, data);
}

mmv::Status MeteredFs::Sync(const std::string& path) {
  Span span(tracer_, "durability.fs_sync");
  return inner_->Sync(path);
}

mmv::Status TracedBurstLog::LogBurst(
    const std::vector<mmv::maint::Update>& updates) {
  Span span(tracer_, "durability.log_burst");
  return inner_->LogBurst(updates);
}

mmv::Status TracedBurstLog::CommitBurst(const mmv::SnapshotImageHandle& image,
                                        mmv::maint::BatchStats* stats) {
  Span span(tracer_, "durability.commit_sync");
  const int64_t frames = inner_->checkpoints_written();
  const int64_t deltas = inner_->delta_checkpoints_written();
  mmv::Status status = inner_->CommitBurst(image, stats);
  if (inner_->checkpoints_written() != frames) {
    span.Rename("durability.commit_checkpoint");
    if (inner_->delta_checkpoints_written() != deltas) {
      ++delta_frames_;
    } else {
      ++full_frames_;
    }
    frame_bytes_ += static_cast<int64_t>(inner_->last_checkpoint_bytes());
  }
  return status;
}

}  // namespace perfbench
