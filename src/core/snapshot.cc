#include "core/snapshot.h"

#include <utility>

namespace mmv {

namespace {

SnapshotHandle EmptySnapshot() {
  auto s = std::make_shared<ViewSnapshot>();
  s->image = std::make_shared<SnapshotImage>();
  return s;
}

}  // namespace

SnapshotStore::SnapshotStore() : current_(EmptySnapshot()) {}

SnapshotHandle SnapshotStore::Pin() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

uint64_t SnapshotStore::PublishImage(SnapshotImageHandle image) {
  // Image extraction already happened OUTSIDE the lock (and was O(delta)
  // thanks to structural sharing); the swap itself is two pointer writes,
  // so readers keep pinning at full speed throughout. The previous epoch
  // is released after the lock: dropping the last reference frees every
  // segment only it held, which must not stall a reader's Pin.
  auto next = std::make_shared<ViewSnapshot>();
  next->image = image != nullptr ? std::move(image)
                                 : std::make_shared<SnapshotImage>();
  SnapshotHandle previous;
  std::lock_guard<std::mutex> lock(mu_);
  next->epoch = current_->epoch + 1;
  previous = std::exchange(current_, std::move(next));
  return current_->epoch;
}

void SnapshotStore::RestoreAtImage(SnapshotImageHandle image,
                                   uint64_t epoch) {
  auto next = std::make_shared<ViewSnapshot>();
  next->image = image != nullptr ? std::move(image)
                                 : std::make_shared<SnapshotImage>();
  next->epoch = epoch;
  SnapshotHandle previous;  // released after the lock, as in PublishImage
  std::lock_guard<std::mutex> lock(mu_);
  previous = std::exchange(current_, std::move(next));
}

uint64_t SnapshotStore::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_->epoch;
}

}  // namespace mmv
