// Durability costs: what the WAL adds to a burst, what a checkpoint of a
// view costs, and how cold-start recovery scales with view size and WAL
// tail length. Everything runs on MemFs so the numbers isolate the
// serialization / framing / replay work from disk latency; the replay half
// of RecoverColdStart exercises the same maint::ApplyBatch pipeline the
// live system runs.
//
// Work-product counters (wal_records, wal_bytes, checkpoints, replayed,
// view_atoms) are deterministic functions of the workload — identical
// across join modes and thread counts — so the sidecar diff in CI compares
// them like the other bench binaries' derived-atom counts.

#include "bench_util.h"

#include <cstdint>
#include <sstream>
#include <vector>

#include "core/snapshot.h"
#include "durability/durable_log.h"
#include "durability/fs.h"
#include "maintenance/batch.h"
#include "parser/view_io.h"

namespace mmv {
namespace bench {
namespace {

std::vector<maint::Update> ParseBurstOrAbort(const std::string& text,
                                             Program* p) {
  Result<std::vector<parser::ParsedUpdate>> parsed =
      parser::ParseBurst(text, p);
  if (!parsed.ok()) std::abort();
  std::vector<maint::Update> burst;
  burst.reserve(parsed->size());
  for (parser::ParsedUpdate& u : *parsed) {
    maint::UpdateAtom atom{std::move(u.atom.pred), std::move(u.atom.args),
                           std::move(u.atom.constraint)};
    burst.push_back(u.is_delete ? maint::Update::Delete(std::move(atom))
                                : maint::Update::Insert(std::move(atom)));
  }
  return burst;
}

// K fresh base facts: each ripples through every chain level, so the burst
// is real maintenance work, not a no-op append.
std::string InsertBurstText(int k, int width, int generation) {
  std::ostringstream os;
  for (int i = 0; i < k; ++i) {
    os << "ins p0(X) <- X = " << (width + generation * k + i) << ".\n";
  }
  return os.str();
}

// One K-update burst through ApplyBatch, with or without a DurableLog
// attached. The paired cases share the workload, so .../0 vs .../1 in one
// sidecar is the WAL's marginal cost (serialize + frame + CRC + append).
void RunWalOverhead(benchmark::State& state, bool logged) {
  int depth = static_cast<int>(state.range(1));
  int k = static_cast<int>(state.range(2));
  int width = 64;
  World w = World::Make();
  Program p = workload::MakeChain(depth, width);
  FixpointOptions opts = DefaultOptions();
  View base = MustMaterialize(p, w.domains.get(), opts);
  std::vector<maint::Update> burst =
      ParseBurstOrAbort(InsertBurstText(k, width, 0), &p);

  durability::MemFs fs;
  SnapshotStore snapshots;
  snapshots.Publish(base);
  std::unique_ptr<durability::DurableLog> log;
  if (logged) {
    // Cadence 0: the WAL append alone, never a checkpoint. The view is
    // reset every iteration but the log keeps appending — MemFs makes the
    // growing segment an O(1) concern.
    auto created = durability::DurableLog::Create(
        &fs, "state", p, base, snapshots.epoch(), /*ext_counter=*/0, {});
    if (!created.ok()) std::abort();
    log = std::move(*created);
  }

  maint::BatchStats stats;
  for (auto _ : state) {
    state.PauseTiming();
    View v = base;
    state.ResumeTiming();
    Status s = maint::ApplyBatch(p, &v, burst, w.domains.get(), opts,
                                 &stats, log ? log->ext_counter() : nullptr,
                                 &snapshots, log.get());
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    benchmark::DoNotOptimize(v.size());
  }
  state.counters["updates"] = static_cast<double>(burst.size());
  state.counters["added"] = static_cast<double>(stats.insertion_pass_atoms);
  state.counters["wal_records"] = static_cast<double>(stats.wal_records);
  state.counters["wal_bytes"] = static_cast<double>(stats.wal_bytes);
  state.counters["wal_syncs"] = static_cast<double>(stats.wal_syncs);
  // Both modes publish to the SnapshotStore, so the CoW sharing counters
  // are twin-equal: the logged/unlogged pair shares one extraction path.
  state.counters["snapshot_nodes_shared"] =
      static_cast<double>(stats.snapshot_nodes_shared);
  state.counters["snapshot_nodes_copied"] =
      static_cast<double>(stats.snapshot_nodes_copied);
  state.counters["checkpoint_delta_bytes"] =
      static_cast<double>(stats.checkpoint_delta_bytes);
}

// {logged, depth, K}. The logged flag is the FIRST arg on purpose: the
// sidecar comparator pairs names ending in /0 vs /1 as same-work twins,
// and a logged run's wal_records/wal_bytes legitimately differ from the
// unlogged run's zeros.
void BM_WalOverhead(benchmark::State& state) {
  RunWalOverhead(state, state.range(0) != 0);
}
BENCHMARK(BM_WalOverhead)
    ->Args({0, 4, 16})
    ->Args({1, 4, 16})
    ->Args({0, 4, 64})
    ->Args({1, 4, 64})
    ->Unit(benchmark::kMillisecond);

// One checkpoint frame, full vs delta: every iteration advances the epoch
// with a paused 2-update burst on chain 0 of an 8-chain view, then times
// ONE Checkpoint call. Mode 0 forces a full frame — serialize all 32
// predicates, the pre-delta format and cost. Mode 1 writes a delta
// against the previous frame's image: just the 4 chain-0 segments the
// burst dirtied, with their view positions. The delta flag is the FIRST
// arg on purpose (the sidecar comparator pairs names ending in /0 vs /1
// as same-work twins, and checkpoint_bytes legitimately differs); widths
// 16/64/256 keep the trailing arg out of twin territory. {delta, width}.
void BM_CheckpointWrite(benchmark::State& state) {
  const bool delta = state.range(0) != 0;
  int width = static_cast<int>(state.range(1));
  World w = World::Make();
  Program p = workload::MakeMultiChain(8, 4, width);
  FixpointOptions opts = DefaultOptions();
  View view = MustMaterialize(p, w.domains.get(), opts);
  const double view_atoms = static_cast<double>(view.size());

  std::ostringstream del, ins;
  for (int i = 0; i < 2; ++i) {
    del << "del c0_p0(X) <- X = " << i << ".\n";
    ins << "ins c0_p0(X) <- X = " << i << ".\n";
  }
  std::vector<maint::Update> del_burst = ParseBurstOrAbort(del.str(), &p);
  std::vector<maint::Update> ins_burst = ParseBurstOrAbort(ins.str(), &p);

  durability::MemFs fs;
  // Cadence off: the timed Checkpoint calls are the only frames. Create
  // wrote the initial full, so the first timed delta has a parent.
  auto log = durability::DurableLog::Create(&fs, "state", p, view,
                                            /*initial_epoch=*/1,
                                            /*ext_counter=*/0, {});
  if (!log.ok()) std::abort();

  bool deleting = true;
  int64_t frames = 0;
  for (auto _ : state) {
    state.PauseTiming();
    if (delta && ++frames % 64 == 0) {
      // A paused full keeps retention GC's directory scan bounded (GC
      // runs after every frame; an ever-growing delta chain would bleed
      // List() cost into the timed region). BEFORE the burst, so the
      // timed frame below still sees an advanced epoch and stays a delta.
      Status full = (*log)->Checkpoint(
          view, durability::DurableLog::CheckpointKind::kFull);
      if (!full.ok()) state.SkipWithError(full.ToString().c_str());
    }
    const std::vector<maint::Update>& burst = deleting ? del_burst
                                                       : ins_burst;
    deleting = !deleting;
    Status s = maint::ApplyBatch(p, &view, burst, w.domains.get(), opts,
                                 nullptr, (*log)->ext_counter(), nullptr,
                                 log->get());
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    state.ResumeTiming();
    s = (*log)->Checkpoint(
        view, delta ? durability::DurableLog::CheckpointKind::kDelta
                    : durability::DurableLog::CheckpointKind::kFull);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  }
  state.counters["view_atoms"] = view_atoms;
  state.counters["checkpoint_bytes"] =
      static_cast<double>((*log)->last_checkpoint_bytes());
  state.counters["delta_checkpoints"] =
      static_cast<double>((*log)->delta_checkpoints_written());
}
BENCHMARK(BM_CheckpointWrite)
    ->Args({0, 16})
    ->Args({1, 16})
    ->Args({0, 64})
    ->Args({1, 64})
    ->Args({0, 256})
    ->Args({1, 256})
    ->Unit(benchmark::kMillisecond);

// Cold-start recovery vs view size and WAL tail: build a state directory
// (initial checkpoint of a width-wide chain view + `tail` committed bursts
// of 4 updates each, cadence off so the tail really is replayed), then
// measure DurableLog::Recover — checkpoint validation, view
// deserialization and ApplyBatch replay of the tail.
void BM_RecoverColdStart(benchmark::State& state) {
  int width = static_cast<int>(state.range(0));
  int tail = static_cast<int>(state.range(1));
  World w = World::Make();
  Program p = workload::MakeChain(4, width);
  FixpointOptions opts = DefaultOptions();
  View view = MustMaterialize(p, w.domains.get(), opts);

  durability::MemFs fs;
  SnapshotStore snapshots;
  snapshots.Publish(view);
  {
    auto log = durability::DurableLog::Create(
        &fs, "state", p, view, snapshots.epoch(), /*ext_counter=*/0, {});
    if (!log.ok()) std::abort();
    for (int g = 0; g < tail; ++g) {
      std::vector<maint::Update> burst =
          ParseBurstOrAbort(InsertBurstText(4, width, g), &p);
      Status s = maint::ApplyBatch(p, &view, burst, w.domains.get(), opts,
                                   nullptr, (*log)->ext_counter(),
                                   &snapshots, log->get());
      if (!s.ok()) std::abort();
    }
  }

  // Recovery never mutates a clean MemFs image (no torn tail to truncate,
  // no orphan tmp), so re-recovering the same directory is idempotent.
  durability::RecoveryInfo info;
  View recovered;
  for (auto _ : state) {
    SnapshotStore rec_snapshots;
    auto rec = durability::DurableLog::Recover(&fs, "state", &p,
                                               w.domains.get(), opts,
                                               &rec_snapshots, &info);
    if (!rec.ok()) {
      state.SkipWithError(rec.status().ToString().c_str());
      break;
    }
    recovered = (*rec)->TakeRecoveredView();
    benchmark::DoNotOptimize(recovered.size());
  }
  state.counters["view_atoms"] = static_cast<double>(recovered.size());
  state.counters["replayed"] = static_cast<double>(info.replayed_bursts);
  state.counters["replay_added"] =
      static_cast<double>(info.replay_stats.insertion_pass_atoms);
  state.counters["checkpoint_epoch"] =
      static_cast<double>(info.checkpoint_epoch);
  state.counters["delta_checkpoints_composed"] =
      static_cast<double>(info.delta_checkpoints_composed);
  state.counters["checkpoint_delta_bytes"] =
      static_cast<double>(info.checkpoint_delta_bytes);
}
// {width, tail}: tail 0 isolates checkpoint load; tail 8 adds replay.
BENCHMARK(BM_RecoverColdStart)
    ->Args({16, 0})
    ->Args({64, 0})
    ->Args({256, 0})
    ->Args({16, 8})
    ->Args({64, 8})
    ->Args({256, 8})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace mmv
