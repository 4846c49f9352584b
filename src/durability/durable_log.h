// The durability subsystem's front door: one DurableLog per state
// directory journals applied bursts ahead of maintenance (wal.h), writes
// periodic canonical checkpoints (checkpoint.h) and rebuilds the exact
// pre-crash state from the two after a restart.
//
// State directory layout:
//
//   ckpt-<epoch>.mmv   FULL checkpoint files (newest `keep_checkpoints`
//                      full images kept)
//   dckpt-<epoch>.mmv  DELTA checkpoint files: what changed since the
//                      `parent` checkpoint named in the header — written
//                      between full-image cadence boundaries
//                      (full_checkpoint_interval), so steady-state
//                      checkpoint cost is O(delta), not O(view)
//   wal-<base>.log     WAL segments; wal-<E>.log holds records with
//                      seq > E and is started by the checkpoint at E
//                      (full or delta — both roll the segment)
//   *.tmp              in-flight checkpoint images (never read; removed
//                      by the next recovery)
//
// The checkpoint writer never deep-reads the live view: CommitBurst
// receives the SAME immutable SnapshotImage the snapshot store publishes
// (one O(delta) extraction per batch serves readers AND durability), and
// deltas are diffed image-against-image by segment pointer identity. A
// changed segment travels with its atoms' view positions, so no frame
// records the global atom order separately: recovery places each atom at
// its position.
//
// Invariants the layout maintains:
//   - every segment base is a checkpoint epoch (Create writes the initial
//     full checkpoint, so even a fresh directory has one);
//   - record seq == the view epoch the burst produced, strictly
//     consecutive across segments;
//   - every delta's parent chain descends to a full checkpoint that is
//     still on disk (retention floors at the oldest retained FULL image
//     and drops deltas/segments only below it), so recovery can always
//     fall back one full checkpoint.
//
// Recovery contract (Recover): resolve the newest checkpoint chain that
// validates end to end — a full image, or a delta composed over its
// parents down to a full (structure + whole-file CRC32C + program
// fingerprint on EVERY member; any invalid member fails the whole chain
// and recovery falls back to the next-newest head) — then replay every
// WAL record with seq above the chain head's epoch through the REAL
// maint::ApplyBatch — same pipeline, same coalescing — publishing one
// snapshot epoch per burst so the SnapshotStore continues the pre-crash
// epoch sequence. A torn final record (the one fault a crashed append can
// leave) is truncated and reported; any other malformation — checksum
// mismatch on a complete frame, a gap in the seq run, a partial record
// before the log's end — fails recovery loudly. As a last safety net,
// recovery refuses to finish below the newest epoch any checkpoint file
// CLAIMS in its name: falling back to an older chain is only legal when
// the WAL actually bridges the distance.

#ifndef MMV_DURABILITY_DURABLE_LOG_H_
#define MMV_DURABILITY_DURABLE_LOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fixpoint.h"
#include "core/snapshot.h"
#include "durability/checkpoint.h"
#include "durability/fs.h"
#include "durability/wal.h"
#include "maintenance/batch.h"

namespace mmv {
namespace durability {

/// \brief Tuning knobs of one DurableLog.
struct DurabilityOptions {
  SyncPolicy sync = SyncPolicy::kEveryBatch;
  /// Unsynced-byte threshold under SyncPolicy::kEveryBytes.
  uint64_t sync_bytes = 1 << 20;
  /// Write a checkpoint after this many committed bursts (0 = only on
  /// explicit Checkpoint() calls).
  uint64_t checkpoint_every_records = 0;
  /// ... or after this many WAL bytes since the last checkpoint (0 = off;
  /// either trigger suffices).
  uint64_t checkpoint_every_bytes = 0;
  /// FULL checkpoints retained on disk. Minimum 1; the default 2 keeps one
  /// fall-back image in case the newest is later found corrupt. Delta
  /// checkpoints and WAL segments below the oldest retained full image are
  /// collected with it.
  int keep_checkpoints = 2;
  /// Every Nth checkpoint is a FULL image; the N-1 between are deltas
  /// against their predecessor. 1 writes only full images (the pre-delta
  /// behavior); the default 4 bounds a recovery chain at 3 delta frames.
  /// The initial checkpoint (Create) and explicit same-epoch rewrites are
  /// always full.
  uint64_t full_checkpoint_interval = 4;
};

/// \brief What Recover() found and did.
struct RecoveryInfo {
  uint64_t checkpoint_epoch = 0;   ///< epoch of the chain head loaded
  uint64_t full_checkpoint_epoch = 0;  ///< epoch of the FULL image the
                                       ///  chain bottomed at (==
                                       ///  checkpoint_epoch for a full)
  uint64_t recovered_epoch = 0;    ///< view epoch after WAL replay
  int64_t replayed_bursts = 0;     ///< WAL records re-applied
  int64_t skipped_records = 0;     ///< records the checkpoint already held
  int64_t checkpoints_skipped = 0; ///< invalid chain heads fallen past
  int64_t delta_checkpoints_composed = 0;  ///< delta frames applied over
                                           ///  the full image
  int64_t checkpoint_delta_bytes = 0;  ///< bytes of delta files composed
  uint64_t torn_tail_bytes = 0;    ///< bytes truncated off a torn tail
  int ext_counter = 0;             ///< external-support counter restored
  maint::BatchStats replay_stats;  ///< summed ApplyBatch stats of replay
};

/// \brief The maint::BurstLog implementation: owns the WAL segment being
/// appended, the checkpoint cadence and the retention GC. Single-writer,
/// like maintenance itself.
///
/// Usage, fresh directory:
///
///   auto log = durability::DurableLog::Create(&fs, dir, program, view,
///                                             /*initial_epoch=*/0,
///                                             /*ext_counter=*/0, opts);
///   maint::ApplyBatch(program, &view, burst, eval, fopts, &stats,
///                     (*log)->ext_counter(), &snapshots, log->get());
///
/// After a crash:
///
///   auto log = durability::DurableLog::Recover(&fs, dir, &program, eval,
///                                              fopts, &snapshots, &info,
///                                              opts);
///   View view = (*log)->TakeRecoveredView();   // continue applying bursts
class DurableLog : public maint::BurstLog {
 public:
  /// \brief Initializes a FRESH state directory: creates it, writes the
  /// initial checkpoint of \p initial at \p initial_epoch (so recovery
  /// always has a floor) and opens the first WAL segment. Refuses to run
  /// over a directory that already holds durability files — recover
  /// those, don't overwrite them.
  static Result<std::unique_ptr<DurableLog>> Create(
      Fs* fs, const std::string& dir, const Program& program,
      const View& initial, uint64_t initial_epoch, int ext_counter,
      const DurabilityOptions& options = {});

  /// \brief Rebuilds state from \p dir (contract in the file header). On
  /// success the recovered view is held inside the log — fetch it with
  /// TakeRecoveredView() — and \p info (optional) describes what
  /// happened. \p snapshots (optional) is re-seated at the checkpoint
  /// epoch and receives one publication per replayed burst, finishing at
  /// exactly the epoch the pre-crash store had reached. \p evaluator and
  /// \p fixpoint_options parameterize the replay ApplyBatch calls and
  /// must match the original run for byte-identical recovery.
  static Result<std::unique_ptr<DurableLog>> Recover(
      Fs* fs, const std::string& dir, Program* program,
      DcaEvaluator* evaluator, const FixpointOptions& fixpoint_options,
      SnapshotStore* snapshots = nullptr, RecoveryInfo* info = nullptr,
      const DurabilityOptions& options = {});

  // maint::BurstLog --------------------------------------------------------

  /// \brief Appends the burst as the pending WAL record (seq = the epoch
  /// this burst will produce). Fails without touching the log if a
  /// previous Abort left the segment in an unknown state.
  Status LogBurst(const std::vector<maint::Update>& updates) override;

  /// \brief Commits the pending record, applies the sync policy, bumps
  /// the epoch and — when the checkpoint cadence fires — checkpoints
  /// \p image (a delta against the previous checkpoint's image, or a full
  /// frame at the full_checkpoint_interval boundary) and rolls the
  /// segment. Adds this batch's contribution to \p stats.
  Status CommitBurst(const SnapshotImageHandle& image,
                     maint::BatchStats* stats) override;

  /// \brief Drops the pending record (the burst failed to APPLY). If even
  /// the truncation fails the log poisons itself: every later LogBurst
  /// refuses, forcing the caller through Recover().
  void AbortBurst() override;

  // ------------------------------------------------------------------------

  /// \brief Which frame a checkpoint call writes. kAuto follows the
  /// full_checkpoint_interval cadence (and forces a full frame when there
  /// is no parent image or the epoch did not advance — a delta must never
  /// parent itself).
  enum class CheckpointKind { kAuto, kFull, kDelta };

  /// \brief Writes a checkpoint of \p view at the current epoch NOW
  /// (tmp + fsync + atomic rename), starts a fresh WAL segment and runs
  /// retention GC. \p view must be the state all committed records
  /// produce — i.e. call between batches, never mid-batch. Extracts the
  /// view's image (O(delta) against its previous extraction).
  Status Checkpoint(const View& view,
                    CheckpointKind kind = CheckpointKind::kAuto);

  /// \brief Same, over an already-extracted immutable image (never null).
  Status CheckpointImage(SnapshotImageHandle image,
                         CheckpointKind kind = CheckpointKind::kAuto);

  /// \brief Forces the WAL to stable storage regardless of policy.
  Status Sync() { return wal_->SyncNow(); }

  /// \brief Moves the recovered view image out (valid once, after
  /// Recover; empty for Create'd logs).
  View TakeRecoveredView() { return std::move(recovered_view_); }

  /// \brief The external-support counter the log persists in checkpoint
  /// headers. Pass this pointer to every ApplyBatch call on the logged
  /// view so the counter survives crashes with the rest of the state.
  int* ext_counter() { return &ext_counter_; }

  /// \brief Epoch of the newest committed burst (== the seq the NEXT
  /// burst gets, minus one).
  uint64_t epoch() const { return next_seq_ - 1; }

  int64_t wal_records() const { return wal_->records(); }
  uint64_t wal_end_offset() const { return wal_->end_offset(); }
  int64_t checkpoints_written() const { return checkpoints_written_; }
  /// \brief How many of checkpoints_written() were delta frames.
  int64_t delta_checkpoints_written() const {
    return delta_checkpoints_written_;
  }
  /// \brief Encoded size of the newest checkpoint frame (full or delta) —
  /// the bytes the delta format saves are this, compared across kinds.
  uint64_t last_checkpoint_bytes() const { return last_checkpoint_bytes_; }
  uint64_t last_checkpoint_epoch() const { return last_checkpoint_epoch_; }

 private:
  DurableLog(Fs* fs, std::string dir, uint32_t program_crc,
             DurabilityOptions options)
      : fs_(fs),
        dir_(std::move(dir)),
        program_crc_(program_crc),
        options_(options) {}

  std::string PathFor(const std::string& name) const {
    return dir_ + "/" + name;
  }
  /// Opens segment wal-<base>.log for appending (creating it if absent).
  Status OpenSegment(uint64_t base, uint64_t existing_bytes);
  /// Removes full checkpoints beyond keep_checkpoints, plus the delta
  /// frames and segments only they needed.
  Status CollectGarbage();
  /// The one checkpoint writer behind Checkpoint/CheckpointImage and the
  /// CommitBurst cadence. \p delta_bytes (optional) receives the file
  /// size when a delta frame was written, 0 for a full frame.
  Status WriteCheckpoint(SnapshotImageHandle image, CheckpointKind kind,
                         int64_t* delta_bytes);

  Fs* fs_;
  std::string dir_;
  uint32_t program_crc_;
  DurabilityOptions options_;

  std::unique_ptr<Wal> wal_;
  uint64_t next_seq_ = 1;          // seq the pending/next record gets
  int ext_counter_ = 0;
  uint64_t last_checkpoint_epoch_ = 0;
  uint64_t records_since_checkpoint_ = 0;
  uint64_t bytes_since_checkpoint_ = 0;
  int64_t checkpoints_written_ = 0;
  int64_t delta_checkpoints_written_ = 0;
  uint64_t last_checkpoint_bytes_ = 0;
  // The previous checkpoint's image: the parent delta frames diff
  // against. Never read for full frames; reset by Recover to the
  // recomposed image so post-recovery deltas have a valid parent.
  SnapshotImageHandle last_checkpoint_image_;
  uint64_t checkpoints_since_full_ = 0;
  bool pending_ = false;           // LogBurst'ed, not yet Commit/Abort'ed
  bool poisoned_ = false;          // failed Abort: tail state unknown
  View recovered_view_;
};

}  // namespace durability
}  // namespace mmv

#endif  // MMV_DURABILITY_DURABLE_LOG_H_
