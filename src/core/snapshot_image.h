// SnapshotImage: the immutable, structurally shared view image that
// snapshot publication and checkpointing both consume.
//
// An image is the view's atoms grouped into per-predicate SEGMENTS, each a
// shared_ptr'd vector of atom copies in posting order together with the
// atoms' view positions. Consecutive images share every segment the
// intervening batch did not touch: View::ExtractImage copies only the
// predicates its dirty set names and re-points the rest at the previous
// image's segments, so extraction is O(delta), not O(view). A shared
// segment's positions stay valid because every mutation that moves an atom
// dirties its predicate.
//
// Why positions are part of the image: enumeration order is semantically
// load-bearing downstream — set-semantics support representatives follow
// it, so a checkpoint serialized in a different order would recover a view
// that DIVERGES from the live one under continued maintenance. The
// positions of all segments together are exactly [0, atom_count), so the
// global order follows from them.
//
// Images are plain immutable data: safe to read from any thread, pinned
// alive by shared_ptr, never mutated after construction.

#ifndef MMV_CORE_SNAPSHOT_IMAGE_H_
#define MMV_CORE_SNAPSHOT_IMAGE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/interner.h"
#include "core/view_atom.h"

namespace mmv {

struct SnapshotImage;

/// \brief A reader's reference: keeps every shared segment alive.
using SnapshotImageHandle = std::shared_ptr<const SnapshotImage>;

struct SnapshotImage {
  /// One predicate's atoms, in posting-list (ascending view position)
  /// order; positions[i] is atom i's position in the view.
  struct Segment : std::vector<ViewAtom> {
    std::vector<size_t> positions;
  };
  using SegmentHandle = std::shared_ptr<const Segment>;

  std::unordered_map<Symbol, SegmentHandle> segments;
  uint64_t atom_count = 0;

  size_t size() const { return static_cast<size_t>(atom_count); }
  bool empty() const { return atom_count == 0; }

  /// \brief This predicate's atoms (empty if absent). O(1).
  const Segment& AtomsFor(Symbol pred) const {
    static const Segment kEmpty;
    auto it = segments.find(pred);
    return it == segments.end() ? kEmpty : *it->second;
  }

  /// \brief The shared segment itself, or null if absent — pointer
  /// identity across epochs proves sharing (tests) and drives the delta
  /// checkpoint's changed-predicate diff.
  SegmentHandle SegmentFor(Symbol pred) const {
    auto it = segments.find(pred);
    return it == segments.end() ? nullptr : it->second;
  }

  /// \brief Visits every atom in the image's global (view position)
  /// order. \p visit returns false to stop early (budgeted enumeration).
  /// Returns false iff the visit was stopped. O(atom_count).
  template <typename Visitor>
  bool ForEachAtom(Visitor visit) const {
    std::vector<const ViewAtom*> slots(static_cast<size_t>(atom_count));
    for (const auto& [pred, seg] : segments) {
      for (size_t i = 0; i < seg->size(); ++i) {
        slots[seg->positions[i]] = &(*seg)[i];
      }
    }
    for (const ViewAtom* atom : slots) {
      if (!visit(*atom)) return false;
    }
    return true;
  }
};

}  // namespace mmv

#endif  // MMV_CORE_SNAPSHOT_IMAGE_H_
