#ifndef ASTERIX_STORAGE_COMPONENT_H_
#define ASTERIX_STORAGE_COMPONENT_H_

#include <span>

#include "storage/btree.h"
#include "storage/column/batch.h"
#include "storage/column/projection.h"
#include "storage/key.h"

namespace asterix {
namespace storage {

/// The read interface every LSM disk component satisfies, whatever its
/// physical layout. The LSM layer (LsmBTree) resolves across components
/// through this interface only, so row-major B+-tree components and
/// column-major components interoperate inside one index — e.g. while a
/// dataset converts formats, or for secondary indexes that stay row-major.
class DiskComponentReader {
 public:
  virtual ~DiskComponentReader() = default;

  /// Sorted batch exact-match lookup. `keys` must be ascending (duplicates
  /// allowed); `cb(i, entry)` runs once per key present, in key order, with
  /// tombstones reported as entries with antimatter set (LSM resolution
  /// happens above). No bloom screening: LsmBTree screens each key against
  /// MayContain first. `stats` (optional) accumulates what was read: record
  /// bytes of a row component, decoded column pages of a column component.
  virtual Status MultiGet(std::span<const CompositeKey* const> keys,
                          const MultiGetCallback& cb,
                          column::ProjectedScanStats* stats) const = 0;

  /// In-order scan of all entries within bounds, payloads fully
  /// materialized.
  virtual Status RangeScan(const ScanBounds& bounds,
                           const EntryCallback& cb) const = 0;

  /// Column-aware scan: materializes only the projection's fields as record
  /// values. Row components fall back to deserialize-then-project (and so
  /// read every byte); column components touch only the needed column
  /// pages and skip page groups whose min/max stats prove that no row can
  /// satisfy `proj.ranges`. A group is skipped only when its key span
  /// overlaps none of `exclusions` — the key ranges of the other components
  /// of a merging scan, where a skipped row would let an older version of
  /// its key win. Empty `exclusions` (a scan no other component overlaps)
  /// prunes freely.
  virtual Status ProjectedScan(const ScanBounds& bounds,
                               const column::Projection& proj,
                               std::span<const column::KeyInterval> exclusions,
                               const column::ProjectedEntryCallback& cb,
                               column::ProjectedScanStats* stats) const = 0;

  /// The closed key interval this component's entries cover, antimatter
  /// included; false when the component is empty.
  virtual bool KeyRange(CompositeKey* lo, CompositeKey* hi) const = 0;

  /// Whether BatchScan can serve `proj` from this component: OK, or
  /// NotImplemented (row layout, whole-record projections, a field that may
  /// live in a column component's catch-all column). Lets a caller check
  /// every component before the first batch leaves.
  virtual Status CanBatchScan(const column::Projection& /*proj*/) const {
    return Status::NotImplemented("batch scan requires column storage");
  }

  /// Vectorized scan: the projected columns of each surviving page group as
  /// one typed ColumnBatch, antimatter rows excluded by the selection
  /// vector, groups pruned freely. NotImplemented exactly when CanBatchScan
  /// says so.
  virtual Status BatchScan(const ScanBounds& /*bounds*/,
                           const column::Projection& /*proj*/,
                           const column::BatchCallback& /*cb*/,
                           column::ProjectedScanStats* /*stats*/) const {
    return Status::NotImplemented("batch scan requires column storage");
  }

  /// Bloom-filter screen for point lookups.
  virtual bool MayContain(const CompositeKey& key) const = 0;
};

}  // namespace storage
}  // namespace asterix

#endif  // ASTERIX_STORAGE_COMPONENT_H_
