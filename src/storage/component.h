#ifndef ASTERIX_STORAGE_COMPONENT_H_
#define ASTERIX_STORAGE_COMPONENT_H_

#include "storage/btree.h"
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
  /// pages. When `allow_pruning`, page groups proven empty by min/max
  /// stats may be skipped wholesale — only sound when the caller does not
  /// need this component's rows for cross-component LSM resolution.
  virtual Status ProjectedScan(const ScanBounds& bounds,
                               const column::Projection& proj,
                               bool allow_pruning,
                               const column::ProjectedEntryCallback& cb,
                               column::ProjectedScanStats* stats) const = 0;

  /// Bloom-filter screen for point lookups.
  virtual bool MayContain(const CompositeKey& key) const = 0;
};

}  // namespace storage
}  // namespace asterix

#endif  // ASTERIX_STORAGE_COMPONENT_H_
