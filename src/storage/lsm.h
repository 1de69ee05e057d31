#ifndef ASTERIX_STORAGE_LSM_H_
#define ASTERIX_STORAGE_LSM_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "adm/type.h"
#include "storage/btree.h"
#include "storage/buffer_cache.h"
#include "storage/column/batch.h"
#include "storage/compaction.h"
#include "storage/component.h"
#include "storage/key.h"

namespace asterix {
namespace storage {

/// Physical layout of an index's disk components. Row components are paged
/// B+-trees storing whole record images; column components store the same
/// rows column-major with per-page min/max stats, so projected scans read
/// only the touched fields (see src/storage/column/).
enum class StorageFormat { kRow, kColumn };

/// When and what to merge, per the paper's "subject to some merge policy".
struct MergePolicy {
  enum class Kind {
    kNone,      // never merge (read cost grows with component count)
    kConstant,  // merge ALL disk components whenever more than `max_components`
    kPrefix,    // merge the contiguous run of small components when the run
                // grows past `max_components` and stays under `max_merge_bytes`
    kTiered,    // size-ratio tiering: merge the newest contiguous run of
                // similar-sized components once it grows past
                // `max_components` runs — bounded merge cost per flush,
                // write-amp O(log n) instead of constant-policy O(n)
  };
  Kind kind = Kind::kConstant;
  size_t max_components = 5;
  uint64_t max_merge_bytes = 256ull << 20;
  /// Tiered only: a component belongs to the newest run while it is at most
  /// `size_ratio_x100 / 100` times the total of the newer run members.
  uint32_t size_ratio_x100 = 120;

  static MergePolicy None() { return {Kind::kNone, 0, 0, 0}; }
  static MergePolicy Constant(size_t k) { return {Kind::kConstant, k, 0, 0}; }
  static MergePolicy Prefix(size_t k, uint64_t bytes) {
    return {Kind::kPrefix, k, bytes, 0};
  }
  static MergePolicy Tiered(size_t k, uint32_t ratio_x100) {
    return {Kind::kTiered, k, 0, ratio_x100};
  }
};

/// Maps a DDL with-clause policy name ("none" | "constant" | "prefix" |
/// "tiered") onto a MergePolicy with that kind's default knobs. Returns
/// false for unknown names.
bool MergePolicyFromName(const std::string& name, MergePolicy* out);

/// Inverse of MergePolicyFromName (metadata persistence).
const char* MergePolicyName(MergePolicy::Kind kind);

struct LsmOptions {
  /// Flush the in-memory component once it holds this many bytes of
  /// payload+key data (the paper's memory-occupancy threshold).
  size_t mem_budget_bytes = 8u << 20;
  MergePolicy merge_policy = MergePolicy::Constant(5);
  /// Disk-component layout, fixed for the index's lifetime (components are
  /// homogeneous: changing the format of an existing dataset is not
  /// supported). Column format requires `record_type`.
  StorageFormat format = StorageFormat::kRow;
  /// LZ-compress disk components: row formats frame each record payload,
  /// column formats compress each column page. Like `format`, fixed at
  /// dataset-creation time.
  bool compress = false;
  /// The dataset's declared record type; drives schema inference and
  /// schema-typed column encoding (required when format == kColumn).
  adm::DatatypePtr record_type;
  /// Background maintenance pool. A budget trip always rotates the
  /// memtable to an immutable component and hands its flush (and any merge
  /// the policy then wants) to this pool. Whenever the pool does not take
  /// a job — null here (the default: standalone trees and tests), a full
  /// queue, or a stopped scheduler — the calling thread runs the same job
  /// body itself, outside the tree lock, and that writer's stall is the
  /// flush: the caller pays.
  CompactionScheduler* scheduler = nullptr;
  /// Total in-memory bytes (mutable + immutable) at which a writer blocks
  /// until the in-flight flush completes, bounding memory when ingest
  /// outruns maintenance. 0 = 3 * mem_budget_bytes (the imm
  /// component holds ~1x on its own; the extra 1x is the soft-throttle
  /// band — a 2x ceiling would make writers skip the throttle and block).
  size_t mem_hard_limit_bytes = 0;
};

/// A disk component's identity and stats. `max_lsn` is the largest WAL LSN
/// whose effect is contained in the component; recovery replays only ops
/// beyond the index's flushed LSN.
///
/// `seq` is the component's *sort* position: components resolve
/// newest-wins in increasing seq order. For flushed components it equals
/// the file-name seq; a merge output keeps the sort seq of its newest
/// input (so it sorts exactly where the merged run sat) while its file is
/// named by a fresh allocation — which is what lets a merge commit while a
/// newer flush is concurrently installing a higher seq.
struct ComponentInfo {
  uint64_t seq = 0;
  std::string path;
  uint64_t num_entries = 0;
  uint64_t bytes = 0;
  uint64_t max_lsn = 0;
};

/// The LSM-ification framework's shared machinery: component naming,
/// sequence allocation, validity-bit shadowing (a component only becomes
/// visible once its `.valid` marker is atomically installed), crash-orphan
/// cleanup, and component-file deletion after merges. Index structures
/// (B+-tree, R-tree, inverted) plug their own build/read logic on top —
/// this is the paper's "framework that enables LSM-ification of any kind
/// of index structure".
class LsmLifecycle {
 public:
  /// `dir` must exist; `name` scopes the index's files inside it, and
  /// `suffix` tags the structure kind (btr/rtr).
  LsmLifecycle(std::string dir, std::string name, std::string suffix);

  /// Scans the directory: returns valid components sorted oldest-first
  /// (by sort seq), deletes any component files lacking a validity marker
  /// (crash debris), and completes interrupted merge cleanup — when a valid
  /// merge output declares a `replaces` range, any other valid component
  /// whose sort seq falls inside it is a leftover input and is removed.
  Result<std::vector<ComponentInfo>> Recover();

  uint64_t AllocateSeq();
  std::string ComponentPath(uint64_t seq) const;

  /// Installs the validity bit: after this returns the component is durable
  /// and will be seen by Recover(). `sort_seq` (0 = same as `seq`) is the
  /// resolution-order position recorded in the marker; merge outputs pass
  /// their newest input's seq plus the `replaces` range [lo, hi] of input
  /// sort seqs the output supersedes.
  Status MarkValid(uint64_t seq, uint64_t num_entries, uint64_t max_lsn,
                   uint64_t sort_seq = 0, uint64_t replaces_lo = 0,
                   uint64_t replaces_hi = 0);

  Status RemoveComponent(const ComponentInfo& info);

  /// The index name this lifecycle scopes (journal event labels).
  const std::string& name() const { return name_; }

 private:
  std::string MarkerPath(uint64_t seq) const;

  std::string dir_;
  std::string name_;
  std::string suffix_;
  uint64_t next_seq_ = 1;
};

/// An LSM B+-tree: in-memory component (std::map) + immutable disk
/// components, flushed and merged via bulk loads. Deletes are antimatter
/// entries that cancel older matter. This one structure backs primary
/// indexes (payload = record bytes), secondary B-tree indexes (composite
/// key, empty payload), and — keyed by (token, pk) — the inverted indexes.
class LsmBTree : public Compactable {
 public:
  LsmBTree(BufferCache* cache, const std::string& dir, const std::string& name,
           LsmOptions options);
  /// Quiesces and detaches from the scheduler before members go away; data
  /// still in memory is dropped (crash semantics — the WAL covers it).
  ~LsmBTree() override;

  /// Loads valid disk components (call once before use).
  Status Open();

  // -- Mutators (caller serializes per-key via the lock manager) ----------
  Status Upsert(const CompositeKey& key, std::vector<uint8_t> payload,
                uint64_t lsn);
  Status Delete(const CompositeKey& key, uint64_t lsn);

  /// Barrier: forces all in-memory data to disk. Quiesces this tree's pool
  /// jobs, then runs the flush body on the caller for imm_ and for mem_
  /// rotated behind it, then merges while the policy wants. On return
  /// every entry accepted before the call is in a valid disk component;
  /// with no concurrent writer the memtables are empty.
  Status Flush();

  /// Barrier: applies the merge policy now, like the tail of Flush().
  Status MaybeMerge();

  // -- Compactable: the one flush body and the one merge body --------------
  // Run by a pool worker, or by the calling thread when the pool does not
  // take the job. Each builds its component outside the tree lock and
  // installs it under the lock; flush_inflight_/merge_inflight_ make a
  // second caller of the same kind wait for the running one instead of
  // repeating its work.
  Status BackgroundFlush() override;
  Status BackgroundMerge() override;
  const std::string& compaction_label() const override;

  // -- Readers --------------------------------------------------------------
  /// LSM-resolved point lookup: a one-key MultiGet.
  Status PointLookup(const CompositeKey& key, bool* found,
                     std::vector<uint8_t>* payload) const;

  /// One key's answer from MultiGet.
  struct LookupResult {
    bool found = false;
    std::vector<uint8_t> payload;
  };

  /// LSM-resolved sorted batch lookup under one shared lock. `keys` must be
  /// ascending (duplicates allowed); `out` gets one slot per key. Each key
  /// resolves newest-wins through mem_, then imm_, then the disk components
  /// newest first, and antimatter hides it. Each older component sees only
  /// the keys still unresolved that pass its bloom filter, as one sorted
  /// component MultiGet. `stats` (optional) accumulates disk bytes/pages.
  Status MultiGet(std::span<const CompositeKey> keys,
                  std::vector<LookupResult>* out,
                  column::ProjectedScanStats* stats) const;

  // Scans read the memory components (mem_, imm_) and every disk component
  // as sources, each covering a closed key range (antimatter included).
  // When no two ranges overlap, no key has a second version: each source
  // streams on its own, in key-range order, with nothing copied and
  // tombstones skipped. Otherwise the sources' rows are merged newest-wins.

  /// LSM-resolved ordered range scan across all components.
  Status RangeScan(const ScanBounds& bounds, const EntryCallback& cb) const;

  /// LSM-resolved scan materializing only the projection's fields (the
  /// callback's antimatter flag is always false — resolution happens here).
  /// Column components read only the touched column pages and skip page
  /// groups via per-page min/max stats: freely when the sources are
  /// disjoint, and on merging scans only for groups whose key span is
  /// disjoint from every other source (a skipped group that overlapped
  /// another source could resurrect an older version of its rows).
  /// `stats` (optional) accumulates bytes/pages.
  Status ProjectedScan(const ScanBounds& bounds, const column::Projection& proj,
                       const column::ProjectedEntryCallback& cb,
                       column::ProjectedScanStats* stats) const;

  /// Vectorized scan: with empty memory components and disjoint column
  /// components, hands decoded column pages to the caller as typed
  /// ColumnBatches in key order, without row reconstruction (antimatter
  /// rows excluded via the selection vector). Returns NotImplemented,
  /// before any batch is emitted, whenever cross-component resolution or
  /// row assembly would be required — callers fall back to ProjectedScan.
  Status BatchScan(const ScanBounds& bounds, const column::Projection& proj,
                   const column::BatchCallback& cb,
                   column::ProjectedScanStats* stats) const;

  // -- Stats ---------------------------------------------------------------
  size_t mem_entries() const;
  size_t num_disk_components() const;
  uint64_t total_disk_bytes() const;
  uint64_t num_logical_entries() const;  // approximate (pre-merge counts)
  uint64_t flushed_lsn() const;

 private:
  struct MemEntry {
    bool antimatter = false;
    std::vector<uint8_t> payload;
  };
  struct KeyLess {
    bool operator()(const CompositeKey& a, const CompositeKey& b) const {
      return CompareKeys(a, b) < 0;
    }
  };
  using MemTable = std::map<CompositeKey, MemEntry, KeyLess>;
  struct DiskComponent {
    ComponentInfo info;
    std::shared_ptr<DiskComponentReader> reader;
  };
  /// A rotated (immutable) in-memory component awaiting its background
  /// flush. Readers traverse `entries` under the shared lock while the
  /// flush job reads it lock-free — both sides are read-only, and the map
  /// is never mutated after rotation.
  struct ImmComponent {
    MemTable entries;
    size_t bytes = 0;
    uint64_t max_lsn = 0;
  };

  /// One scan source: a memory component or a disk component, with the
  /// closed key range its entries cover.
  struct ScanSource {
    const MemTable* mem = nullptr;
    const DiskComponentReader* disk = nullptr;
    column::KeyInterval range;
  };

  /// Lists the non-empty components as scan sources, newest first (mem_,
  /// imm_, then disk_ newest to oldest). Returns true when their key ranges
  /// are pairwise disjoint, and then re-orders `sources` by key range.
  bool ListScanSourcesLocked(std::vector<ScanSource>* sources) const;
  /// Opens a disk component with the reader matching options_.format.
  Status OpenReader(const std::string& path,
                    std::shared_ptr<DiskComponentReader>* out) const;
  /// Bulk-loads `entries` (sorted, logical payloads) into a new component
  /// file at `path` in options_.format, handling payload/page compression.
  Status BuildComponent(const MemTable& entries, const std::string& path,
                        uint64_t* num_entries) const;
  /// The single budget-trip path shared by Upsert and Delete: throttle or
  /// wait while the previous rotation is still in flight, then rotate and
  /// hand the flush to the pool or run it on this thread. May release
  /// `lock` (and returns with it released after running a flush); every
  /// stall goes through RecordWriteStall exactly once.
  Status MaybeRotateLocked(std::unique_lock<std::shared_mutex>& lock);
  /// Moves mem_ into a fresh imm_ (requires the unique lock; imm_ empty).
  void RotateLocked();
  /// Runs the merge body on the caller while the policy wants a merge.
  Status MergeWhileWanted();
  /// Follow-up after an install: true when the policy wants a merge, none
  /// is running, and the pool does not take one — the caller then runs
  /// BackgroundMerge() itself.
  bool MergeHereLocked();
  /// Merge-policy decision over the current disk_ state; false = no merge.
  bool SelectMergeRunLocked(size_t* first, size_t* count) const;
  /// True when the merge policy wants a merge of the current disk_ state.
  bool MergeWantedLocked() const;

  BufferCache* cache_;
  LsmLifecycle lifecycle_;
  LsmOptions options_;

  mutable std::shared_mutex mu_;
  MemTable mem_;
  size_t mem_bytes_ = 0;
  uint64_t mem_max_lsn_ = 0;
  uint64_t flushed_lsn_ = 0;
  // Oldest first; the in-memory components are conceptually at the end
  // (imm_ older than mem_).
  std::vector<DiskComponent> disk_;
  /// Rotated memtable awaiting or under its flush; null when none.
  std::shared_ptr<const ImmComponent> imm_;
  /// Signaled when imm_ clears, an in-flight flag clears, or bg_error_ is
  /// set: wakes writers blocked at the hard memory ceiling and callers
  /// waiting to run a flush or merge body.
  mutable std::condition_variable_any imm_cv_;
  /// Escalates the soft-throttle delay while the flush pool is behind;
  /// reset whenever a rotation succeeds or the budget has headroom.
  uint32_t throttle_level_ = 0;
  /// True while a flush/merge body is building outside the lock; a second
  /// caller of the same kind waits for it (cleared with an imm_cv_ notify).
  bool flush_inflight_ = false;
  bool merge_inflight_ = false;
  /// First error from a flush or merge body; surfaced to the next writer or
  /// barrier call (the tree stops accepting writes until reopened).
  Status bg_error_;
};

}  // namespace storage
}  // namespace asterix

#endif  // ASTERIX_STORAGE_LSM_H_
