#include "storage/lsm.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <queue>
#include <thread>

#include "adm/serde.h"
#include "common/compress.h"
#include "common/env.h"
#include "common/journal.h"
#include "common/ledger.h"
#include "common/metrics.h"
#include "common/string_utils.h"
#include "storage/column/column_component.h"

namespace asterix {
namespace storage {

namespace {

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Logical bytes accepted by Upsert/Delete — the write-amplification
/// denominator (same accounting unit mem_bytes_ uses).
metrics::Counter* IngestedCounter() {
  static metrics::Counter* c = metrics::MetricsRegistry::Default().GetCounter(
      "storage.lsm.bytes_ingested");
  return c;
}

/// Write amplification = (flushed + merged) / ingested, published x1000 in a
/// gauge (the registry holds integers). Recomputed after every flush/merge
/// from the cumulative counters, so it converges process-wide even with
/// many trees.
void UpdateWriteAmplification() {
  auto& reg = metrics::MetricsRegistry::Default();
  static metrics::Counter* flushed = reg.GetCounter("storage.lsm.bytes_flushed");
  static metrics::Counter* merged = reg.GetCounter("storage.lsm.bytes_merged");
  static metrics::Gauge* amp =
      reg.GetGauge("storage.lsm.write_amplification_x1000");
  uint64_t ingested = IngestedCounter()->value();
  if (ingested == 0) return;
  amp->Set(static_cast<int64_t>((flushed->value() + merged->value()) * 1000 /
                                ingested));
}

/// Soft-throttle curve: an ingest write that trips the budget while the
/// previous rotation is still flushing pays an escalating delay instead of
/// doing the flush itself — 50us doubling per consecutive throttled write,
/// capped at 2ms. The cap is deliberately far below a flush's own cost:
/// the throttle only has to slow refill enough that the hard ceiling
/// (mem_hard_limit_bytes, default 3x budget) is not hit before the
/// background flush drains; pushing it higher just moves the sync design's
/// latency cliff into the async tail.
constexpr uint64_t kThrottleBaseUs = 50;
constexpr uint64_t kThrottleMaxUs = 2'000;
constexpr uint32_t kThrottleMaxLevel = 8;

/// Every stalled or throttled ingest write goes through here, whatever the
/// mechanism (a flush body run by the writer, soft throttle delay, or a
/// hard-ceiling block) — one accounting path, so the numbers
/// in `storage.lsm.write_stall_us` and the journal can't drift.
void RecordWriteStall(uint64_t stall_us, const char* tree_name) {
  static metrics::Histogram* h = metrics::MetricsRegistry::Default().GetHistogram(
      "storage.lsm.write_stall_us");
  h->Observe(stall_us);
  journal::Journal::Default().Post(journal::EventKind::kWriteStall, stall_us, 0,
                                   tree_name);
}

// Per-entry payload framing for compressed row components: [codec][bytes],
// codec 0 = raw, 1 = LZ (only kept when it actually shrinks the payload).
// Readers below this layer always hand back the unframed logical payload.
std::vector<uint8_t> EncodeRowPayload(const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  std::vector<uint8_t> packed = LzCompress(payload.data(), payload.size());
  if (packed.size() < payload.size()) {
    out.reserve(packed.size() + 1);
    out.push_back(1);
    out.insert(out.end(), packed.begin(), packed.end());
  } else {
    out.reserve(payload.size() + 1);
    out.push_back(0);
    out.insert(out.end(), payload.begin(), payload.end());
  }
  {
    auto& reg = metrics::MetricsRegistry::Default();
    static metrics::Counter* raw = reg.GetCounter("storage.compress.bytes_raw");
    static metrics::Counter* stored =
        reg.GetCounter("storage.compress.bytes_stored");
    raw->Inc(payload.size());
    stored->Inc(out.size() - 1);
  }
  return out;
}

Status DecodeRowPayload(std::vector<uint8_t>* payload) {
  if (payload->empty()) return Status::Corruption("empty framed payload");
  uint8_t codec = (*payload)[0];
  if (codec == 0) {
    payload->erase(payload->begin());
    return Status::OK();
  }
  if (codec != 1) return Status::Corruption("unknown payload codec");
  std::vector<uint8_t> out;
  ASTERIX_RETURN_NOT_OK(LzDecompress(payload->data() + 1, payload->size() - 1, &out));
  *payload = std::move(out);
  return Status::OK();
}

/// Adapts the row-major B+-tree component to the DiskComponentReader
/// interface. ProjectedScan is a fallback: the row layout must read and
/// deserialize every record regardless of the projection — the cost gap
/// the column format exists to close.
class RowComponentReader : public DiskComponentReader {
 public:
  RowComponentReader(std::shared_ptr<BTreeReader> btree, adm::DatatypePtr type,
                     bool compressed)
      : btree_(std::move(btree)), type_(std::move(type)),
        compressed_(compressed) {}

  Status MultiGet(std::span<const CompositeKey* const> keys,
                  const MultiGetCallback& cb,
                  column::ProjectedScanStats* stats) const override {
    return btree_->MultiGet(keys, [&](size_t i, IndexEntry& e) {
      if (stats != nullptr) stats->bytes_read += e.payload.size();
      if (!e.antimatter && compressed_) {
        ASTERIX_RETURN_NOT_OK(DecodeRowPayload(&e.payload));
      }
      return cb(i, e);
    });
  }

  Status RangeScan(const ScanBounds& bounds,
                   const EntryCallback& cb) const override {
    if (!compressed_) return btree_->RangeScan(bounds, cb);
    return btree_->RangeScan(bounds, [&](const IndexEntry& e) {
      if (e.antimatter) return cb(e);
      IndexEntry plain = e;
      ASTERIX_RETURN_NOT_OK(DecodeRowPayload(&plain.payload));
      return cb(plain);
    });
  }

  Status ProjectedScan(const ScanBounds& bounds, const column::Projection& proj,
                       std::span<const column::KeyInterval> exclusions,
                       const column::ProjectedEntryCallback& cb,
                       column::ProjectedScanStats* stats) const override {
    (void)exclusions;  // no page stats in the row layout
    std::vector<uint8_t> decoded;
    return btree_->RangeScan(bounds, [&](const IndexEntry& e) {
      if (stats != nullptr) stats->bytes_read += e.payload.size();
      if (e.antimatter) return cb(e.key, true, adm::Value::Missing());
      const std::vector<uint8_t>* payload = &e.payload;
      if (compressed_) {
        decoded = e.payload;
        ASTERIX_RETURN_NOT_OK(DecodeRowPayload(&decoded));
        payload = &decoded;
      }
      BytesReader r(*payload);
      adm::Value rec;
      ASTERIX_RETURN_NOT_OK(adm::DeserializeTyped(&r, type_, &rec));
      return cb(e.key, false, column::ProjectRecord(rec, proj));
    });
  }

  bool KeyRange(CompositeKey* lo, CompositeKey* hi) const override {
    if (btree_->num_entries() == 0) return false;
    *lo = btree_->min_key();
    *hi = btree_->max_key();
    return true;
  }

  bool MayContain(const CompositeKey& key) const override {
    return btree_->MayContain(key);
  }

 private:
  std::shared_ptr<BTreeReader> btree_;
  adm::DatatypePtr type_;
  bool compressed_;
};

}  // namespace

bool MergePolicyFromName(const std::string& name, MergePolicy* out) {
  if (name == "none") {
    *out = MergePolicy::None();
  } else if (name == "constant") {
    *out = MergePolicy::Constant(5);
  } else if (name == "prefix") {
    *out = MergePolicy::Prefix(5, 256ull << 20);
  } else if (name == "tiered") {
    *out = MergePolicy::Tiered(5, 120);
  } else {
    return false;
  }
  return true;
}

const char* MergePolicyName(MergePolicy::Kind kind) {
  switch (kind) {
    case MergePolicy::Kind::kNone:
      return "none";
    case MergePolicy::Kind::kConstant:
      return "constant";
    case MergePolicy::Kind::kPrefix:
      return "prefix";
    case MergePolicy::Kind::kTiered:
      return "tiered";
  }
  return "constant";
}

// ---------------------------------------------------------------------------
// LsmLifecycle
// ---------------------------------------------------------------------------

LsmLifecycle::LsmLifecycle(std::string dir, std::string name, std::string suffix)
    : dir_(std::move(dir)), name_(std::move(name)), suffix_(std::move(suffix)) {}

std::string LsmLifecycle::ComponentPath(uint64_t seq) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), ".c%012llu.",
                static_cast<unsigned long long>(seq));
  return dir_ + "/" + name_ + buf + suffix_;
}

std::string LsmLifecycle::MarkerPath(uint64_t seq) const {
  return ComponentPath(seq) + ".valid";
}

uint64_t LsmLifecycle::AllocateSeq() { return next_seq_++; }

Status LsmLifecycle::MarkValid(uint64_t seq, uint64_t num_entries,
                               uint64_t max_lsn, uint64_t sort_seq,
                               uint64_t replaces_lo, uint64_t replaces_hi) {
  BytesWriter w;
  w.PutU64(num_entries);
  w.PutU64(max_lsn);
  w.PutU64(sort_seq == 0 ? seq : sort_seq);
  w.PutU64(replaces_lo);
  w.PutU64(replaces_hi);
  return env::WriteFileAtomic(MarkerPath(seq), w.data().data(), w.size());
}

Status LsmLifecycle::RemoveComponent(const ComponentInfo& info) {
  // The marker sits next to the data file; derive it from the path rather
  // than info.seq — a merge output's sort seq differs from its file name.
  ASTERIX_RETURN_NOT_OK(env::RemoveFile(info.path + ".valid"));
  return env::RemoveFile(info.path);
}

Result<std::vector<ComponentInfo>> LsmLifecycle::Recover() {
  std::vector<std::string> names;
  ASTERIX_RETURN_NOT_OK(env::ListDir(dir_, &names));
  std::string prefix = name_ + ".c";
  struct Recovered {
    ComponentInfo info;        // info.seq is the *sort* seq
    uint64_t file_seq = 0;     // from the file name (allocation order)
    uint64_t lo = 0, hi = 0;   // replaces range; hi == 0 = not a merge output
    bool removed = false;
  };
  std::vector<Recovered> recs;
  for (const auto& fname : names) {
    if (!StartsWith(fname, prefix)) continue;
    if (fname.size() < prefix.size() + 12) continue;
    std::string digits = fname.substr(prefix.size(), 12);
    uint64_t seq = std::strtoull(digits.c_str(), nullptr, 10);
    std::string expect_data = name_;
    std::string data_path = ComponentPath(seq);
    std::string data_name = data_path.substr(dir_.size() + 1);
    if (fname == data_name) {
      // Found a data file; check its validity marker. Components without a
      // validity bit are crash debris and are removed (the paper's recovery
      // rule for shadowed components).
      std::string marker = MarkerPath(seq);
      if (!env::Exists(marker)) {
        ASTERIX_RETURN_NOT_OK(env::RemoveFile(data_path));
        continue;
      }
      std::vector<uint8_t> mbytes;
      ASTERIX_RETURN_NOT_OK(env::ReadFile(marker, &mbytes));
      BytesReader mr(mbytes);
      Recovered rec;
      rec.info.seq = seq;
      rec.info.path = data_path;
      rec.info.bytes = env::FileSize(data_path);
      rec.file_seq = seq;
      ASTERIX_RETURN_NOT_OK(mr.GetU64(&rec.info.num_entries));
      ASTERIX_RETURN_NOT_OK(mr.GetU64(&rec.info.max_lsn));
      // Markers written before sort seqs carried only the two fields above;
      // for those the file seq is the sort seq and nothing is replaced.
      uint64_t sort_seq = seq;
      if (mr.remaining() >= 24) {
        ASTERIX_RETURN_NOT_OK(mr.GetU64(&sort_seq));
        ASTERIX_RETURN_NOT_OK(mr.GetU64(&rec.lo));
        ASTERIX_RETURN_NOT_OK(mr.GetU64(&rec.hi));
      }
      rec.info.seq = sort_seq;
      recs.push_back(std::move(rec));
      next_seq_ = std::max(next_seq_, seq + 1);
    }
  }
  // Complete interrupted merges: a valid output whose inputs still exist
  // (crash between marking the output and deleting the inputs) supersedes
  // the components inside its replaces range.
  //
  // A merge output's marker keeps its replaces range for the output's whole
  // lifetime, so a *stale* range can still be on disk long after its inputs
  // were deleted — and when a later merge chains on that output (the output
  // becomes the newest input of the next run), the later output inherits
  // the same sort seq, and the stale range matches it. Applying ranges
  // unconditionally would then delete both outputs (each falls inside the
  // other's range) and lose the data permanently, since flushed_lsn already
  // covers it and WAL replay will not restore it. Three rules prevent that:
  //   1. Ranges apply newest-declaring-output-first (file seqs are
  //      allocated monotonically, so the latest interrupted merge wins).
  //   2. A range only removes components whose *file* seq is older than
  //      the declaring output's — a merge's inputs always predate its
  //      output file, so this never misses a real leftover input, while a
  //      stale range can no longer reach forward at a newer output.
  //   3. A range declared by a component that was itself removed is dead
  //      (its output lost to a newer one) and is never applied.
  std::vector<size_t> order;
  for (size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].hi != 0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return recs[a].file_seq > recs[b].file_seq;
  });
  for (size_t oi : order) {
    const Recovered& r = recs[oi];
    if (r.removed) continue;
    for (auto& c : recs) {
      if (c.removed || c.file_seq >= r.file_seq) continue;
      if (c.info.seq >= r.lo && c.info.seq <= r.hi) {
        ASTERIX_RETURN_NOT_OK(RemoveComponent(c.info));
        c.removed = true;
      }
    }
  }
  std::vector<ComponentInfo> components;
  for (auto& rec : recs) {
    if (!rec.removed) components.push_back(std::move(rec.info));
  }
  std::sort(components.begin(), components.end(),
            [](const ComponentInfo& a, const ComponentInfo& b) {
              return a.seq < b.seq;
            });
  return components;
}

// ---------------------------------------------------------------------------
// LsmBTree
// ---------------------------------------------------------------------------

LsmBTree::LsmBTree(BufferCache* cache, const std::string& dir,
                   const std::string& name, LsmOptions options)
    : cache_(cache),
      lifecycle_(dir, name,
                 options.format == StorageFormat::kColumn ? "col" : "btr"),
      options_(std::move(options)) {}

LsmBTree::~LsmBTree() {
  // Drops queued jobs and waits out a running one; after this no scheduler
  // worker can touch the tree. Unflushed memtable contents are dropped —
  // identical to a crash, which the WAL replay path is built for.
  if (options_.scheduler != nullptr) options_.scheduler->Release(this);
}

const std::string& LsmBTree::compaction_label() const {
  return lifecycle_.name();
}

Status LsmBTree::OpenReader(const std::string& path,
                            std::shared_ptr<DiskComponentReader>* out) const {
  if (options_.format == StorageFormat::kColumn) {
    auto r = column::ColumnComponentReader::Open(cache_, path,
                                                 options_.record_type);
    if (!r.ok()) return r.status();
    *out = r.take();
    return Status::OK();
  }
  auto r = BTreeReader::Open(cache_, path);
  if (!r.ok()) return r.status();
  *out = std::make_shared<RowComponentReader>(r.take(), options_.record_type,
                                              options_.compress);
  return Status::OK();
}

Status LsmBTree::BuildComponent(
    const std::map<CompositeKey, MemEntry, KeyLess>& entries,
    const std::string& path, uint64_t* num_entries) const {
  if (options_.format == StorageFormat::kColumn) {
    column::ColumnComponentBuilder builder(path, options_.record_type,
                                           options_.compress);
    for (const auto& [key, entry] : entries) {
      IndexEntry e;
      e.key = key;
      e.antimatter = entry.antimatter;
      e.payload = entry.payload;
      ASTERIX_RETURN_NOT_OK(builder.Add(e));
    }
    ASTERIX_RETURN_NOT_OK(builder.Finish());
    *num_entries = builder.num_entries();
    return Status::OK();
  }
  BTreeBuilder builder(path);
  for (const auto& [key, entry] : entries) {
    IndexEntry e;
    e.key = key;
    e.antimatter = entry.antimatter;
    e.payload = options_.compress && !entry.antimatter
                    ? EncodeRowPayload(entry.payload)
                    : entry.payload;
    ASTERIX_RETURN_NOT_OK(builder.Add(e));
  }
  ASTERIX_RETURN_NOT_OK(builder.Finish());
  *num_entries = builder.num_entries();
  return Status::OK();
}

Status LsmBTree::Open() {
  std::unique_lock lock(mu_);
  auto comps_r = lifecycle_.Recover();
  if (!comps_r.ok()) return comps_r.status();
  for (auto& info : comps_r.value()) {
    std::shared_ptr<DiskComponentReader> reader;
    ASTERIX_RETURN_NOT_OK(OpenReader(info.path, &reader));
    flushed_lsn_ = std::max(flushed_lsn_, info.max_lsn);
    disk_.push_back(DiskComponent{std::move(info), std::move(reader)});
  }
  return Status::OK();
}

Status LsmBTree::Upsert(const CompositeKey& key, std::vector<uint8_t> payload,
                        uint64_t lsn) {
  std::unique_lock lock(mu_);
  size_t add = payload.size() + key.size() * 16 + 32;
  auto [it, inserted] = mem_.insert_or_assign(key, MemEntry{false, std::move(payload)});
  (void)it;
  (void)inserted;
  mem_bytes_ += add;
  IngestedCounter()->Inc(add);
  mem_max_lsn_ = std::max(mem_max_lsn_, lsn);
  return MaybeRotateLocked(lock);
}

Status LsmBTree::Delete(const CompositeKey& key, uint64_t lsn) {
  std::unique_lock lock(mu_);
  mem_.insert_or_assign(key, MemEntry{true, {}});
  size_t add = key.size() * 16 + 32;
  mem_bytes_ += add;
  IngestedCounter()->Inc(add);
  mem_max_lsn_ = std::max(mem_max_lsn_, lsn);
  return MaybeRotateLocked(lock);
}

void LsmBTree::RotateLocked() {
  auto imm = std::make_shared<ImmComponent>();
  imm->entries = std::move(mem_);
  imm->bytes = mem_bytes_;
  imm->max_lsn = mem_max_lsn_;
  mem_.clear();
  mem_bytes_ = 0;
  mem_max_lsn_ = 0;
  imm_ = std::move(imm);
  throttle_level_ = 0;
}

Status LsmBTree::MaybeRotateLocked(std::unique_lock<std::shared_mutex>& lock) {
  if (mem_bytes_ < options_.mem_budget_bytes) {
    throttle_level_ = 0;
    return Status::OK();
  }
  if (!bg_error_.ok()) return bg_error_;
  CompactionScheduler* sched = options_.scheduler;
  uint64_t stall_start_us = NowUs();
  bool stalled = false;
  if (imm_ != nullptr) {
    // Default ceiling is 3x budget: the rotated imm component already
    // holds ~1x, so anything lower leaves no soft band between the budget
    // trip and the hard block — every writer would skip the throttle and
    // stall for the whole flush.
    size_t hard = options_.mem_hard_limit_bytes != 0
                      ? options_.mem_hard_limit_bytes
                      : 3 * options_.mem_budget_bytes;
    if (mem_bytes_ + imm_->bytes < hard) {
      // Previous rotation still flushing: soft-throttle this writer with an
      // escalating delay instead of waiting for the flush.
      uint32_t level = std::min(throttle_level_, kThrottleMaxLevel);
      ++throttle_level_;
      uint64_t delay_us = std::min(kThrottleBaseUs << level, kThrottleMaxUs);
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      RecordWriteStall(NowUs() - stall_start_us, lifecycle_.name().c_str());
      lock.lock();
      return bg_error_;
    }
    // Hard memory ceiling: block until imm_ clears so the tree cannot grow
    // without bound when ingest outruns maintenance. The wait must poll:
    // the flush that will clear imm_ may still be only *queued*, and
    // Stop()/Release() drop queued jobs without notifying the tree. When no
    // flush is running and the pool will not run one, this writer runs the
    // flush body itself instead of blocking forever.
    stalled = true;
    Status st;
    auto cleared = [&] { return imm_ == nullptr || !bg_error_.ok(); };
    while (st.ok() &&
           !imm_cv_.wait_for(lock, std::chrono::milliseconds(10), cleared)) {
      if (!flush_inflight_ && (sched == nullptr || !sched->Accepting(this))) {
        lock.unlock();
        st = BackgroundFlush();
        lock.lock();
      }
    }
    if (st.ok()) st = bg_error_;
    if (!st.ok() || mem_bytes_ < options_.mem_budget_bytes) {
      RecordWriteStall(NowUs() - stall_start_us, lifecycle_.name().c_str());
      return st;
    }
  }
  // Rotate to a fresh memtable and hand the flush to the pool: the writer
  // pays no stall at all. When the pool does not take the job (no
  // scheduler, queue full, scheduler stopping) the writer runs the same
  // flush body itself, outside the tree lock — the stall is the flush.
  RotateLocked();
  Status st;
  if (sched == nullptr || !sched->Schedule(this, CompactionJobKind::kFlush)) {
    lock.unlock();
    st = BackgroundFlush();
    stalled = true;
  }
  if (stalled) {
    RecordWriteStall(NowUs() - stall_start_us, lifecycle_.name().c_str());
  }
  return st;
}

Status LsmBTree::Flush() {
  if (options_.scheduler != nullptr) options_.scheduler->Quiesce(this);
  // Oldest in-memory data first: imm_, then mem_ rotated into a fresh imm_
  // (unless imm_ already refilled — a rotation takes all of mem_).
  ASTERIX_RETURN_NOT_OK(BackgroundFlush());
  {
    std::unique_lock lock(mu_);
    if (imm_ == nullptr && !mem_.empty()) RotateLocked();
  }
  ASTERIX_RETURN_NOT_OK(BackgroundFlush());
  return MergeWhileWanted();
}

Status LsmBTree::MaybeMerge() {
  if (options_.scheduler != nullptr) options_.scheduler->Quiesce(this);
  return MergeWhileWanted();
}

Status LsmBTree::MergeWhileWanted() {
  for (;;) {
    {
      std::shared_lock lock(mu_);
      if (!bg_error_.ok()) return bg_error_;
      if (!MergeWantedLocked()) return Status::OK();
    }
    ASTERIX_RETURN_NOT_OK(BackgroundMerge());
  }
}

bool LsmBTree::MergeHereLocked() {
  if (merge_inflight_ || !MergeWantedLocked()) return false;
  return options_.scheduler == nullptr ||
         !options_.scheduler->Schedule(this, CompactionJobKind::kMerge);
}

Status LsmBTree::BackgroundFlush() {
  std::shared_ptr<const ImmComponent> imm;
  uint64_t seq = 0;
  {
    std::unique_lock lock(mu_);
    // One flush at a time: a second caller waits out the running one, then
    // flushes whatever imm_ holds by then (usually nothing).
    imm_cv_.wait(lock, [&] { return !flush_inflight_ || !bg_error_.ok(); });
    if (!bg_error_.ok()) return bg_error_;
    if (imm_ == nullptr) return Status::OK();
    imm = imm_;
    seq = lifecycle_.AllocateSeq();
    flush_inflight_ = true;
  }
  // Build the component with no tree lock held: writers keep ingesting into
  // the fresh memtable and readers keep scanning (imm stays visible).
  uint64_t flush_start_us = NowUs();
  journal::Journal::Default().Post(journal::EventKind::kLsmFlushStart,
                                   imm->bytes, imm->entries.size(),
                                   lifecycle_.name().c_str());
  std::string path = lifecycle_.ComponentPath(seq);
  uint64_t num_entries = 0;
  std::shared_ptr<DiskComponentReader> reader;
  Status st = BuildComponent(imm->entries, path, &num_entries);
  // The validity bit makes the new component durable *after* its data file
  // is fully written (shadowing).
  if (st.ok()) st = lifecycle_.MarkValid(seq, num_entries, imm->max_lsn);
  if (st.ok()) st = OpenReader(path, &reader);

  std::unique_lock lock(mu_);
  flush_inflight_ = false;
  if (!st.ok()) {
    if (bg_error_.ok()) bg_error_ = st;
    imm_cv_.notify_all();
    return st;
  }
  ComponentInfo info;
  info.seq = seq;
  info.path = path;
  info.num_entries = num_entries;
  info.bytes = env::FileSize(path);
  info.max_lsn = imm->max_lsn;
  uint64_t flushed_bytes = info.bytes;
  disk_.push_back(DiskComponent{std::move(info), std::move(reader)});
  flushed_lsn_ = std::max(flushed_lsn_, imm->max_lsn);
  {
    auto& reg = metrics::MetricsRegistry::Default();
    static metrics::Counter* flushes = reg.GetCounter("storage.lsm.flushes");
    static metrics::Counter* bytes = reg.GetCounter("storage.lsm.bytes_flushed");
    static metrics::Histogram* flush_us = reg.GetHistogram("storage.lsm.flush_us");
    flushes->Inc();
    bytes->Inc(flushed_bytes);
    flush_us->Observe(NowUs() - flush_start_us);
    if (options_.format == StorageFormat::kColumn) {
      static metrics::Counter* col_bytes =
          reg.GetCounter("storage.column.bytes_flushed");
      col_bytes->Inc(flushed_bytes);
    }
    UpdateWriteAmplification();
  }
  // Physical write caused by the query whose ingest tripped the flush (0 =
  // background/boot work, which the ledger ignores). Pool jobs run under
  // the triggering query's id (see CompactionScheduler).
  ledger::ResourceLedger::Default().AddBytesWritten(journal::CurrentQueryId(),
                                                    flushed_bytes);
  journal::Journal::Default().Post(journal::EventKind::kLsmFlushEnd,
                                   imm->bytes, flushed_bytes,
                                   lifecycle_.name().c_str());
  imm_.reset();
  throttle_level_ = 0;
  // Keep ingest ahead: if the mutable side already re-tripped its budget,
  // rotate and queue the next flush before this job counts as done (so a
  // Quiesce() waiter still sees the tree busy). Without a pool taker the
  // next writer trips the budget and flushes it.
  CompactionScheduler* sched = options_.scheduler;
  if (sched != nullptr && mem_bytes_ >= options_.mem_budget_bytes &&
      sched->Schedule(this, CompactionJobKind::kFlush)) {
    RotateLocked();
  }
  bool merge_here = MergeHereLocked();
  imm_cv_.notify_all();
  lock.unlock();
  return merge_here ? BackgroundMerge() : Status::OK();
}

bool LsmBTree::SelectMergeRunLocked(size_t* first, size_t* count) const {
  const MergePolicy& p = options_.merge_policy;
  switch (p.kind) {
    case MergePolicy::Kind::kNone:
      return false;
    case MergePolicy::Kind::kConstant:
      if (disk_.size() > p.max_components && disk_.size() >= 2) {
        *first = 0;
        *count = disk_.size();
        return true;
      }
      return false;
    case MergePolicy::Kind::kPrefix: {
      // Find the longest suffix (newest run) of components each smaller than
      // max_merge_bytes; merge it when the run exceeds max_components.
      size_t run = 0;
      uint64_t run_bytes = 0;
      for (size_t i = disk_.size(); i > 0; --i) {
        const auto& info = disk_[i - 1].info;
        if (info.bytes >= p.max_merge_bytes) break;
        if (run_bytes + info.bytes > p.max_merge_bytes) break;
        run_bytes += info.bytes;
        ++run;
      }
      if (run > p.max_components && run >= 2) {
        *first = disk_.size() - run;
        *count = run;
        return true;
      }
      return false;
    }
    case MergePolicy::Kind::kTiered: {
      // Size-ratio tiering: grow the newest run while the next-older
      // component is at most size_ratio times the total of the newer run
      // members, then merge the run once it holds more than max_components
      // members. Each component is merged O(log n) times overall instead of
      // the constant policy's every-time.
      size_t run = 1;
      uint64_t run_bytes = disk_.empty() ? 0 : disk_.back().info.bytes;
      for (size_t i = disk_.size() > 0 ? disk_.size() - 1 : 0; i > 0; --i) {
        const auto& info = disk_[i - 1].info;
        if (info.bytes * 100 >
            run_bytes * static_cast<uint64_t>(p.size_ratio_x100)) {
          break;
        }
        run_bytes += info.bytes;
        ++run;
      }
      if (!disk_.empty() && run > p.max_components && run >= 2) {
        *first = disk_.size() - run;
        *count = run;
        return true;
      }
      return false;
    }
  }
  return false;
}

bool LsmBTree::MergeWantedLocked() const {
  size_t first = 0, count = 0;
  return SelectMergeRunLocked(&first, &count);
}

Status LsmBTree::BackgroundMerge() {
  std::vector<DiskComponent> inputs;
  size_t first = 0;
  uint64_t file_seq = 0;
  uint64_t max_lsn = 0;
  {
    std::unique_lock lock(mu_);
    // One merge at a time: a second caller waits out the running one, then
    // applies the policy to the state it left.
    imm_cv_.wait(lock, [&] { return !merge_inflight_ || !bg_error_.ok(); });
    if (!bg_error_.ok()) return bg_error_;
    size_t count = 0;
    if (!SelectMergeRunLocked(&first, &count)) return Status::OK();
    inputs.assign(disk_.begin() + first, disk_.begin() + first + count);
    // The fresh seq only names the output file; the component sorts at its
    // newest input's seq, so a flush installing concurrently (with a
    // higher seq, since flushes always take the latest allocation) stays
    // newer than this output both in memory and across recovery.
    file_seq = lifecycle_.AllocateSeq();
    for (const auto& dc : inputs) {
      max_lsn = std::max(max_lsn, dc.info.max_lsn);
    }
    merge_inflight_ = true;
  }
  uint64_t merge_start_us = NowUs();
  uint64_t bytes_in = 0;
  for (const auto& dc : inputs) bytes_in += dc.info.bytes;
  journal::Journal::Default().Post(journal::EventKind::kLsmMergeStart, bytes_in,
                                   inputs.size(), lifecycle_.name().c_str());
  // Gather + build with no tree lock held. The input components are
  // immutable files; concurrent flushes only append to disk_ behind the
  // run, and merge_inflight_ keeps every other merge out, so the run stays
  // at disk_[first, first + inputs.size()) until install.
  std::map<CompositeKey, MemEntry, KeyLess> merged;
  Status st;
  for (const auto& dc : inputs) {
    // Older first: later (newer) components overwrite.
    ScanBounds all;
    st = dc.reader->RangeScan(all, [&](const IndexEntry& e) {
      merged.insert_or_assign(e.key, MemEntry{e.antimatter, e.payload});
      return Status::OK();
    });
    if (!st.ok()) break;
  }
  if (st.ok() && first == 0) {
    // Antimatter entries are dropped only when no older component remains
    // to be cancelled (components are never inserted below the oldest).
    for (auto it = merged.begin(); it != merged.end();) {
      it = it->second.antimatter ? merged.erase(it) : std::next(it);
    }
  }
  // The marker's replaces range lets recovery finish the input cleanup if
  // we crash after MarkValid.
  std::string path = lifecycle_.ComponentPath(file_seq);
  uint64_t sort_seq = inputs.back().info.seq;
  uint64_t num_entries = 0;
  std::shared_ptr<DiskComponentReader> reader;
  if (st.ok()) st = BuildComponent(merged, path, &num_entries);
  if (st.ok()) {
    st = lifecycle_.MarkValid(file_seq, num_entries, max_lsn, sort_seq,
                              inputs.front().info.seq, sort_seq);
  }
  if (st.ok()) st = OpenReader(path, &reader);

  std::unique_lock lock(mu_);
  merge_inflight_ = false;
  if (!st.ok()) {
    if (bg_error_.ok()) bg_error_ = st;
    imm_cv_.notify_all();
    return st;
  }
  ComponentInfo info;
  info.seq = sort_seq;
  info.path = path;
  info.num_entries = num_entries;
  info.bytes = env::FileSize(path);
  info.max_lsn = max_lsn;
  // Replace the merged run with the new component, then delete old files.
  disk_.erase(disk_.begin() + first, disk_.begin() + first + inputs.size());
  disk_.insert(disk_.begin() + first, DiskComponent{info, std::move(reader)});
  for (auto& dc : inputs) {
    dc.reader.reset();  // closes the file in the cache
    Status rm = lifecycle_.RemoveComponent(dc.info);
    if (!rm.ok() && st.ok()) st = rm;
  }
  {
    auto& reg = metrics::MetricsRegistry::Default();
    static metrics::Counter* merges = reg.GetCounter("storage.lsm.merges");
    static metrics::Counter* bytes = reg.GetCounter("storage.lsm.bytes_merged");
    static metrics::Histogram* merge_us = reg.GetHistogram("storage.lsm.merge_us");
    merges->Inc();
    bytes->Inc(info.bytes);
    merge_us->Observe(NowUs() - merge_start_us);
    if (options_.format == StorageFormat::kColumn) {
      static metrics::Counter* col_bytes =
          reg.GetCounter("storage.column.bytes_merged");
      col_bytes->Inc(info.bytes);
    }
    UpdateWriteAmplification();
  }
  ledger::ResourceLedger::Default().AddBytesWritten(journal::CurrentQueryId(),
                                                    info.bytes);
  journal::Journal::Default().Post(journal::EventKind::kLsmMergeEnd, bytes_in,
                                   info.bytes, lifecycle_.name().c_str());
  // Tiering may want another round once this run has collapsed.
  bool merge_here = MergeHereLocked();
  imm_cv_.notify_all();
  lock.unlock();
  if (!st.ok()) return st;
  return merge_here ? BackgroundMerge() : Status::OK();
}


Status LsmBTree::PointLookup(const CompositeKey& key, bool* found,
                             std::vector<uint8_t>* payload) const {
  std::vector<LookupResult> result;
  ASTERIX_RETURN_NOT_OK(MultiGet({&key, 1}, &result, nullptr));
  *found = result[0].found;
  if (*found) *payload = std::move(result[0].payload);
  return Status::OK();
}

Status LsmBTree::MultiGet(std::span<const CompositeKey> keys,
                          std::vector<LookupResult>* out,
                          column::ProjectedScanStats* stats) const {
  out->assign(keys.size(), LookupResult{});
  // done[i]: keys[i] resolved by a newer component (matter or antimatter).
  std::vector<char> done(keys.size(), 0);
  std::vector<size_t> pending(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) pending[i] = i;
  auto drop_done = [&] {
    std::erase_if(pending, [&](size_t i) { return done[i] != 0; });
  };
  std::shared_lock lock(mu_);
  // The memory components first: mem_, then the rotated imm_, which is
  // older than mem_ but newer than any disk component — it stays visible
  // until its background flush installs.
  auto resolve_in = [&](const MemTable& table) {
    for (size_t i : pending) {
      auto it = table.find(keys[i]);
      if (it == table.end()) continue;
      done[i] = 1;
      if (it->second.antimatter) continue;
      (*out)[i].found = true;
      (*out)[i].payload = it->second.payload;
    }
    drop_done();
  };
  if (!mem_.empty()) resolve_in(mem_);
  if (imm_ != nullptr && !pending.empty()) resolve_in(imm_->entries);
  if (pending.empty() || disk_.empty()) return Status::OK();

  auto& reg = metrics::MetricsRegistry::Default();
  static metrics::Counter* bloom_hits = reg.GetCounter("storage.bloom.hits");
  static metrics::Counter* bloom_misses = reg.GetCounter("storage.bloom.misses");
  static metrics::Counter* bloom_fps =
      reg.GetCounter("storage.bloom.false_positives");
  std::vector<const CompositeKey*> probe;
  std::vector<size_t> probe_idx;
  // Newest disk component first; each sees only the keys no newer
  // component resolved.
  for (size_t c = disk_.size(); c > 0 && !pending.empty(); --c) {
    const auto& dc = disk_[c - 1];
    probe.clear();
    probe_idx.clear();
    // The bloom filter screens out keys the component cannot hold (a
    // "miss" saves the page reads; a "hit" that finds nothing is a false
    // positive).
    for (size_t i : pending) {
      if (!dc.reader->MayContain(keys[i])) continue;
      probe.push_back(&keys[i]);
      probe_idx.push_back(i);
    }
    bloom_misses->Inc(pending.size() - probe.size());
    if (probe.empty()) continue;
    bloom_hits->Inc(probe.size());
    uint64_t found = 0;
    ASTERIX_RETURN_NOT_OK(dc.reader->MultiGet(
        probe,
        [&](size_t j, IndexEntry& e) {
          size_t i = probe_idx[j];
          done[i] = 1;
          ++found;
          if (!e.antimatter) {
            (*out)[i].found = true;
            (*out)[i].payload = std::move(e.payload);
          }
          return Status::OK();
        },
        stats));
    bloom_fps->Inc(probe.size() - found);
    drop_done();
  }
  return Status::OK();
}

bool LsmBTree::ListScanSourcesLocked(std::vector<ScanSource>* sources) const {
  sources->clear();
  auto add_mem = [&](const MemTable& table) {
    if (table.empty()) return;
    sources->push_back(ScanSource{
        &table, nullptr, {table.begin()->first, table.rbegin()->first}});
  };
  add_mem(mem_);
  if (imm_ != nullptr) add_mem(imm_->entries);
  for (size_t i = disk_.size(); i > 0; --i) {
    ScanSource src;
    src.disk = disk_[i - 1].reader.get();
    if (src.disk->KeyRange(&src.range.lo, &src.range.hi)) {
      sources->push_back(std::move(src));
    }
  }
  std::vector<size_t> order(sources->size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return CompareKeys((*sources)[a].range.lo, (*sources)[b].range.lo) < 0;
  });
  for (size_t k = 1; k < order.size(); ++k) {
    if (CompareKeys((*sources)[order[k - 1]].range.hi,
                    (*sources)[order[k]].range.lo) >= 0) {
      return false;
    }
  }
  std::vector<ScanSource> sorted;
  sorted.reserve(order.size());
  for (size_t i : order) sorted.push_back(std::move((*sources)[i]));
  *sources = std::move(sorted);
  return true;
}

namespace {

/// Visits the entries of a memory component that fall within `bounds`, in
/// key order, antimatter included.
template <typename Table, typename Fn>
Status ForEachInBounds(const Table& table, const ScanBounds& bounds,
                       const Fn& fn) {
  auto it = bounds.lo.has_value() ? table.lower_bound(*bounds.lo) : table.begin();
  for (; it != table.end(); ++it) {
    if (bounds.lo.has_value()) {
      int c = BoundCompare(it->first, *bounds.lo);
      if (c < 0 || (c == 0 && !bounds.lo_inclusive)) continue;
    }
    if (bounds.hi.has_value()) {
      int c = BoundCompare(it->first, *bounds.hi);
      if (c > 0 || (c == 0 && !bounds.hi_inclusive)) break;
    }
    ASTERIX_RETURN_NOT_OK(fn(it->first, it->second));
  }
  return Status::OK();
}

/// K-way merge of per-source sorted runs, newest run first: each key's
/// newest version is emitted once, and a key whose newest version is
/// antimatter is hidden. `Row` has `key` and `antimatter` members.
template <typename Row, typename Emit>
Status MergeNewestWins(const std::vector<std::vector<Row>>& runs,
                       const Emit& emit) {
  std::vector<size_t> pos(runs.size(), 0);
  auto cmp = [&](size_t a, size_t b) {
    int c = CompareKeys(runs[a][pos[a]].key, runs[b][pos[b]].key);
    if (c != 0) return c > 0;  // min-heap by key
    return a > b;              // newest (lowest run index) first
  };
  std::priority_queue<size_t, std::vector<size_t>, decltype(cmp)> heap(cmp);
  for (size_t i = 0; i < runs.size(); ++i) {
    if (!runs[i].empty()) heap.push(i);
  }
  // Runs are not modified while merging, so the pointer stays valid.
  const CompositeKey* last_key = nullptr;
  while (!heap.empty()) {
    size_t ri = heap.top();
    heap.pop();
    const Row& row = runs[ri][pos[ri]];
    if (last_key == nullptr || CompareKeys(row.key, *last_key) != 0) {
      last_key = &row.key;
      if (!row.antimatter) ASTERIX_RETURN_NOT_OK(emit(row));
    }
    if (++pos[ri] < runs[ri].size()) heap.push(ri);
  }
  return Status::OK();
}

}  // namespace

Status LsmBTree::RangeScan(const ScanBounds& bounds,
                           const EntryCallback& cb) const {
  std::shared_lock lock(mu_);
  auto to_entry = [](const CompositeKey& key, const MemEntry& entry) {
    IndexEntry e;
    e.key = key;
    e.antimatter = entry.antimatter;
    e.payload = entry.payload;
    return e;
  };
  std::vector<ScanSource> sources;
  if (ListScanSourcesLocked(&sources)) {
    // Disjoint sources: every key has one version, so each source streams
    // in key-range order and only tombstones are skipped.
    for (const ScanSource& src : sources) {
      if (src.mem != nullptr) {
        ASTERIX_RETURN_NOT_OK(ForEachInBounds(
            *src.mem, bounds,
            [&](const CompositeKey& key, const MemEntry& entry) {
              if (entry.antimatter) return Status::OK();
              return cb(to_entry(key, entry));
            }));
      } else {
        ASTERIX_RETURN_NOT_OK(
            src.disk->RangeScan(bounds, [&](const IndexEntry& e) {
              if (e.antimatter) return Status::OK();
              return cb(e);
            }));
      }
    }
    return Status::OK();
  }
  // Overlapping sources: collect each one's qualifying entries (they arrive
  // in key order) and merge newest-wins, antimatter hiding older matter.
  std::vector<std::vector<IndexEntry>> runs(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    auto& run = runs[i];
    if (sources[i].mem != nullptr) {
      ASTERIX_RETURN_NOT_OK(ForEachInBounds(
          *sources[i].mem, bounds,
          [&](const CompositeKey& key, const MemEntry& entry) {
            run.push_back(to_entry(key, entry));
            return Status::OK();
          }));
    } else {
      ASTERIX_RETURN_NOT_OK(
          sources[i].disk->RangeScan(bounds, [&](const IndexEntry& e) {
            run.push_back(e);
            return Status::OK();
          }));
    }
  }
  return MergeNewestWins(runs, cb);
}

Status LsmBTree::ProjectedScan(const ScanBounds& bounds,
                               const column::Projection& proj,
                               const column::ProjectedEntryCallback& cb,
                               column::ProjectedScanStats* stats) const {
  std::shared_lock lock(mu_);
  auto project = [&](const MemEntry& entry, adm::Value* out) -> Status {
    if (stats != nullptr) stats->bytes_read += entry.payload.size();
    if (entry.antimatter) return Status::OK();
    BytesReader r(entry.payload);
    adm::Value rec;
    ASTERIX_RETURN_NOT_OK(adm::DeserializeTyped(&r, options_.record_type, &rec));
    *out = column::ProjectRecord(rec, proj);
    return Status::OK();
  };
  std::vector<ScanSource> sources;
  if (ListScanSourcesLocked(&sources)) {
    // Disjoint sources: no key has a second version, so min/max pruning is
    // sound everywhere — a skipped page group cannot hide a newer version
    // of anything, nor let an older one through.
    for (const ScanSource& src : sources) {
      if (src.mem != nullptr) {
        ASTERIX_RETURN_NOT_OK(ForEachInBounds(
            *src.mem, bounds,
            [&](const CompositeKey& key, const MemEntry& entry) -> Status {
              if (entry.antimatter) return Status::OK();
              adm::Value rec;
              ASTERIX_RETURN_NOT_OK(project(entry, &rec));
              return cb(key, false, rec);
            }));
      } else {
        ASTERIX_RETURN_NOT_OK(src.disk->ProjectedScan(
            bounds, proj, {},
            [&](const CompositeKey& key, bool antimatter, const adm::Value& rec) {
              if (antimatter) return Status::OK();
              return cb(key, false, rec);
            },
            stats));
      }
    }
    return Status::OK();
  }
  // Overlapping sources: k-way merge of projected rows, newest wins and
  // antimatter hides. A column component may still min/max-prune a page
  // group whose key span is disjoint from every other source's range — no
  // pruned key then has another version to resurrect.
  struct ProjRow {
    CompositeKey key;
    bool antimatter = false;
    adm::Value record;
  };
  std::vector<std::vector<ProjRow>> runs(sources.size());
  std::vector<column::KeyInterval> exclusions;
  for (size_t i = 0; i < sources.size(); ++i) {
    auto& run = runs[i];
    if (sources[i].mem != nullptr) {
      ASTERIX_RETURN_NOT_OK(ForEachInBounds(
          *sources[i].mem, bounds,
          [&](const CompositeKey& key, const MemEntry& entry) -> Status {
            ProjRow row{key, entry.antimatter, adm::Value()};
            ASTERIX_RETURN_NOT_OK(project(entry, &row.record));
            run.push_back(std::move(row));
            return Status::OK();
          }));
      continue;
    }
    exclusions.clear();
    for (size_t j = 0; j < sources.size(); ++j) {
      if (j != i) exclusions.push_back(sources[j].range);
    }
    ASTERIX_RETURN_NOT_OK(sources[i].disk->ProjectedScan(
        bounds, proj, exclusions,
        [&](const CompositeKey& key, bool antimatter, const adm::Value& rec) {
          run.push_back(ProjRow{key, antimatter, rec});
          return Status::OK();
        },
        stats));
  }
  return MergeNewestWins(runs, [&](const ProjRow& row) {
    return cb(row.key, false, row.record);
  });
}

Status LsmBTree::BatchScan(const ScanBounds& bounds,
                           const column::Projection& proj,
                           const column::BatchCallback& cb,
                           column::ProjectedScanStats* stats) const {
  std::shared_lock lock(mu_);
  if (options_.format != StorageFormat::kColumn) {
    return Status::NotImplemented("batch scan requires column storage");
  }
  // Column pages stream out as typed batches only when no row needs
  // cross-component resolution: empty memory components (mutable and
  // rotated) and disk components with disjoint key ranges. Anything else
  // needs row merging — the caller falls back to ProjectedScan + batch
  // rebuilding.
  if (!mem_.empty() || imm_ != nullptr) {
    return Status::NotImplemented("batch scan requires empty memory components");
  }
  std::vector<ScanSource> sources;
  if (!ListScanSourcesLocked(&sources)) {
    return Status::NotImplemented("batch scan requires disjoint components");
  }
  // Every component must be able to batch before the first batch leaves:
  // the caller's row fallback would otherwise emit the earlier rows twice.
  for (const ScanSource& src : sources) {
    ASTERIX_RETURN_NOT_OK(src.disk->CanBatchScan(proj));
  }
  for (const ScanSource& src : sources) {
    ASTERIX_RETURN_NOT_OK(src.disk->BatchScan(bounds, proj, cb, stats));
  }
  return Status::OK();
}

size_t LsmBTree::mem_entries() const {
  std::shared_lock lock(mu_);
  return mem_.size() + (imm_ != nullptr ? imm_->entries.size() : 0);
}

size_t LsmBTree::num_disk_components() const {
  std::shared_lock lock(mu_);
  return disk_.size();
}

uint64_t LsmBTree::total_disk_bytes() const {
  std::shared_lock lock(mu_);
  uint64_t total = 0;
  for (const auto& dc : disk_) total += dc.info.bytes;
  return total;
}

uint64_t LsmBTree::num_logical_entries() const {
  std::shared_lock lock(mu_);
  uint64_t total = mem_.size() + (imm_ != nullptr ? imm_->entries.size() : 0);
  for (const auto& dc : disk_) total += dc.info.num_entries;
  return total;
}

uint64_t LsmBTree::flushed_lsn() const {
  std::shared_lock lock(mu_);
  return flushed_lsn_;
}

}  // namespace storage
}  // namespace asterix
