#ifndef ASTERIX_STORAGE_COMPACTION_H_
#define ASTERIX_STORAGE_COMPACTION_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace asterix {
namespace storage {

/// The two kinds of background LSM maintenance the scheduler runs.
enum class CompactionJobKind : uint8_t { kFlush = 0, kMerge = 1 };

const char* CompactionJobKindName(CompactionJobKind kind);

/// Implemented by LSM structures that hand their maintenance to a
/// CompactionScheduler. Both hooks are idempotent no-ops when there is
/// nothing to do (the scheduler may run a job after its trigger condition
/// has already been resolved by a barrier or an earlier job).
class Compactable {
 public:
  virtual ~Compactable() = default;
  /// Flushes the rotated immutable in-memory component to a disk component.
  virtual Status BackgroundFlush() = 0;
  /// Applies the merge policy once; merges at most one component run.
  virtual Status BackgroundMerge() = 0;
  /// Journal/metrics label for this structure (index name).
  virtual const std::string& compaction_label() const = 0;
};

/// Shared background worker pool running LSM flushes and merges off the
/// ingest path. Invariants:
///
///  - Per tree, at most one flush AND at most one merge RUN at a time; a
///    flush and a merge on the same tree run concurrently (a long merge
///    must not pin the rotated memtable and stall ingest). This is safe
///    because a merge output sorts at its newest *input's* seq, not its
///    file seq — so a flush installing mid-merge is newer than the merge
///    output in memory and across recovery, and the two install paths
///    touch disjoint parts of the component list (append-at-back vs
///    replace-within-run) under the tree lock.
///  - Per (tree, kind), at most one job is QUEUED: duplicate Schedule()
///    calls coalesce (jobs re-evaluate their trigger, so one queued job
///    covers any number of requests).
///  - Flushes are dispatched before merges: a queued flush frees writer
///    memory, a queued merge only improves read cost.
///  - Merges may occupy at most threads-1 workers (min 1), so a worker is
///    always free for flushes — long merges must never starve the flush
///    path, or every writer ends up blocked on the memory ceiling waiting
///    for a rotation that cannot drain.
///
/// Schedule() returns false when the job cannot be accepted (scheduler
/// stopped, tree released, or queue full) — callers then run the job body
/// themselves, so memory stays bounded even when the pool is hopelessly
/// behind.
class CompactionScheduler {
 public:
  struct Options {
    /// Worker threads; 0 = 2.
    size_t threads = 2;
    /// Max jobs queued (both kinds) before Schedule() rejects.
    size_t queue_limit = 64;
  };

  struct StatsSnapshot {
    size_t queued_flush = 0;
    size_t queued_merge = 0;
    size_t running = 0;
    uint64_t scheduled = 0;
    uint64_t coalesced = 0;
    uint64_t rejected = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
  };

  explicit CompactionScheduler(Options options);
  ~CompactionScheduler();

  CompactionScheduler(const CompactionScheduler&) = delete;
  CompactionScheduler& operator=(const CompactionScheduler&) = delete;

  /// Enqueues (or coalesces) a maintenance job. Captures the calling
  /// thread's current query id so the job's journal/ledger activity stays
  /// attributed to the query whose write triggered it.
  bool Schedule(Compactable* tree, CompactionJobKind kind);

  /// True while a Schedule() for this tree could still be accepted (the
  /// scheduler is not stopped and the tree is not released). Queued jobs
  /// are silently dropped by Stop()/Release(), so a writer parked on work
  /// it queued earlier must re-check this: once it turns false, nothing
  /// will ever run that job and the caller has to run the job body itself
  /// (see the hard-ceiling wait in LsmBTree).
  bool Accepting(Compactable* tree) const;

  /// Blocks until the tree has no queued and no running job. Follow-up jobs
  /// scheduled from inside a job body are visible before the job counts as
  /// done, so a quiesced tree is genuinely idle.
  void Quiesce(Compactable* tree);

  /// Detaches a tree: drops its queued jobs, waits for a running one, and
  /// refuses future Schedule() calls for it. Must be called before the tree
  /// is destroyed.
  void Release(Compactable* tree);

  /// Stops accepting work, drops the queue, and joins the workers (running
  /// jobs finish first). Idempotent; the destructor calls it.
  void Stop();

  size_t queued() const;
  size_t running() const;
  StatsSnapshot Stats() const;

  /// `{ "queued": n, "running": n, ... }` for StatusJson embedding.
  std::string StatsJson() const;

 private:
  struct Job {
    Compactable* tree = nullptr;
    CompactionJobKind kind = CompactionJobKind::kFlush;
    uint64_t query_id = 0;
    uint64_t enqueue_us = 0;
  };
  struct TreeState {
    bool queued_flush = false;
    bool queued_merge = false;
    bool running_flush = false;
    bool running_merge = false;
    bool released = false;
  };

  void WorkerLoop();
  /// Requires mu_. True when some queued job's tree can accept its kind.
  bool HasRunnableLocked() const;
  /// Requires mu_. Pops the next runnable job (flushes first); false if none.
  bool PopRunnableLocked(Job* out);
  /// Requires mu_. Publishes queue-depth gauges.
  void UpdateGaugesLocked();

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_idle_;  // quiesce / release waiters
  std::deque<Job> flush_queue_;
  std::deque<Job> merge_queue_;
  std::unordered_map<Compactable*, TreeState> trees_;
  size_t running_count_ = 0;
  size_t running_merge_count_ = 0;
  bool stopped_ = false;
  uint64_t scheduled_ = 0;
  uint64_t coalesced_ = 0;
  uint64_t rejected_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::thread> workers_;
};

}  // namespace storage
}  // namespace asterix

#endif  // ASTERIX_STORAGE_COMPACTION_H_
