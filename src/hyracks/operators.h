#ifndef ASTERIX_HYRACKS_OPERATORS_H_
#define ASTERIX_HYRACKS_OPERATORS_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "hyracks/job.h"
#include "hyracks/vector/kernels.h"
#include "storage/bloom.h"
#include "storage/dataset_store.h"

namespace asterix {
namespace hyracks {

/// Aggregate call compiled into a group-by/aggregate operator.
struct AggSpec {
  std::string function;  // count/min/max/sum/avg or sql-*
  TupleEval input;       // evaluated per input tuple (ignored for count)
};

/// Local/global split of an aggregation (Figure 6's design point).
enum class AggMode {
  kComplete,  // one-shot aggregation
  kLocal,     // emit partial state records
  kGlobal,    // combine partial state records into finals
};

/// Runtime filter from an inner hash join's build keys to its probe-side
/// dataset scan. Each of the join's `num_builders` instances publishes the
/// hashes of its build keys — Hash64 of the same normalized key bytes the
/// join hashes, collected before any spill partitioning — once its build
/// input is drained. The last publication builds one BloomFilter and
/// releases the scan instances, which wait in Wait() before they open
/// their LSM scans and then drop every resolved row whose probe key is
/// unknown or misses the filter. A join instance that ends without
/// publishing (error, cancellation) calls PassAll(), so a scan never waits
/// for a build that will not come. One filter serves one execution of the
/// job it was compiled into.
class JoinRuntimeFilter {
 public:
  explicit JoinRuntimeFilter(int num_builders);

  /// The join's probe-key expressions, evaluated on the scan's output
  /// tuple. Set once, before the job runs.
  void SetProbeKeys(std::vector<TupleEval> probe_keys);

  /// One join instance's build-key hashes.
  void Publish(std::vector<uint64_t> key_hashes);
  /// Releases the scans with a filter that passes every row.
  void PassAll();

  /// Blocks until every join instance has published, or one passed all.
  void Wait() const;
  /// After Wait(): false when `t`'s probe key is unknown or cannot match a
  /// build key. `scratch` holds the serialized key.
  Result<bool> MayMatch(const Tuple& t, BytesWriter* scratch) const;

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable ready_cv_;
  int pending_;
  bool ready_ = false;
  bool pass_all_ = false;
  std::vector<uint64_t> hashes_;
  storage::BloomFilter bloom_ = storage::BloomFilter::Build({});
  std::vector<TupleEval> probe_keys_;
};

// ---------------------------------------------------------------------------
// Factory helpers. Each returns a fully-populated OperatorDescriptor; the
// caller adds it to a JobSpec and wires connectors.
// ---------------------------------------------------------------------------

/// Emits a fixed set of tuples from instance 0 (constant sources, DML
/// payloads, `1+1` queries).
OperatorDescriptor MakeValueScan(std::vector<Tuple> tuples);

/// Concatenates `num_inputs` input streams (UNION ALL).
OperatorDescriptor MakeUnion(int parallelism, int num_inputs);

/// Full scan of a partitioned dataset: instance p scans storage partition p,
/// emitting [record] tuples. parallelism = #partitions.
/// `projection` restricts which record fields are materialized: on columnar
/// datasets only the touched column pages are read (with min/max page
/// skipping for range predicates); on row datasets the whole record is read
/// and trimmed. Physical bytes read are reported to the emitter for
/// EXPLAIN ANALYZE.
/// With `filter`, the scan is the probe input of the join that feeds it:
/// it waits for the join's build keys before opening the LSM scan and drops
/// rows no build key can match (EXPLAIN tag `runtime-filter`).
OperatorDescriptor MakeDatasetScan(
    storage::PartitionedDataset* dataset,
    storage::column::Projection projection = storage::column::Projection::All(),
    std::shared_ptr<JoinRuntimeFilter> filter = nullptr);

/// Primary-index range scan with constant bounds; emits [record]. See
/// MakeDatasetScan for projection and filter semantics.
OperatorDescriptor MakePrimaryRangeScan(
    storage::PartitionedDataset* dataset, storage::ScanBounds bounds,
    storage::column::Projection projection = storage::column::Projection::All(),
    std::shared_ptr<JoinRuntimeFilter> filter = nullptr);

/// Primary-index point lookups driven by input tuples: `key_columns` name
/// the input columns holding the primary key; each match emits
/// input-tuple ++ [record]. With `locked`, each fetch takes an S record
/// lock first (the paper's secondary-index post-validation protocol).
OperatorDescriptor MakePrimarySearch(storage::PartitionedDataset* dataset,
                                     txn::TxnManager* txns,
                                     std::vector<int> key_columns, bool locked);

/// Secondary B-tree index range scan with constant bounds; emits the
/// referenced primary keys as [pk...] tuples. Runs on every partition
/// (secondary indexes are node-local).
OperatorDescriptor MakeSecondarySearch(storage::PartitionedDataset* dataset,
                                       std::string index_name,
                                       storage::ScanBounds bounds,
                                       size_t pk_arity);

/// Secondary B-tree lookups driven by input tuples: per input tuple,
/// `key_eval` yields the secondary key value; every matching index entry
/// emits input ++ [pk...]. This is the index side of an index nested-loop
/// join.
OperatorDescriptor MakeSecondaryProbe(storage::PartitionedDataset* dataset,
                                      std::string index_name,
                                      TupleEval key_eval, size_t pk_arity);

/// R-tree search with a constant query rectangle; emits [pk...].
OperatorDescriptor MakeRTreeSearch(storage::PartitionedDataset* dataset,
                                   std::string index_name, storage::Mbr query,
                                   size_t pk_arity);

/// Inverted-index occurrence search: candidates matching at least
/// `min_matches` of `tokens`; emits [pk...].
OperatorDescriptor MakeInvertedSearch(storage::PartitionedDataset* dataset,
                                      std::string index_name,
                                      std::vector<std::string> tokens,
                                      size_t min_matches, size_t pk_arity);

/// Filters tuples by a boolean predicate (three-valued: only TRUE passes).
OperatorDescriptor MakeSelect(int parallelism, TupleEval predicate);

/// Appends computed columns; with `project`, reorders/subsets first.
OperatorDescriptor MakeAssign(int parallelism, std::vector<TupleEval> exprs);

/// Keeps only the named columns, in order.
OperatorDescriptor MakeProject(int parallelism, std::vector<int> columns);

/// Blocking external merge sort: buffers tuples until `spill_budget_tuples`
/// or the instance's byte MemoryBudget trips, spilling sorted runs to disk
/// and heap-merging them k ways (the production behaviour a memory-bounded
/// sort needs). `limit` enables top-k truncation of the output.
OperatorDescriptor MakeSort(int parallelism, TupleCompare compare,
                            std::optional<size_t> limit = std::nullopt,
                            size_t spill_budget_tuples = 1u << 18);

/// Hybrid/Grace hash join: port 0 = build, port 1 = probe. Emits
/// build-tuple ++ probe-tuple. `left_outer` emits nulls ++ probe for probe
/// tuples without a match (port semantics: outer side is the PROBE side).
/// Build tuples go into per-hash-partition open-addressing tables keyed by
/// serialized normalized key bytes; when the instance's MemoryBudget trips,
/// whole partitions spill to scratch runs and are joined recursively.
/// With `filter` (inner joins only), every instance publishes its build
/// keys to the probe-side scan before probing.
OperatorDescriptor MakeHybridHashJoin(
    int parallelism, std::vector<TupleEval> build_keys,
    std::vector<TupleEval> probe_keys, size_t build_arity, bool left_outer,
    std::shared_ptr<JoinRuntimeFilter> filter = nullptr);

/// Nested-loop join: port 0 buffered, port 1 streamed, predicate over the
/// concatenated tuple (build columns first). Budgeted: build tuples past
/// the instance's MemoryBudget spill to a run and are joined block-at-a-time
/// against a re-scanned probe run (block nested-loop), with left-outer
/// emission deferred behind per-probe matched flags.
OperatorDescriptor MakeNestedLoopJoin(int parallelism, TupleEval predicate,
                                      size_t build_arity, bool left_outer);

/// Hash group-by. mode=kLocal emits partial-state columns; kGlobal consumes
/// them; kComplete does both at once. Budgeted: when the instance's
/// MemoryBudget trips, hash partitions of group state spill to disk as
/// partial-aggregate tuples and are merged back (Aggregator::Combine) on a
/// recursive pass.
OperatorDescriptor MakeHashGroupBy(int parallelism, std::vector<TupleEval> keys,
                                   std::vector<AggSpec> aggs, AggMode mode);

/// Group-by over key-sorted input (streaming, no hash table).
OperatorDescriptor MakePreclusteredGroupBy(int parallelism,
                                           std::vector<TupleEval> keys,
                                           std::vector<AggSpec> aggs,
                                           AggMode mode);

/// Ungrouped aggregation (the Figure 6 local-avg/global-avg pair).
OperatorDescriptor MakeAggregate(int parallelism, std::vector<AggSpec> aggs,
                                 AggMode mode);

/// Group-by that materializes, per group, a BAG of the values found in each
/// of `collect_columns` (the un-rewritten `group by ... with $v` semantics
/// whose materialization cost the paper's pilots exposed). Emits
/// [keys..., bag(col0), bag(col1), ...]. Budgeted: hash partitions of bag
/// state spill to disk as output-shaped partial tuples and are bag-
/// concatenated back on a recursive pass, like MakeHashGroupBy.
OperatorDescriptor MakeBagGroupBy(int parallelism, std::vector<TupleEval> keys,
                                  std::vector<int> collect_columns);

/// Hash-based duplicate elimination: on `keys` when given, else on whole
/// tuples. Set semantics over serialized normalized key bytes (no per-key
/// Value vectors); emits the first occurrence of each key as it streams by,
/// spilling hash partitions under memory pressure.
OperatorDescriptor MakeDistinct(int parallelism,
                                std::vector<TupleEval> keys = {});

/// Offset/limit; run with parallelism 1 after a merging connector.
OperatorDescriptor MakeLimit(size_t limit, size_t offset = 0);

/// Expands a collection-valued expression: for each element e of
/// `collection_eval(t)`, emits t ++ [e]. Unknown/empty collections emit
/// nothing unless `outer`, which then emits t ++ [missing].
OperatorDescriptor MakeUnnest(int parallelism, TupleEval collection_eval,
                              bool outer, bool with_position = false);

/// Transactional insert sink: instance p inserts records routed to storage
/// partition p (connector must hash on primary key). Emits one [count]
/// tuple per instance.
OperatorDescriptor MakeInsert(storage::PartitionedDataset* dataset,
                              int record_column);

/// Transactional delete sink keyed by primary key columns.
OperatorDescriptor MakeDelete(storage::PartitionedDataset* dataset,
                              std::vector<int> key_columns);

/// Collects all tuples into `sink` (parallelism 1; the query result).
OperatorDescriptor MakeResultSink(std::shared_ptr<std::vector<Tuple>> sink);

// ---------------------------------------------------------------------------
// Vectorized operators (typed columnar batches + selection vectors). The
// lowering pass in algebricks emits these for filter/aggregate pipelines
// over columnar datasets; everything else keeps the row-at-a-time operators.
// ---------------------------------------------------------------------------

/// One lowered ungrouped aggregate: the function (count/min/max/sum/avg or
/// sql-*) plus the top-level record field it reads. Empty `field` counts
/// whole rows (count over the record variable).
struct VectorAggSpec {
  std::string function;
  std::string field;
};

/// Columnar batch scan: instance p scans storage partition p, emitting typed
/// ColumnBatch frames (no row reconstruction when the partition is in
/// columnar steady state; otherwise assembled rows are re-batched through
/// BatchBuilder — same data, same order). `projection` must name explicit
/// fields (the lanes).
OperatorDescriptor MakeVectorScan(storage::PartitionedDataset* dataset,
                                  storage::column::Projection projection,
                                  storage::ScanBounds bounds = {});

/// Vectorized filter: refines each batch's selection vector in place with
/// the lowered predicate kernel and forwards the surviving batch. Row-tuple
/// frames (a non-batch producer upstream) go through `fallback`, the
/// compiled interpreter predicate — identical semantics.
OperatorDescriptor MakeVectorSelect(int parallelism,
                                    std::shared_ptr<vector::PredNode> pred,
                                    TupleEval fallback);

/// Vectorized ungrouped aggregation over batches. mode=kLocal emits the
/// partial-state tuple the existing global Aggregator combines; kComplete
/// emits finals directly. Row-tuple frames are re-batched and fed through
/// the same kernels (semantics are interpreter-exact either way).
OperatorDescriptor MakeVectorAggregate(int parallelism,
                                       std::vector<VectorAggSpec> aggs,
                                       AggMode mode);

/// Ends a vectorized pipeline: materializes each batch's selected rows into
/// [record] tuples for row-oriented consumers (late materialization — only
/// rows still selected here are ever rebuilt).
OperatorDescriptor MakeVectorMaterialize(int parallelism);

/// Hash function over selected columns, for partitioning connectors.
std::function<uint64_t(const Tuple&)> HashOnColumns(std::vector<int> columns);

}  // namespace hyracks
}  // namespace asterix

#endif  // ASTERIX_HYRACKS_OPERATORS_H_
