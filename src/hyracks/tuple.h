#ifndef ASTERIX_HYRACKS_TUPLE_H_
#define ASTERIX_HYRACKS_TUPLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "adm/value.h"
#include "common/status.h"
#include "storage/column/batch.h"

namespace asterix {
namespace hyracks {

/// A tuple flowing through the dataflow: a fixed-width vector of ADM values.
/// Column meanings are assigned by the compiler (variable -> column index).
using Tuple = std::vector<adm::Value>;

/// Evaluates one scalar over a tuple (compiled expression).
using TupleEval = std::function<Result<adm::Value>(const Tuple&)>;
/// Tuple comparator returning <0/0/>0 (sorts, merges).
using TupleCompare = std::function<int(const Tuple&, const Tuple&)>;

/// A batch of tuples; the unit connectors move between operator instances.
/// Batching amortizes queue synchronization the way byte frames amortize
/// network calls in the real system. A frame may instead carry one typed
/// columnar batch (the vectorized path): `batch` set, `tuples` empty. Batch
/// frames only traverse 1:1 connectors — partitioning/merging connectors
/// need per-tuple routing, so producers materialize rows first.
struct Frame {
  std::vector<Tuple> tuples;
  std::shared_ptr<storage::column::ColumnBatch> batch;
  /// Index of the producer instance that pushed the frame (set by the
  /// channel), so a consumed frame can go back to that producer's thread to
  /// be freed.
  int producer = -1;
};

constexpr size_t kDefaultFrameTuples = 256;

/// Accumulates tuples into frames and forwards them through a push target.
class FrameAppender {
 public:
  FrameAppender(std::function<void(Frame)> sink,
                size_t frame_tuples = kDefaultFrameTuples)
      : sink_(std::move(sink)), frame_tuples_(frame_tuples) {}

  void Push(Tuple tuple) {
    current_.tuples.push_back(std::move(tuple));
    if (current_.tuples.size() >= frame_tuples_) Flush();
  }

  void Flush() {
    if (!current_.tuples.empty()) {
      sink_(std::move(current_));
      current_ = Frame{};
    }
  }

 private:
  std::function<void(Frame)> sink_;
  size_t frame_tuples_;
  Frame current_;
};

}  // namespace hyracks
}  // namespace asterix

#endif  // ASTERIX_HYRACKS_TUPLE_H_
