// Unit tests for the dataflow primitives: channels (FIFO + sorted merge),
// connector routing semantics, frame batching, and stage analysis edge
// cases not covered by the end-to-end job tests.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "hyracks/channel.h"
#include "hyracks/cluster.h"
#include "hyracks/operators.h"

namespace asterix {
namespace hyracks {
namespace {

using adm::Value;

Tuple T(int64_t v) { return Tuple{Value::Int64(v)}; }

TEST(ChannelTest, FifoDeliversAllThenEos) {
  FifoChannel ch(2);
  ch.Push(0, Frame{{T(1), T(2)}});
  ch.Push(1, Frame{{T(3)}});
  ch.ProducerDone(0);
  ch.ProducerDone(1);
  std::vector<int64_t> got;
  Tuple t;
  while (true) {
    auto r = ch.Next(&t);
    ASSERT_TRUE(r.ok());
    if (!r.value()) break;
    got.push_back(t[0].AsInt());
  }
  EXPECT_EQ(got.size(), 3u);
}

TEST(ChannelTest, FifoBlocksUntilData) {
  FifoChannel ch(1);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.Push(0, Frame{{T(42)}});
    ch.ProducerDone(0);
  });
  Tuple t;
  auto r = ch.Next(&t);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value());
  EXPECT_EQ(t[0].AsInt(), 42);
  producer.join();
}

TEST(ChannelTest, FailurePropagatesToConsumer) {
  FifoChannel ch(1);
  ch.Fail(Status::Internal("boom"));
  Tuple t;
  auto r = ch.Next(&t);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ChannelTest, MergeChannelProducesGlobalOrder) {
  TupleCompare cmp = [](const Tuple& a, const Tuple& b) {
    return a[0].Compare(b[0]);
  };
  MergeChannel ch(3, cmp);
  // Each producer's stream is sorted; pushes interleave arbitrarily.
  ch.Push(0, Frame{{T(1), T(4), T(9)}});
  ch.Push(2, Frame{{T(3)}});
  ch.Push(1, Frame{{T(2), T(5)}});
  ch.ProducerDone(0);
  ch.Push(2, Frame{{T(6)}});
  ch.ProducerDone(1);
  ch.ProducerDone(2);
  std::vector<int64_t> got;
  Tuple t;
  while (true) {
    auto r = ch.Next(&t);
    ASSERT_TRUE(r.ok());
    if (!r.value()) break;
    got.push_back(t[0].AsInt());
  }
  EXPECT_EQ(got, (std::vector<int64_t>{1, 2, 3, 4, 5, 6, 9}));
}

TEST(ChannelTest, MergeChannelWaitsForSlowProducer) {
  TupleCompare cmp = [](const Tuple& a, const Tuple& b) {
    return a[0].Compare(b[0]);
  };
  MergeChannel ch(2, cmp);
  ch.Push(0, Frame{{T(10)}});
  std::thread slow([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.Push(1, Frame{{T(5)}});
    ch.ProducerDone(0);
    ch.ProducerDone(1);
  });
  Tuple t;
  auto r = ch.Next(&t);  // must wait for producer 1's 5, not emit 10 early
  ASSERT_TRUE(r.ok() && r.value());
  EXPECT_EQ(t[0].AsInt(), 5);
  slow.join();
}

// ---------------------------------------------------------------------------
// Frame return: a consumed frame goes back to the producer that filled it,
// and that producer's next Push frees it on the producer's own thread.
// ---------------------------------------------------------------------------

// A batch frame whose destruction is observable: the deleter records the
// freeing thread.
struct TrackedFrame {
  Frame frame;
  std::weak_ptr<storage::column::ColumnBatch> alive;
};

TrackedFrame Tracked(std::thread::id* freed_on = nullptr) {
  std::shared_ptr<storage::column::ColumnBatch> batch(
      new storage::column::ColumnBatch, [freed_on](storage::column::ColumnBatch* b) {
        if (freed_on != nullptr) *freed_on = std::this_thread::get_id();
        delete b;
      });
  batch->num_rows = 1;
  batch->sel.rows = {0};
  TrackedFrame t;
  t.alive = batch;
  t.frame.batch = std::move(batch);
  return t;
}

TEST(FrameReturnTest, ConsumedFrameIsFreedByItsProducersNextPush) {
  FifoChannel ch(2, /*capacity_frames=*/4);
  TrackedFrame a = Tracked(), b = Tracked(), c = Tracked(), d = Tracked();
  ch.Push(0, std::move(a.frame));
  ch.Push(1, std::move(b.frame));
  Frame f;
  ASSERT_TRUE(ch.NextFrame(&f).value());
  EXPECT_EQ(f.producer, 0);
  EXPECT_EQ(ch.returned_frames(), 0u);  // still held by the consumer
  ASSERT_TRUE(ch.NextFrame(&f).value());
  EXPECT_EQ(f.producer, 1);
  EXPECT_EQ(ch.returned_frames(), 1u);  // a is back, waiting for producer 0
  EXPECT_FALSE(a.alive.expired());
  ch.Push(1, std::move(c.frame));  // another producer's push keeps it
  EXPECT_FALSE(a.alive.expired());
  ch.Push(0, std::move(d.frame));  // its own producer frees it
  EXPECT_TRUE(a.alive.expired());
  EXPECT_EQ(ch.returned_frames(), 0u);
  ch.ProducerDone(0);
  ch.ProducerDone(1);
  while (ch.NextFrame(&f).value()) {
  }
  // b, c, d came back after their producers' last pushes: freed with the
  // channel.
  EXPECT_EQ(ch.returned_frames(), 3u);
  EXPECT_FALSE(d.alive.expired());
}

TEST(FrameReturnTest, ProducerThreadFreesWhatItFilled) {
  constexpr int kFrames = 64;
  constexpr size_t kCapacity = 2;
  std::vector<std::thread::id> freed_on(kFrames);
  std::vector<std::weak_ptr<storage::column::ColumnBatch>> alive(kFrames);
  std::thread::id producer_id;
  {
    FifoChannel ch(1, kCapacity);
    std::thread producer([&] {
      producer_id = std::this_thread::get_id();
      for (int i = 0; i < kFrames; ++i) {
        TrackedFrame t = Tracked(&freed_on[i]);
        alive[i] = t.alive;
        ch.Push(0, std::move(t.frame));
      }
      ch.ProducerDone(0);
    });
    Frame f;
    int pulled = 0;
    while (true) {
      auto r = ch.NextFrame(&f);
      EXPECT_TRUE(r.ok());  // not ASSERT: the producer must be joined
      if (!r.ok() || !r.value()) break;
      ++pulled;
    }
    producer.join();
    EXPECT_EQ(pulled, kFrames);
  }
  int on_producer = 0;
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_TRUE(alive[i].expired()) << i;
    if (freed_on[i] == producer_id) ++on_producer;
  }
  // Only frames returned after the last push (at most the queue plus the one
  // the consumer held) are freed elsewhere.
  EXPECT_GE(on_producer, kFrames - static_cast<int>(kCapacity) - 1);
}

TEST(FrameReturnTest, FailCancelAndTeardownFreeReturnedFrames) {
  for (int mode = 0; mode < 3; ++mode) {
    SCOPED_TRACE(mode);
    TrackedFrame a = Tracked(), b = Tracked();
    {
      FifoChannel ch(1, 4);
      ch.Push(0, std::move(a.frame));
      ch.Push(0, std::move(b.frame));
      Frame f;
      ASSERT_TRUE(ch.NextFrame(&f).value());
      ASSERT_TRUE(ch.NextFrame(&f).value());
      ASSERT_EQ(ch.returned_frames(), 1u);
      if (mode == 0) ch.Fail(Status::Internal("boom"));
      if (mode == 1) ch.CancelConsumer();
      if (mode < 2) {
        EXPECT_TRUE(a.alive.expired());
        EXPECT_EQ(ch.returned_frames(), 0u);
        // A frame returned after the stream ended is freed right away.
        f = Frame{};
        TrackedFrame late = Tracked();
        ch.ReturnFrame(std::move(late.frame));
        EXPECT_TRUE(late.alive.expired());
        EXPECT_EQ(ch.returned_frames(), 0u);
      } else {
        EXPECT_FALSE(a.alive.expired());
      }
    }
    EXPECT_TRUE(a.alive.expired());
    EXPECT_TRUE(b.alive.expired());
  }
}

TEST(FrameReturnTest, CapacityBoundsReturnedFrames) {
  // Capacity 1: two returned frames may wait (capacity + 1); the consumer
  // frees the third.
  FifoChannel ch(3, 1);
  TrackedFrame a = Tracked(), b = Tracked(), c = Tracked(), d = Tracked();
  Frame f;
  ch.Push(0, std::move(a.frame));
  ASSERT_TRUE(ch.NextFrame(&f).value());
  ch.Push(1, std::move(b.frame));
  ASSERT_TRUE(ch.NextFrame(&f).value());  // returns a
  ch.Push(2, std::move(c.frame));
  ASSERT_TRUE(ch.NextFrame(&f).value());  // returns b
  EXPECT_EQ(ch.returned_frames(), 2u);
  ch.Push(2, std::move(d.frame));
  ASSERT_TRUE(ch.NextFrame(&f).value());  // returns c: over the bound
  EXPECT_EQ(ch.returned_frames(), 2u);
  EXPECT_FALSE(a.alive.expired());
  EXPECT_FALSE(b.alive.expired());
  EXPECT_TRUE(c.alive.expired());

  // An unbounded channel keeps nothing: the consumer frees as it goes.
  FifoChannel unbounded(1);
  TrackedFrame x = Tracked(), y = Tracked();
  unbounded.Push(0, std::move(x.frame));
  unbounded.Push(0, std::move(y.frame));
  ASSERT_TRUE(unbounded.NextFrame(&f).value());
  ASSERT_TRUE(unbounded.NextFrame(&f).value());
  EXPECT_EQ(unbounded.returned_frames(), 0u);
  EXPECT_TRUE(x.alive.expired());
}

Frame Rows(std::vector<Tuple> tuples) {
  Frame f;
  f.tuples = std::move(tuples);
  return f;
}

TEST(FrameReturnTest, CountingChannelAndTupleShimReturnFrames) {
  FifoChannel inner(1, 4);
  uint64_t consumed = 0;
  CountingChannel counting(&inner, &consumed);
  inner.Push(0, Rows({T(1), T(2)}));
  inner.Push(0, Rows({T(3)}));
  inner.ProducerDone(0);
  Frame f;
  ASSERT_TRUE(counting.NextFrame(&f).value());
  ASSERT_TRUE(counting.NextFrame(&f).value());
  EXPECT_EQ(inner.returned_frames(), 1u);
  EXPECT_FALSE(counting.NextFrame(&f).value());
  EXPECT_EQ(inner.returned_frames(), 2u);
  EXPECT_EQ(consumed, 3u);

  // Next() hands back each frame once its tuples are used up.
  FifoChannel shim(1, 4);
  shim.Push(0, Rows({T(1), T(2)}));
  shim.Push(0, Rows({T(3)}));
  shim.ProducerDone(0);
  Tuple t;
  std::vector<int64_t> got;
  while (shim.Next(&t).value()) got.push_back(t[0].AsInt());
  EXPECT_EQ(got, (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(shim.returned_frames(), 2u);
}

// ---------------------------------------------------------------------------
// Connector routing semantics through tiny jobs
// ---------------------------------------------------------------------------

class ConnectorTest : public ::testing::Test {
 protected:
  ClusterConfig config_{2, 2, 0, ""};  // 2 nodes x 2 partitions
  Cluster cluster_{config_};

  // Runs src(parallelism 4, instance p emits p) -> connector -> collector
  // that tags tuples with the receiving instance.
  std::vector<std::pair<int, int64_t>> Route(
      ConnectorType type, std::function<uint64_t(const Tuple&)> hash = nullptr,
      std::function<int(int, int)> locality = nullptr) {
    JobSpec job;
    OperatorDescriptor src;
    src.name = "src";
    src.parallelism = 4;
    src.num_inputs = 0;
    src.factory = [](int p) -> std::unique_ptr<OperatorInstance> {
      class Src : public OperatorInstance {
       public:
        explicit Src(int p) : p_(p) {}
        Status Run(const std::vector<InChannel*>&, Emitter* out) override {
          out->Push(Tuple{Value::Int64(p_)});
          return Status::OK();
        }
        int p_;
      };
      return std::make_unique<Src>(p);
    };
    int src_id = job.AddOperator(std::move(src));

    auto sink = std::make_shared<std::vector<std::pair<int, int64_t>>>();
    auto mu = std::make_shared<std::mutex>();
    OperatorDescriptor dst;
    dst.name = "dst";
    dst.parallelism = 4;
    dst.num_inputs = 1;
    dst.factory = [sink, mu](int p) -> std::unique_ptr<OperatorInstance> {
      class Dst : public OperatorInstance {
       public:
        Dst(int p, std::shared_ptr<std::vector<std::pair<int, int64_t>>> sink,
            std::shared_ptr<std::mutex> mu)
            : p_(p), sink_(std::move(sink)), mu_(std::move(mu)) {}
        Status Run(const std::vector<InChannel*>& in, Emitter*) override {
          Tuple t;
          while (true) {
            auto r = in[0]->Next(&t);
            if (!r.ok()) return r.status();
            if (!r.value()) return Status::OK();
            std::lock_guard<std::mutex> lock(*mu_);
            sink_->emplace_back(p_, t[0].AsInt());
          }
        }
        int p_;
        std::shared_ptr<std::vector<std::pair<int, int64_t>>> sink_;
        std::shared_ptr<std::mutex> mu_;
      };
      return std::make_unique<Dst>(p, sink, mu);
    };
    int dst_id = job.AddOperator(std::move(dst));
    ConnectorDescriptor c;
    c.id = 0;
    c.type = type;
    c.src_op = src_id;
    c.dst_op = dst_id;
    c.partition_hash = std::move(hash);
    c.locality_map = std::move(locality);
    job.connectors.push_back(std::move(c));
    EXPECT_TRUE(cluster_.ExecuteJob(job).ok());
    return *sink;
  }
};

TEST_F(ConnectorTest, OneToOnePreservesPartition) {
  auto got = Route(ConnectorType::kOneToOne);
  ASSERT_EQ(got.size(), 4u);
  for (auto& [dst, v] : got) EXPECT_EQ(dst, v);
}

TEST_F(ConnectorTest, ReplicatingSendsToEveryInstance) {
  auto got = Route(ConnectorType::kMToNReplicating);
  EXPECT_EQ(got.size(), 16u);  // 4 sources x 4 destinations
}

TEST_F(ConnectorTest, PartitioningRoutesByHash) {
  auto got = Route(ConnectorType::kMToNPartitioning,
                   [](const Tuple& t) { return static_cast<uint64_t>(t[0].AsInt()); });
  ASSERT_EQ(got.size(), 4u);
  for (auto& [dst, v] : got) EXPECT_EQ(dst, v % 4);
}

TEST_F(ConnectorTest, LocalityAwareUsesCustomMap) {
  auto got = Route(ConnectorType::kLocalityAwareMToNPartitioning, nullptr,
                   [](int src, int) { return src / 2; });  // node-local pairing
  ASSERT_EQ(got.size(), 4u);
  for (auto& [dst, v] : got) EXPECT_EQ(dst, v / 2);
}

// ---------------------------------------------------------------------------
// Stage analysis
// ---------------------------------------------------------------------------

TEST(StageTest, JoinBuildSplitsStages) {
  JobSpec job;
  auto noop = [](int) -> std::unique_ptr<OperatorInstance> { return nullptr; };
  OperatorDescriptor a{0, "scanA", 2, 0, {}, noop};
  OperatorDescriptor b{0, "scanB", 2, 0, {}, noop};
  OperatorDescriptor join{0, "join", 2, 2, {0}, noop};  // port 0 blocks
  OperatorDescriptor sink{0, "sink", 1, 1, {}, noop};
  int ia = job.AddOperator(a), ib = job.AddOperator(b);
  int ij = job.AddOperator(join);
  int is = job.AddOperator(sink);
  job.Connect(ConnectorType::kMToNPartitioning, ia, ij, 0);
  job.Connect(ConnectorType::kMToNPartitioning, ib, ij, 1);
  job.Connect(ConnectorType::kMToNPartitioning, ij, is, 0);
  StagePlan plan = ComputeStages(job);
  ASSERT_EQ(plan.stages.size(), 2u);
  // Build side + both scans can run in stage 0; probe/emit + sink in 1.
  std::string s0;
  for (const auto& act : plan.stages[0]) s0 += act.name + " ";
  EXPECT_NE(s0.find("join:build"), std::string::npos);
  std::string s1;
  for (const auto& act : plan.stages[1]) s1 += act.name + " ";
  EXPECT_NE(s1.find("join:emit"), std::string::npos);
  EXPECT_NE(s1.find("sink"), std::string::npos);
}

TEST(StageTest, ChainedBlockingOperatorsStack) {
  JobSpec job;
  auto noop = [](int) -> std::unique_ptr<OperatorInstance> { return nullptr; };
  int scan = job.AddOperator({0, "scan", 1, 0, {}, noop});
  int sort1 = job.AddOperator({0, "sort1", 1, 1, {0}, noop});
  int sort2 = job.AddOperator({0, "sort2", 1, 1, {0}, noop});
  job.Connect(ConnectorType::kOneToOne, scan, sort1);
  job.Connect(ConnectorType::kOneToOne, sort1, sort2);
  StagePlan plan = ComputeStages(job);
  EXPECT_EQ(plan.stages.size(), 3u);
}

}  // namespace
}  // namespace hyracks
}  // namespace asterix
