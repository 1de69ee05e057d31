// Runtime filters from a hash join's build keys to its probe-side scan. The
// filter is always on where it applies, so every join here is checked
// against a brute-force join computed in the test: duplicate, null, missing
// and mixed-numeric keys, a build on either input, row and column probe
// datasets, newer versions in the memory component over older ones on disk,
// a build spilled under a budget of a few KB, and a left-outer join whose
// preserved side must reach the join whole. A build input that fails must
// release the waiting scan and fail the job.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "algebricks/logical.h"
#include "api/asterix.h"
#include "common/env.h"
#include "hand_plan.h"
#include "hyracks/operators.h"

namespace asterix {
namespace {

using adm::RecordBuilder;
using adm::Value;
using Pair = std::pair<int64_t, int64_t>;  // (a.id, b.id); b-only rows: -1

// `k`: an int in [0, key_range) (duplicates by construction), sometimes the
// same number as a double, null, or missing.
Value MakeRow(std::mt19937& rng, int64_t id, int key_range) {
  RecordBuilder b;
  b.Add("id", Value::Int64(id));
  int kind = static_cast<int>(rng() % 10);
  int64_t k = static_cast<int64_t>(rng() % static_cast<uint32_t>(key_range));
  if (kind == 0) {
    b.Add("k", Value::Null());
  } else if (kind == 1) {
    // missing
  } else if (kind == 2) {
    b.Add("k", Value::Double(static_cast<double>(k)));
  } else {
    b.Add("k", Value::Int64(k));
  }
  b.Add("pad", Value::String(std::string(24 + rng() % 24, 'p')));
  return b.Build();
}

bool KeyKnown(const Value& rec) { return !rec.GetField("k").IsUnknown(); }

bool KeysEqual(const Value& a, const Value& b) {
  return KeyKnown(a) && KeyKnown(b) &&
         a.GetField("k").AsDouble() == b.GetField("k").AsDouble();
}

class JoinFilterTest : public ::testing::TestWithParam<size_t> {
 protected:
  static constexpr int kA = 40;    // the small input: hashed
  static constexpr int kB = 1500;  // the large input: probes

  void SetUp() override {
    dir_ = env::NewScratchDir("join-filter");
    api::InstanceConfig config;
    config.base_dir = dir_;
    config.cluster.num_nodes = 2;
    config.cluster.partitions_per_node = 2;
    config.cluster.job_startup_us = 0;
    config.cluster.op_memory_budget_bytes = GetParam();
    inst_ = std::make_unique<api::AsterixInstance>(config);
    ASSERT_TRUE(inst_->Boot().ok());
    auto ddl = inst_->Execute(R"aql(
create dataverse JF; use dataverse JF;
create type T as open { id: int64 }
create dataset A(T) primary key id;
create dataset BRow(T) primary key id;
create dataset BCol(T) primary key id with { "storage-format": "column" };
)aql");
    ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
    std::mt19937 rng(GetParam() == 0 ? 3 : 4);
    std::vector<Value> a_rows, b_rows;
    for (int i = 0; i < kA; ++i) a_rows.push_back(MakeRow(rng, i, 60));
    for (int i = 0; i < kB; ++i) b_rows.push_back(MakeRow(rng, i, 600));
    ASSERT_TRUE(inst_->FindDataset("JF.A")->LoadBulk(a_rows).ok());
    for (const char* ds : {"JF.BRow", "JF.BCol"}) {
      ASSERT_TRUE(inst_->FindDataset(ds)->LoadBulk(b_rows).ok());
    }
    ASSERT_TRUE(inst_->FlushAll().ok());
    for (const Value& r : a_rows) a_[r.GetField("id").AsInt()] = r;
    for (const Value& r : b_rows) b_[r.GetField("id").AsInt()] = r;
    // Newer versions in the memory component: some B rows move onto a key
    // the build holds, some move off one, some are deleted. A filter that
    // tested an older version, or dropped a newer one and let the older
    // through, would change the answer.
    std::vector<std::pair<int64_t, Value>> updates;
    for (int64_t id = 0; id < kB; id += 7) {
      if (id % 21 == 0) {
        updates.emplace_back(id, Value());  // delete
      } else {
        RecordBuilder rb;
        rb.Add("id", Value::Int64(id));
        int64_t k = id % 2 == 0 ? (id / 7) % 60 : 1000 + id;
        rb.Add("k", Value::Int64(k));
        updates.emplace_back(id, rb.Build());
      }
    }
    for (const char* ds : {"JF.BRow", "JF.BCol"}) {
      storage::PartitionedDataset* d = inst_->FindDataset(ds);
      for (const auto& [id, rec] : updates) {
        bool found = false;
        ASSERT_TRUE(d->DeleteByKey({Value::Int64(id)}, &found).ok());
        if (!rec.IsMissing()) {
          ASSERT_TRUE(d->Insert(rec).ok());
        }
      }
    }
    for (const auto& [id, rec] : updates) {
      if (rec.IsMissing()) {
        b_.erase(id);
      } else {
        b_[id] = rec;
      }
    }
  }

  void TearDown() override {
    inst_.reset();
    env::RemoveAll(dir_);
  }

  std::vector<Pair> Expected(bool left_outer_on_b) const {
    std::vector<Pair> out;
    for (const auto& [bid, b] : b_) {
      bool matched = false;
      for (const auto& [aid, a] : a_) {
        if (KeysEqual(a, b)) {
          out.emplace_back(aid, bid);
          matched = true;
        }
      }
      if (left_outer_on_b && !matched) out.emplace_back(-1, bid);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  static std::vector<Pair> Pairs(const std::vector<Value>& values) {
    std::vector<Pair> out;
    for (const Value& v : values) {
      const Value& a = v.GetField("a");
      out.emplace_back(a.IsUnknown() ? -1 : a.AsInt(), v.GetField("b").AsInt());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::string dir_;
  std::unique_ptr<api::AsterixInstance> inst_;
  std::map<int64_t, Value> a_, b_;
};

TEST_P(JoinFilterTest, InnerJoinsMatchBruteForce) {
  const std::vector<Pair> want = Expected(false);
  ASSERT_FALSE(want.empty());
  for (const char* b_ds : {"BRow", "BCol"}) {
    // Either input order: A is hashed both times (input 0, then input 1).
    for (bool a_first : {true, false}) {
      std::string fors = a_first ? "for $a in dataset A for $b in dataset %s"
                                 : "for $b in dataset %s for $a in dataset A";
      std::string q = "use dataverse JF; " + fors +
                      " where $a.k = $b.k return { \"a\": $a.id, \"b\": $b.id };";
      q.replace(q.find("%s"), 2, b_ds);
      SCOPED_TRACE(q);
      auto r = inst_->Execute(q);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(Pairs(r.value().values), want);
      // The probe-side scan of B carries the filter and drops rows.
      EXPECT_NE(r.value().job_plan.find("build=$a"), std::string::npos)
          << r.value().job_plan;
      ASSERT_TRUE(r.value().stats.profile != nullptr);
      uint64_t filtered = 0, passed = 0, spilled = 0;
      bool tagged = false;
      for (const auto& op : r.value().stats.profile->Rollup()) {
        if (op.name.find(std::string(b_ds) + ")") != std::string::npos &&
            op.name.find("runtime-filter") != std::string::npos) {
          tagged = true;
          filtered += op.filtered_rows;
          passed += op.tuples_out;
        }
        spilled += op.spilled_partitions;
      }
      EXPECT_TRUE(tagged) << r.value().job_plan;
      // Only rows whose key some A row holds, plus the filter's few false
      // positives, may cross the exchange; unknown keys never do.
      size_t matching = 0;
      for (const auto& [bid, b] : b_) {
        for (const auto& [aid, a] : a_) {
          if (KeysEqual(a, b)) {
            ++matching;
            break;
          }
        }
      }
      EXPECT_EQ(filtered + passed, b_.size());
      EXPECT_GE(passed, matching);
      EXPECT_LE(passed, matching + b_.size() / 20) << "filtered " << filtered;
      if (GetParam() > 0) {
        EXPECT_GT(spilled, 0u) << "the build should spill";
      }
    }
  }
}

TEST_P(JoinFilterTest, PrimaryRangeProbeMatchesBruteForce) {
  std::vector<Pair> want;
  for (const Pair& p : Expected(false)) {
    if (p.second >= 300) want.push_back(p);
  }
  for (const char* b_ds : {"BRow", "BCol"}) {
    std::string q = std::string("use dataverse JF; for $a in dataset A for $b in "
                                "dataset ") +
                    b_ds +
                    " where $a.k = $b.k and $b.id >= 300 return { \"a\": $a.id, "
                    "\"b\": $b.id };";
    SCOPED_TRACE(q);
    auto r = inst_->Execute(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(Pairs(r.value().values), want);
  }
}

TEST_P(JoinFilterTest, LeftOuterPreservedSideIsNotFiltered) {
  using algebricks::Expr;
  using algebricks::LogicalOp;
  using algebricks::MakeOp;
  const std::vector<Pair> want = Expected(true);
  for (const char* b_ds : {"JF.BRow", "JF.BCol"}) {
    SCOPED_TRACE(b_ds);
    auto b_scan = MakeOp(LogicalOp::Kind::kDataSourceScan);
    b_scan->dataset = b_ds;
    b_scan->var = "b";
    auto a_scan = MakeOp(LogicalOp::Kind::kDataSourceScan);
    a_scan->dataset = "JF.A";
    a_scan->var = "a";
    auto join = MakeOp(LogicalOp::Kind::kJoin);
    join->inputs = {b_scan, a_scan};  // B is the preserved (probe) side
    join->left_outer = true;
    join->expr = Expr::Compare("=", Expr::FieldAccess(Expr::Var("b"), "k"),
                               Expr::FieldAccess(Expr::Var("a"), "k"));
    auto dist = MakeOp(LogicalOp::Kind::kDistribute);
    dist->inputs = {join};
    dist->expr = Expr::RecordCtor(
        {"a", "b"}, {Expr::FieldAccess(Expr::Var("a"), "id"),
                     Expr::FieldAccess(Expr::Var("b"), "id")});
    auto got = testing_util::RunHandPlan(inst_.get(), dist,
                                         algebricks::OptimizerOptions{});
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value().job_plan.find("runtime-filter"), std::string::npos)
        << got.value().job_plan;
    EXPECT_EQ(Pairs(got.value().values), want);
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, JoinFilterTest,
                         ::testing::Values(size_t{0}, size_t{4096}));

// A build source that pushes a few tuples, then fails.
class FailingBuild : public hyracks::OperatorInstance {
 public:
  Status Run(const std::vector<hyracks::InChannel*>&,
             hyracks::Emitter* out) override {
    for (int64_t k = 0; k < 10; ++k) {
      out->Push(hyracks::Tuple{RecordBuilder().Add("k", Value::Int64(k)).Build()});
    }
    return Status::Internal("build input failed");
  }
};

TEST(JoinFilterFailureTest, FailedBuildReleasesTheScanAndFailsTheJob) {
  std::string dir = env::NewScratchDir("join-filter-fail");
  api::InstanceConfig config;
  config.base_dir = dir;
  config.cluster.num_nodes = 2;
  config.cluster.partitions_per_node = 2;
  config.cluster.job_startup_us = 0;
  api::AsterixInstance inst(config);
  ASSERT_TRUE(inst.Boot().ok());
  ASSERT_TRUE(inst.Execute(R"aql(
create dataverse JF; use dataverse JF;
create type T as open { id: int64 }
create dataset B(T) primary key id with { "storage-format": "column" };
)aql")
                  .ok());
  std::mt19937 rng(9);
  std::vector<Value> rows;
  for (int i = 0; i < 2000; ++i) rows.push_back(MakeRow(rng, i, 100));
  storage::PartitionedDataset* ds = inst.FindDataset("JF.B");
  ASSERT_TRUE(ds->LoadBulk(rows).ok());
  ASSERT_TRUE(inst.FlushAll().ok());

  int P = static_cast<int>(ds->num_partitions());
  auto key_of = [](const hyracks::Tuple& t) -> Result<Value> {
    return t[0].GetField("k");
  };
  std::vector<hyracks::TupleEval> keys = {key_of};
  auto filter = std::make_shared<hyracks::JoinRuntimeFilter>(P);
  filter->SetProbeKeys(keys);

  hyracks::JobSpec job;
  hyracks::OperatorDescriptor build;
  build.name = "failing-build";
  build.parallelism = P;
  build.factory = [](int) { return std::make_unique<FailingBuild>(); };
  int build_id = job.AddOperator(std::move(build));
  int scan_id = job.AddOperator(hyracks::MakeDatasetScan(
      ds, storage::column::Projection::All(), filter));
  int join_id = job.AddOperator(
      hyracks::MakeHybridHashJoin(P, keys, keys, 1, false, filter));
  auto sink = std::make_shared<std::vector<hyracks::Tuple>>();
  int sink_id = job.AddOperator(hyracks::MakeResultSink(sink));
  auto hash = [](const hyracks::Tuple& t) { return t[0].GetField("k").Hash(0); };
  job.Connect(hyracks::ConnectorType::kMToNPartitioning, build_id, join_id, 0,
              hash);
  job.Connect(hyracks::ConnectorType::kMToNPartitioning, scan_id, join_id, 1,
              hash);
  job.Connect(hyracks::ConnectorType::kMToNPartitioning, join_id, sink_id, 0,
              nullptr);

  auto run = std::async(std::launch::async,
                        [&] { return inst.cluster()->ExecuteJob(job); });
  if (run.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    // A scan still waiting on the filter: the job can never be joined.
    std::fprintf(stderr, "job hung behind the runtime filter\n");
    std::abort();
  }
  auto result = run.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal)
      << result.status().ToString();
  env::RemoveAll(dir);
}

}  // namespace
}  // namespace asterix
