// Integration tests pinning the *relative* claims of the paper's
// evaluation section (SS5.3) at test scale, so regressions in the mechanisms
// behind Tables 2-4 fail CI rather than only skewing bench output. The full
// tables are regenerated by the bench/ binaries.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "adm/temporal.h"
#include "api/asterix.h"
#include "baselines/columnstore.h"
#include "baselines/docstore.h"
#include "baselines/relstore.h"
#include "common/env.h"
#include "common/metrics.h"
#include "workload/generator.h"

namespace asterix {
namespace {

using adm::Value;

class EvaluationClaimsTest : public ::testing::Test {
 protected:
  static constexpr int64_t kUsers = 2000;
  static constexpr int64_t kMessages = 4000;

  static void SetUpTestSuite() {
    dir_ = new std::string(env::NewScratchDir("claims"));
    api::InstanceConfig config;
    config.base_dir = *dir_ + "/asterix";
    config.cluster.num_nodes = 2;
    config.cluster.partitions_per_node = 2;
    config.cluster.job_startup_us = 0;
    instance_ = new api::AsterixInstance(config);
    ASSERT_TRUE(instance_->Boot().ok());
    auto r = instance_->Execute(R"aql(
create dataverse Bench; use dataverse Bench;
create type UserType as {
  id: int64, alias: string, name: string, user-since: datetime,
  address: { street: string, city: string, state: string, zip: string,
             country: string },
  friend-ids: {{ int64 }},
  employment: [ { organization-name: string, start-date: date,
                  end-date: date? } ]
}
create type UserKeyOnly as { id: int64 }
create dataset Users(UserType) primary key id;
create dataset UsersKeyOnly(UserKeyOnly) primary key id;
create index uSinceIdx on Users(user-since);
)aql");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    workload::Generator gen;
    users_ = new std::vector<Value>(gen.MakeUsers(kUsers));
    ASSERT_TRUE(instance_->FindDataset("Bench.Users")->LoadBulk(*users_).ok());
    ASSERT_TRUE(
        instance_->FindDataset("Bench.UsersKeyOnly")->LoadBulk(*users_).ok());
    ASSERT_TRUE(instance_->FlushAll().ok());
  }
  static void TearDownTestSuite() {
    delete instance_;
    delete users_;
    env::RemoveAll(*dir_);
    delete dir_;
  }

  static std::string* dir_;
  static api::AsterixInstance* instance_;
  static std::vector<Value>* users_;
};

std::string* EvaluationClaimsTest::dir_ = nullptr;
api::AsterixInstance* EvaluationClaimsTest::instance_ = nullptr;
std::vector<Value>* EvaluationClaimsTest::users_ = nullptr;

// --- Table 2 mechanisms -------------------------------------------------------

TEST_F(EvaluationClaimsTest, KeyOnlyStorageLargerThanSchema) {
  uint64_t schema =
      instance_->DatasetPrimaryBytes("Bench.Users").take();
  uint64_t keyonly =
      instance_->DatasetPrimaryBytes("Bench.UsersKeyOnly").take();
  EXPECT_GT(keyonly, schema * 3 / 2)
      << "open instances must carry their field names";
}

TEST_F(EvaluationClaimsTest, ColumnarCompressionSmallest) {
  baselines::ColumnStore hive(*dir_ + "/hive", "u",
                              workload::UserColumnSchema(), 0);
  baselines::DocStore mongo(*dir_ + "/mongo", "u", "id");
  for (const auto& u : *users_) {
    ASSERT_TRUE(hive.Append(workload::NormalizeUser(u).user_row).ok());
  }
  ASSERT_TRUE(hive.Finalize().ok());
  ASSERT_TRUE(mongo.LoadBulk(*users_).ok());
  ASSERT_TRUE(mongo.Persist().ok());
  uint64_t schema = instance_->DatasetPrimaryBytes("Bench.Users").take();
  EXPECT_LT(hive.DiskBytes(), schema / 2);
  EXPECT_GT(mongo.DiskBytes(), schema);
}

// --- Table 3 mechanisms --------------------------------------------------------

TEST_F(EvaluationClaimsTest, SecondaryIndexBeatsScanAndAgreesWithIt) {
  int64_t epoch = adm::DaysFromCivil(2010, 1, 1) * 86400000LL;
  std::string lo = adm::FormatDatetime(epoch + 500 * 1000);
  std::string hi = adm::FormatDatetime(epoch + 799 * 1000);
  std::string pred = "$u.user-since >= datetime(\"" + lo +
                     "\") and $u.user-since <= datetime(\"" + hi + "\")";
  const std::string indexed_q =
      "use dataverse Bench;\nfor $u in dataset Users where " + pred +
      " return $u.id;";
  const std::string scanned_q =
      "use dataverse Bench;\nfor $u in dataset Users where /*+ skip-index */ " +
      pred + " return $u.id;";
  // Alternate the plans so host drift hits both alike; compare medians.
  constexpr int kRuns = 7;
  std::vector<double> indexed_ms, scanned_ms;
  for (int run = 0; run < kRuns; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    auto indexed = instance_->Execute(indexed_q);
    auto scanned = instance_->Execute(scanned_q);
    ASSERT_TRUE(indexed.ok() && scanned.ok());
    EXPECT_EQ(indexed.value().values.size(), 300u);
    EXPECT_EQ(scanned.value().values.size(), 300u);
    EXPECT_NE(indexed.value().logical_plan.find("uSinceIdx"), std::string::npos);
    EXPECT_EQ(scanned.value().logical_plan.find("uSinceIdx"), std::string::npos);

    // The mechanism, from each run's profile: the index plan fetches only
    // the 300 qualifying keys from the primary index, while the scan reads
    // every Users tuple and more bytes than the whole index plan.
    ASSERT_NE(indexed.value().stats.profile, nullptr);
    ASSERT_NE(scanned.value().stats.profile, nullptr);
    uint64_t fetch_tuples_in = 0, indexed_bytes = 0;
    for (const auto& op : indexed.value().stats.profile->Rollup()) {
      if (op.name == "btree-search(Users.primary)") {
        fetch_tuples_in += op.tuples_in;
      }
      indexed_bytes += op.bytes_read;
    }
    uint64_t scan_tuples = 0, scanned_bytes = 0;
    for (const auto& op : scanned.value().stats.profile->Rollup()) {
      if (op.name.rfind("scan(Users)", 0) == 0) scan_tuples += op.tuples_out;
      scanned_bytes += op.bytes_read;
    }
    EXPECT_EQ(fetch_tuples_in, 300u);
    EXPECT_EQ(scan_tuples, static_cast<uint64_t>(kUsers));
    EXPECT_GT(indexed_bytes, 0u);
    EXPECT_GT(scanned_bytes, indexed_bytes);

    indexed_ms.push_back(indexed.value().stats.elapsed_ms);
    scanned_ms.push_back(scanned.value().stats.elapsed_ms);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  EXPECT_LT(median(indexed_ms), median(scanned_ms))
      << "median ms over " << kRuns << " alternating runs";
}

TEST_F(EvaluationClaimsTest, CompiledAndInterpretedPathsAgree) {
  // Property check: for a family of queries, the parallel Hyracks result
  // matches the reference interpreter over the same data.
  const char* queries[] = {
      "for $u in dataset Users where $u.id < 50 return $u.id;",
      "count(for $u in dataset Users return $u)",
      "avg(for $u in dataset Users where $u.id < 100 return $u.id)",
      "for $u in dataset Users group by $c := $u.address.state with $u "
      "let $n := count($u) order by $c return { \"s\": $c, \"n\": $n };",
      "for $u in dataset Users where $u.id < 30 order by $u.name, $u.id "
      "return $u.name;",
  };
  for (const char* q : queries) {
    std::string full = std::string("use dataverse Bench;\n") + q;
    auto compiled = instance_->Execute(full);
    ASSERT_TRUE(compiled.ok()) << q << ": " << compiled.status().ToString();
    EXPECT_TRUE(compiled.value().used_compiled_path) << q;

    // Reference run through the interpreter via an instance with compilation
    // effectively disabled is impractical here; instead re-evaluate through
    // the subplan path: wrap the query as a let-bound list.
    auto wrapped = instance_->Execute(
        "use dataverse Bench;\nlet $r := (" +
        std::string(q).substr(0, std::string(q).rfind(';')) +
        ") return $r;");
    ASSERT_TRUE(wrapped.ok()) << q;
    ASSERT_EQ(wrapped.value().values.size(), 1u);
    // Scalar results (aggregates) come back as a single value, FLWORs as a
    // list; normalize to a list either way.
    std::vector<Value> list;
    if (wrapped.value().values[0].IsList()) {
      list = wrapped.value().values[0].AsList();
    } else {
      list.push_back(wrapped.value().values[0]);
    }
    ASSERT_EQ(list.size(), compiled.value().values.size()) << q;
    // Compare as multisets (hash-partitioned output order may differ).
    std::multiset<std::string> a, b;
    for (const auto& v : compiled.value().values) a.insert(v.ToString());
    for (const auto& v : list) b.insert(v.ToString());
    EXPECT_EQ(a, b) << q;
  }
}

// --- Table 4 mechanisms ---------------------------------------------------------

TEST_F(EvaluationClaimsTest, BatchingAmortizesInsertOverhead) {
  api::InstanceConfig config;
  config.base_dir = *dir_ + "/t4";
  config.cluster.job_startup_us = 1000;
  config.group_commit_latency_us = 1000;
  api::AsterixInstance inst(config);
  ASSERT_TRUE(inst.Boot().ok());
  ASSERT_TRUE(inst.Execute(R"aql(
create dataverse B; use dataverse B;
create type T as { id: int64 }
create dataset D(T) primary key id;)aql")
                  .ok());
  metrics::Counter* jobs =
      metrics::MetricsRegistry::Default().GetCounter("hyracks.jobs");
  // Every record commits (and asks for a forced WAL flush) on its own; the
  // group commit pays one device flush per group, observed once per flush.
  metrics::Histogram* device_flushes =
      metrics::MetricsRegistry::Default().GetHistogram(
          "txn.wal.group_commit_batch", metrics::Histogram::CountBounds());
  constexpr int kRecords = 60;
  struct Cost {
    double ms_per_record;
    double jobs_per_record;
    double flushes_per_record;
  };
  int next_id = 0;
  auto insert_all = [&](int batch) {
    uint64_t jobs0 = jobs->value(), flushes0 = device_flushes->count();
    auto t0 = std::chrono::steady_clock::now();
    for (int s = 0; s < kRecords / batch; ++s) {
      std::string payload = "[";
      for (int i = 0; i < batch; ++i) {
        if (i) payload += ",";
        payload += "{ \"id\": " + std::to_string(next_id++) + " }";
      }
      payload += "]";
      auto r = inst.Execute("use dataverse B;\ninsert into dataset D (" +
                            payload + ");");
      EXPECT_TRUE(r.ok());
    }
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    return Cost{ms / kRecords,
                static_cast<double>(jobs->value() - jobs0) / kRecords,
                static_cast<double>(device_flushes->count() - flushes0) /
                    kRecords};
  };
  // Alternate the batch sizes so host drift hits both alike; check the
  // mechanism on every run and compare median times.
  constexpr int kRuns = 7;
  std::vector<double> ms_1, ms_20;
  for (int run = 0; run < kRuns; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    Cost one = insert_all(1);
    Cost twenty = insert_all(20);
    // One job per statement. Each batch=1 commit arrives after a whole job
    // start-up and leads its own group; batch=20 commits follow each other
    // inside one group-commit window, so a statement pays about one device
    // flush (a slow, instrumented build may need a few).
    EXPECT_DOUBLE_EQ(one.jobs_per_record, 1.0);
    EXPECT_DOUBLE_EQ(twenty.jobs_per_record, 1.0 / 20);
    EXPECT_DOUBLE_EQ(one.flushes_per_record, 1.0);
    EXPECT_LE(twenty.flushes_per_record, 0.25);
    ms_1.push_back(one.ms_per_record);
    ms_20.push_back(twenty.ms_per_record);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  EXPECT_LT(median(ms_20) * 2, median(ms_1))
      << "batch=20 should amortize job start-up well below batch=1 (median "
         "ms per record over "
      << kRuns << " alternating runs)";
}

}  // namespace
}  // namespace asterix
