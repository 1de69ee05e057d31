// EXPLAIN-shape tests: for each query family, the physical compiler must
// produce the expected operator/connector structure (the plans the paper
// describes in SS4 and SS5.1's "safe rules").

#include <gtest/gtest.h>

#include <algorithm>

#include "api/asterix.h"
#include "common/env.h"
#include "hand_plan.h"

namespace asterix {
namespace {

class CompilerPlansTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = env::NewScratchDir("plans");
    api::InstanceConfig config;
    config.base_dir = dir_;
    config.cluster.num_nodes = 2;
    config.cluster.partitions_per_node = 2;
    config.cluster.job_startup_us = 0;
    db_ = std::make_unique<api::AsterixInstance>(config);
    ASSERT_TRUE(db_->Boot().ok());
    ASSERT_TRUE(db_->Execute(R"aql(
create dataverse P; use dataverse P;
create type UserT as { id: int64, name: string, since: datetime }
create type MsgT as { mid: int64, uid: int64, ts: datetime, text: string }
create dataset Users(UserT) primary key id;
create dataset Msgs(MsgT) primary key mid;
create index sinceIdx on Users(since);
create index uidIdx on Msgs(uid) type btree;
)aql").ok());
  }
  void TearDown() override {
    db_.reset();
    env::RemoveAll(dir_);
  }

  std::string JobFor(const std::string& q) {
    auto r = db_->Explain("use dataverse P;\n" + q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value().job_plan : "";
  }

  std::string dir_;
  std::unique_ptr<api::AsterixInstance> db_;
};

TEST_F(CompilerPlansTest, FullScanIsPartitionParallel) {
  std::string job = JobFor("for $u in dataset Users return $u;");
  EXPECT_NE(job.find("scan(Users)  [x4]"), std::string::npos) << job;
}

TEST_F(CompilerPlansTest, PrimaryKeyPredicateUsesPrimaryRange) {
  std::string job = JobFor("for $u in dataset Users where $u.id = 5 return $u;");
  EXPECT_NE(job.find("btree-range-scan(Users)"), std::string::npos) << job;
  // No secondary pipeline (sort/fetch) needed.
  EXPECT_EQ(job.find("btree-search(Users.primary)"), std::string::npos) << job;
}

TEST_F(CompilerPlansTest, SecondaryIndexPipelineShape) {
  std::string job = JobFor(
      "for $u in dataset Users where $u.since >= "
      "datetime(\"2014-01-01T00:00:00\") return $u;");
  size_t search = job.find("btree-search(sinceIdx)");
  size_t sort = job.find("sort");
  size_t fetch = job.find("btree-search(Users.primary)");
  size_t select = job.find("select");
  ASSERT_NE(search, std::string::npos) << job;
  EXPECT_LT(search, sort);
  EXPECT_LT(sort, fetch);
  EXPECT_LT(fetch, select);  // post-validation after the fetch
}

TEST_F(CompilerPlansTest, EquijoinUsesHybridHashWithPartitioning) {
  std::string job = JobFor(
      "for $u in dataset Users for $m in dataset Msgs "
      "where $m.uid = $u.id return { \"n\": $u.name };");
  EXPECT_NE(job.find("hybrid-hash-join"), std::string::npos) << job;
  EXPECT_NE(job.find("n:m partitioning"), std::string::npos) << job;
  // Both datasets are empty: equal estimates keep the input-1 build.
  EXPECT_NE(job.find("hybrid-hash-join build=$m est=0/0"), std::string::npos)
      << job;
}

TEST_F(CompilerPlansTest, IndexNlHintProbesSecondaryIndex) {
  std::string job = JobFor(
      "for $u in dataset Users for $m in dataset Msgs "
      "where $m.uid /*+ indexnl */ = $u.id return { \"n\": $u.name };");
  EXPECT_NE(job.find("btree-probe(uidIdx)"), std::string::npos) << job;
  EXPECT_EQ(job.find("hybrid-hash-join"), std::string::npos) << job;
}

TEST_F(CompilerPlansTest, IndexNlOnPrimaryKeyProbesPrimary) {
  // The indexed side's key IS Users' primary key: probe the primary index.
  std::string job = JobFor(
      "for $m in dataset Msgs for $u in dataset Users "
      "where $u.id /*+ indexnl */ = $m.uid return { \"t\": $m.text };");
  EXPECT_NE(job.find("btree-search(Users.primary)"), std::string::npos) << job;
  EXPECT_EQ(job.find("hybrid-hash-join"), std::string::npos) << job;
}

TEST_F(CompilerPlansTest, NonEquiJoinFallsBackToNestedLoop) {
  std::string job = JobFor(
      "for $u in dataset Users for $m in dataset Msgs "
      "where $m.uid < $u.id return 1;");
  EXPECT_NE(job.find("nested-loop-join"), std::string::npos) << job;
  EXPECT_NE(job.find("replicating"), std::string::npos) << job;
}

TEST_F(CompilerPlansTest, GroupBySplitsLocalGlobal) {
  std::string job = JobFor(
      "for $m in dataset Msgs group by $u := $m.uid with $m "
      "let $c := count($m) return { \"u\": $u, \"c\": $c };");
  size_t local = job.find("hash-group-by");
  size_t global = job.find("hash-group-by", local + 1);
  EXPECT_NE(local, std::string::npos) << job;
  EXPECT_NE(global, std::string::npos)
      << "expected a local+global group-by pair:\n" << job;
}

TEST_F(CompilerPlansTest, OrderByGathersThroughMergingConnector) {
  std::string job = JobFor(
      "for $u in dataset Users order by $u.name return $u.name;");
  EXPECT_NE(job.find("sort  [x4]"), std::string::npos) << job;
  EXPECT_NE(job.find("partitioning-merging"), std::string::npos) << job;
}

TEST_F(CompilerPlansTest, LimitRunsOnSingleInstance) {
  std::string job = JobFor(
      "for $u in dataset Users order by $u.id limit 3 return $u.id;");
  EXPECT_NE(job.find("limit  [x1]"), std::string::npos) << job;
}

TEST_F(CompilerPlansTest, SkipIndexHintForcesScan) {
  std::string job = JobFor(
      "for $u in dataset Users where /*+ skip-index */ $u.since >= "
      "datetime(\"2014-01-01T00:00:00\") return $u;");
  EXPECT_NE(job.find("scan(Users)"), std::string::npos) << job;
  EXPECT_EQ(job.find("btree-search(sinceIdx)"), std::string::npos) << job;
}

TEST_F(CompilerPlansTest, AggregationSplitCanBeDisabled) {
  // Rebuild an instance with the split turned off (the ablation switch).
  api::InstanceConfig config;
  config.base_dir = dir_ + "/nosplit";
  config.cluster.job_startup_us = 0;
  config.optimizer.split_aggregation = false;
  api::AsterixInstance db2(config);
  ASSERT_TRUE(db2.Boot().ok());
  ASSERT_TRUE(db2.Execute(R"aql(
create dataverse P; use dataverse P;
create type T as { id: int64 }
create dataset D(T) primary key id;)aql").ok());
  auto r = db2.Explain(
      "use dataverse P;\ncount(for $d in dataset D return $d)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().job_plan.find("local-aggregate"), std::string::npos);
  EXPECT_NE(r.value().job_plan.find("aggregate"), std::string::npos);
}

// --- Hash-join build side ----------------------------------------------------
//
// The hybrid hash join hashes the input with the smaller row estimate
// (dataset record count, a tenth per select) when it is at least 2x smaller;
// ties, unknown estimates and left-outer joins keep the input-1 build.

constexpr int kJoinUsers = 400;
constexpr int kJoinMsgs = 4000;

std::unique_ptr<api::AsterixInstance> BootJoinInstance(const std::string& dir,
                                                       size_t op_budget) {
  api::InstanceConfig config;
  config.base_dir = dir;
  config.cluster.num_nodes = 2;
  config.cluster.partitions_per_node = 2;
  config.cluster.job_startup_us = 0;
  config.cluster.op_memory_budget_bytes = op_budget;
  auto db = std::make_unique<api::AsterixInstance>(config);
  EXPECT_TRUE(db->Boot().ok());
  EXPECT_TRUE(db->Execute(R"aql(
create dataverse J; use dataverse J;
create type UserT as { id: int64, name: string, since: int64 }
create type MsgT as { mid: int64, uid: int64, text: string }
create dataset Users(UserT) primary key id;
create dataset Msgs(MsgT) primary key mid;
create dataset Peers(UserT) primary key id;
create index uidIdx on Msgs(uid) type btree;
)aql").ok());
  std::vector<adm::Value> users, msgs;
  for (int i = 0; i < kJoinUsers; ++i) {
    users.push_back(adm::RecordBuilder()
                        .Add("id", adm::Value::Int64(i))
                        .Add("name", adm::Value::String("u" + std::to_string(i)))
                        .Add("since", adm::Value::Int64(i))
                        .Build());
  }
  for (int i = 0; i < kJoinMsgs; ++i) {
    // Some messages point at users that do not exist (unmatched probes).
    msgs.push_back(adm::RecordBuilder()
                       .Add("mid", adm::Value::Int64(i))
                       .Add("uid", adm::Value::Int64(i % (kJoinUsers + 40)))
                       .Add("text", adm::Value::String("m" + std::to_string(i)))
                       .Build());
  }
  EXPECT_TRUE(db->FindDataset("J.Users")->LoadBulk(users).ok());
  EXPECT_TRUE(db->FindDataset("J.Peers")->LoadBulk(users).ok());
  EXPECT_TRUE(db->FindDataset("J.Msgs")->LoadBulk(msgs).ok());
  EXPECT_TRUE(db->FlushAll().ok());
  return db;
}

class JoinBuildSideTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = env::NewScratchDir("plans-build");
    db_ = BootJoinInstance(dir_ + "/main", 0);
  }
  void TearDown() override {
    db_.reset();
    env::RemoveAll(dir_);
  }

  Result<api::ExecutionResult> Run(api::AsterixInstance* db,
                                   const std::string& q) {
    return db->Execute("use dataverse J;\n" + q);
  }

  // The job-plan line of the hybrid hash join.
  static std::string JoinLine(const std::string& job) {
    size_t at = job.find("hybrid-hash-join");
    if (at == std::string::npos) return "";
    return job.substr(at, job.find("  [x", at) - at);
  }

  static std::vector<std::string> SortedStrings(
      const std::vector<adm::Value>& values) {
    std::vector<std::string> out;
    for (const auto& v : values) out.push_back(v.ToString());
    std::sort(out.begin(), out.end());
    return out;
  }

  std::string dir_;
  std::unique_ptr<api::AsterixInstance> db_;
};

// 40 selected users against 4000 messages, in both FROM orders: the users
// are hashed either way, and both orders return the index-NL plan's answer.
TEST_F(JoinBuildSideTest, SelectedSmallSideIsBuiltInBothOrders) {
  const std::string where =
      " where $m.uid = $u.id and $u.since >= 100 and $u.since < 140"
      " return { \"n\": $u.name, \"t\": $m.text };";
  auto users_first =
      Run(db_.get(), "for $u in dataset Users for $m in dataset Msgs" + where);
  auto msgs_first =
      Run(db_.get(), "for $m in dataset Msgs for $u in dataset Users" + where);
  auto indexnl = Run(db_.get(),
                     "for $u in dataset Users for $m in dataset Msgs"
                     " where $m.uid /*+ indexnl */ = $u.id and $u.since >= 100"
                     " and $u.since < 140"
                     " return { \"n\": $u.name, \"t\": $m.text };");
  ASSERT_TRUE(users_first.ok()) << users_first.status().ToString();
  ASSERT_TRUE(msgs_first.ok()) << msgs_first.status().ToString();
  ASSERT_TRUE(indexnl.ok()) << indexnl.status().ToString();

  // est = 400 users / 10 for the select, against 4000 messages.
  EXPECT_EQ(JoinLine(users_first.value().job_plan),
            "hybrid-hash-join build=$u est=40/4000")
      << users_first.value().job_plan;
  EXPECT_EQ(JoinLine(msgs_first.value().job_plan),
            "hybrid-hash-join build=$u est=40/4000")
      << msgs_first.value().job_plan;
  EXPECT_NE(indexnl.value().job_plan.find("btree-probe(uidIdx)"),
            std::string::npos);

  // Users 100..139 each own nine messages (uid = mid mod 440).
  std::vector<std::string> want = SortedStrings(indexnl.value().values);
  EXPECT_EQ(want.size(), 360u);
  EXPECT_EQ(SortedStrings(users_first.value().values), want);
  EXPECT_EQ(SortedStrings(msgs_first.value().values), want);
}

TEST_F(JoinBuildSideTest, EqualEstimatesKeepSecondInputBuild) {
  auto r = Run(db_.get(),
               "for $u in dataset Users for $p in dataset Peers"
               " where $p.id = $u.id return $u.id;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(JoinLine(r.value().job_plan),
            "hybrid-hash-join build=$p est=400/400")
      << r.value().job_plan;
  EXPECT_EQ(r.value().values.size(), static_cast<size_t>(kJoinUsers));

  // Less than 2x apart (400 vs 4000/10): still no swap.
  auto near = Run(db_.get(),
                  "for $u in dataset Users for $m in dataset Msgs"
                  " where $m.uid = $u.id and $m.mid < 4000 return $m.mid;");
  ASSERT_TRUE(near.ok()) << near.status().ToString();
  EXPECT_EQ(JoinLine(near.value().job_plan),
            "hybrid-hash-join build=$m est=400/400")
      << near.value().job_plan;
}

TEST_F(JoinBuildSideTest, UnknownEstimateKeepsSecondInputBuild) {
  // Input 0 is a group-by: no estimate, so input 1 is hashed even though
  // it is the large side.
  auto r = Run(db_.get(),
               "for $g in (for $u in dataset Users group by $s := $u.since"
               " with $u return { \"s\": $s })"
               " for $m in dataset Msgs where $m.uid = $g.s return $m.mid;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string line = JoinLine(r.value().job_plan);
  EXPECT_NE(line.find("build=$m est=4000/?"), std::string::npos)
      << r.value().job_plan;
  EXPECT_EQ(r.value().values.size(), static_cast<size_t>(kJoinMsgs) -
                                         kJoinMsgs / (kJoinUsers + 40) * 40);
}

// Hand-built left-outer join (AQL does not produce one): a 40-row select on
// the preserved side against 400 peers must still probe with the preserved
// side, and every preserved row comes out once matched or padded.
TEST_F(JoinBuildSideTest, LeftOuterJoinNeverSwaps) {
  using algebricks::Expr;
  using algebricks::LogicalOp;
  auto left = algebricks::MakeOp(LogicalOp::Kind::kDataSourceScan);
  left->dataset = "J.Users";
  left->var = "u";
  auto sel = algebricks::MakeOp(LogicalOp::Kind::kSelect);
  sel->inputs = {left};
  sel->expr = Expr::Compare(">=", Expr::FieldAccess(Expr::Var("u"), "since"),
                            Expr::Const(adm::Value::Int64(360)));
  auto right = algebricks::MakeOp(LogicalOp::Kind::kDataSourceScan);
  right->dataset = "J.Msgs";
  right->var = "m";
  auto join = algebricks::MakeOp(LogicalOp::Kind::kJoin);
  join->inputs = {sel, right};
  join->left_outer = true;
  join->expr = Expr::Compare("=", Expr::FieldAccess(Expr::Var("u"), "id"),
                             Expr::FieldAccess(Expr::Var("m"), "uid"));
  auto dist = algebricks::MakeOp(LogicalOp::Kind::kDistribute);
  dist->inputs = {join};
  dist->expr = Expr::RecordCtor(
      {"u", "m"}, {Expr::FieldAccess(Expr::Var("u"), "id"),
                   Expr::FieldAccess(Expr::Var("m"), "mid")});

  auto run = testing_util::RunHandPlan(db_.get(), dist, {});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(JoinLine(run.value().job_plan),
            "hybrid-hash-join build=$m est=4000/40")
      << run.value().job_plan;
  // Users 360..399 each match nine messages; none is padded.
  EXPECT_EQ(run.value().values.size(), 360u);

  // Swap the inputs so the preserved side is the large one: only the
  // messages of users 360..399 find a partner, the rest come out padded.
  join->inputs = {right, sel};
  auto big = testing_util::RunHandPlan(db_.get(), dist, {});
  ASSERT_TRUE(big.ok()) << big.status().ToString();
  EXPECT_EQ(JoinLine(big.value().job_plan),
            "hybrid-hash-join build=$u est=40/4000")
      << big.value().job_plan;
  size_t padded = 0;
  for (const auto& v : big.value().values) {
    if (v.GetField("u").IsUnknown()) ++padded;
  }
  EXPECT_EQ(big.value().values.size(), static_cast<size_t>(kJoinMsgs));
  EXPECT_EQ(padded, static_cast<size_t>(kJoinMsgs) - 360u);
}

// 256 KB of operator memory: whichever side is hashed, the hybrid hash join
// spills and the answers stay the same.
TEST_F(JoinBuildSideTest, ResultsMatchUnderSmallOperatorBudget) {
  auto small = BootJoinInstance(dir_ + "/budget", 262144);
  for (const char* q :
       {"for $u in dataset Users for $m in dataset Msgs where $m.uid = $u.id"
        " return { \"n\": $u.name, \"t\": $m.text };",
        "for $m in dataset Msgs for $u in dataset Users where $m.uid = $u.id"
        " and $u.since < 200 return { \"n\": $u.name, \"t\": $m.text };",
        "for $u in dataset Users for $p in dataset Peers where $p.id = $u.id"
        " return { \"a\": $u.name, \"b\": $p.name };",
        "for $g in (for $u in dataset Users group by $s := $u.since with $u"
        " return { \"s\": $s }) for $m in dataset Msgs where $m.uid = $g.s"
        " return $m;"}) {
    SCOPED_TRACE(q);
    auto want = Run(db_.get(), q);
    auto got = Run(small.get(), q);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(JoinLine(got.value().job_plan), JoinLine(want.value().job_plan));
    EXPECT_EQ(SortedStrings(got.value().values),
              SortedStrings(want.value().values));
    uint64_t spilled = 0;
    for (const auto& op : got.value().stats.profile->Rollup()) {
      if (op.name.rfind("hybrid-hash-join", 0) == 0) spilled += op.spill_bytes;
    }
    EXPECT_GT(spilled, 0u) << "the small budget should force a spill";
  }
}

}  // namespace
}  // namespace asterix
