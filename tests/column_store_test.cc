// Row-vs-column equivalence: the columnar LSM component format must be an
// invisible physical choice. Random open/closed records go into a row-format
// and a column-format LSM B+-tree side by side; full scans, projected scans,
// range-filtered scans, and post-merge/post-reopen reads must produce
// identical logical results — while the columnar side reads fewer bytes for
// narrow projections and skips page groups via min/max stats.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "adm/serde.h"
#include "api/asterix.h"
#include "common/bytes.h"
#include "common/env.h"
#include "common/metrics.h"
#include "hand_plan.h"
#include "hyracks/operators.h"
#include "storage/lsm.h"

namespace asterix {
namespace storage {
namespace {

using adm::RecordBuilder;
using adm::Value;

adm::DatatypePtr TestType() {
  std::vector<adm::FieldType> fields;
  fields.push_back(
      {"id", adm::Datatype::Primitive(adm::TypeTag::kInt64), false});
  fields.push_back(
      {"name", adm::Datatype::Primitive(adm::TypeTag::kString), false});
  fields.push_back(
      {"age", adm::Datatype::Primitive(adm::TypeTag::kInt64), true});
  fields.push_back(
      {"score", adm::Datatype::Primitive(adm::TypeTag::kDouble), true});
  fields.push_back(
      {"active", adm::Datatype::Primitive(adm::TypeTag::kBoolean), false});
  fields.push_back(
      {"payload", adm::Datatype::Primitive(adm::TypeTag::kString), false});
  return adm::Datatype::MakeRecord("TestT", std::move(fields), /*open=*/true);
}

// Declared fields (some optional/nullable) plus open fields chosen to
// exercise every column kind: a dense scalar ("tag" -> promoted), a sparse
// one ("rare" -> catch-all), and a mixed-tag one ("mix" -> catch-all).
Value RandomRecord(std::mt19937& rng, int64_t id) {
  RecordBuilder b;
  b.Add("id", Value::Int64(id));
  b.Add("name", Value::String("user" + std::to_string(rng() % 1000)));
  if (rng() % 4 != 0) {
    b.Add("age", rng() % 5 == 0 ? Value::Null()
                                : Value::Int64(static_cast<int64_t>(rng() % 90)));
  }
  if (rng() % 3 != 0) {
    b.Add("score", Value::Double(static_cast<double>(rng() % 1000) / 10.0));
  }
  b.Add("active", Value::Boolean(rng() % 2 == 0));
  b.Add("payload", Value::String(std::string(64 + rng() % 64, 'x')));
  if (rng() % 2 == 0) {
    b.Add("tag", Value::String("t" + std::to_string(rng() % 5)));
  }
  if (rng() % 16 == 0) {
    b.Add("rare", Value::Int64(static_cast<int64_t>(rng() % 7)));
  }
  if (rng() % 3 == 0) {
    b.Add("mix", rng() % 2 == 0 ? Value::Int64(static_cast<int64_t>(rng() % 9))
                                : Value::String("m" + std::to_string(rng() % 9)));
  }
  return b.Build();
}

std::vector<uint8_t> Ser(const Value& v, const adm::DatatypePtr& type) {
  std::vector<uint8_t> buf;
  BytesWriter w(&buf);
  EXPECT_TRUE(adm::SerializeTyped(v, type, &w).ok());
  return buf;
}

Value Deser(const std::vector<uint8_t>& bytes, const adm::DatatypePtr& type) {
  BytesReader r(bytes.data(), bytes.size());
  Value v;
  EXPECT_TRUE(adm::DeserializeTyped(&r, type, &v).ok());
  return v;
}

std::vector<std::pair<int64_t, Value>> Collect(
    const LsmBTree& tree, const column::Projection& proj,
    column::ProjectedScanStats* stats) {
  std::vector<std::pair<int64_t, Value>> out;
  Status st = tree.ProjectedScan(
      ScanBounds{}, proj,
      [&](const CompositeKey& key, bool antimatter, const Value& rec) {
        EXPECT_FALSE(antimatter);
        out.emplace_back(key[0].AsInt(), rec);
        return Status::OK();
      },
      stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

void ExpectSameRows(const std::vector<std::pair<int64_t, Value>>& row,
                    const std::vector<std::pair<int64_t, Value>>& col,
                    const char* what) {
  ASSERT_EQ(row.size(), col.size()) << what;
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(row[i].first, col[i].first) << what << " key @" << i;
    EXPECT_EQ(row[i].second.Compare(col[i].second), 0)
        << what << " @key " << row[i].first << "\n  row: "
        << row[i].second.ToString() << "\n  col: " << col[i].second.ToString();
  }
}

// Every read path must agree between the two formats.
void CompareAll(const LsmBTree& row, const LsmBTree& col,
                const adm::DatatypePtr& type, const char* phase) {
  // 1. Raw LSM range scan (serialized payloads resolve to equal records).
  std::vector<std::pair<int64_t, Value>> row_full, col_full;
  ASSERT_TRUE(row.RangeScan({}, [&](const IndexEntry& e) {
    row_full.emplace_back(e.key[0].AsInt(), Deser(e.payload, type));
    return Status::OK();
  }).ok());
  ASSERT_TRUE(col.RangeScan({}, [&](const IndexEntry& e) {
    col_full.emplace_back(e.key[0].AsInt(), Deser(e.payload, type));
    return Status::OK();
  }).ok());
  ExpectSameRows(row_full, col_full, (std::string(phase) + "/rangescan").c_str());

  // 2. Whole-record projected scan.
  ExpectSameRows(Collect(row, column::Projection::All(), nullptr),
                 Collect(col, column::Projection::All(), nullptr),
                 (std::string(phase) + "/project-all").c_str());

  // 3. Narrow projection (declared + promoted-open + catch-all fields).
  for (const std::vector<std::string>& fields :
       {std::vector<std::string>{"id", "score"},
        std::vector<std::string>{"name", "tag"},
        std::vector<std::string>{"rare", "mix", "age"}}) {
    ExpectSameRows(Collect(row, column::Projection::Of(fields), nullptr),
                   Collect(col, column::Projection::Of(fields), nullptr),
                   (std::string(phase) + "/project-narrow").c_str());
  }

  // 4. Range hints: pruning may drop rows that cannot match, so compare
  // after applying the predicate — exactly what the Select above a real
  // scan does.
  column::Projection ranged = column::Projection::Of({"id", "age"});
  column::FieldRange fr;
  fr.field = "age";
  fr.lo = Value::Int64(20);
  fr.hi = Value::Int64(60);
  fr.hi_inclusive = false;
  ranged.ranges.push_back(fr);
  auto filter = [](std::vector<std::pair<int64_t, Value>> rows) {
    std::vector<std::pair<int64_t, Value>> out;
    for (auto& [k, v] : rows) {
      const Value& age = v.GetField("age");
      if (age.IsUnknown()) continue;
      if (age.AsInt() >= 20 && age.AsInt() < 60) out.emplace_back(k, v);
    }
    return out;
  };
  ExpectSameRows(filter(Collect(row, ranged, nullptr)),
                 filter(Collect(col, ranged, nullptr)),
                 (std::string(phase) + "/ranged").c_str());
  // PointLookup parity on a spread of keys.
  for (int64_t k = 0; k < 200; k += 17) {
    bool rf = false, cf = false;
    std::vector<uint8_t> rp, cp;
    ASSERT_TRUE(row.PointLookup({Value::Int64(k)}, &rf, &rp).ok());
    ASSERT_TRUE(col.PointLookup({Value::Int64(k)}, &cf, &cp).ok());
    ASSERT_EQ(rf, cf) << phase << " key " << k;
    if (rf) {
      EXPECT_EQ(Deser(rp, type).Compare(Deser(cp, type)), 0)
          << phase << " key " << k;
    }
  }
}

TEST(ColumnStoreTest, RowColumnEquivalenceUnderRandomWorkload) {
  for (uint32_t seed : {1u, 7u, 42u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::string dir = env::NewScratchDir("colstore");
    BufferCache cache(4096);
    adm::DatatypePtr type = TestType();

    LsmOptions row_opts;
    row_opts.format = StorageFormat::kRow;
    row_opts.record_type = type;
    row_opts.mem_budget_bytes = 1u << 14;
    row_opts.merge_policy = MergePolicy::Constant(3);
    row_opts.compress = seed % 2 == 0;
    LsmOptions col_opts = row_opts;
    col_opts.format = StorageFormat::kColumn;
    col_opts.compress = seed % 2 == 1;

    auto row = std::make_unique<LsmBTree>(&cache, dir, "row", row_opts);
    auto col = std::make_unique<LsmBTree>(&cache, dir, "col", col_opts);
    ASSERT_TRUE(row->Open().ok());
    ASSERT_TRUE(col->Open().ok());

    std::mt19937 rng(seed);
    uint64_t lsn = 1;
    for (int op = 0; op < 800; ++op) {
      int64_t id = static_cast<int64_t>(rng() % 200);
      CompositeKey key{Value::Int64(id)};
      int action = static_cast<int>(rng() % 10);
      if (action < 7) {
        Value rec = RandomRecord(rng, id);
        std::vector<uint8_t> bytes = Ser(rec, type);
        ASSERT_TRUE(row->Upsert(key, bytes, lsn).ok());
        ASSERT_TRUE(col->Upsert(key, bytes, lsn).ok());
        ++lsn;
      } else if (action < 9) {
        ASSERT_TRUE(row->Delete(key, lsn).ok());
        ASSERT_TRUE(col->Delete(key, lsn).ok());
        ++lsn;
      } else {
        ASSERT_TRUE(row->Flush().ok());
        ASSERT_TRUE(col->Flush().ok());
      }
    }

    // Mixed state: mem component + several disk components.
    CompareAll(*row, *col, type, "mixed");

    ASSERT_TRUE(row->Flush().ok());
    ASSERT_TRUE(col->Flush().ok());
    CompareAll(*row, *col, type, "flushed");

    ASSERT_TRUE(row->MaybeMerge().ok());
    ASSERT_TRUE(col->MaybeMerge().ok());
    CompareAll(*row, *col, type, "merged");

    // Restart: footers/keys/pages must round-trip through the files.
    row = std::make_unique<LsmBTree>(&cache, dir, "row", row_opts);
    col = std::make_unique<LsmBTree>(&cache, dir, "col", col_opts);
    ASSERT_TRUE(row->Open().ok());
    ASSERT_TRUE(col->Open().ok());
    CompareAll(*row, *col, type, "reopened");

    env::RemoveAll(dir);
  }
}

// 1000 rows in one flushed component (4 row groups of 256): a narrow
// projection must read measurably fewer bytes on the columnar side, and a
// sargable range must skip page groups via min/max stats.
TEST(ColumnStoreTest, ProjectionReadsFewerBytesAndMinMaxPrunes) {
  std::string dir = env::NewScratchDir("colstore-proj");
  BufferCache cache(4096);
  adm::DatatypePtr type = TestType();

  LsmOptions row_opts;
  row_opts.format = StorageFormat::kRow;
  row_opts.record_type = type;
  LsmOptions col_opts = row_opts;
  col_opts.format = StorageFormat::kColumn;

  LsmBTree row(&cache, dir, "row", row_opts);
  LsmBTree col(&cache, dir, "col", col_opts);
  ASSERT_TRUE(row.Open().ok());
  ASSERT_TRUE(col.Open().ok());

  std::mt19937 rng(3);
  for (int64_t id = 0; id < 1000; ++id) {
    RecordBuilder b;
    b.Add("id", Value::Int64(id));
    b.Add("name", Value::String("n" + std::to_string(id)));
    b.Add("age", Value::Int64(id / 12));  // correlated with key order
    b.Add("score", Value::Double(static_cast<double>(id) / 2));
    b.Add("active", Value::Boolean(id % 2 == 0));
    b.Add("payload", Value::String(std::string(96 + rng() % 32, 'p')));
    std::vector<uint8_t> bytes = Ser(b.Build(), type);
    CompositeKey key{Value::Int64(id)};
    ASSERT_TRUE(row.Upsert(key, bytes, static_cast<uint64_t>(id) + 1).ok());
    ASSERT_TRUE(col.Upsert(key, bytes, static_cast<uint64_t>(id) + 1).ok());
  }
  ASSERT_TRUE(row.Flush().ok());
  ASSERT_TRUE(col.Flush().ok());
  ASSERT_EQ(col.num_disk_components(), 1u);

  // Narrow projection: the column side reads only the id column + keys.
  column::ProjectedScanStats row_stats, col_stats;
  auto row_rows = Collect(row, column::Projection::Of({"id"}), &row_stats);
  auto col_rows = Collect(col, column::Projection::Of({"id"}), &col_stats);
  ExpectSameRows(row_rows, col_rows, "narrow");
  ASSERT_EQ(col_rows.size(), 1000u);
  EXPECT_LT(col_stats.bytes_read, row_stats.bytes_read / 2)
      << "columnar projected scan should read a fraction of the row bytes "
      << "(col=" << col_stats.bytes_read << " row=" << row_stats.bytes_read
      << ")";
  EXPECT_GT(col_stats.bytes_skipped, 0u);

  // Range on the key-correlated field: only overlapping row groups are read.
  column::Projection ranged = column::Projection::Of({"id", "age"});
  column::FieldRange fr;
  fr.field = "age";
  fr.lo = Value::Int64(70);
  ranged.ranges.push_back(fr);
  column::ProjectedScanStats pruned_stats;
  auto col_ranged = Collect(col, ranged, &pruned_stats);
  EXPECT_GT(pruned_stats.pages_pruned, 0u) << "min/max stats should skip "
                                              "groups whose age max < 70";
  // Every surviving row with age >= 70 is present (pruning only drops rows
  // that cannot match).
  size_t matching = 0;
  for (const auto& [k, v] : col_ranged) {
    (void)k;
    if (!v.GetField("age").IsUnknown() && v.GetField("age").AsInt() >= 70) {
      ++matching;
    }
  }
  EXPECT_EQ(matching, 1000u - 70u * 12u);  // ids 840..999

  env::RemoveAll(dir);
}

// End-to-end through DDL, the optimizer's projection pushdown, EXPLAIN
// ANALYZE, and the metrics registry.
TEST(ColumnStoreTest, ColumnarDatasetEndToEnd) {
  std::string dir = env::NewScratchDir("colstore-api");
  api::InstanceConfig config;
  config.base_dir = dir;
  config.cluster.num_nodes = 1;
  config.cluster.partitions_per_node = 1;
  config.cluster.job_startup_us = 0;
  api::AsterixInstance inst(config);
  ASSERT_TRUE(inst.Boot().ok());

  auto ddl = inst.Execute(R"aql(
drop dataverse ColTest if exists;
create dataverse ColTest;
use dataverse ColTest;
create type TType as open {
  id: int64,
  a: string,
  b: string,
  c: string,
  d: string,
  e: int64,
  f: double,
  g: boolean
}
create dataset RowT(TType) primary key id;
create dataset ColT(TType) primary key id with { "storage-format": "column" };
)aql");
  ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();

  // Same 120 records (8 declared fields + 1 open) into both datasets.
  for (const char* target : {"RowT", "ColT"}) {
    std::string stmt = "use dataverse ColTest;\ninsert into dataset " +
                       std::string(target) + " ([";
    for (int i = 0; i < 120; ++i) {
      if (i) stmt += ",";
      stmt += "{ \"id\": " + std::to_string(i) +
              ", \"a\": \"alpha" + std::to_string(i) +
              "\", \"b\": \"" + std::string(40, 'b') +
              "\", \"c\": \"" + std::string(40, 'c') +
              "\", \"d\": \"" + std::string(40, 'd') +
              "\", \"e\": " + std::to_string(i % 10) +
              ", \"f\": " + std::to_string(i) + ".5" +
              ", \"g\": " + (i % 2 ? "true" : "false") +
              ", \"extra\": \"x" + std::to_string(i) + "\" }";
    }
    stmt += "]);";
    auto ins = inst.Execute(stmt);
    ASSERT_TRUE(ins.ok()) << target << ": " << ins.status().ToString();
  }
  ASSERT_TRUE(inst.FlushAll().ok());

  // Identical results, row vs column, for full scans, projections, and a
  // filtered projection (which also exercises scan_ranges).
  for (const char* query :
       {"for $t in dataset %s return $t;",
        "for $t in dataset %s return $t.id;",
        "for $t in dataset %s where $t.e >= 5 return { \"id\": $t.id, \"f\": $t.f };",
        "for $t in dataset %s return $t.extra;"}) {
    std::string rq = "use dataverse ColTest; ";
    std::string cq = "use dataverse ColTest; ";
    char buf[256];
    std::snprintf(buf, sizeof(buf), query, "RowT");
    rq += buf;
    std::snprintf(buf, sizeof(buf), query, "ColT");
    cq += buf;
    auto rr = inst.Execute(rq);
    auto cr = inst.Execute(cq);
    ASSERT_TRUE(rr.ok()) << rr.status().ToString();
    ASSERT_TRUE(cr.ok()) << cr.status().ToString();
    std::vector<Value> rv = rr.value().values;
    std::vector<Value> cv = cr.value().values;
    ASSERT_EQ(rv.size(), cv.size()) << query;
    auto less = [](const Value& a, const Value& b) { return a.Compare(b) < 0; };
    std::sort(rv.begin(), rv.end(), less);
    std::sort(cv.begin(), cv.end(), less);
    for (size_t i = 0; i < rv.size(); ++i) {
      EXPECT_EQ(rv[i].Compare(cv[i]), 0)
          << query << "\n  row: " << rv[i].ToString()
          << "\n  col: " << cv[i].ToString();
    }
  }

  // The projected scan on the columnar dataset reads measurably fewer
  // bytes — visible in the execution profile (EXPLAIN ANALYZE backbone).
  auto scan_bytes = [&](const std::string& q) -> uint64_t {
    auto r = inst.Execute("use dataverse ColTest; " + q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.value().stats.profile != nullptr);
    uint64_t bytes = 0;
    for (const auto& op : r.value().stats.profile->Rollup()) {
      if (op.name.rfind("scan(", 0) == 0 ||
          op.name.rfind("column-scan(", 0) == 0) {
        bytes += op.bytes_read;
      }
    }
    return bytes;
  };
  uint64_t row_bytes = scan_bytes("for $t in dataset RowT return $t.id;");
  uint64_t col_bytes = scan_bytes("for $t in dataset ColT return $t.id;");
  ASSERT_GT(row_bytes, 0u);
  ASSERT_GT(col_bytes, 0u);
  EXPECT_LT(col_bytes * 2, row_bytes)
      << "col=" << col_bytes << " row=" << row_bytes;

  // EXPLAIN ANALYZE surfaces the bytes and the projected operator name.
  auto ea = inst.Execute(
      "use dataverse ColTest; explain analyze for $t in dataset ColT "
      "return $t.id;");
  ASSERT_TRUE(ea.ok()) << ea.status().ToString();
  ASSERT_EQ(ea.value().values.size(), 1u);
  std::string plan = ea.value().values[0].AsString();
  EXPECT_NE(plan.find("column-scan(ColT)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("project=[id]"), std::string::npos) << plan;
  EXPECT_NE(plan.find("bytes_read="), std::string::npos) << plan;

  // Columnar counters are registered and moving.
  std::string metrics = inst.MetricsJson();
  for (const char* name :
       {"storage.column.pages_read", "storage.column.bytes_read",
        "storage.column.bytes_skipped", "storage.column.pages_pruned_minmax",
        "storage.column.bytes_flushed"}) {
    EXPECT_NE(metrics.find(name), std::string::npos) << name;
  }
  EXPECT_GT(metrics::MetricsRegistry::Default()
                .GetCounter("storage.column.bytes_skipped")
                ->value(),
            0u);
  EXPECT_GT(metrics::MetricsRegistry::Default()
                .GetCounter("storage.column.bytes_flushed")
                ->value(),
            0u);

  env::RemoveAll(dir);
}

// The index-to-primary fetch on a columnar dataset, across components that
// hold updates and deletes: the secondary-index plan (sorted keys, one batch
// per frame) and the index-NL join on the primary key (unsorted keys with
// duplicates and misses) must return exactly what their scan counterparts
// return, and the fetch must report what it read.
TEST(ColumnStoreTest, BatchFetchMatchesScanOnColumnDataset) {
  std::string dir = env::NewScratchDir("colstore-fetch");
  api::InstanceConfig config;
  config.base_dir = dir;
  config.cluster.num_nodes = 2;
  config.cluster.partitions_per_node = 2;
  config.cluster.job_startup_us = 0;
  api::AsterixInstance inst(config);
  ASSERT_TRUE(inst.Boot().ok());
  auto ddl = inst.Execute(R"aql(
create dataverse F; use dataverse F;
create type CT as open { id: int64, k: int64, s: string }
create type AT as { aid: int64, cid: int64 }
create dataset C(CT) primary key id with { "storage-format": "column" };
create dataset A(AT) primary key aid;
create index kIdx on C(k);
)aql");
  ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();

  auto insert_c = [&](int lo, int hi, const std::string& tag) {
    std::string stmt = "use dataverse F;\ninsert into dataset C ([";
    for (int i = lo; i < hi; ++i) {
      if (i > lo) stmt += ",";
      stmt += "{ \"id\": " + std::to_string(i) +
              ", \"k\": " + std::to_string((i * 7) % 101) +
              ", \"s\": \"" + tag + std::to_string(i) + "\"" +
              (i % 3 == 0 ? ", \"extra\": " + std::to_string(i) : "") + " }";
    }
    stmt += "]);";
    auto r = inst.Execute(stmt);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  };
  auto run = [&](const std::string& q) {
    auto r = inst.Execute("use dataverse F;\n" + q);
    EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    return r.ok() ? r.take() : api::ExecutionResult{};
  };
  insert_c(0, 900, "a");
  ASSERT_TRUE(inst.FlushAll().ok());
  run("delete $c from dataset C where $c.id >= 100 and $c.id < 300;");
  insert_c(900, 1300, "b");
  ASSERT_TRUE(inst.FlushAll().ok());
  run("delete $c from dataset C where $c.id >= 1000 and $c.id < 1050;");
  insert_c(150, 200, "c");  // re-inserted over their own antimatter
  std::mt19937 rng(9);
  std::string stmt = "use dataverse F;\ninsert into dataset A ([";
  for (int i = 0; i < 700; ++i) {
    if (i) stmt += ",";
    stmt += "{ \"aid\": " + std::to_string(i) +
            ", \"cid\": " + std::to_string(rng() % 1500) + " }";
  }
  stmt += "]);";
  ASSERT_TRUE(inst.Execute(stmt).ok());

  auto sorted = [](const api::ExecutionResult& r) {
    std::vector<std::string> out;
    for (const Value& v : r.values) out.push_back(v.ToString());
    std::sort(out.begin(), out.end());
    return out;
  };
  for (const char* range : {"$c.k >= 10 and $c.k < 40", "$c.k = 55",
                            "$c.k >= 0 and $c.k <= 100"}) {
    auto indexed =
        run(std::string("for $c in dataset C where ") + range + " return $c;");
    auto scanned = run(std::string("for $c in dataset C where /*+ skip-index */ ") +
                       range + " return $c;");
    EXPECT_NE(indexed.job_plan.find("btree-search(C.primary)"),
              std::string::npos)
        << indexed.job_plan;
    EXPECT_EQ(scanned.job_plan.find("btree-search(C.primary)"),
              std::string::npos);
    EXPECT_FALSE(indexed.values.empty()) << range;
    EXPECT_EQ(sorted(indexed), sorted(scanned)) << range;
    uint64_t fetch_bytes = 0;
    ASSERT_NE(indexed.stats.profile, nullptr);
    for (const auto& op : indexed.stats.profile->Rollup()) {
      if (op.name == "btree-search(C.primary)") fetch_bytes += op.bytes_read;
    }
    EXPECT_GT(fetch_bytes, 0u) << range;
  }

  auto nl = run(
      "for $a in dataset A for $c in dataset C "
      "where $a.cid /*+ indexnl */ = $c.id "
      "return { \"a\": $a.aid, \"c\": $c };");
  auto hashed = run(
      "for $a in dataset A for $c in dataset C where $a.cid = $c.id "
      "return { \"a\": $a.aid, \"c\": $c };");
  EXPECT_NE(nl.job_plan.find("btree-search(C.primary)"), std::string::npos)
      << nl.job_plan;
  EXPECT_FALSE(nl.values.empty());
  EXPECT_EQ(sorted(nl), sorted(hashed));
  env::RemoveAll(dir);
}

// count()/sql-count() of a scan binding read no field of it, so the scan
// projects only what the rest of the plan touches (nothing at all for a bare
// count). Answers must match the whole-record plans on row and column data.
class CountProjectionTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 2000;

  void SetUp() override {
    dir_ = env::NewScratchDir("colstore-count");
    api::InstanceConfig config;
    config.cluster.num_nodes = 1;
    config.cluster.partitions_per_node = 1;
    config.cluster.job_startup_us = 0;
    config.base_dir = dir_ + "/proj";
    proj_ = std::make_unique<api::AsterixInstance>(config);
    config.base_dir = dir_ + "/whole";
    config.optimizer.push_projection_into_scan = false;
    whole_ = std::make_unique<api::AsterixInstance>(config);
    for (api::AsterixInstance* inst : {proj_.get(), whole_.get()}) {
      ASSERT_TRUE(inst->Boot().ok());
      auto ddl = inst->Execute(R"aql(
create dataverse CC; use dataverse CC;
create type MT as open { id: int64, author-id: int64, timestamp: int64,
                         message: string }
create dataset RowM(MT) primary key id;
create dataset ColM(MT) primary key id with { "storage-format": "column" };
)aql");
      ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
      // Timestamps follow the key, so each 256-row group covers a narrow
      // timestamp span and min/max pruning can skip whole groups.
      std::vector<Value> rows;
      for (int i = 0; i < kRows; ++i) {
        rows.push_back(RecordBuilder()
                           .Add("id", Value::Int64(i))
                           .Add("author-id", Value::Int64((i * 7) % 23))
                           .Add("timestamp", Value::Int64(10000 + i))
                           .Add("message", Value::String(std::string(
                                               40, static_cast<char>('a' + i % 26))))
                           .Build());
      }
      for (const char* ds : {"CC.RowM", "CC.ColM"}) {
        ASSERT_TRUE(inst->FindDataset(ds)->LoadBulk(rows).ok());
      }
      ASSERT_TRUE(inst->FlushAll().ok());
    }
  }
  void TearDown() override {
    proj_.reset();
    whole_.reset();
    env::RemoveAll(dir_);
  }

  static api::ExecutionResult Run(api::AsterixInstance* inst,
                                  const std::string& q) {
    auto r = inst->Execute("use dataverse CC;\n" + q);
    EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    return r.ok() ? r.take() : api::ExecutionResult{};
  }

  // A query with "%s" standing for the dataset name.
  static std::string On(const std::string& q, const std::string& ds) {
    std::string out = q;
    out.replace(out.find("%s"), 2, ds);
    return out;
  }

  std::string dir_;
  std::unique_ptr<api::AsterixInstance> proj_, whole_;
};

TEST_F(CountProjectionTest, CountsMatchWholeRecordPlans) {
  const std::vector<std::string> queries = {
      "count(for $m in dataset %s return $m);",
      "sql-count(for $m in dataset %s return $m);",
      "count(for $m in dataset %s where $m.timestamp >= 10500 and "
      "$m.timestamp < 10900 return $m);",
      "for $m in dataset %s where $m.timestamp >= 11300 and "
      "$m.timestamp < 11800 group by $a := $m.author-id with $m "
      "let $cnt := count($m) order by $cnt desc, $a limit 5 "
      "return { \"a\": $a, \"cnt\": $cnt };",
      "for $m in dataset %s group by $a := $m.author-id with $m "
      "let $cnt := sql-count($m) order by $cnt desc, $a limit 3 "
      "return { \"a\": $a, \"cnt\": $cnt };",
  };
  auto expect_all_agree = [&](const std::string& phase) {
    for (const auto& q : queries) {
      SCOPED_TRACE(phase + ": " + q);
      std::vector<Value> want = Run(whole_.get(), On(q, "RowM")).values;
      ASSERT_FALSE(want.empty());
      for (api::AsterixInstance* inst : {proj_.get(), whole_.get()}) {
        for (const char* ds : {"RowM", "ColM"}) {
          std::vector<Value> got = Run(inst, On(q, ds)).values;
          ASSERT_EQ(got.size(), want.size()) << ds;
          for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].Compare(want[i]), 0)
                << ds << " @" << i << ": " << got[i].ToString() << " vs "
                << want[i].ToString();
          }
        }
      }
    }
  };
  expect_all_agree("one disk component");
  EXPECT_EQ(Run(proj_.get(), On(queries[0], "ColM")).values[0].AsInt(), kRows);
  EXPECT_EQ(Run(proj_.get(), On(queries[2], "RowM")).values[0].AsInt(), 400);

  // Deletes and new keys in memory over the disk component, then a second
  // disk component: counts that project nothing still resolve every key.
  for (api::AsterixInstance* inst : {proj_.get(), whole_.get()}) {
    for (const char* ds : {"RowM", "ColM"}) {
      Run(inst, On("delete $m from dataset %s where $m.id < 100;", ds));
      Run(inst, On("insert into dataset %s ({ \"id\": 5000, \"author-id\": 1, "
                   "\"timestamp\": 10600, \"message\": \"late\" });",
                   ds));
    }
  }
  expect_all_agree("memory over disk");
  ASSERT_TRUE(proj_->FlushAll().ok());
  ASSERT_TRUE(whole_->FlushAll().ok());
  expect_all_agree("two disk components");
  EXPECT_EQ(Run(proj_.get(), On(queries[0], "ColM")).values[0].AsInt(),
            kRows - 100 + 1);
}

TEST_F(CountProjectionTest, CountScansProjectAndPrune) {
  // A bare count reads no field at all.
  std::string row_count =
      Run(proj_.get(), "count(for $m in dataset RowM return $m);").job_plan;
  EXPECT_NE(row_count.find("scan(RowM) project=[]"), std::string::npos)
      << row_count;
  std::string whole_count =
      Run(whole_.get(), "count(for $m in dataset RowM return $m);").job_plan;
  EXPECT_EQ(whole_count.find("project="), std::string::npos) << whole_count;

  // The grouped top-k shape: a vectorized column scan of the two touched
  // fields, with the timestamp range pruning row groups.
  metrics::Counter* pruned = metrics::MetricsRegistry::Default().GetCounter(
      "storage.column.row_groups_pruned");
  uint64_t pruned_before = pruned->value();
  auto ea = Run(proj_.get(),
                "explain analyze for $m in dataset ColM where "
                "$m.timestamp >= 11300 and $m.timestamp < 11800 "
                "group by $a := $m.author-id with $m let $cnt := count($m) "
                "order by $cnt desc, $a limit 5 "
                "return { \"a\": $a, \"cnt\": $cnt };");
  ASSERT_EQ(ea.values.size(), 1u);
  std::string plan = ea.values[0].AsString();
  EXPECT_NE(plan.find("vector-column-scan(ColM)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("project=[author-id,timestamp]"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("range=["), std::string::npos) << plan;
  EXPECT_GT(pruned->value(), pruned_before);
}

// count($r) of a left-outer join's padded side: the padding is the same
// whether $r's scan is projected or not, so projected and whole-record plans
// agree, and $r's scan reads only the join key and the filtered field.
TEST_F(CountProjectionTest, CountOfLeftOuterPaddedBinding) {
  using algebricks::Expr;
  using algebricks::LogicalOp;
  using algebricks::MakeOp;
  auto field = [](const char* var, const char* f) {
    return Expr::FieldAccess(Expr::Var(var), f);
  };
  for (const char* inner : {"CC.RowM", "CC.ColM"}) {
    SCOPED_TRACE(inner);
    auto l_scan = MakeOp(LogicalOp::Kind::kDataSourceScan);
    l_scan->dataset = "CC.ColM";
    l_scan->var = "l";
    auto l_sel = MakeOp(LogicalOp::Kind::kSelect);
    l_sel->inputs = {l_scan};
    l_sel->expr = Expr::Compare(">=", field("l", "timestamp"),
                                Expr::Const(Value::Int64(11800)));
    auto r_scan = MakeOp(LogicalOp::Kind::kDataSourceScan);
    r_scan->dataset = inner;
    r_scan->var = "r";
    auto r_sel = MakeOp(LogicalOp::Kind::kSelect);
    r_sel->inputs = {r_scan};
    r_sel->expr = Expr::Compare("=", field("r", "author-id"),
                                Expr::Const(Value::Int64(3)));
    auto join = MakeOp(LogicalOp::Kind::kJoin);
    join->inputs = {l_sel, r_sel};
    join->left_outer = true;
    join->expr = Expr::Compare("=", field("l", "id"), field("r", "id"));
    auto group = MakeOp(LogicalOp::Kind::kGroupBy);
    group->inputs = {join};
    group->group_keys = {{"a", field("l", "author-id")}};
    for (const char* fn : {"count", "sql-count"}) {
      LogicalOp::AggCall agg;
      agg.out_var = std::string("n_") + fn;
      agg.fn = fn;
      agg.arg = Expr::Var("r");
      group->aggs.push_back(agg);
    }
    LogicalOp::AggCall all;
    all.out_var = "n_l";
    all.fn = "count";
    all.arg = Expr::Var("l");
    group->aggs.push_back(all);
    auto dist = MakeOp(LogicalOp::Kind::kDistribute);
    dist->inputs = {group};
    dist->expr = Expr::RecordCtor(
        {"a", "r", "sr", "l"},
        {Expr::Var("a"), Expr::Var("n_count"), Expr::Var("n_sql-count"),
         Expr::Var("n_l")});

    algebricks::OptimizerOptions projected;
    algebricks::OptimizerOptions whole;
    whole.push_projection_into_scan = false;
    auto got = testing_util::RunHandPlan(proj_.get(), dist, projected);
    auto want = testing_util::RunHandPlan(proj_.get(), dist, whole);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_NE(got.value().logical_plan.find(
                  "data-scan $r <- " + std::string(inner) +
                  "  project=[author-id,id]"),
              std::string::npos)
        << got.value().logical_plan;
    EXPECT_NE(got.value().logical_plan.find(
                  "data-scan $l <- CC.ColM  project=[author-id,id,timestamp]"),
              std::string::npos)
        << got.value().logical_plan;
    ASSERT_EQ(got.value().values.size(), 23u);
    ASSERT_EQ(got.value().values.size(), want.value().values.size());
    int64_t preserved = 0, matched = 0;
    for (size_t i = 0; i < got.value().values.size(); ++i) {
      const Value& g = got.value().values[i];
      EXPECT_EQ(g.Compare(want.value().values[i]), 0)
          << g.ToString() << " vs " << want.value().values[i].ToString();
      preserved += g.GetField("l").AsInt();
      if (g.GetField("a").AsInt() == 3) matched = g.GetField("l").AsInt();
    }
    // Every preserved row is counted once; only author 3's rows matched.
    EXPECT_EQ(preserved, kRows - 1800);
    EXPECT_GT(matched, 0);
  }
}

// --- One scan rule across LSM layouts ---------------------------------------
//
// Every layout is checked against a model of the live rows: sources whose
// key ranges are disjoint stream one after another, overlapping ones merge,
// and either way RangeScan, ProjectedScan and (on column trees) BatchScan
// return exactly the model's rows, bounded or not, pruned or not.

using Model = std::map<int64_t, Value>;

struct LayoutWriter {
  LsmBTree* tree;
  Model* model;
  adm::DatatypePtr type;
  std::mt19937 rng{11};
  uint64_t lsn = 1;

  void Put(int64_t id) {
    Value rec = RandomRecord(rng, id);
    ASSERT_TRUE(tree->Upsert({Value::Int64(id)}, Ser(rec, type), lsn++).ok());
    (*model)[id] = rec;
  }
  void Del(int64_t id) {
    ASSERT_TRUE(tree->Delete({Value::Int64(id)}, lsn++).ok());
    model->erase(id);
  }
  void Flush() { ASSERT_TRUE(tree->Flush().ok()); }
};

struct KeyBounds {
  std::optional<int64_t> lo, hi;
  bool lo_inclusive = true, hi_inclusive = true;

  ScanBounds ToScan() const {
    ScanBounds b;
    if (lo) b.lo = CompositeKey{Value::Int64(*lo)};
    if (hi) b.hi = CompositeKey{Value::Int64(*hi)};
    b.lo_inclusive = lo_inclusive;
    b.hi_inclusive = hi_inclusive;
    return b;
  }
  bool Contains(int64_t k) const {
    if (lo && (k < *lo || (k == *lo && !lo_inclusive))) return false;
    if (hi && (k > *hi || (k == *hi && !hi_inclusive))) return false;
    return true;
  }
};

// The score range the pruned scans push down; the check applies it after
// the scan, as the Select above a real scan does.
bool ScoreInRange(const Value& rec) {
  const Value& s = rec.GetField("score");
  return !s.IsUnknown() && s.AsDouble() >= 20.0 && s.AsDouble() < 60.0;
}

column::Projection ScoreRanged(std::vector<std::string> fields) {
  column::Projection proj = column::Projection::Of(std::move(fields));
  column::FieldRange fr;
  fr.field = "score";
  fr.lo = Value::Double(20.0);
  fr.hi = Value::Double(60.0);
  fr.hi_inclusive = false;
  proj.ranges.push_back(fr);
  return proj;
}

// Rows as (key, record), compared field by field over `fields` (all fields
// when empty).
void ExpectRowsMatch(const std::vector<std::pair<int64_t, Value>>& got,
                     const std::vector<std::pair<int64_t, Value>>& want,
                     const std::vector<std::string>& fields,
                     const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].first, want[i].first) << what << " @" << i;
    if (fields.empty()) {
      EXPECT_EQ(got[i].second.Compare(want[i].second), 0)
          << what << " key " << got[i].first << "\n  got:  "
          << got[i].second.ToString() << "\n  want: " << want[i].second.ToString();
      continue;
    }
    for (const std::string& f : fields) {
      EXPECT_EQ(got[i].second.GetField(f).Compare(want[i].second.GetField(f)), 0)
          << what << " key " << got[i].first << " field " << f;
    }
  }
}

void CheckLayout(const LsmBTree& tree, const Model& model,
                 const adm::DatatypePtr& type, bool batches_expected,
                 const std::string& layout) {
  const std::vector<std::string> narrow = {"id", "score", "tag"};
  const std::vector<std::string> batchable = {"id", "score"};
  std::vector<KeyBounds> bounds(5);
  bounds[1].lo = 37;
  bounds[1].hi = 251;
  bounds[2].lo = 199;
  bounds[2].hi = 401;
  bounds[2].lo_inclusive = false;
  bounds[2].hi_inclusive = false;
  bounds[3].lo = 150;
  bounds[4].hi = 200;
  bounds[4].hi_inclusive = false;
  for (size_t bi = 0; bi < bounds.size(); ++bi) {
    const KeyBounds& kb = bounds[bi];
    std::string what = layout + "/bounds" + std::to_string(bi);
    std::vector<std::pair<int64_t, Value>> want, want_ranged;
    for (const auto& [k, rec] : model) {
      if (!kb.Contains(k)) continue;
      want.emplace_back(k, rec);
      if (ScoreInRange(rec)) want_ranged.emplace_back(k, rec);
    }

    std::vector<std::pair<int64_t, Value>> got;
    ASSERT_TRUE(tree.RangeScan(kb.ToScan(), [&](const IndexEntry& e) {
      EXPECT_FALSE(e.antimatter);
      got.emplace_back(e.key[0].AsInt(), Deser(e.payload, type));
      return Status::OK();
    }).ok());
    ExpectRowsMatch(got, want, {}, what + "/rangescan");

    auto projected = [&](const column::Projection& proj) {
      std::vector<std::pair<int64_t, Value>> rows;
      Status st = tree.ProjectedScan(
          kb.ToScan(), proj,
          [&](const CompositeKey& key, bool antimatter, const Value& rec) {
            EXPECT_FALSE(antimatter);
            rows.emplace_back(key[0].AsInt(), rec);
            return Status::OK();
          },
          nullptr);
      EXPECT_TRUE(st.ok()) << st.ToString();
      return rows;
    };
    ExpectRowsMatch(projected(column::Projection::All()), want, {},
                    what + "/project-all");
    ExpectRowsMatch(projected(column::Projection::Of(narrow)), want, narrow,
                    what + "/project-narrow");
    std::vector<std::pair<int64_t, Value>> pruned;
    for (auto& row : projected(ScoreRanged(narrow))) {
      if (ScoreInRange(row.second)) pruned.push_back(std::move(row));
    }
    ExpectRowsMatch(pruned, want_ranged, narrow, what + "/project-pruned");

    for (bool ranged : {false, true}) {
      column::Projection proj =
          ranged ? ScoreRanged(batchable) : column::Projection::Of(batchable);
      std::vector<std::pair<int64_t, Value>> rows;
      size_t batches = 0;
      Status st = tree.BatchScan(
          kb.ToScan(), proj,
          [&](const std::shared_ptr<column::ColumnBatch>& batch) {
            ++batches;
            for (uint32_t r : batch->sel.rows) {
              Value rec = batch->MaterializeRow(r);
              if (ranged && !ScoreInRange(rec)) continue;
              rows.emplace_back(rec.GetField("id").AsInt(), rec);
            }
            return Status::OK();
          },
          nullptr);
      std::string bwhat = what + (ranged ? "/batch-pruned" : "/batch");
      if (!batches_expected) {
        EXPECT_EQ(st.code(), StatusCode::kNotImplemented) << bwhat;
        EXPECT_EQ(batches, 0u) << bwhat;
        continue;
      }
      ASSERT_TRUE(st.ok()) << bwhat << ": " << st.ToString();
      std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        return a.first < b.first;
      });
      ExpectRowsMatch(rows, ranged ? want_ranged : want, batchable, bwhat);
    }
  }
}

TEST(ColumnStoreTest, ScanRuleMatchesModelAcrossLayouts) {
  adm::DatatypePtr type = TestType();
  // Each layout writes through `w` and reports whether a column tree must
  // serve BatchScan (empty memtables, pairwise-disjoint components).
  struct Layout {
    const char* name;
    std::function<void(LayoutWriter&)> build;
    bool batches;
  };
  std::vector<Layout> layouts = {
      {"ascending-disjoint",
       [](LayoutWriter& w) {
         for (int64_t id = 0; id < 600; ++id) {
           w.Put(id);
           if (id % 150 == 149) w.Flush();
         }
       },
       true},
      {"random-overlap",
       [](LayoutWriter& w) {
         std::mt19937 keys(5);
         for (int op = 0; op < 600; ++op) {
           int64_t id = static_cast<int64_t>(keys() % 450);
           if (keys() % 5 == 0) {
             w.Del(id);
           } else {
             w.Put(id);
           }
           if (op % 150 == 149) w.Flush();
         }
       },
       false},
      {"antimatter-boundary-overlap",
       [](LayoutWriter& w) {
         for (int64_t id = 0; id < 200; ++id) w.Put(id);
         w.Flush();
         w.Del(199);  // the older component's last key
         for (int64_t id = 200; id < 400; ++id) w.Put(id);
         w.Flush();
       },
       false},
      {"antimatter-boundary-disjoint",
       [](LayoutWriter& w) {
         for (int64_t id = 0; id < 200; ++id) w.Put(id);
         w.Flush();
         w.Del(200);  // never written: a tombstone opens the component
         for (int64_t id = 201; id < 400; ++id) w.Put(id);
         w.Del(399);  // and one closes it
         w.Flush();
         for (int64_t id = 400; id < 520; ++id) w.Put(id);
         w.Flush();
       },
       true},
      {"memtable-above",
       [](LayoutWriter& w) {
         for (int64_t id = 0; id < 400; ++id) {
           w.Put(id);
           if (id % 200 == 199) w.Flush();
         }
         for (int64_t id = 450; id < 500; ++id) w.Put(id);
         w.Del(470);
       },
       false},
      {"memtable-inside",
       [](LayoutWriter& w) {
         for (int64_t id = 0; id < 400; ++id) {
           w.Put(id);
           if (id % 200 == 199) w.Flush();
         }
         for (int64_t id = 190; id < 215; ++id) w.Put(id);
         w.Del(100);
         w.Del(300);
       },
       false},
  };
  for (const Layout& layout : layouts) {
    for (StorageFormat format : {StorageFormat::kRow, StorageFormat::kColumn}) {
      for (bool compress : {false, true}) {
        std::string name = std::string(layout.name) +
                           (format == StorageFormat::kRow ? "/row" : "/column") +
                           (compress ? "/lz" : "");
        SCOPED_TRACE(name);
        std::string dir = env::NewScratchDir("colstore-layout");
        BufferCache cache(4096);
        LsmOptions opts;
        opts.format = format;
        opts.record_type = type;
        opts.compress = compress;
        opts.merge_policy = MergePolicy::None();  // keep every component
        auto tree = std::make_unique<LsmBTree>(&cache, dir, "t", opts);
        ASSERT_TRUE(tree->Open().ok());
        Model model;
        LayoutWriter w{tree.get(), &model, type};
        layout.build(w);
        ASSERT_GE(tree->num_disk_components(), 2u);
        bool batches = layout.batches && format == StorageFormat::kColumn;
        CheckLayout(*tree, model, type, batches, name);
        // Reopened: components come back from their files; the memtable is
        // gone (nothing replays it here), so the model drops it too.
        if (tree->mem_entries() == 0) {
          tree = std::make_unique<LsmBTree>(&cache, dir, "t", opts);
          ASSERT_TRUE(tree->Open().ok());
          CheckLayout(*tree, model, type, batches, name + "/reopened");
        }
        env::RemoveAll(dir);
      }
    }
  }
}

// Two disjoint column components that disagree on where a projected field
// lives: the older keeps "tag" in a promoted column, the newer in its
// catch-all (mixed types). BatchScan must refuse before the first batch —
// otherwise the vector scan's row fallback would repeat the rows already
// sent — and the vector scan must return every row exactly once.
TEST(ColumnStoreTest, MixedSchemaBatchScanRefusesBeforeAnyBatch) {
  adm::DatatypePtr type = TestType();
  std::string dir = env::NewScratchDir("colstore-mixed");
  BufferCache cache(4096);
  LsmOptions opts;
  opts.format = StorageFormat::kColumn;
  opts.record_type = type;
  LsmBTree tree(&cache, dir, "t", opts);
  ASSERT_TRUE(tree.Open().ok());
  auto record = [](int64_t id, Value tag) {
    RecordBuilder b;
    b.Add("id", Value::Int64(id));
    b.Add("name", Value::String("n"));
    b.Add("active", Value::Boolean(true));
    b.Add("payload", Value::String("p"));
    b.Add("tag", std::move(tag));
    return b.Build();
  };
  uint64_t lsn = 1;
  for (int64_t id = 0; id < 300; ++id) {
    Value tag = id < 150 || id % 2 == 0 ? Value::String("t" + std::to_string(id))
                                        : Value::Int64(id);
    ASSERT_TRUE(
        tree.Upsert({Value::Int64(id)}, Ser(record(id, tag), type), lsn++).ok());
    if (id == 149) {
      ASSERT_TRUE(tree.Flush().ok());
    }
  }
  ASSERT_TRUE(tree.Flush().ok());
  ASSERT_EQ(tree.num_disk_components(), 2u);
  size_t batches = 0;
  Status st = tree.BatchScan(
      ScanBounds{}, column::Projection::Of({"id", "tag"}),
      [&](const std::shared_ptr<column::ColumnBatch>&) {
        ++batches;
        return Status::OK();
      },
      nullptr);
  EXPECT_EQ(st.code(), StatusCode::kNotImplemented) << st.ToString();
  EXPECT_EQ(batches, 0u);
  // A projection both components hold in dedicated columns still batches.
  st = tree.BatchScan(
      ScanBounds{}, column::Projection::Of({"id"}),
      [&](const std::shared_ptr<column::ColumnBatch>& b) {
        batches += b->sel.size();
        return Status::OK();
      },
      nullptr);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(batches, 300u);
  env::RemoveAll(dir);
}

TEST(ColumnStoreTest, MixedSchemaVectorScanReturnsEachRowOnce) {
  std::string dir = env::NewScratchDir("colstore-mixed-api");
  api::InstanceConfig config;
  config.base_dir = dir;
  config.cluster.num_nodes = 1;
  config.cluster.partitions_per_node = 1;
  config.cluster.job_startup_us = 0;
  api::AsterixInstance inst(config);
  ASSERT_TRUE(inst.Boot().ok());
  auto ddl = inst.Execute(R"aql(
drop dataverse MixTest if exists;
create dataverse MixTest;
use dataverse MixTest;
create type MT as open { id: int64 }
create dataset M(MT) primary key id with { "storage-format": "column" };
)aql");
  ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
  // Two loads, each flushed into its own component: ids 0..99 carry a string
  // "tag" (promoted column), ids 100..199 a mix of strings and ints
  // (catch-all).
  for (int part = 0; part < 2; ++part) {
    std::string stmt = "use dataverse MixTest;\ninsert into dataset M ([";
    for (int i = part * 100; i < part * 100 + 100; ++i) {
      if (i != part * 100) stmt += ",";
      std::string tag = part == 1 && i % 2 == 1
                            ? std::to_string(i)
                            : "\"t" + std::to_string(i) + "\"";
      stmt += "{ \"id\": " + std::to_string(i) + ", \"tag\": " + tag + " }";
    }
    stmt += "]);";
    auto ins = inst.Execute(stmt);
    ASSERT_TRUE(ins.ok()) << ins.status().ToString();
    ASSERT_TRUE(inst.FlushAll().ok());
  }
  storage::PartitionedDataset* ds = inst.FindDataset("MixTest.M");
  ASSERT_NE(ds, nullptr);

  hyracks::JobSpec job;
  int scan = job.AddOperator(
      hyracks::MakeVectorScan(ds, column::Projection::Of({"id", "tag"})));
  int mat = job.AddOperator(hyracks::MakeVectorMaterialize(1));
  auto sink = std::make_shared<std::vector<hyracks::Tuple>>();
  int res = job.AddOperator(hyracks::MakeResultSink(sink));
  job.Connect(hyracks::ConnectorType::kOneToOne, scan, mat);
  job.Connect(hyracks::ConnectorType::kOneToOne, mat, res);
  auto stats = inst.cluster()->ExecuteJob(job);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  std::map<int64_t, int> seen;
  for (const auto& t : *sink) {
    ++seen[t[0].GetField("id").AsInt()];
    EXPECT_FALSE(t[0].GetField("tag").IsUnknown()) << t[0].ToString();
  }
  ASSERT_EQ(seen.size(), 200u);
  for (const auto& [id, n] : seen) EXPECT_EQ(n, 1) << "id " << id;
  env::RemoveAll(dir);
}

}  // namespace
}  // namespace storage
}  // namespace asterix
