// Row-vs-column equivalence: the columnar LSM component format must be an
// invisible physical choice. Random open/closed records go into a row-format
// and a column-format LSM B+-tree side by side; full scans, projected scans,
// range-filtered scans, and post-merge/post-reopen reads must produce
// identical logical results — while the columnar side reads fewer bytes for
// narrow projections and skips page groups via min/max stats.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "adm/serde.h"
#include "api/asterix.h"
#include "common/bytes.h"
#include "common/env.h"
#include "common/metrics.h"
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

}  // namespace
}  // namespace storage
}  // namespace asterix
