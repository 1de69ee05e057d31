// Model-checking property tests: the LSM B+-tree (under random workloads,
// flush points, merge policies, and restarts) must behave exactly like a
// std::map reference model; the disk B+-tree must agree with sorted vectors
// on every bound combination; and the sorted batch lookup (MultiGet) must
// answer exactly like one-key lookups in every LSM state, row and column.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <random>
#include <thread>

#include "adm/serde.h"
#include "common/env.h"
#include "storage/lsm.h"

namespace asterix {
namespace storage {
namespace {

using adm::Value;

struct LsmPropertyParam {
  uint32_t seed;
  size_t mem_budget;
  MergePolicy::Kind policy;
};

class LsmPropertyTest : public ::testing::TestWithParam<LsmPropertyParam> {};

TEST_P(LsmPropertyTest, MatchesReferenceModelThroughRestarts) {
  const auto& p = GetParam();
  std::string dir = env::NewScratchDir("lsm-prop");
  BufferCache cache(1024);

  LsmOptions options;
  options.mem_budget_bytes = p.mem_budget;
  options.merge_policy =
      p.policy == MergePolicy::Kind::kNone     ? MergePolicy::None()
      : p.policy == MergePolicy::Kind::kPrefix ? MergePolicy::Prefix(3, 1 << 20)
                                               : MergePolicy::Constant(3);

  std::map<int64_t, std::string> model;
  std::mt19937 rng(p.seed);

  auto tree = std::make_unique<LsmBTree>(&cache, dir, "t", options);
  ASSERT_TRUE(tree->Open().ok());

  uint64_t lsn = 1;
  for (int op = 0; op < 3000; ++op) {
    int64_t key = rng() % 500;
    int action = rng() % 10;
    if (action < 6) {  // upsert
      std::string payload = "v" + std::to_string(rng() % 1000);
      model[key] = payload;
      ASSERT_TRUE(tree->Upsert({Value::Int64(key)},
                               {payload.begin(), payload.end()}, lsn++)
                      .ok());
    } else if (action < 8) {  // delete
      model.erase(key);
      ASSERT_TRUE(tree->Delete({Value::Int64(key)}, lsn++).ok());
    } else if (action == 8) {  // point lookup check
      bool found;
      std::vector<uint8_t> payload;
      ASSERT_TRUE(tree->PointLookup({Value::Int64(key)}, &found, &payload).ok());
      auto it = model.find(key);
      ASSERT_EQ(found, it != model.end()) << "key " << key << " op " << op;
      if (found) {
        EXPECT_EQ(std::string(payload.begin(), payload.end()), it->second);
      }
    } else {  // occasionally flush, or "crash" and reopen from components
      if (rng() % 3 == 0) {
        ASSERT_TRUE(tree->Flush().ok());
        tree = std::make_unique<LsmBTree>(&cache, dir, "t", options);
        ASSERT_TRUE(tree->Open().ok());
      } else {
        ASSERT_TRUE(tree->Flush().ok());
      }
    }
  }

  // Final full-scan equivalence.
  std::map<int64_t, std::string> scanned;
  ASSERT_TRUE(tree->RangeScan({}, [&](const IndexEntry& e) {
    scanned[e.key[0].AsInt()] =
        std::string(e.payload.begin(), e.payload.end());
    return Status::OK();
  }).ok());
  EXPECT_EQ(scanned, model);

  // Random range scans agree with the model.
  for (int trial = 0; trial < 20; ++trial) {
    int64_t lo = rng() % 500;
    int64_t hi = lo + rng() % 100;
    bool lo_inc = rng() % 2 == 0;
    bool hi_inc = rng() % 2 == 0;
    ScanBounds bounds;
    bounds.lo = CompositeKey{Value::Int64(lo)};
    bounds.lo_inclusive = lo_inc;
    bounds.hi = CompositeKey{Value::Int64(hi)};
    bounds.hi_inclusive = hi_inc;
    std::vector<int64_t> got;
    ASSERT_TRUE(tree->RangeScan(bounds, [&](const IndexEntry& e) {
      got.push_back(e.key[0].AsInt());
      return Status::OK();
    }).ok());
    std::vector<int64_t> expected;
    for (const auto& [k, v] : model) {
      (void)v;
      if ((k > lo || (lo_inc && k == lo)) && (k < hi || (hi_inc && k == hi))) {
        expected.push_back(k);
      }
    }
    EXPECT_EQ(got, expected) << "range [" << lo << "," << hi << "] trial "
                             << trial;
  }
  env::RemoveAll(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, LsmPropertyTest,
    ::testing::Values(
        LsmPropertyParam{1, 1u << 10, MergePolicy::Kind::kNone},
        LsmPropertyParam{2, 1u << 10, MergePolicy::Kind::kConstant},
        LsmPropertyParam{3, 1u << 12, MergePolicy::Kind::kPrefix},
        LsmPropertyParam{4, 1u << 14, MergePolicy::Kind::kConstant},
        LsmPropertyParam{5, 1u << 16, MergePolicy::Kind::kNone},
        LsmPropertyParam{6, 256, MergePolicy::Kind::kConstant}));

/// "<prefix><n>", built by appending: GCC 12 misreports the equivalent
/// `"p" + std::to_string(n)` under -Wrestrict.
std::string Tag(const char* prefix, int64_t n) {
  std::string s(prefix);
  s += std::to_string(n);
  return s;
}

// ---------------------------------------------------------------------------
// Disk B+-tree: exhaustive bound combinations against a sorted vector
// ---------------------------------------------------------------------------

class BTreeBoundsTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BTreeBoundsTest, AllBoundCombinationsAgree) {
  std::string dir = env::NewScratchDir("btree-bounds");
  BufferCache cache(256);
  std::mt19937 rng(GetParam());
  // Sparse keys so bounds frequently fall between entries.
  std::vector<int64_t> keys;
  int64_t k = 0;
  for (int i = 0; i < 500; ++i) {
    k += 1 + rng() % 7;
    keys.push_back(k);
  }
  BTreeBuilder builder(dir + "/b.btr");
  for (int64_t key : keys) {
    IndexEntry e;
    e.key = {Value::Int64(key)};
    ASSERT_TRUE(builder.Add(e).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = BTreeReader::Open(&cache, dir + "/b.btr").take();

  for (int trial = 0; trial < 60; ++trial) {
    int64_t lo = rng() % (k + 10);
    int64_t hi = lo + rng() % 60;
    for (bool lo_inc : {true, false}) {
      for (bool hi_inc : {true, false}) {
        ScanBounds bounds;
        bounds.lo = CompositeKey{Value::Int64(lo)};
        bounds.lo_inclusive = lo_inc;
        bounds.hi = CompositeKey{Value::Int64(hi)};
        bounds.hi_inclusive = hi_inc;
        std::vector<int64_t> got;
        ASSERT_TRUE(reader->RangeScan(bounds, [&](const IndexEntry& e) {
          got.push_back(e.key[0].AsInt());
          return Status::OK();
        }).ok());
        std::vector<int64_t> expected;
        for (int64_t key : keys) {
          if ((key > lo || (lo_inc && key == lo)) &&
              (key < hi || (hi_inc && key == hi))) {
            expected.push_back(key);
          }
        }
        EXPECT_EQ(got, expected)
            << "[" << lo << (lo_inc ? "..=" : "<..") << hi
            << (hi_inc ? "]" : ")");
      }
    }
  }
  env::RemoveAll(dir);
}


INSTANTIATE_TEST_SUITE_P(Seeds, BTreeBoundsTest,
                         ::testing::Values(11u, 22u, 33u));

// The leaf walk: sparse keys over many leaves, batches that stay inside a
// leaf, hop to the next one, or jump far ahead, with duplicates and keys
// equal to leaf separators.
TEST_P(BTreeBoundsTest, MultiGetAgreesWithSortedVector) {
  std::string dir = env::NewScratchDir("btree-multiget");
  BufferCache cache(256);
  std::mt19937 rng(GetParam());
  std::vector<int64_t> keys;
  int64_t k = 0;
  BTreeBuilder builder(dir + "/b.btr");
  for (int i = 0; i < 3000; ++i) {
    k += 1 + rng() % 5;
    keys.push_back(k);
    IndexEntry e;
    e.key = {Value::Int64(k)};
    e.antimatter = k % 7 == 0;
    std::string payload = Tag("p", k);
    e.payload.assign(payload.begin(), payload.end());
    ASSERT_TRUE(builder.Add(e).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = BTreeReader::Open(&cache, dir + "/b.btr").take();
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<CompositeKey> probe;
    int64_t at = static_cast<int64_t>(rng() % 50);
    int64_t stride = 1 + static_cast<int64_t>(rng() % (trial % 2 ? 4 : 400));
    for (int i = 0; i < 256 && at <= k + 10; ++i) {
      probe.push_back({Value::Int64(at)});
      if (rng() % 10 == 0) probe.push_back({Value::Int64(at)});
      at += 1 + static_cast<int64_t>(rng() % stride);
    }
    std::vector<const CompositeKey*> ptrs;
    for (const auto& key : probe) ptrs.push_back(&key);
    std::vector<int> hits(probe.size(), 0);
    ASSERT_TRUE(reader->MultiGet(ptrs, [&](size_t i, IndexEntry& e) {
      int64_t key = probe[i][0].AsInt();
      EXPECT_EQ(e.key[0].AsInt(), key);
      EXPECT_EQ(e.antimatter, key % 7 == 0);
      EXPECT_EQ(std::string(e.payload.begin(), e.payload.end()),
                Tag("p", key));
      ++hits[i];
      return Status::OK();
    }).ok());
    for (size_t i = 0; i < probe.size(); ++i) {
      int64_t key = probe[i][0].AsInt();
      bool present = std::binary_search(keys.begin(), keys.end(), key);
      EXPECT_EQ(hits[i], present ? 1 : 0) << "key " << key;
    }
  }
  env::RemoveAll(dir);
}

// ---------------------------------------------------------------------------
// Sorted batch lookup: MultiGet against one-key resolution
// ---------------------------------------------------------------------------

adm::DatatypePtr KvType() {
  std::vector<adm::FieldType> fields;
  fields.push_back(
      {"id", adm::Datatype::Primitive(adm::TypeTag::kInt64), false});
  fields.push_back(
      {"v", adm::Datatype::Primitive(adm::TypeTag::kString), false});
  return adm::Datatype::MakeRecord("KvT", std::move(fields), /*open=*/true);
}

std::vector<uint8_t> KvPayload(const adm::DatatypePtr& type, int64_t id,
                               const std::string& v) {
  adm::RecordBuilder b;
  b.Add("id", Value::Int64(id));
  b.Add("v", Value::String(v));
  std::vector<uint8_t> buf;
  BytesWriter w(&buf);
  EXPECT_TRUE(adm::SerializeTyped(b.Build(), type, &w).ok());
  return buf;
}

std::string KvValue(const adm::DatatypePtr& type,
                    const std::vector<uint8_t>& payload) {
  BytesReader r(payload);
  Value rec;
  EXPECT_TRUE(adm::DeserializeTyped(&r, type, &rec).ok());
  return rec.GetField("v").AsString();
}

/// Occupies a one-thread scheduler's only worker until released, so a
/// rotated memtable's flush stays queued and imm_ stays visible.
class ParkedWorker : public Compactable {
 public:
  Status BackgroundFlush() override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return released_; });
    return Status::OK();
  }
  Status BackgroundMerge() override { return Status::OK(); }
  const std::string& compaction_label() const override { return name_; }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::string name_ = "parked";
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
};

class MultiGetEquivalenceTest
    : public ::testing::TestWithParam<StorageFormat> {};

TEST_P(MultiGetEquivalenceTest, MatchesPerKeyLookupInEveryLsmState) {
  std::string dir = env::NewScratchDir("lsm-multiget");
  BufferCache cache(1024);
  adm::DatatypePtr type = KvType();
  CompactionScheduler sched({/*threads=*/1, /*queue_limit=*/64});
  LsmOptions options;
  options.format = GetParam();
  options.record_type = type;
  options.mem_budget_bytes = 4096;
  options.merge_policy = MergePolicy::None();
  options.scheduler = &sched;

  std::map<int64_t, std::string> model;
  std::mt19937 rng(GetParam() == StorageFormat::kRow ? 17 : 71);
  uint64_t lsn = 1;
  auto tree = std::make_unique<LsmBTree>(&cache, dir, "t", options);
  ASSERT_TRUE(tree->Open().ok());
  // Keys live in [0, 700); mostly upserts, a quarter deletes (antimatter).
  auto mutate = [&](int ops) {
    for (int op = 0; op < ops; ++op) {
      int64_t key = static_cast<int64_t>(rng() % 700);
      if (rng() % 4 == 0) {
        model.erase(key);
        ASSERT_TRUE(tree->Delete({Value::Int64(key)}, lsn++).ok());
      } else {
        std::string v = Tag("v", rng() % 100000);
        model[key] = v;
        ASSERT_TRUE(
            tree->Upsert({Value::Int64(key)}, KvPayload(type, key, v), lsn++)
                .ok());
      }
    }
  };
  // Random sorted batches, present and missing keys, with runs of
  // duplicates, including batches wider than a column row group.
  auto check = [&](const std::string& state) {
    SCOPED_TRACE(state);
    for (int trial = 0; trial < 12; ++trial) {
      size_t n = trial == 0 ? 0 : 1 + rng() % (trial % 2 ? 40 : 600);
      std::vector<CompositeKey> keys;
      for (size_t i = 0; i < n; ++i) {
        int64_t k = static_cast<int64_t>(rng() % 800);
        size_t copies = rng() % 8 == 0 ? 2 + rng() % 3 : 1;
        for (size_t c = 0; c < copies; ++c) keys.push_back({Value::Int64(k)});
      }
      std::sort(keys.begin(), keys.end(), [](const auto& a, const auto& b) {
        return CompareKeys(a, b) < 0;
      });
      std::vector<LsmBTree::LookupResult> got;
      ASSERT_TRUE(tree->MultiGet(keys, &got, nullptr).ok());
      ASSERT_EQ(got.size(), keys.size());
      for (size_t i = 0; i < keys.size(); ++i) {
        int64_t k = keys[i][0].AsInt();
        bool found = false;
        std::vector<uint8_t> payload;
        ASSERT_TRUE(tree->PointLookup(keys[i], &found, &payload).ok());
        ASSERT_EQ(got[i].found, found) << "key " << k;
        auto it = model.find(k);
        ASSERT_EQ(found, it != model.end()) << "key " << k;
        if (!found) continue;
        EXPECT_EQ(got[i].payload, payload) << "key " << k;
        EXPECT_EQ(KvValue(type, got[i].payload), it->second) << "key " << k;
      }
    }
  };

  mutate(40);
  ASSERT_EQ(tree->num_disk_components(), 0u);
  check("mem only");

  for (int round = 0; round < 3; ++round) {
    mutate(150);
    ASSERT_TRUE(tree->Flush().ok());
  }
  ASSERT_GE(tree->num_disk_components(), 3u);
  check("multi-component");

  // Park the only worker, then cross the budget: the rotated memtable's
  // flush stays queued, so reads resolve through mem_, imm_ and disk.
  ParkedWorker parked;
  ASSERT_TRUE(sched.Schedule(&parked, CompactionJobKind::kFlush));
  size_t before = tree->mem_entries();
  mutate(60);
  ASSERT_LT(tree->mem_entries(), before + 60) << "no rotation happened";
  check("mem+imm+disk");
  parked.Release();
  ASSERT_TRUE(tree->Flush().ok());
  check("flushed");

  // Merge every component into one, then reopen from the files.
  sched.Release(tree.get());
  options.scheduler = nullptr;
  options.merge_policy = MergePolicy::Constant(1);
  tree = std::make_unique<LsmBTree>(&cache, dir, "t", options);
  ASSERT_TRUE(tree->Open().ok());
  ASSERT_TRUE(tree->MaybeMerge().ok());
  ASSERT_EQ(tree->num_disk_components(), 1u);
  check("merged");
  mutate(80);
  ASSERT_TRUE(tree->Flush().ok());
  tree = std::make_unique<LsmBTree>(&cache, dir, "t", options);
  ASSERT_TRUE(tree->Open().ok());
  check("reopened");
  tree.reset();
  env::RemoveAll(dir);
}

INSTANTIATE_TEST_SUITE_P(Formats, MultiGetEquivalenceTest,
                         ::testing::Values(StorageFormat::kRow,
                                           StorageFormat::kColumn),
                         [](const auto& info) {
                           return info.param == StorageFormat::kRow
                                      ? std::string("Row")
                                      : std::string("Column");
                         });

// Batch readers race writers that keep rotating, flushing and merging the
// tree (the TSan job runs this): every batch must see each key either
// absent or at one of the versions written for that key, and the keys no
// writer touches must always be there.
TEST(MultiGetConcurrencyTest, BatchReadersRaceFlushAndMerge) {
  std::string dir = env::NewScratchDir("lsm-multiget-race");
  BufferCache cache(512);
  adm::DatatypePtr type = KvType();
  CompactionScheduler sched({/*threads=*/2, /*queue_limit=*/64});
  for (StorageFormat format : {StorageFormat::kRow, StorageFormat::kColumn}) {
    LsmOptions options;
    options.format = format;
    options.record_type = type;
    options.mem_budget_bytes = 2048;
    options.merge_policy = MergePolicy::Constant(3);
    options.scheduler = &sched;
    std::string name = format == StorageFormat::kRow ? "row" : "col";
    LsmBTree tree(&cache, dir, name, options);
    ASSERT_TRUE(tree.Open().ok());
    // Even keys are stable; odd keys get rewritten and deleted.
    for (int64_t k = 0; k < 400; k += 2) {
      ASSERT_TRUE(tree.Upsert({Value::Int64(k)},
                              KvPayload(type, k, Tag("k", k)),
                              static_cast<uint64_t>(k) + 1)
                      .ok());
    }
    ASSERT_TRUE(tree.Flush().ok());
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> batches{0};
    auto reader = [&](uint32_t seed) {
      std::mt19937 rng(seed);
      while (!stop.load()) {
        std::vector<CompositeKey> keys;
        int64_t k = static_cast<int64_t>(rng() % 300);
        for (int i = 0; i < 64; ++i) {
          keys.push_back({Value::Int64(k)});
          k += 1 + static_cast<int64_t>(rng() % 3);
        }
        std::vector<LsmBTree::LookupResult> got;
        ASSERT_TRUE(tree.MultiGet(keys, &got, nullptr).ok());
        for (size_t i = 0; i < keys.size(); ++i) {
          int64_t key = keys[i][0].AsInt();
          if (key % 2 == 0) {
            ASSERT_EQ(got[i].found, key < 400) << "stable key " << key;
          }
          if (!got[i].found) continue;
          std::string v = KvValue(type, got[i].payload);
          ASSERT_EQ(v.rfind(Tag("k", key), 0), 0u)
              << "key " << key << " read " << v;
        }
        batches.fetch_add(1);
      }
    };
    std::thread r1(reader, 1), r2(reader, 2);
    uint64_t lsn = 1000;
    std::mt19937 wrng(5);
    for (int i = 0; i < 1500; ++i) {
      int64_t k = 2 * static_cast<int64_t>(wrng() % 200) + 1;
      if (wrng() % 5 == 0) {
        ASSERT_TRUE(tree.Delete({Value::Int64(k)}, lsn++).ok());
      } else {
        std::string v = Tag("k", k);
        v += '.';
        v += std::to_string(i);
        ASSERT_TRUE(
            tree.Upsert({Value::Int64(k)}, KvPayload(type, k, v), lsn++).ok());
      }
    }
    ASSERT_TRUE(tree.Flush().ok());
    stop.store(true);
    r1.join();
    r2.join();
    EXPECT_GT(batches.load(), 0u);
    sched.Release(&tree);
  }
  env::RemoveAll(dir);
}

}  // namespace
}  // namespace storage
}  // namespace asterix
