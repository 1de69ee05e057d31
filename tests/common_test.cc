#include <gtest/gtest.h>

#include <random>

#include "common/bytes.h"
#include "common/compress.h"
#include "common/env.h"
#include "common/status.h"
#include "common/string_utils.h"

namespace asterix {
namespace {

// ---------------------------------------------------------------------------
// Bytes
// ---------------------------------------------------------------------------

TEST(BytesTest, VarintRoundTrip) {
  BytesWriter w;
  std::vector<uint64_t> values = {0, 1, 127, 128, 300, 1u << 20, 0xffffffffull,
                                  0xffffffffffffffffull};
  for (uint64_t v : values) w.PutVarint(v);
  BytesReader r(w.data());
  for (uint64_t v : values) {
    uint64_t got;
    ASSERT_TRUE(r.GetVarint(&got).ok());
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, SignedVarintZigZag) {
  BytesWriter w;
  std::vector<int64_t> values = {0, -1, 1, -64, 63, -1000000,
                                 INT64_MIN, INT64_MAX};
  for (int64_t v : values) w.PutVarintSigned(v);
  BytesReader r(w.data());
  for (int64_t v : values) {
    int64_t got;
    ASSERT_TRUE(r.GetVarintSigned(&got).ok());
    EXPECT_EQ(got, v);
  }
}

TEST(BytesTest, OverrunReturnsCorruption) {
  BytesWriter w;
  w.PutU32(7);
  BytesReader r(w.data());
  uint64_t v64;
  EXPECT_EQ(r.GetU64(&v64).code(), StatusCode::kCorruption);
  std::string s;
  EXPECT_FALSE(BytesReader(w.data()).GetString(&s).ok() &&
               s.size() > 100);  // string length 7 > remaining bytes
}

TEST(BytesTest, Crc32Stability) {
  const char* data = "hello crc";
  uint32_t a = Crc32(data, 9);
  uint32_t b = Crc32(data, 9);
  EXPECT_EQ(a, b);
  EXPECT_NE(Crc32("hello crd", 9), a);
  EXPECT_EQ(Crc32("", 0), 0u);
}

// ---------------------------------------------------------------------------
// Compression
// ---------------------------------------------------------------------------

class CompressTest : public ::testing::TestWithParam<int> {};

TEST_P(CompressTest, RoundTrip) {
  std::mt19937 rng(static_cast<uint32_t>(GetParam()));
  std::vector<uint8_t> data;
  switch (GetParam() % 4) {
    case 0:  // empty
      break;
    case 1:  // highly repetitive
      for (int i = 0; i < 5000; ++i) data.push_back("abcabcab"[i % 8]);
      break;
    case 2:  // random (incompressible)
      for (int i = 0; i < 3000; ++i) data.push_back(static_cast<uint8_t>(rng()));
      break;
    default:  // structured: repeated small records
      for (int i = 0; i < 500; ++i) {
        const char* rec = "user-since:2013-07-01|city:San Hugo|";
        data.insert(data.end(), rec, rec + 37);
        data.push_back(static_cast<uint8_t>(i));
      }
  }
  auto compressed = LzCompress(data.data(), data.size());
  std::vector<uint8_t> back;
  ASSERT_TRUE(LzDecompress(compressed.data(), compressed.size(), &back).ok());
  EXPECT_EQ(back, data);
  if (GetParam() % 4 == 1 || GetParam() % 4 == 3) {
    EXPECT_LT(compressed.size(), data.size() / 2);  // repetitive data shrinks
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, CompressTest, ::testing::Range(0, 8));

TEST(CompressTest2, RejectsCorruptStream) {
  std::vector<uint8_t> data(1000, 'x');
  auto compressed = LzCompress(data.data(), data.size());
  compressed[compressed.size() / 2] ^= 0x7f;
  std::vector<uint8_t> back;
  Status st = LzDecompress(compressed.data(), compressed.size(), &back);
  // Either detected as corrupt or produces the wrong bytes -- never crashes.
  if (st.ok()) EXPECT_NE(back, data);
}

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(ResultTest, StatusIsOkOnValueAndTheErrorOnFailure) {
  Result<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good.status().ok());
  EXPECT_EQ(good.status().code(), StatusCode::kOk);
  EXPECT_EQ(good.value(), 7);

  Result<int> bad(Status::NotFound("no such key"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(bad.status().message(), "no such key");
}

// ---------------------------------------------------------------------------
// Strings
// ---------------------------------------------------------------------------

TEST(StringUtilsTest, LikeMatching) {
  EXPECT_TRUE(LikeMatch("hello", "h%o"));
  EXPECT_TRUE(LikeMatch("hello", "_ello"));
  EXPECT_TRUE(LikeMatch("hello", "%"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("abcabc", "%abc"));
  EXPECT_FALSE(LikeMatch("abc", "abcd%"));
  EXPECT_TRUE(LikeMatch("a%b", "a%b"));  // literal traversal still matches
}

TEST(StringUtilsTest, SplitAndTrim) {
  auto parts = SplitString("a|b||c", '|');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(TrimString("  x y  "), "x y");
  EXPECT_EQ(TrimString(""), "");
}

// ---------------------------------------------------------------------------
// Env
// ---------------------------------------------------------------------------

TEST(EnvTest, AtomicWriteAndRead) {
  std::string dir = env::NewScratchDir("env-test");
  std::string path = dir + "/f.bin";
  std::vector<uint8_t> data = {1, 2, 3, 4, 5};
  ASSERT_TRUE(env::WriteFileAtomic(path, data.data(), data.size()).ok());
  EXPECT_EQ(env::FileSize(path), 5u);
  std::vector<uint8_t> back;
  ASSERT_TRUE(env::ReadFile(path, &back).ok());
  EXPECT_EQ(back, data);
  // No temp file left behind.
  std::vector<std::string> names;
  ASSERT_TRUE(env::ListDir(dir, &names).ok());
  EXPECT_EQ(names.size(), 1u);
  env::RemoveAll(dir);
  EXPECT_FALSE(env::Exists(path));
}

}  // namespace
}  // namespace asterix
