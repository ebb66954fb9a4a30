#include <gtest/gtest.h>

#include "common/random.h"
#include "common/serde.h"
#include "common/status.h"
#include "common/units.h"

namespace rhino {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::IOError("disk on fire");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError());
  EXPECT_EQ(st.ToString(), "IOError: disk on fire");
}

TEST(StatusTest, FactoryCodesAreDistinct) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfMemory("x").code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::Aborted("x").code(), StatusCode::kAborted);
  EXPECT_EQ(Status::TimedOut("x").code(), StatusCode::kTimedOut);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Status UseAssignOrReturn(int x, int* out) {
  RHINO_ASSIGN_OR_RETURN(*out, ParsePositive(x));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(5, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_FALSE(UseAssignOrReturn(-1, &out).ok());
}

TEST(UnitsTest, TransferTimeMatchesBandwidth) {
  // 1 GiB at 1 GB/s should take ~1.074 s.
  SimTime t = TransferTime(kGiB, 1e9);
  EXPECT_NEAR(ToSeconds(t), 1.0737, 0.001);
}

TEST(UnitsTest, TransferTimeOfZeroBytesIsZero) {
  EXPECT_EQ(TransferTime(0, 1e9), 0);
}

TEST(UnitsTest, TransferTimeRoundsUpToOneMicrosecond) {
  EXPECT_GE(TransferTime(1, 1e12), 1);
}

TEST(UnitsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(kGiB + kGiB / 2), "1.50 GiB");
  EXPECT_EQ(FormatBytes(2 * kTiB), "2.00 TiB");
}

TEST(UnitsTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(90 * kSecond), "1.50 min");
  EXPECT_EQ(FormatDuration(250 * kMillisecond), "250.00 ms");
}

TEST(SerdeTest, RoundTripFixedWidth) {
  std::string buf;
  BinaryWriter w(&buf);
  w.PutU8(0xab);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefull);
  w.PutI64(-42);

  BinaryReader r(buf);
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  ASSERT_TRUE(r.GetI64(&i64).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(i64, -42);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, VarintBoundaries) {
  std::string buf;
  BinaryWriter w(&buf);
  std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                  ~0ull, 1ull << 63};
  for (uint64_t v : values) w.PutVarint(v);
  BinaryReader r(buf);
  for (uint64_t expected : values) {
    uint64_t v;
    ASSERT_TRUE(r.GetVarint(&v).ok());
    EXPECT_EQ(v, expected);
  }
}

TEST(SerdeTest, StringsWithEmbeddedNuls) {
  std::string buf;
  BinaryWriter w(&buf);
  std::string s1("a\0b", 3);
  w.PutString(s1);
  w.PutString("");
  BinaryReader r(buf);
  std::string out;
  ASSERT_TRUE(r.GetString(&out).ok());
  EXPECT_EQ(out, s1);
  ASSERT_TRUE(r.GetString(&out).ok());
  EXPECT_EQ(out, "");
}

TEST(SerdeTest, TruncationDetected) {
  std::string buf;
  BinaryWriter w(&buf);
  w.PutU64(7);
  BinaryReader r(std::string_view(buf).substr(0, 5));
  uint64_t v;
  EXPECT_EQ(r.GetU64(&v).code(), StatusCode::kCorruption);
}

TEST(SerdeTest, TruncatedStringDetected) {
  std::string buf;
  BinaryWriter w(&buf);
  w.PutVarint(100);  // claims a 100-byte string follows
  buf += "short";
  BinaryReader r(buf);
  std::string out;
  EXPECT_EQ(r.GetString(&out).code(), StatusCode::kCorruption);
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiverge) {
  Random a(1), b(2);
  int diffs = 0;
  for (int i = 0; i < 32; ++i) diffs += a.Next() != b.Next();
  EXPECT_GT(diffs, 28);
}

TEST(RandomTest, UniformStaysInRange) {
  Random rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, UniformIsRoughlyUniform) {
  Random rng(11);
  int counts[10] = {};
  for (int i = 0; i < 100000; ++i) ++counts[rng.Uniform(10)];
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

}  // namespace
}  // namespace rhino
