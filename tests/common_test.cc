#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/exit_codes.h"
#include "common/flags.h"
#include "common/memory.h"
#include "common/random.h"
#include "common/status.h"
#include "common/table.h"
#include "common/timer.h"

namespace graphalign {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad graph");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad graph");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad graph");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kNotFound,
        StatusCode::kResourceExhausted, StatusCode::kInternal,
        StatusCode::kNotImplemented}) {
    EXPECT_STRNE(StatusCodeName(c), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> HalfOf(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterOf(int x) {
  GA_ASSIGN_OR_RETURN(int half, HalfOf(x));
  GA_ASSIGN_OR_RETURN(int quarter, HalfOf(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*QuarterOf(8), 2);
  EXPECT_FALSE(QuarterOf(6).ok());  // 6/2 = 3 is odd.
  EXPECT_FALSE(QuarterOf(7).ok());
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) counts[rng.UniformInt(uint64_t{10})]++;
  for (int c : counts) EXPECT_NEAR(c, 5000, 400);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(int64_t{-2}, int64_t{2});
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, PowerLawRespectsMinimum) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.PowerLaw(2.5, 3.0), 3.0);
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkedStreamsAreIndependent) {
  Rng parent(29);
  Rng child = parent.Fork();
  // The child stream should not replay the parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent.Next() == child.Next());
  EXPECT_LT(same, 4);
}

TEST(RandomPermutationTest, IsAPermutation) {
  Rng rng(31);
  std::vector<int> p = RandomPermutation(100, &rng);
  std::vector<bool> seen(100, false);
  for (int x : p) {
    ASSERT_GE(x, 0);
    ASSERT_LT(x, 100);
    ASSERT_FALSE(seen[x]);
    seen[x] = true;
  }
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer t;
  // Busy-wait until the monotonic clock visibly advances.
  double elapsed = 0.0;
  for (int i = 0; i < 100000000 && elapsed <= 0.0; ++i) elapsed = t.Seconds();
  EXPECT_GT(elapsed, 0.0);
  EXPECT_NEAR(t.Millis(), t.Seconds() * 1e3, 1.0);
  t.Restart();
  EXPECT_LT(t.Seconds(), 1.0);
}

TEST(MemoryTest, PeakRssIsPositiveOnLinux) {
  EXPECT_GT(PeakRssBytes(), 0);
  EXPECT_GT(CurrentRssBytes(), 0);
}

TEST(MemoryTest, MeasurePeakMemoryDetectsAllocation) {
  auto base = MeasurePeakMemoryMb([] {});
  ASSERT_TRUE(base.ok());
  auto big = MeasurePeakMemoryMb([] {
    std::vector<double> v(16 * 1024 * 1024, 1.5);  // 128 MiB.
    volatile double sink = v[12345];
    (void)sink;
  });
  ASSERT_TRUE(big.ok());
  EXPECT_GT(*big, *base + 100.0);
}

TEST(TableTest, AlignedAndCsvOutput) {
  Table t({"algo", "acc"});
  t.AddRow({"IsoRank", Table::Num(0.91)});
  t.AddRow({"GWL", Table::Num(std::nan(""))});
  EXPECT_EQ(t.num_rows(), 2u);

  std::ostringstream text;
  t.Print(text);
  EXPECT_NE(text.str().find("IsoRank"), std::string::npos);
  EXPECT_NE(text.str().find("0.910"), std::string::npos);

  std::ostringstream csv;
  t.PrintCsv(csv);
  EXPECT_EQ(csv.str(), "algo,acc\nIsoRank,0.910\nGWL,-\n");
}

TEST(TableTest, CsvEscaping) {
  Table t({"name"});
  t.AddRow({"a,b \"c\""});
  std::ostringstream csv;
  t.PrintCsv(csv);
  EXPECT_EQ(csv.str(), "name\n\"a,b \"\"c\"\"\"\n");
}

TEST(ParseTest, StrictPositiveIntAcceptsWholeNumbers) {
  auto v = ParseInt("42", 1, kMaxInt);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(*ParseInt("1", 1, kMaxInt), 1);
}

TEST(ParseTest, StrictPositiveIntRejectsJunk) {
  for (const char* bad : {"", "0", "-3", "4x", "x4", "4.5", " 4", "4 ",
                          "99999999999999999999", "+", "--2", "0x10"}) {
    EXPECT_FALSE(ParseInt(bad, 1, kMaxInt).ok()) << "'" << bad << "'";
  }
}

TEST(ParseTest, StrictPositiveDouble) {
  auto v = ParseDouble("2.5", kPositive, kMaxDouble);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(*v, 2.5);
  for (const char* bad : {"", "0", "-1.5", "2.5x", "nan", "inf", "1e400"}) {
    EXPECT_FALSE(ParseDouble(bad, kPositive, kMaxDouble).ok())
        << "'" << bad << "'";
  }
}

TEST(ParseTest, StrictUint64) {
  auto v = ParseUint64("18446744073709551615", 0, kMaxUint64);  // 2^64 - 1.
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 18446744073709551615ull);
  EXPECT_EQ(*ParseUint64("0", 0, kMaxUint64), 0ull);  // Zero is valid.
  for (const char* bad : {"", "-1", "18446744073709551616", "12a", "1.0"}) {
    EXPECT_FALSE(ParseUint64(bad, 0, kMaxUint64).ok()) << "'" << bad << "'";
  }
}

TEST(ExitCodesTest, ValuesArePinned) {
  // These values are a public contract: scripts, the bench journal, and the
  // service protocol all interpret them. They can never be renumbered.
  EXPECT_EQ(kExitOk, 0);
  EXPECT_EQ(kExitError, 1);
  EXPECT_EQ(kExitUsage, 2);
  EXPECT_EQ(kExitDnf, 3);
  EXPECT_EQ(kExitCrash, 4);
  EXPECT_EQ(kExitOom, 5);
  EXPECT_EQ(kExitBusy, 6);
  EXPECT_EQ(kExitNumerical, 7);
  EXPECT_EQ(kExitShuttingDown, 8);
  EXPECT_EQ(kExitShed, 9);
  EXPECT_EQ(kExitQuarantined, 10);
}

TEST(Crc32cTest, MatchesKnownVectors) {
  // The canonical CRC32C check value plus the RFC 3720 (iSCSI) vectors: a
  // wrong polynomial, init, reflection, or final XOR fails at least one.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0x00000000u);
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(std::string(32, '\xff')), 0x62A8AB43u);
  std::string ascending(32, '\0');
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<char>(i);
  EXPECT_EQ(Crc32c(ascending), 0x46DD794Eu);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  const std::string data = "the durable cache log payload";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32cInit();
    crc = Crc32cUpdate(crc, data.data(), split);
    crc = Crc32cUpdate(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(Crc32cFinish(crc), Crc32c(data)) << "split at " << split;
  }
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  const std::string data = "GAR1-framed cache record";
  const uint32_t good = Crc32c(data);
  for (size_t pos = 0; pos < data.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = data;
      flipped[pos] = static_cast<char>(flipped[pos] ^ (1 << bit));
      EXPECT_NE(Crc32c(flipped), good) << "pos " << pos << " bit " << bit;
    }
  }
}

}  // namespace
}  // namespace graphalign
