// The shared reader for numbers from outside the program (common/flags.h):
// whole-string range-checked parses, the --key value reader every command
// line goes through, and the GRAPHALIGN_THREADS resolution built on it.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/flags.h"
#include "common/parallel.h"

namespace graphalign {
namespace {

// FlagReader over {"prog", args...}, read from index 1.
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    storage.insert(storage.begin(), "prog");
    for (const std::string& s : storage) ptrs.push_back(s.c_str());
  }
  FlagReader Reader() const {
    return FlagReader(static_cast<int>(ptrs.size()), ptrs.data(), 1);
  }
  std::vector<std::string> storage;
  std::vector<const char*> ptrs;
};

// --- Whole-string parses ---------------------------------------------

TEST(ParseRangeTest, RangesWithAndWithoutZero) {
  EXPECT_EQ(*ParseInt("0", 0, 65535), 0);
  EXPECT_EQ(*ParseInt("65535", 0, 65535), 65535);
  EXPECT_FALSE(ParseInt("65536", 0, 65535).ok());
  EXPECT_FALSE(ParseInt("0", 1, 65535).ok());
  EXPECT_FALSE(ParseInt("-1", 0, 65535).ok());
  EXPECT_DOUBLE_EQ(*ParseDouble("0", 0.0, kMaxDouble), 0.0);
  EXPECT_FALSE(ParseDouble("0", kPositive, kMaxDouble).ok());
  EXPECT_FALSE(ParseDouble("-0.5", 0.0, kMaxDouble).ok());
  EXPECT_DOUBLE_EQ(*ParseDouble("1", 0.0, 1.0), 1.0);
  EXPECT_FALSE(ParseDouble("1.01", 0.0, 1.0).ok());
  EXPECT_FALSE(ParseUint64("0", 1, kMaxUint64).ok());
}

TEST(ParseRangeTest, WholeStringInfAndNan) {
  for (const char* bad : {"inf", "-inf", "infinity", "nan", "NAN", "5x",
                          "5 ", " 5", "0.2x", "64MB", "abc"}) {
    EXPECT_FALSE(ParseDouble(bad, -kMaxDouble, kMaxDouble).ok())
        << "'" << bad << "'";
  }
  EXPECT_DOUBLE_EQ(*ParseDouble("1e3", 0.0, kMaxDouble), 1000.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("-2.5", -kMaxDouble, kMaxDouble), -2.5);
}

TEST(ParseRangeTest, MessageNamesValueFlagAndRange) {
  EXPECT_EQ(ParseInt("5x", 1, kMaxInt, "--reps").status().message(),
            "invalid value '5x' for --reps (expected a positive integer)");
  EXPECT_EQ(ParseInt("2000", 1, 1024, "--threads").status().message(),
            "invalid value '2000' for --threads (expected an integer in "
            "1..1024)");
  EXPECT_EQ(ParseUint64("-1", 0, kMaxUint64, "--seed").status().message(),
            "invalid value '-1' for --seed (expected a non-negative "
            "integer)");
  EXPECT_EQ(ParseDouble("abc", kPositive, kMaxDouble, "--time-limit",
                        "seconds")
                .status()
                .message(),
            "invalid value 'abc' for --time-limit (expected a positive "
            "number of seconds)");
  EXPECT_EQ(ParseDouble("2", 0.0, 1.0, "--level").status().message(),
            "invalid value '2' for --level (expected a number in [0, 1])");
  EXPECT_EQ(ParseDouble("0", kPositive, 1.0, "--scale").status().message(),
            "invalid value '0' for --scale (expected a number in (0, 1])");
}

// --- FlagReader ---------------------------------------------------------

TEST(FlagReaderTest, SplitsValuesAndBareFlags) {
  Argv argv({"--n", "20", "--sparse", "--level", "-0.5", "--out", "x.txt"});
  FlagReader flags = argv.Reader();
  EXPECT_EQ(flags.Int("n", 0, 1, kMaxInt), 20);
  EXPECT_TRUE(flags.Has("sparse"));
  EXPECT_FALSE(flags.HasValue("sparse"));
  EXPECT_TRUE(flags.HasValue("out"));
  EXPECT_EQ(flags.String("out"), "x.txt");
  // "-0.5" does not start with "--", so it is --level's value.
  EXPECT_DOUBLE_EQ(flags.Double("level", 0.0, -1.0, 1.0), -0.5);
  EXPECT_TRUE(flags.ok()) << flags.status().ToString();
}

TEST(FlagReaderTest, AbsentFlagsReturnTheFallback) {
  Argv argv({});
  FlagReader flags = argv.Reader();
  EXPECT_FALSE(flags.Has("port"));
  // A fallback outside the range is a sentinel, not an error.
  EXPECT_EQ(flags.Int("port", -1, 0, 65535), -1);
  EXPECT_EQ(flags.Uint64("seed", 2023), 2023u);
  EXPECT_DOUBLE_EQ(flags.Double("grace", 10.0, 0.0, kMaxDouble), 10.0);
  EXPECT_EQ(flags.String("assign", "JV"), "JV");
  EXPECT_FALSE(flags.Switch("full"));
  EXPECT_TRUE(flags.ok());
}

TEST(FlagReaderTest, FirstErrorSticks) {
  Argv argv({"--reps", "5x", "--seed", "-1", "--time-limit", "abc"});
  FlagReader flags = argv.Reader();
  EXPECT_EQ(flags.Int("reps", 7, 1, kMaxInt), 7);  // Bad value: fallback.
  EXPECT_EQ(flags.Uint64("seed", 9), 9u);
  EXPECT_DOUBLE_EQ(flags.Double("time-limit", 1.5, kPositive, kMaxDouble),
                   1.5);
  ASSERT_FALSE(flags.ok());
  EXPECT_EQ(flags.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(flags.status().message(),
            "invalid value '5x' for --reps (expected a positive integer)");
}

TEST(FlagReaderTest, ZeroAllowedOnlyWhereTheRangeSaysSo) {
  Argv argv({"--port", "0", "--quarantine", "0", "--grace", "0",
             "--retries", "0", "--workers", "0"});
  FlagReader flags = argv.Reader();
  EXPECT_EQ(flags.Int("port", -1, 0, 65535), 0);
  EXPECT_EQ(flags.Int("quarantine", 3, 0, kMaxInt), 0);
  EXPECT_DOUBLE_EQ(flags.Double("grace", 10.0, 0.0, kMaxDouble), 0.0);
  EXPECT_EQ(flags.Int("retries", 1, 0, 100), 0);
  EXPECT_TRUE(flags.ok()) << flags.status().ToString();
  EXPECT_EQ(flags.Int("workers", 4, 1, kMaxInt), 4);
  EXPECT_FALSE(flags.ok());
  EXPECT_NE(flags.status().message().find("--workers"), std::string::npos);
}

TEST(FlagReaderTest, ValueTakingFlagGivenNoValue) {
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--reps"},
        std::vector<std::string>{"--reps", "--full"}}) {
    Argv argv(args);
    FlagReader flags = argv.Reader();
    EXPECT_EQ(flags.Int("reps", 3, 1, kMaxInt), 3);
    ASSERT_FALSE(flags.ok());
    EXPECT_EQ(flags.status().message(), "missing value for --reps");
  }
  Argv argv({"--csv"});
  FlagReader flags = argv.Reader();
  EXPECT_EQ(flags.String("csv"), "");
  EXPECT_EQ(flags.status().message(), "missing value for --csv");
}

TEST(FlagReaderTest, SwitchGivenAValueIsAnError) {
  Argv argv({"--full", "5"});
  FlagReader flags = argv.Reader();
  EXPECT_TRUE(flags.Switch("full"));
  EXPECT_FALSE(flags.ok());
  EXPECT_NE(flags.status().message().find("--full takes no value"),
            std::string::npos);
}

TEST(FlagReaderTest, PositionalArgumentIsAnError) {
  Argv argv({"--n", "5", "stray", "--m", "3"});
  FlagReader flags = argv.Reader();
  ASSERT_FALSE(flags.ok());
  EXPECT_EQ(flags.status().message(),
            "unexpected positional argument: stray");
}

TEST(FlagReaderTest, UnreadListsFlagsNeverAskedFor) {
  Argv argv({"--reps", "3", "--bogus", "--csv", "x", "--extra", "1"});
  FlagReader flags = argv.Reader();
  EXPECT_EQ(flags.Int("reps", 1, 1, kMaxInt), 3);
  EXPECT_FALSE(flags.Has("json"));  // Absent keys are not listed either.
  flags.Has("csv");                  // Has() counts as a read.
  EXPECT_EQ(flags.Unread(), (std::vector<std::string>{"--bogus", "--extra"}));
}

TEST(FlagReaderTest, LastRepeatWins) {
  Argv argv({"--seed", "1", "--seed", "2"});
  FlagReader flags = argv.Reader();
  EXPECT_EQ(flags.Uint64("seed", 0), 2u);
}

// --- GRAPHALIGN_THREADS (parse helper only: no pool is built here) ------

TEST(ThreadCountFromEnvTest, AcceptsWholeCountsUpToTheCap) {
  EXPECT_EQ(ThreadCountFromEnv("4", 8), 4);
  EXPECT_EQ(ThreadCountFromEnv("1", 8), 1);
  EXPECT_EQ(ThreadCountFromEnv("1024", 8), kMaxThreads);
}

TEST(ThreadCountFromEnvTest, JunkFallsBackToHardware) {
  EXPECT_EQ(ThreadCountFromEnv(nullptr, 8), 8);
  EXPECT_EQ(ThreadCountFromEnv("", 8), 8);
  for (const char* bad : {"4x", "0", "-2", "1025", "99999999999", "two"}) {
    EXPECT_EQ(ThreadCountFromEnv(bad, 8), 8) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace graphalign
