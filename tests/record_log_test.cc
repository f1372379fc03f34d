// The CRC-framed record log shared by the cache log and the job journal
// (common/record_log.h, DESIGN.md §14): payload bounds at Append, the
// dead-share compaction rule, its failpoints, and a replay fuzz over every
// truncation and every single-bit flip of a small log. tools/run_sanitize.sh
// runs this binary under AddressSanitizer, where an overread in the replay
// loop fails hard instead of passing silently.
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/record_log.h"
#include "common/status.h"

namespace graphalign {
namespace {

constexpr RecordLog::Format kTestLog = {
    .magic = {'T', 'S', 'T', '1'},
    .file_name = "test.log",
    .min_payload = 1,
    .max_payload = 64,
    .failpoint_prefix = "test.record_log",
    .sync_appends = false,
};

class RecordLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/ga_record_logXXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    path_ = dir_ + "/test.log";
  }

  void TearDown() override {
    DeactivateAllFailpoints();
    std::string cmd = "rm -rf '" + dir_ + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  // Opens the log, appending every replayed payload to *seen.
  std::unique_ptr<RecordLog> OpenCollecting(
      std::vector<std::string>* seen,
      RecordLog::ReplayStats* stats = nullptr) {
    auto log = RecordLog::Open(
        dir_, kTestLog,
        [seen](std::string_view payload) { seen->emplace_back(payload); },
        stats);
    EXPECT_TRUE(log.ok()) << log.status().ToString();
    return log.ok() ? *std::move(log) : nullptr;
  }

  std::string ReadLog() const {
    std::ifstream f(path_, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
  }

  void WriteLog(const std::string& bytes) const {
    std::ofstream f(path_, std::ios::binary | std::ios::trunc);
    f << bytes;
  }

  std::string dir_;
  std::string path_;
};

TEST_F(RecordLogTest, OversizePayloadIsRefusedAndLaterRecordsReplay) {
  {
    std::vector<std::string> seen;
    auto log = OpenCollecting(&seen);
    ASSERT_NE(log, nullptr);
    EXPECT_EQ(log->Append(std::string(65, 'x')).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(log->Append(std::string_view()).code(),
              StatusCode::kInvalidArgument);
    ASSERT_TRUE(log->Append("after-oversize").ok());
    EXPECT_EQ(log->append_errors(), 2u);
  }
  std::vector<std::string> seen;
  RecordLog::ReplayStats stats;
  auto log = OpenCollecting(&seen, &stats);
  ASSERT_NE(log, nullptr);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "after-oversize");
  EXPECT_EQ(stats.replayed, 1u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
}

TEST_F(RecordLogTest, CompactionIsDueWhenMoreThanHalfIsDead) {
  std::vector<std::string> seen;
  auto log = OpenCollecting(&seen);
  ASSERT_NE(log, nullptr);
  for (const char* p : {"one", "two", "three"}) {
    ASSERT_TRUE(log->Append(p).ok());
  }
  EXPECT_TRUE(log->CompactionDue(1));   // 2 of 3 dead.
  EXPECT_FALSE(log->CompactionDue(2));  // 1 of 3 dead.
  ASSERT_TRUE(log->Compact({"three"}).ok());
  EXPECT_FALSE(log->CompactionDue(1));  // The rewrite counts as all live.
  log.reset();

  // Replayed records count as well: reopen three records with one live.
  RecordLog::ReplayStats stats;
  seen.clear();
  log = OpenCollecting(&seen, &stats);
  ASSERT_NE(log, nullptr);
  ASSERT_TRUE(log->Append("four").ok());
  ASSERT_TRUE(log->Append("five").ok());
  EXPECT_EQ(stats.replayed, 1u);
  EXPECT_TRUE(log->CompactionDue(1));
  EXPECT_FALSE(log->CompactionDue(2));
}

TEST_F(RecordLogTest, FailpointsAreNamedFromThePrefix) {
  std::vector<std::string> seen;
  auto log = OpenCollecting(&seen);
  ASSERT_NE(log, nullptr);
  ASSERT_TRUE(ActivateFailpoint("test.record_log.append.error", "once").ok());
  EXPECT_EQ(log->Append("dropped").code(), StatusCode::kUnavailable);
  ASSERT_TRUE(ActivateFailpoint("test.record_log.append.enospc", "once").ok());
  EXPECT_EQ(log->Append("full").code(), StatusCode::kUnavailable);
  ASSERT_TRUE(ActivateFailpoint("test.record_log.append.torn", "once").ok());
  EXPECT_EQ(log->Append("torn-record").code(), StatusCode::kUnavailable);
  EXPECT_EQ(log->append_errors(), 3u);
  log.reset();

  ASSERT_TRUE(ActivateFailpoint("test.record_log.replay.error", "once").ok());
  EXPECT_FALSE(RecordLog::Open(dir_, kTestLog, nullptr).ok());
  RecordLog::ReplayStats stats;
  log = OpenCollecting(&seen, &stats);
  ASSERT_NE(log, nullptr);
  EXPECT_TRUE(seen.empty());
  EXPECT_GT(stats.truncated_bytes, 0u);  // The torn record.
}

// Every truncation and every single-bit flip of a three-record log: Open
// never fails, replay delivers only records that were written, byte-exact
// and in order, and an append after the reopen replays on the next open.
TEST_F(RecordLogTest, ReplayFuzzTruncationsAndBitFlips) {
  const std::vector<std::string> written = {"alpha", "bravo-charlie", "d"};
  {
    std::vector<std::string> seen;
    auto log = OpenCollecting(&seen);
    ASSERT_NE(log, nullptr);
    for (const std::string& p : written) ASSERT_TRUE(log->Append(p).ok());
  }
  const std::string golden = ReadLog();

  auto check = [&](const std::string& damaged, const std::string& what) {
    SCOPED_TRACE(what);
    WriteLog(damaged);
    std::vector<std::string> seen;
    auto log = OpenCollecting(&seen);
    ASSERT_NE(log, nullptr);
    size_t next = 0;
    for (const std::string& p : seen) {
      while (next < written.size() && written[next] != p) ++next;
      ASSERT_LT(next, written.size()) << "replayed a record never written";
      ++next;
    }
    ASSERT_TRUE(log->Append("appended").ok());
    log.reset();
    seen.clear();
    log = OpenCollecting(&seen);
    ASSERT_NE(log, nullptr);
    ASSERT_FALSE(seen.empty());
    EXPECT_EQ(seen.back(), "appended");
  };

  for (size_t len = 0; len < golden.size(); ++len) {
    check(golden.substr(0, len), "truncated to " + std::to_string(len));
  }
  for (size_t bit = 0; bit < golden.size() * 8; ++bit) {
    std::string flipped = golden;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    check(flipped, "bit " + std::to_string(bit) + " flipped");
  }
}

}  // namespace
}  // namespace graphalign
