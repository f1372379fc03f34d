// Durable async job subsystem (DESIGN.md §17): journal framing and replay,
// the manager's state machine, crash recovery with bounded attempts,
// idempotent resubmission, cancellation, TTL GC with compaction, and the
// v5 protocol codecs the job surface rides on. Registered under the `jobs`
// ctest label; tools/run_jobs_smoke.sh drives the same contract end-to-end
// through a real daemon and a real kill -9.
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/status.h"
#include "jobs/journal.h"
#include "jobs/manager.h"
#include "server/protocol.h"

namespace graphalign {
namespace {

class JobsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/ga_jobsXXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    DeactivateAllFailpoints();
    std::string cmd = "rm -rf '" + dir_ + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  std::unique_ptr<JobManager> OpenManager(uint32_t max_attempts = 3,
                                          uint64_t ttl_seconds = 3600,
                                          uint64_t now_ms = 1000) {
    JobManagerOptions options;
    options.dir = dir_;
    options.max_attempts = max_attempts;
    options.ttl_seconds = ttl_seconds;
    options.exhausted_terminal_code = 42;
    auto manager = JobManager::Open(options, now_ms);
    GA_CHECK(manager.ok());
    return *std::move(manager);
  }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// Journal framing and replay.

TEST_F(JobsTest, JournalAppendAndReplay) {
  std::vector<std::string> seen;
  auto collect = [&seen](std::string_view p) { seen.emplace_back(p); };
  {
    auto journal = JobJournal::Open(dir_, collect);
    ASSERT_TRUE(journal.ok());
    EXPECT_TRUE(seen.empty());
    ASSERT_TRUE((*journal)->Append("alpha").ok());
    ASSERT_TRUE((*journal)->Append("").ok() == false);  // Empty is invalid.
    ASSERT_TRUE((*journal)->Append("beta").ok());
    EXPECT_GT((*journal)->log_bytes(), 0u);
  }
  JobJournal::ReplayStats stats;
  auto reopened = JobJournal::Open(dir_, collect, &stats);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "alpha");
  EXPECT_EQ(seen[1], "beta");
  EXPECT_EQ(stats.replayed, 2u);
  EXPECT_EQ(stats.crc_skipped, 0u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
}

TEST_F(JobsTest, JournalTruncatesTornTailAndStaysWritable) {
  auto noop = [](std::string_view) {};
  {
    auto journal = JobJournal::Open(dir_, noop);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append("good record").ok());
    // A crash mid-append: header + half the payload.
    ASSERT_TRUE(ActivateFailpoint("jobs.journal.append.torn", "once").ok());
    EXPECT_EQ((*journal)->Append("torn record").code(),
              StatusCode::kUnavailable);
  }
  std::vector<std::string> seen;
  JobJournal::ReplayStats stats;
  auto reopened = JobJournal::Open(
      dir_, [&seen](std::string_view p) { seen.emplace_back(p); }, &stats);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "good record");
  EXPECT_GT(stats.truncated_bytes, 0u);
  // The torn tail was cut away: appends land on a clean boundary.
  ASSERT_TRUE((*reopened)->Append("after recovery").ok());
  seen.clear();
  auto again = JobJournal::Open(
      dir_, [&seen](std::string_view p) { seen.emplace_back(p); });
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1], "after recovery");
}

TEST_F(JobsTest, JournalSkipsCrcCorruptRecordAndKeepsRest) {
  auto noop = [](std::string_view) {};
  {
    auto journal = JobJournal::Open(dir_, noop);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append("first-record").ok());
    ASSERT_TRUE((*journal)->Append("second-record").ok());
  }
  // Flip one payload byte inside the first record (framing stays intact).
  const std::string path = dir_ + "/jobs.journal";
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekp(12, std::ios::beg);  // magic(4) + len(4) + crc(4) = payload start.
  f.put('X');
  f.close();
  std::vector<std::string> seen;
  JobJournal::ReplayStats stats;
  auto reopened = JobJournal::Open(
      dir_, [&seen](std::string_view p) { seen.emplace_back(p); }, &stats);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "second-record");
  EXPECT_EQ(stats.crc_skipped, 1u);
}

// ---------------------------------------------------------------------------
// Manager state machine.

TEST_F(JobsTest, SubmitClaimDoneAndDurableResult) {
  uint64_t id = 0;
  {
    auto m = OpenManager();
    auto sub = m->Submit("", "spec-bytes", 2000);
    ASSERT_TRUE(sub.ok());
    EXPECT_FALSE(sub->existing);
    EXPECT_EQ(sub->record.state, JobState::kAccepted);
    id = sub->record.job_id;
    EXPECT_EQ(id, JobContentId("spec-bytes"));
    JobRecord claimed;
    std::shared_ptr<std::atomic<bool>> cancel;
    ASSERT_TRUE(m->ClaimNext(&claimed, &cancel));
    EXPECT_EQ(claimed.job_id, id);
    EXPECT_EQ(claimed.state, JobState::kRunning);
    EXPECT_EQ(claimed.attempts, 1u);
    EXPECT_EQ(claimed.spec_bytes, "spec-bytes");
    ASSERT_NE(cancel, nullptr);
    EXPECT_FALSE(cancel->load());
    ASSERT_TRUE(m->CompleteDone(id, "result-bytes", 3000).ok());
    auto got = m->Get(id);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->state, JobState::kDone);
    EXPECT_EQ(got->result_bytes, "result-bytes");
  }
  // The DONE record and its result bytes survive a restart.
  auto m2 = OpenManager();
  auto got = m2->Get(id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->state, JobState::kDone);
  EXPECT_EQ(got->result_bytes, "result-bytes");
  EXPECT_EQ(m2->Stats().pending, 0u);
}

TEST_F(JobsTest, IdempotentResubmitNeverExecutesTwice) {
  auto m = OpenManager();
  auto first = m->Submit("key-1", "same-spec", 2000);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->existing);
  // Same key, same content: the existing job comes back, nothing enqueued.
  auto second = m->Submit("key-1", "same-spec", 2100);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->existing);
  EXPECT_EQ(second->record.job_id, first->record.job_id);
  // Same content without a key dedupes on the content id too.
  auto third = m->Submit("", "same-spec", 2200);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->existing);
  const JobManagerStats stats = m->Stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.deduped, 2u);
  EXPECT_EQ(stats.pending, 1u);  // One job, queued once.
  // Run it to DONE; a resubmit afterwards still dedupes (result served
  // again) and the queue stays empty — the work never runs twice.
  JobRecord claimed;
  std::shared_ptr<std::atomic<bool>> cancel;
  ASSERT_TRUE(m->ClaimNext(&claimed, &cancel));
  ASSERT_TRUE(m->CompleteDone(claimed.job_id, "r", 3000).ok());
  auto after_done = m->Submit("key-1", "same-spec", 4000);
  ASSERT_TRUE(after_done.ok());
  EXPECT_TRUE(after_done->existing);
  EXPECT_EQ(after_done->record.state, JobState::kDone);
  EXPECT_EQ(m->Stats().executions, 1u);
  EXPECT_EQ(m->Stats().pending, 0u);
}

TEST_F(JobsTest, IdemKeyBoundToDifferentContentIsConflict) {
  auto m = OpenManager();
  ASSERT_TRUE(m->Submit("shared-key", "content-A", 2000).ok());
  auto clash = m->Submit("shared-key", "content-B", 2100);
  ASSERT_FALSE(clash.ok());
  EXPECT_EQ(clash.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(JobsTest, RetryableExhaustsIntoTypedFailed) {
  auto m = OpenManager(/*max_attempts=*/2);
  auto sub = m->Submit("", "flaky-spec", 2000);
  ASSERT_TRUE(sub.ok());
  const uint64_t id = sub->record.job_id;
  JobRecord claimed;
  std::shared_ptr<std::atomic<bool>> cancel;
  ASSERT_TRUE(m->ClaimNext(&claimed, &cancel));
  ASSERT_TRUE(m->CompleteRetryable(id, "crashed", 2100).ok());
  auto mid = m->Get(id);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid->state, JobState::kAccepted);  // Re-enqueued, attempt 1/2.
  ASSERT_TRUE(m->ClaimNext(&claimed, &cancel));
  EXPECT_EQ(claimed.attempts, 2u);
  ASSERT_TRUE(m->CompleteRetryable(id, "crashed again", 2200).ok());
  auto final = m->Get(id);
  ASSERT_TRUE(final.ok());
  EXPECT_EQ(final->state, JobState::kFailed);
  EXPECT_EQ(final->terminal_code, 42u);  // options.exhausted_terminal_code.
  EXPECT_EQ(m->Stats().pending, 0u);
}

TEST_F(JobsTest, CrashWithRunningJobRecoversToAccepted) {
  uint64_t id = 0;
  {
    auto m = OpenManager(/*max_attempts=*/3);
    auto sub = m->Submit("", "interrupted-spec", 2000);
    ASSERT_TRUE(sub.ok());
    id = sub->record.job_id;
    JobRecord claimed;
    std::shared_ptr<std::atomic<bool>> cancel;
    ASSERT_TRUE(m->ClaimNext(&claimed, &cancel));
    // Destroyed while RUNNING: the journal's last word for this job is the
    // claim — exactly what a kill -9 mid-execution leaves behind.
  }
  auto m2 = OpenManager(/*max_attempts=*/3, 3600, /*now_ms=*/5000);
  EXPECT_EQ(m2->Stats().recovered, 1u);
  auto rec = m2->Get(id);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->state, JobState::kAccepted);
  EXPECT_EQ(rec->attempts, 1u);  // The lost attempt stays counted.
  JobRecord claimed;
  std::shared_ptr<std::atomic<bool>> cancel;
  ASSERT_TRUE(m2->ClaimNext(&claimed, &cancel));
  EXPECT_EQ(claimed.job_id, id);
  EXPECT_EQ(claimed.attempts, 2u);
}

TEST_F(JobsTest, CrashLoopExhaustsAttemptsAtRecovery) {
  uint64_t id = 0;
  {
    auto m = OpenManager(/*max_attempts=*/1);
    auto sub = m->Submit("", "poison-spec", 2000);
    ASSERT_TRUE(sub.ok());
    id = sub->record.job_id;
    JobRecord claimed;
    std::shared_ptr<std::atomic<bool>> cancel;
    ASSERT_TRUE(m->ClaimNext(&claimed, &cancel));
  }
  // The only allowed attempt did not survive the restart: typed FAILED,
  // never a retry storm.
  auto m2 = OpenManager(/*max_attempts=*/1, 3600, /*now_ms=*/5000);
  EXPECT_EQ(m2->Stats().recovered, 0u);
  auto rec = m2->Get(id);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->state, JobState::kFailed);
  EXPECT_EQ(rec->terminal_code, 42u);
  EXPECT_EQ(m2->Stats().pending, 0u);
}

TEST_F(JobsTest, CancelSemantics) {
  auto m = OpenManager();
  // Cancel an unknown id.
  EXPECT_EQ(m->Cancel(777, 2000).status().code(), StatusCode::kNotFound);
  // Cancel an ACCEPTED job: it leaves the queue entirely.
  auto sub = m->Submit("", "to-cancel", 2000);
  ASSERT_TRUE(sub.ok());
  auto cancelled = m->Cancel(sub->record.job_id, 2100);
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(cancelled->state, JobState::kCancelled);
  EXPECT_EQ(m->Stats().pending, 0u);
  // Cancelling a terminal job is a typed refusal.
  EXPECT_EQ(m->Cancel(sub->record.job_id, 2200).status().code(),
            StatusCode::kFailedPrecondition);
  // A RUNNING job's cancel flips the runner's flag; its late completion is
  // silently discarded (the cancel verdict is absorbing).
  auto sub2 = m->Submit("", "cancel-in-flight", 3000);
  ASSERT_TRUE(sub2.ok());
  JobRecord claimed;
  std::shared_ptr<std::atomic<bool>> cancel;
  ASSERT_TRUE(m->ClaimNext(&claimed, &cancel));
  EXPECT_EQ(claimed.job_id, sub2->record.job_id);
  ASSERT_TRUE(m->Cancel(claimed.job_id, 3100).ok());
  EXPECT_TRUE(cancel->load());
  ASSERT_TRUE(m->CompleteDone(claimed.job_id, "late result", 3200).ok());
  auto rec = m->Get(claimed.job_id);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->state, JobState::kCancelled);
  EXPECT_TRUE(rec->result_bytes.empty());
  // A cancelled job may be resubmitted: fresh cycle, not a dedupe.
  auto resub = m->Submit("", "cancel-in-flight", 4000);
  ASSERT_TRUE(resub.ok());
  EXPECT_FALSE(resub->existing);
  EXPECT_EQ(resub->record.state, JobState::kAccepted);
}

TEST_F(JobsTest, GcExpiresTerminalJobsAndCompacts) {
  auto m = OpenManager(/*max_attempts=*/3, /*ttl_seconds=*/1);
  auto sub = m->Submit("gc-key", "gc-spec", 2000);
  ASSERT_TRUE(sub.ok());
  const uint64_t id = sub->record.job_id;
  JobRecord claimed;
  std::shared_ptr<std::atomic<bool>> cancel;
  ASSERT_TRUE(m->ClaimNext(&claimed, &cancel));
  ASSERT_TRUE(m->CompleteDone(id, "gc-result", 3000).ok());
  // Before the TTL: still served.
  ASSERT_TRUE(m->Gc(3500).ok());
  EXPECT_TRUE(m->Get(id).ok());
  // Past the TTL: expired from the table, the journal, and the idem index.
  const uint64_t bytes_before = m->Stats().journal_bytes;
  ASSERT_TRUE(m->Gc(5000).ok());
  EXPECT_EQ(m->Get(id).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(m->Stats().gced, 1u);
  EXPECT_LT(m->Stats().journal_bytes, bytes_before);
  // The key is free again, and the GC survives a restart.
  auto resub = m->Submit("gc-key", "different-spec", 6000);
  ASSERT_TRUE(resub.ok());
  EXPECT_FALSE(resub->existing);
  auto m2 = OpenManager();
  EXPECT_EQ(m2->Get(id).status().code(), StatusCode::kNotFound);
}

TEST_F(JobsTest, JournalAppendFailureRefusesTheSubmit) {
  auto m = OpenManager();
  ASSERT_TRUE(ActivateFailpoint("jobs.journal.append.error", "once").ok());
  auto refused = m->Submit("", "unjournaled-spec", 2000);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  // Not half-accepted: the job does not exist and nothing is queued.
  EXPECT_EQ(m->Get(JobContentId("unjournaled-spec")).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(m->Stats().pending, 0u);
  // The journal stays open; the next submit succeeds.
  EXPECT_TRUE(m->Submit("", "unjournaled-spec", 2100).ok());
}

TEST_F(JobsTest, JournalDiskFullRefusesTheSubmitAsUnavailable) {
  auto m = OpenManager();
  ASSERT_TRUE(ActivateFailpoint("jobs.journal.append.enospc", "once").ok());
  auto refused = m->Submit("", "disk-full-spec", 2000);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(m->Get(JobContentId("disk-full-spec")).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(m->Stats().journal_append_errors, 1u);
  EXPECT_TRUE(m->Submit("", "disk-full-spec", 2100).ok());
}

TEST_F(JobsTest, JournalReplayErrorFailsOpenOnly) {
  ASSERT_TRUE(ActivateFailpoint("jobs.journal.replay.error", "once").ok());
  JobManagerOptions options;
  options.dir = dir_;
  auto refused = JobManager::Open(options, 1000);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(OpenManager()->Submit("", "after-replay-error", 2000).ok());
}

TEST_F(JobsTest, GcLeavesAnAllLiveJournalInPlace) {
  // Over 4 MB of journal in which every record is live: a size threshold
  // would rewrite it, the dead-share rule must not.
  auto m = OpenManager();
  for (char c = 'a'; c < 'f'; ++c) {
    ASSERT_TRUE(m->Submit("", std::string(1 << 20, c), 2000).ok());
  }
  ASSERT_GT(m->Stats().journal_bytes, 4u << 20);
  struct stat before;
  ASSERT_EQ(::stat((dir_ + "/jobs.journal").c_str(), &before), 0);
  ASSERT_TRUE(m->Gc(3000).ok());
  struct stat after;
  ASSERT_EQ(::stat((dir_ + "/jobs.journal").c_str(), &after), 0);
  EXPECT_EQ(after.st_ino, before.st_ino);
  EXPECT_EQ(after.st_size, before.st_size);
}

TEST_F(JobsTest, GcRemovesExpiredJobsFromAMostlyLiveJournal) {
  // Ten DONE jobs, three records each; two expire. The 16 live records are
  // over half of the 30, so only the expiry itself can force the rewrite.
  auto m = OpenManager(/*max_attempts=*/3, /*ttl_seconds=*/5);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(m->Submit("key-" + std::to_string(i),
                          "spec-" + std::to_string(i), 2000)
                    .ok());
  }
  std::vector<uint64_t> expired, kept;
  for (int i = 0; i < 10; ++i) {
    JobRecord claimed;
    std::shared_ptr<std::atomic<bool>> cancel;
    ASSERT_TRUE(m->ClaimNext(&claimed, &cancel));
    const uint64_t done_ms = i < 2 ? 3000 : 9000;
    ASSERT_TRUE(m->CompleteDone(claimed.job_id, "result", done_ms).ok());
    (i < 2 ? expired : kept).push_back(claimed.job_id);
  }
  ASSERT_TRUE(m->Gc(9000).ok());
  EXPECT_EQ(m->Stats().gced, 2u);
  m.reset();

  // A restart with the default TTL must not bring the expired jobs back.
  auto m2 = OpenManager();
  for (uint64_t id : expired) {
    EXPECT_EQ(m2->Get(id).status().code(), StatusCode::kNotFound);
  }
  for (uint64_t id : kept) EXPECT_TRUE(m2->Get(id).ok());
  // Nor rebind their idempotency keys.
  auto resub = m2->Submit("key-0", "fresh-spec", 10000);
  ASSERT_TRUE(resub.ok());
  EXPECT_FALSE(resub->existing);
}

TEST_F(JobsTest, ContentIdIsStableAndNonZero) {
  EXPECT_EQ(JobContentId("abc"), JobContentId("abc"));
  EXPECT_NE(JobContentId("abc"), JobContentId("abd"));
  EXPECT_NE(JobContentId(""), 0u);
  EXPECT_NE(JobContentId("x"), 0u);
}

// ---------------------------------------------------------------------------
// Protocol v5: job request/response codecs.

TEST_F(JobsTest, SubmitJobRequestRoundTrip) {
  Request req;
  req.type = RequestType::kSubmitJob;
  req.client = "tester";
  req.submit_job.idem_key = "idem-abc";
  AlignRequest& a = req.submit_job.align;
  a.algo = "NSD";
  a.assign = "JV";
  a.deadline_ms = 1234;
  a.g1.num_nodes = 3;
  a.g1.edges = {{0, 1}, {1, 2}};
  a.g2.num_nodes = 3;
  a.g2.edges = {{0, 2}};
  auto decoded = DecodeRequest(EncodeRequest(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, RequestType::kSubmitJob);
  EXPECT_EQ(decoded->client, "tester");
  EXPECT_EQ(decoded->submit_job.idem_key, "idem-abc");
  EXPECT_EQ(decoded->submit_job.align.algo, "NSD");
  EXPECT_EQ(decoded->submit_job.align.deadline_ms, 1234u);
  EXPECT_EQ(decoded->submit_job.align.g1.edges.size(), 2u);
}

TEST_F(JobsTest, JobIdRequestRoundTrip) {
  for (RequestType type : {RequestType::kJobStatus, RequestType::kJobResult,
                           RequestType::kCancelJob}) {
    Request req;
    req.type = type;
    req.job_id.job_id = 0xdeadbeefcafef00dull;
    auto decoded = DecodeRequest(EncodeRequest(req));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->type, type);
    EXPECT_EQ(decoded->job_id.job_id, 0xdeadbeefcafef00dull);
  }
}

TEST_F(JobsTest, JobInfoRoundTrip) {
  JobInfo info;
  info.job_id = 0x0123456789abcdefull;
  info.state = 2;
  info.state_name = "DONE";
  info.attempts = 2;
  info.max_attempts = 3;
  info.submitted_unix_ms = 111;
  info.updated_unix_ms = 222;
  info.terminal_code = 0;
  info.message = "fine";
  info.existing = true;
  auto decoded = DecodeJobInfo(EncodeJobInfo(info));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->job_id, info.job_id);
  EXPECT_EQ(decoded->state, info.state);
  EXPECT_EQ(decoded->state_name, "DONE");
  EXPECT_EQ(decoded->attempts, 2u);
  EXPECT_EQ(decoded->max_attempts, 3u);
  EXPECT_EQ(decoded->submitted_unix_ms, 111u);
  EXPECT_EQ(decoded->updated_unix_ms, 222u);
  EXPECT_EQ(decoded->message, "fine");
  EXPECT_TRUE(decoded->existing);
}

TEST_F(JobsTest, AlignSpecRoundTripIsCanonical) {
  AlignRequest a;
  a.algo = "GRASP";
  a.assign = "NN";
  a.by_hash = true;
  a.g1_hash = 7;
  a.g2_hash = 9;
  a.deadline_ms = 500;
  a.mem_limit_mb = 64;
  a.no_cache = true;
  const std::string spec = EncodeAlignSpec(a);
  // Canonical: identical requests encode to identical bytes (the content
  // id depends on it).
  EXPECT_EQ(spec, EncodeAlignSpec(a));
  auto decoded = DecodeAlignSpec(spec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->algo, "GRASP");
  EXPECT_EQ(decoded->assign, "NN");
  EXPECT_TRUE(decoded->by_hash);
  EXPECT_EQ(decoded->g1_hash, 7u);
  EXPECT_EQ(decoded->g2_hash, 9u);
  EXPECT_EQ(decoded->deadline_ms, 500u);
  EXPECT_EQ(decoded->mem_limit_mb, 64u);
  EXPECT_TRUE(decoded->no_cache);
  EXPECT_EQ(EncodeAlignSpec(*decoded), spec);
}

TEST_F(JobsTest, ResponseCarriesRetryAfterHint) {
  Response r;
  r.code = ResponseCode::kBusy;
  r.retry_after_ms = 250;
  r.message = "try later";
  auto decoded = DecodeResponse(EncodeResponse(r));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, ResponseCode::kBusy);
  EXPECT_EQ(decoded->retry_after_ms, 250u);
}

TEST_F(JobsTest, ServerStatsCarryJobCounters) {
  ServerStatsResult s;
  s.jobs_submitted = 1;
  s.jobs_deduped = 2;
  s.jobs_done = 3;
  s.jobs_failed = 4;
  s.jobs_cancelled = 5;
  s.jobs_executions = 6;
  s.jobs_recovered = 7;
  s.jobs_pending = 8;
  auto decoded = DecodeServerStatsResult(EncodeServerStatsResult(s));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->jobs_submitted, 1u);
  EXPECT_EQ(decoded->jobs_deduped, 2u);
  EXPECT_EQ(decoded->jobs_done, 3u);
  EXPECT_EQ(decoded->jobs_failed, 4u);
  EXPECT_EQ(decoded->jobs_cancelled, 5u);
  EXPECT_EQ(decoded->jobs_executions, 6u);
  EXPECT_EQ(decoded->jobs_recovered, 7u);
  EXPECT_EQ(decoded->jobs_pending, 8u);
}

}  // namespace
}  // namespace graphalign
