#include "jobs/manager.h"

#include <algorithm>
#include <utility>

#include "common/timer.h"
#include "common/wire.h"

namespace graphalign {

namespace {

// Journal event types. The payload layouts are pinned by DESIGN.md §17 and
// the replay tests; changing them breaks existing journals.
constexpr uint8_t kEventSubmit = 0;
constexpr uint8_t kEventState = 1;

// Decode bounds. The spec/result blobs are capped by the journal's own
// payload limit; the small strings get tight caps of their own.
constexpr size_t kMaxIdemKeyLen = 256;
constexpr size_t kMaxEventMessageLen = 4096;

}  // namespace

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kAccepted:
      return "ACCEPTED";
    case JobState::kRunning:
      return "RUNNING";
    case JobState::kDone:
      return "DONE";
    case JobState::kFailed:
      return "FAILED";
    case JobState::kQuarantined:
      return "QUARANTINED";
    case JobState::kCancelled:
      return "CANCELLED";
  }
  return "UNKNOWN";
}

uint64_t JobContentId(std::string_view spec_bytes) {
  uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis.
  for (const char c : spec_bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;  // FNV-1a prime.
  }
  return h == 0 ? 1 : h;  // 0 is reserved for "no job".
}

JobManager::JobManager(JobManagerOptions options)
    : options_(std::move(options)) {}

JobManager::~JobManager() { Stop(); }

std::string JobManager::EncodeSubmitEvent(const JobRecord& r) const {
  ByteWriter w;
  w.U8(kEventSubmit);
  w.U64(r.job_id);
  w.Str(r.idem_key);
  w.Str(r.spec_bytes);
  w.U64(r.submitted_unix_ms);
  w.U32(r.max_attempts);
  return w.Take();
}

std::string JobManager::EncodeStateEvent(const JobRecord& r) const {
  ByteWriter w;
  w.U8(kEventState);
  w.U64(r.job_id);
  w.U32(static_cast<uint32_t>(r.state));
  w.U32(r.attempts);
  w.U64(r.updated_unix_ms);
  w.U32(r.terminal_code);
  w.Str(r.message);
  // Result bytes travel only on the DONE transition; every other state
  // writes an empty blob (and replay clears any stale result).
  w.Str(r.state == JobState::kDone ? r.result_bytes : std::string_view());
  return w.Take();
}

void JobManager::ApplyEvent(std::string_view payload) {
  ByteReader r(payload);
  uint8_t type = 0;
  if (!r.U8(&type)) {
    ++replay_bad_events_;
    return;
  }
  if (type == kEventSubmit) {
    uint64_t job_id = 0, submitted_ms = 0;
    uint32_t max_attempts = 0;
    std::string idem_key, spec;
    if (!r.U64(&job_id) || !r.Str(&idem_key, kMaxIdemKeyLen) ||
        !r.Str(&spec, kMaxJournalPayload) || !r.U64(&submitted_ms) ||
        !r.U32(&max_attempts) || !r.AtEnd() || job_id == 0) {
      ++replay_bad_events_;
      return;
    }
    // A submit for an existing id is a fresh cycle (resubmission after
    // FAILED/CANCELLED): the record resets exactly as the live path did.
    JobRecord& rec = jobs_[job_id];
    rec.job_id = job_id;
    rec.idem_key = std::move(idem_key);
    rec.spec_bytes = std::move(spec);
    rec.state = JobState::kAccepted;
    rec.attempts = 0;
    rec.max_attempts = max_attempts == 0 ? 1 : max_attempts;
    rec.submitted_unix_ms = submitted_ms;
    rec.updated_unix_ms = submitted_ms;
    rec.terminal_code = 0;
    rec.message.clear();
    rec.result_bytes.clear();
    if (!rec.idem_key.empty()) idem_[rec.idem_key] = job_id;
    return;
  }
  if (type == kEventState) {
    uint64_t job_id = 0, ts_ms = 0;
    uint32_t state = 0, attempts = 0, terminal_code = 0;
    std::string message, result;
    if (!r.U64(&job_id) || !r.U32(&state) || !r.U32(&attempts) ||
        !r.U64(&ts_ms) || !r.U32(&terminal_code) ||
        !r.Str(&message, kMaxEventMessageLen) ||
        !r.Str(&result, kMaxJournalPayload) || !r.AtEnd() ||
        state > static_cast<uint32_t>(JobState::kCancelled)) {
      ++replay_bad_events_;
      return;
    }
    auto it = jobs_.find(job_id);
    if (it == jobs_.end()) {
      // A state for a job whose submit record was lost (CRC-skipped): the
      // spec is gone, so the job cannot be reconstructed. Count and move on.
      ++replay_bad_events_;
      return;
    }
    JobRecord& rec = it->second;
    rec.state = static_cast<JobState>(state);
    rec.attempts = attempts;
    rec.updated_unix_ms = ts_ms;
    rec.terminal_code = terminal_code;
    rec.message = std::move(message);
    rec.result_bytes = std::move(result);
    return;
  }
  ++replay_bad_events_;
}

Status JobManager::JournalState(const JobRecord& r) {
  return journal_->Append(EncodeStateEvent(r));
}

Result<std::unique_ptr<JobManager>> JobManager::Open(
    const JobManagerOptions& options, uint64_t now_ms) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("job manager: directory is required");
  }
  std::unique_ptr<JobManager> mgr(new JobManager(options));
  GA_ASSIGN_OR_RETURN(
      mgr->journal_,
      JobJournal::Open(
          options.dir,
          [&mgr](std::string_view payload) { mgr->ApplyEvent(payload); },
          &mgr->replay_stats_));

  // Recovery: re-enqueue interrupted work, journaling each decision so a
  // second crash replays the *recovered* state, not the original one.
  for (auto& [id, rec] : mgr->jobs_) {
    if (rec.state == JobState::kAccepted) {
      mgr->queue_.push_back(id);
    } else if (rec.state == JobState::kRunning) {
      rec.updated_unix_ms = now_ms;
      if (rec.attempts < rec.max_attempts) {
        rec.state = JobState::kAccepted;
        rec.message = "recovered after restart";
        (void)mgr->JournalState(rec);
        mgr->queue_.push_back(id);
        ++mgr->recovered_;
      } else {
        rec.state = JobState::kFailed;
        rec.terminal_code = options.exhausted_terminal_code;
        rec.message = "attempts exhausted (" +
                      std::to_string(rec.attempts) + "/" +
                      std::to_string(rec.max_attempts) +
                      "); last attempt did not survive a restart";
        (void)mgr->JournalState(rec);
        ++mgr->failed_;
      }
    }
  }
  return mgr;
}

Result<JobManager::SubmitOutcome> JobManager::Submit(
    const std::string& idem_key, std::string spec_bytes, uint64_t now_ms) {
  if (spec_bytes.empty()) {
    return Status::InvalidArgument("job submit: empty spec");
  }
  if (idem_key.size() > kMaxIdemKeyLen) {
    return Status::InvalidArgument("job submit: idempotency key too long");
  }
  const uint64_t job_id = JobContentId(spec_bytes);
  std::lock_guard<std::mutex> lock(mu_);
  if (!idem_key.empty()) {
    auto bound = idem_.find(idem_key);
    if (bound != idem_.end() && bound->second != job_id) {
      return Status::FailedPrecondition(
          "idempotency key '" + idem_key +
          "' is already bound to different content (job " +
          std::to_string(bound->second) + ")");
    }
  }
  auto it = jobs_.find(job_id);
  if (it != jobs_.end() && it->second.state != JobState::kFailed &&
      it->second.state != JobState::kCancelled) {
    // Dedupe: the job exists and is either in flight or finished usefully.
    // DONE/QUARANTINED verdicts are served again instead of re-executing.
    ++deduped_;
    if (!idem_key.empty()) idem_[idem_key] = job_id;
    return SubmitOutcome{it->second, /*existing=*/true};
  }

  // Fresh submission (or a fresh attempt cycle after FAILED/CANCELLED).
  JobRecord rec;
  rec.job_id = job_id;
  rec.idem_key = idem_key;
  rec.spec_bytes = std::move(spec_bytes);
  rec.state = JobState::kAccepted;
  rec.attempts = 0;
  rec.max_attempts = options_.max_attempts == 0 ? 1 : options_.max_attempts;
  rec.submitted_unix_ms = now_ms;
  rec.updated_unix_ms = now_ms;
  // Durability IS the contract: a job that cannot be journaled is refused
  // outright (kUnavailable), never half-accepted into memory only.
  GA_RETURN_IF_ERROR(journal_->Append(EncodeSubmitEvent(rec)));
  JobRecord& stored = jobs_[job_id];
  stored = std::move(rec);
  if (!idem_key.empty()) idem_[idem_key] = job_id;
  queue_.push_back(job_id);
  ++submitted_;
  cv_.notify_one();
  return SubmitOutcome{stored, /*existing=*/false};
}

Result<JobRecord> JobManager::Get(uint64_t job_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job " + std::to_string(job_id));
  }
  return it->second;
}

std::vector<JobRecord> JobManager::List() const {
  std::vector<JobRecord> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(jobs_.size());
    for (const auto& [id, rec] : jobs_) {
      JobRecord r = rec;
      r.spec_bytes.clear();
      r.result_bytes.clear();
      out.push_back(std::move(r));
    }
  }
  std::sort(out.begin(), out.end(), [](const JobRecord& a, const JobRecord& b) {
    if (a.submitted_unix_ms != b.submitted_unix_ms) {
      return a.submitted_unix_ms < b.submitted_unix_ms;
    }
    return a.job_id < b.job_id;
  });
  return out;
}

bool JobManager::ClaimNext(JobRecord* out,
                           std::shared_ptr<std::atomic<bool>>* cancel) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stopped_ || !queue_.empty(); });
    if (stopped_) return false;
    const uint64_t job_id = queue_.front();
    queue_.pop_front();
    auto it = jobs_.find(job_id);
    // A queued id can be stale: the job was cancelled or GC'd while it
    // waited. Skip it and keep waiting.
    if (it == jobs_.end() || it->second.state != JobState::kAccepted) {
      continue;
    }
    JobRecord& rec = it->second;
    rec.state = JobState::kRunning;
    rec.attempts += 1;
    rec.updated_unix_ms = UnixMs();
    rec.message.clear();
    // Journal the claim before running. If the append fails the execution
    // proceeds anyway — the job was durably ACCEPTED, so a crash now only
    // costs one extra attempt, not the at-most-N bound by more than one.
    (void)JournalState(rec);
    auto flag = std::make_shared<std::atomic<bool>>(false);
    cancels_[job_id] = flag;
    ++executions_;
    *out = rec;
    if (cancel != nullptr) *cancel = std::move(flag);
    return true;
  }
}

Status JobManager::CompleteDone(uint64_t job_id, std::string result_bytes,
                                uint64_t now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end() || it->second.state != JobState::kRunning) {
    return Status::Ok();  // Cancel (or GC) won the race; discard the result.
  }
  JobRecord& rec = it->second;
  rec.state = JobState::kDone;
  rec.updated_unix_ms = now_ms;
  rec.terminal_code = 0;
  rec.message.clear();
  rec.result_bytes = std::move(result_bytes);
  ++done_;
  cancels_.erase(job_id);
  return JournalState(rec);
}

Status JobManager::CompleteFailed(uint64_t job_id, uint32_t terminal_code,
                                  const std::string& message, bool quarantined,
                                  uint64_t now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end() || it->second.state != JobState::kRunning) {
    return Status::Ok();
  }
  JobRecord& rec = it->second;
  rec.state = quarantined ? JobState::kQuarantined : JobState::kFailed;
  rec.updated_unix_ms = now_ms;
  rec.terminal_code = terminal_code;
  rec.message = message;
  rec.result_bytes.clear();
  ++failed_;
  cancels_.erase(job_id);
  return JournalState(rec);
}

Status JobManager::CompleteRetryable(uint64_t job_id,
                                     const std::string& message,
                                     uint64_t now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end() || it->second.state != JobState::kRunning) {
    return Status::Ok();
  }
  JobRecord& rec = it->second;
  rec.updated_unix_ms = now_ms;
  cancels_.erase(job_id);
  if (rec.attempts >= rec.max_attempts) {
    rec.state = JobState::kFailed;
    rec.terminal_code = options_.exhausted_terminal_code;
    rec.message = message + " (attempts exhausted, " +
                  std::to_string(rec.attempts) + "/" +
                  std::to_string(rec.max_attempts) + ")";
    ++failed_;
    return JournalState(rec);
  }
  rec.state = JobState::kAccepted;
  rec.message = message + " (will retry, attempt " +
                std::to_string(rec.attempts) + "/" +
                std::to_string(rec.max_attempts) + " failed)";
  const Status journaled = JournalState(rec);
  queue_.push_back(job_id);
  cv_.notify_one();
  return journaled;
}

Result<JobRecord> JobManager::Cancel(uint64_t job_id, uint64_t now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job " + std::to_string(job_id));
  }
  JobRecord& rec = it->second;
  if (JobStateTerminal(rec.state)) {
    return Status::FailedPrecondition(
        "job " + std::to_string(job_id) + " is already " +
        JobStateName(rec.state) + "; cancel applies to ACCEPTED/RUNNING jobs");
  }
  if (rec.state == JobState::kAccepted) {
    queue_.erase(std::remove(queue_.begin(), queue_.end(), job_id),
                 queue_.end());
  } else {  // RUNNING: the runner's poll sees the flag and kills the child.
    auto flag = cancels_.find(job_id);
    if (flag != cancels_.end()) flag->second->store(true);
  }
  rec.state = JobState::kCancelled;
  rec.updated_unix_ms = now_ms;
  rec.message = "cancelled by client";
  rec.result_bytes.clear();
  ++cancelled_;
  cancels_.erase(job_id);
  (void)JournalState(rec);
  return rec;
}

Status JobManager::Gc(uint64_t now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t ttl_ms = options_.ttl_seconds * 1000;
  uint64_t expired = 0;
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    const JobRecord& rec = it->second;
    if (JobStateTerminal(rec.state) &&
        rec.updated_unix_ms + ttl_ms <= now_ms) {
      if (!rec.idem_key.empty()) {
        auto bound = idem_.find(rec.idem_key);
        if (bound != idem_.end() && bound->second == rec.job_id) {
          idem_.erase(bound);
        }
      }
      it = jobs_.erase(it);
      ++expired;
    } else {
      ++it;
    }
  }
  gced_ += expired;
  // The live journal is one submit event per job, plus one state event for
  // any job that has moved past a fresh ACCEPTED.
  auto has_state = [](const JobRecord& rec) {
    return rec.state != JobState::kAccepted || rec.attempts > 0;
  };
  uint64_t live_records = 0;
  for (const auto& [id, rec] : jobs_) live_records += has_state(rec) ? 2 : 1;
  // Expired jobs must leave the journal, or the next replay would serve
  // them again; otherwise only a mostly-dead journal is rewritten.
  if (expired == 0 && !journal_->CompactionDue(live_records)) {
    return Status::Ok();
  }
  std::vector<std::string> live;
  live.reserve(live_records);
  for (const auto& [id, rec] : jobs_) {
    live.push_back(EncodeSubmitEvent(rec));
    if (has_state(rec)) live.push_back(EncodeStateEvent(rec));
  }
  return journal_->Compact(live);
}

Status JobManager::Seal() { return journal_->Sync(); }

void JobManager::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  cv_.notify_all();
}

JobManagerStats JobManager::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  JobManagerStats s;
  s.submitted = submitted_;
  s.deduped = deduped_;
  s.done = done_;
  s.failed = failed_;
  s.cancelled = cancelled_;
  s.executions = executions_;
  s.recovered = recovered_;
  for (const auto& [id, rec] : jobs_) {
    if (!JobStateTerminal(rec.state)) ++s.pending;
  }
  s.gced = gced_;
  s.journal_bytes = journal_->log_bytes();
  s.journal_append_errors = journal_->append_errors();
  s.replay_events = replay_stats_.replayed;
  s.replay_crc_skipped = replay_stats_.crc_skipped;
  s.replay_truncated_bytes = replay_stats_.truncated_bytes;
  return s;
}

}  // namespace graphalign
