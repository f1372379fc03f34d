// Write-ahead journal for the durable async job subsystem (DESIGN.md §17).
//
// Every job state transition — submission, claim, completion, cancellation —
// is appended as one record *before* the in-memory state changes are acted
// on, so a `kill -9` at any instant leaves a journal that replays to a
// consistent job table. The journal is `jobs.journal`, a record log
// (common/record_log.h) with magic "GAJ1"; the payload is an opaque event
// blob owned by jobs/manager.h.
//
// Every append is fsynced: jobs are heavyweight (each execution forks an
// isolated child), so one fsync per transition is noise next to the work it
// makes durable — and it is exactly what turns "accepted" into a promise
// that survives the daemon. Its failpoints are the record log's under the
// prefix `jobs.journal`.
#ifndef GRAPHALIGN_JOBS_JOURNAL_H_
#define GRAPHALIGN_JOBS_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/record_log.h"
#include "common/status.h"

namespace graphalign {

// Journal records beyond this payload size are rejected at append and
// treated as corruption at replay. Sized to hold an inline graph-pair spec
// (the GAF1 frame cap) plus event framing.
inline constexpr uint32_t kMaxJournalPayload = (64u << 20) + 4096;

class JobJournal {
 public:
  using ReplayStats = RecordLog::ReplayStats;

  // Opens (creating if needed) `dir`/jobs.journal and replays every good
  // record through `on_record`; see RecordLog::Open.
  static Result<std::unique_ptr<JobJournal>> Open(
      const std::string& dir,
      const std::function<void(std::string_view payload)>& on_record,
      ReplayStats* stats = nullptr);

  // Appends one record and fsyncs it. Thread-safe. An IO error or a full
  // disk is returned as kUnavailable and counted; the journal stays open.
  Status Append(std::string_view payload) { return log_->Append(payload); }

  // fsyncs the journal: a no-op after synced appends, kept as the explicit
  // seal for SIGTERM drain.
  Status Sync() { return log_->Sync(); }

  // The record log's compaction rule, given the number of live records.
  bool CompactionDue(uint64_t live_records) const {
    return log_->CompactionDue(live_records);
  }

  // Rewrites the journal to hold exactly `live`, in order, published
  // atomically.
  Status Compact(const std::vector<std::string>& live) {
    return log_->Compact(live);
  }

  uint64_t log_bytes() const { return log_->log_bytes(); }
  uint64_t append_errors() const { return log_->append_errors(); }

 private:
  explicit JobJournal(std::unique_ptr<RecordLog> log) : log_(std::move(log)) {}

  const std::unique_ptr<RecordLog> log_;
};

}  // namespace graphalign

#endif  // GRAPHALIGN_JOBS_JOURNAL_H_
