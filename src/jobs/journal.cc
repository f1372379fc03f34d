#include "jobs/journal.h"

namespace graphalign {

namespace {

constexpr RecordLog::Format kJournal = {
    .magic = {'G', 'A', 'J', '1'},
    .file_name = "jobs.journal",
    .min_payload = 1,
    .max_payload = kMaxJournalPayload,
    .failpoint_prefix = "jobs.journal",
    .sync_appends = true,
};

}  // namespace

Result<std::unique_ptr<JobJournal>> JobJournal::Open(
    const std::string& dir,
    const std::function<void(std::string_view payload)>& on_record,
    ReplayStats* stats) {
  GA_ASSIGN_OR_RETURN(std::unique_ptr<RecordLog> log,
                      RecordLog::Open(dir, kJournal, on_record, stats));
  return std::unique_ptr<JobJournal>(new JobJournal(std::move(log)));
}

}  // namespace graphalign
