// Durable backing log for the result cache (DESIGN.md §14).
//
// The in-memory ResultCache evaporates on every daemon restart, which turns
// a routine deploy into a cold-start stampede of recomputed alignments. The
// CacheStore persists completed entries to `cache.log`, a record log
// (common/record_log.h) with magic "GAR1", so a restart replays them and
// comes up warm. A record's payload is the u64 cache key followed by the
// encoded AlignResult bytes.
//
// Append failures are counted, never returned: the in-memory cache keeps
// serving, so durability degrades and service does not. Its failpoints are
// the record log's under the prefix `server.cache`.
#ifndef GRAPHALIGN_SERVER_CACHE_STORE_H_
#define GRAPHALIGN_SERVER_CACHE_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/record_log.h"
#include "common/status.h"

namespace graphalign {

class CacheStore {
 public:
  using ReplayStats = RecordLog::ReplayStats;

  // Opens (creating if needed) `dir`/cache.log and replays every good
  // record through `on_record`; see RecordLog::Open.
  static Result<std::unique_ptr<CacheStore>> Open(
      const std::string& dir,
      const std::function<void(uint64_t key, std::string value)>& on_record,
      ReplayStats* stats = nullptr);

  // Appends one record. Thread-safe. Failures, including a value too large
  // to replay, are counted in append_errors.
  void Append(uint64_t key, const std::string& value);

  // The record log's compaction rule, given the number of resident entries.
  bool CompactionDue(uint64_t live_entries) const {
    return log_->CompactionDue(live_entries);
  }

  // Rewrites the log to hold exactly `live`, in order, published atomically.
  Status Compact(const std::vector<std::pair<uint64_t, std::string>>& live);

  // fsyncs the log: appends are buffered writes, so a graceful (SIGTERM)
  // drain applies this seal before exit.
  Status Sync() { return log_->Sync(); }

  uint64_t log_bytes() const { return log_->log_bytes(); }
  uint64_t append_errors() const { return log_->append_errors(); }

 private:
  explicit CacheStore(std::unique_ptr<RecordLog> log) : log_(std::move(log)) {}

  const std::unique_ptr<RecordLog> log_;
};

}  // namespace graphalign

#endif  // GRAPHALIGN_SERVER_CACHE_STORE_H_
