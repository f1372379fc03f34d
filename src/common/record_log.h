// CRC-framed append-only record log (DESIGN.md §14): the one disk format
// under the durable result cache (server/cache_store.h, magic GAR1) and the
// job journal (jobs/journal.h, magic GAJ1). Each owner supplies a Format;
// the framing, replay, compaction and failpoints live here once.
//
// Record layout (all integers little-endian):
//
//   magic (4 bytes) | u32 payload_len | u32 crc32c(payload) | payload
//
// Replay rules, in order, at every record boundary:
//   * clean EOF                       -> done
//   * partial header / partial body /
//     bad magic / length outside the
//     format's bounds                 -> torn or corrupt tail: truncate the
//                                        file back to the last good record
//                                        and stop (a crash mid-append wrote
//                                        it; nothing after it is sound)
//   * CRC mismatch on a record whose
//     framing is intact               -> skip just that record and continue
//                                        (bit rot is local)
//
// Replay therefore never fails because of log content: the worst corrupt
// log yields an empty replay. Append refuses payloads outside the bounds,
// so a record replay would call corrupt is never written.
//
// Compaction rule: the log counts its records (replayed, CRC-skipped and
// appended since the last Open or Compact); the owner counts the records it
// would rewrite. CompactionDue is true when more than half the log is dead.
// Compact publishes the live records atomically (temp + fsync + rename +
// directory fsync), so a crash mid-compaction keeps the old log whole.
//
// Failpoints, named from the format's prefix and resolved once per Open:
//   <prefix>.append.error   the append is dropped as if write() failed
//   <prefix>.append.enospc  the append is dropped as if the disk were full:
//                           kUnavailable and counted, never corruption
//   <prefix>.append.torn    half a record is written, as a crash
//                           mid-append would leave it
//   <prefix>.replay.error   Open fails, as if the log were unreadable
#ifndef GRAPHALIGN_COMMON_RECORD_LOG_H_
#define GRAPHALIGN_COMMON_RECORD_LOG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace graphalign {

class Failpoint;

class RecordLog {
 public:
  struct Format {
    char magic[4];
    const char* file_name;         // The log's name inside its directory.
    uint32_t min_payload;          // Payload bounds: Append refuses, and
    uint32_t max_payload;          // replay truncates, anything outside.
    const char* failpoint_prefix;  // e.g. "server.cache".
    bool sync_appends;             // fsync after every Append.
  };

  struct ReplayStats {
    uint64_t replayed = 0;         // Records delivered to the callback.
    uint64_t crc_skipped = 0;      // Intact-framing records with a bad CRC.
    uint64_t truncated_bytes = 0;  // Torn/corrupt tail bytes dropped.
  };

  // Opens (creating if needed) `dir`/format.file_name, replays every good
  // record through `on_record`, truncates any torn tail, and returns a log
  // ready for appends. Fails only when the directory or file cannot be
  // created or read at all.
  static Result<std::unique_ptr<RecordLog>> Open(
      const std::string& dir, const Format& format,
      const std::function<void(std::string_view payload)>& on_record,
      ReplayStats* stats = nullptr);

  ~RecordLog();
  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  // Appends one record (fsynced when the format says so). Thread-safe.
  // Every failure is counted in append_errors and returned: kInvalidArgument
  // for a payload outside the bounds, kUnavailable for IO. The log stays
  // open for later appends.
  Status Append(std::string_view payload);

  // fsyncs the log: the seal a graceful drain applies before exit.
  Status Sync();

  // The compaction rule: true when the log holds more than twice
  // `live_records`, the number of records the owner would rewrite.
  bool CompactionDue(uint64_t live_records) const;

  // Rewrites the log to hold exactly `live`, in order. On failure the old
  // log and fd keep working unchanged. Thread-safe against Append.
  Status Compact(const std::vector<std::string>& live);

  // Current byte size of the log on disk (0 if it cannot be stat'ed).
  uint64_t log_bytes() const;

  uint64_t append_errors() const;

 private:
  RecordLog(const Format& format, std::string path, int fd);

  // Bounds-checks and writes one framed record; mu_ held.
  Status AppendLocked(std::string_view record);

  const Format format_;
  const std::string path_;
  Failpoint& append_error_;
  Failpoint& append_enospc_;
  Failpoint& append_torn_;
  mutable std::mutex mu_;
  int fd_;
  uint64_t records_ = 0;  // Replayed + CRC-skipped + appended since the
                          // last Open or Compact.
  uint64_t append_errors_ = 0;
};

}  // namespace graphalign

#endif  // GRAPHALIGN_COMMON_RECORD_LOG_H_
