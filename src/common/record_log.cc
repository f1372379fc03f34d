#include "common/record_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/file_io.h"

namespace graphalign {

namespace {

constexpr size_t kMagicBytes = sizeof(RecordLog::Format::magic);
constexpr size_t kHeaderBytes = kMagicBytes + 2 * sizeof(uint32_t);

bool Fires(Failpoint& site) { return site.armed() && site.FireBool(); }

Failpoint& Site(const RecordLog::Format& format, const char* suffix) {
  return Failpoint::Get(std::string(format.failpoint_prefix) + suffix);
}

// Frames one record onto *out.
void AppendRecord(const RecordLog::Format& format, std::string_view payload,
                  std::string* out) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = Crc32c(payload);
  out->append(format.magic, kMagicBytes);
  out->append(reinterpret_cast<const char*>(&len), sizeof(len));
  out->append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  out->append(payload);
}

std::string Errno(const std::string& what) {
  return what + ": " + std::string(strerror(errno));
}

}  // namespace

RecordLog::RecordLog(const Format& format, std::string path, int fd)
    : format_(format),
      path_(std::move(path)),
      append_error_(Site(format, ".append.error")),
      append_enospc_(Site(format, ".append.enospc")),
      append_torn_(Site(format, ".append.torn")),
      fd_(fd) {}

RecordLog::~RecordLog() { close(fd_); }

Result<std::unique_ptr<RecordLog>> RecordLog::Open(
    const std::string& dir, const Format& format,
    const std::function<void(std::string_view payload)>& on_record,
    ReplayStats* stats) {
  Failpoint& replay_error = Site(format, ".replay.error");
  if (replay_error.armed()) {
    GA_RETURN_IF_ERROR(replay_error.Fire(Status::Internal(
        std::string(format.file_name) + " unreadable (injected)")));
  }
  if (dir.empty()) {
    return Status::InvalidArgument(std::string(format.file_name) +
                                   ": directory path is empty");
  }
  if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal(Errno("cannot create " + dir));
  }
  const std::string path = dir + "/" + format.file_name;
  // O_APPEND puts every write at the end, past a truncated tail too.
  const int fd = open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return Status::Internal(Errno("cannot open " + path));
  std::unique_ptr<RecordLog> log(new RecordLog(format, path, fd));
  GA_ASSIGN_OR_RETURN(const std::string bytes, ReadWholeFile(fd));

  // `pos` only advances past whole, well-framed records, so wherever the
  // loop stops is the end of the last good record.
  ReplayStats local;
  size_t pos = 0;
  while (bytes.size() - pos >= kHeaderBytes) {
    const char* header = bytes.data() + pos;
    if (std::memcmp(header, format.magic, kMagicBytes) != 0) break;
    uint32_t len = 0, crc = 0;
    std::memcpy(&len, header + kMagicBytes, sizeof(len));
    std::memcpy(&crc, header + kMagicBytes + sizeof(len), sizeof(crc));
    if (len < format.min_payload || len > format.max_payload) break;
    if (bytes.size() - pos - kHeaderBytes < len) break;  // Partial body.
    const std::string_view payload(header + kHeaderBytes, len);
    pos += kHeaderBytes + len;
    if (Crc32c(payload) != crc) {
      ++local.crc_skipped;
      continue;
    }
    if (on_record) on_record(payload);
    ++local.replayed;
  }
  local.truncated_bytes = bytes.size() - pos;
  // Drop the torn tail so future appends start at a record boundary.
  if (local.truncated_bytes > 0 &&
      ftruncate(fd, static_cast<off_t>(pos)) != 0) {
    return Status::Internal(Errno("cannot truncate torn tail of " + path));
  }
  log->records_ = local.replayed + local.crc_skipped;
  if (stats != nullptr) *stats = local;
  return log;
}

Status RecordLog::Append(std::string_view payload) {
  std::string record;
  record.reserve(kHeaderBytes + payload.size());
  AppendRecord(format_, payload, &record);
  std::lock_guard<std::mutex> lock(mu_);
  Status status = AppendLocked(record);
  if (status.ok()) {
    ++records_;
  } else {
    ++append_errors_;
  }
  return status;
}

Status RecordLog::AppendLocked(std::string_view record) {
  const size_t len = record.size() - kHeaderBytes;
  if (len < format_.min_payload || len > format_.max_payload) {
    return Status::InvalidArgument(path_ + ": bad record size " +
                                   std::to_string(len));
  }
  if (Fires(append_error_)) {
    return Status::Unavailable(path_ + ": append failed (injected)");
  }
  if (Fires(append_enospc_)) {
    // Disk full is a transient-environment failure: the record did not
    // commit, nothing on disk lies.
    return Status::Unavailable(path_ + ": append failed: " +
                               std::string(strerror(ENOSPC)) + " (injected)");
  }
  if (Fires(append_torn_)) {
    // Dying mid-append: the header plus half the payload reach disk.
    const size_t torn = kHeaderBytes + len / 2;
    (void)WriteAll(fd_, record.substr(0, torn));
    return Status::Unavailable(path_ + ": append torn (injected)");
  }
  if (!WriteAll(fd_, record)) {
    return Status::Unavailable(Errno(path_ + ": append failed"));
  }
  if (format_.sync_appends && fsync(fd_) != 0) {
    return Status::Unavailable(Errno(path_ + ": fsync failed"));
  }
  return Status::Ok();
}

Status RecordLog::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fsync(fd_) != 0) {
    return Status::Unavailable(Errno(path_ + ": fsync failed"));
  }
  return Status::Ok();
}

bool RecordLog::CompactionDue(uint64_t live_records) const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_ > 2 * live_records;
}

Status RecordLog::Compact(const std::vector<std::string>& live) {
  const std::string tmp = path_ + ".tmp";
  std::lock_guard<std::mutex> lock(mu_);
  const int tfd =
      open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_APPEND, 0644);
  if (tfd < 0) return Status::Unavailable(Errno("cannot create " + tmp));
  // One record at a time, so the rewrite never holds a second copy of the
  // whole log in memory.
  bool written = true;
  std::string record;
  for (size_t i = 0; written && i < live.size(); ++i) {
    record.clear();
    AppendRecord(format_, live[i], &record);
    written = WriteAll(tfd, record);
  }
  if (!written || fsync(tfd) != 0 ||
      rename(tmp.c_str(), path_.c_str()) != 0) {
    const Status error =
        Status::Unavailable(Errno("compaction of " + path_ + " failed"));
    close(tfd);
    unlink(tmp.c_str());
    return error;
  }
  // The rename already replaced the old inode, so the temp fd is the log
  // from here on, even when the directory fsync fails.
  (void)SyncParentDir(path_);
  close(fd_);
  fd_ = tfd;
  records_ = live.size();
  return Status::Ok();
}

uint64_t RecordLog::log_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  struct stat st;
  if (fstat(fd_, &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

uint64_t RecordLog::append_errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return append_errors_;
}

}  // namespace graphalign
