// Raw file IO shared by every durable format: the record logs
// (common/record_log.h), the GST1 graph files (store/gst.h) and the
// isolated-run payload pipe (common/subprocess.h).
#ifndef GRAPHALIGN_COMMON_FILE_IO_H_
#define GRAPHALIGN_COMMON_FILE_IO_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace graphalign {

// Writes all of `bytes` to `fd`, resuming after short writes and EINTR.
// False on any other failure, with errno set.
bool WriteAll(int fd, std::string_view bytes);

// Reads `fd` from its current offset to EOF into one buffer, reserved from
// fstat up front so a large file is never copied while the buffer grows.
Result<std::string> ReadWholeFile(int fd);

// fsyncs the directory that holds `path`, so a rename into it survives
// power loss: without it a publish is atomic but not yet durable.
Status SyncParentDir(const std::string& path);

}  // namespace graphalign

#endif  // GRAPHALIGN_COMMON_FILE_IO_H_
