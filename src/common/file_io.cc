#include "common/file_io.h"

#include <fcntl.h>
#include <libgen.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace graphalign {

bool WriteAll(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + off, bytes.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

Result<std::string> ReadWholeFile(int fd) {
  std::string bytes;
  struct stat st;
  if (fstat(fd, &st) == 0 && st.st_size > 0) {
    bytes.reserve(static_cast<size_t>(st.st_size));
  }
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n == 0) return bytes;
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("read failed: " + std::string(strerror(errno)));
    }
    bytes.append(buf, static_cast<size_t>(n));
  }
}

Status SyncParentDir(const std::string& path) {
  std::string path_copy = path;  // dirname() may modify its argument.
  const std::string dir = dirname(path_copy.data());
  const int dfd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  const bool synced = dfd >= 0 && fsync(dfd) == 0;
  const int err = errno;
  if (dfd >= 0) close(dfd);
  if (!synced) {
    return Status::Unavailable("fsync of directory " + dir + " failed: " +
                               std::string(strerror(err)));
  }
  return Status::Ok();
}

}  // namespace graphalign
