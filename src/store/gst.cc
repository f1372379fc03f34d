#include "store/gst.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <limits>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/file_io.h"
#include "store/mapped_file.h"

namespace graphalign {

namespace {

constexpr size_t kSectionTableOff = 40;
constexpr size_t kSectionEntryBytes = 32;
constexpr size_t kHeaderCrcOff = 32;
constexpr uint32_t kSectionOffsets = 1;
constexpr uint32_t kSectionAdjacency = 2;

void PutU32(std::string* out, size_t pos, uint32_t v) {
  std::memcpy(out->data() + pos, &v, sizeof(v));
}
void PutU64(std::string* out, size_t pos, uint64_t v) {
  std::memcpy(out->data() + pos, &v, sizeof(v));
}
uint32_t GetU32(std::string_view bytes, size_t pos) {
  uint32_t v = 0;
  std::memcpy(&v, bytes.data() + pos, sizeof(v));
  return v;
}
uint64_t GetU64(std::string_view bytes, size_t pos) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + pos, sizeof(v));
  return v;
}

Status Corrupt(const std::string& what) {
  return Status::Corrupt("GST1: " + what);
}

}  // namespace

std::string EncodeGst(const Graph& g) {
  std::span<const int64_t> offsets = g.RawOffsets();
  std::span<const int> adj = g.RawAdjacency();
  // A default-constructed Graph has no arrays; the canonical empty graph
  // still serializes with its single offsets[0] == 0 entry.
  static constexpr int64_t kZero = 0;
  if (offsets.empty()) offsets = {&kZero, 1};

  const uint32_t n = static_cast<uint32_t>(g.num_nodes());
  const uint64_t m = static_cast<uint64_t>(g.num_edges());
  const uint64_t off_len = offsets.size_bytes();
  const uint64_t adj_len = adj.size_bytes();
  const uint64_t off_pos = kGstPreambleBytes;
  const uint64_t adj_pos = off_pos + off_len;

  const char* off_bytes = reinterpret_cast<const char*>(offsets.data());
  const char* adj_bytes = reinterpret_cast<const char*>(adj.data());
  const uint32_t off_crc = Crc32c({off_bytes, off_len});
  const uint32_t adj_crc = Crc32c({adj_bytes, adj_len});

  std::string out(kGstPreambleBytes, '\0');
  std::memcpy(out.data(), kGstMagic, sizeof(kGstMagic));
  PutU32(&out, 4, kGstVersion);
  PutU32(&out, 8, n);
  PutU32(&out, 12, 2);  // section_count
  PutU64(&out, 16, m);
  PutU64(&out, 24, g.ContentHash());
  // header_crc (offset 32) stays zero until the table is in place.
  size_t e = kSectionTableOff;
  PutU32(&out, e + 0, kSectionOffsets);
  PutU32(&out, e + 4, off_crc);
  PutU64(&out, e + 8, off_pos);
  PutU64(&out, e + 16, off_len);
  e += kSectionEntryBytes;
  PutU32(&out, e + 0, kSectionAdjacency);
  PutU32(&out, e + 4, adj_crc);
  PutU64(&out, e + 8, adj_pos);
  PutU64(&out, e + 16, adj_len);
  PutU32(&out, kHeaderCrcOff, Crc32c(out));

  out.append(off_bytes, off_len);
  out.append(adj_bytes, adj_len);
  return out;
}

Result<Graph> OpenGstBytes(std::string_view bytes,
                           std::shared_ptr<const void> backing,
                           GstInfo* info) {
  GA_FAILPOINT_STATUS("store.verify.corrupt",
                      Corrupt("verification failed (injected)"));
  if (reinterpret_cast<uintptr_t>(bytes.data()) % 8 != 0) {
    return Status::InvalidArgument("GST1: buffer must be 8-byte aligned");
  }
  if (bytes.size() < kGstPreambleBytes) {
    return Corrupt("truncated preamble (" + std::to_string(bytes.size()) +
                   " bytes)");
  }
  if (std::memcmp(bytes.data(), kGstMagic, sizeof(kGstMagic)) != 0) {
    return Corrupt("bad magic");
  }
  const uint32_t version = GetU32(bytes, 4);
  if (version != kGstVersion) {
    return Corrupt("unsupported version " + std::to_string(version));
  }
  const uint32_t n = GetU32(bytes, 8);
  const uint32_t section_count = GetU32(bytes, 12);
  const uint64_t m = GetU64(bytes, 16);
  const uint64_t content_hash = GetU64(bytes, 24);
  const uint32_t header_crc = GetU32(bytes, kHeaderCrcOff);

  // Verify the preamble+table CRC before trusting any field further: a
  // flipped bit in a length or offset must not steer the later checks.
  std::string preamble(bytes.substr(0, kGstPreambleBytes));
  std::memset(preamble.data() + kHeaderCrcOff, 0, sizeof(uint32_t));
  if (Crc32c(preamble) != header_crc) {
    return Corrupt("header CRC mismatch");
  }

  if (section_count != 2) {
    return Corrupt("unexpected section count " +
                   std::to_string(section_count));
  }
  if (n > static_cast<uint32_t>(std::numeric_limits<int>::max())) {
    return Corrupt("node count overflows int");
  }
  // Every edge contributes 8 adjacency bytes, so a sane m is bounded by the
  // file size; this also kills multiplication overflow below.
  if (m > bytes.size()) {
    return Corrupt("edge count exceeds file capacity");
  }
  const uint64_t off_len = (static_cast<uint64_t>(n) + 1) * 8;
  const uint64_t adj_len = 2 * m * 4;
  const uint64_t off_pos = kGstPreambleBytes;
  const uint64_t adj_pos = off_pos + off_len;
  if (bytes.size() != adj_pos + adj_len) {
    return Corrupt("file size " + std::to_string(bytes.size()) +
                   " does not match declared sections");
  }
  struct SectionWant {
    uint32_t id;
    uint64_t pos;
    uint64_t len;
  };
  const SectionWant want[2] = {{kSectionOffsets, off_pos, off_len},
                               {kSectionAdjacency, adj_pos, adj_len}};
  for (int i = 0; i < 2; ++i) {
    const size_t e = kSectionTableOff + i * kSectionEntryBytes;
    if (GetU32(bytes, e) != want[i].id ||
        GetU64(bytes, e + 8) != want[i].pos ||
        GetU64(bytes, e + 16) != want[i].len) {
      return Corrupt("section table entry " + std::to_string(i) +
                     " disagrees with the preamble");
    }
    const uint32_t crc = GetU32(bytes, e + 4);
    if (Crc32c(bytes.substr(want[i].pos, want[i].len)) != crc) {
      return Corrupt(std::string(i == 0 ? "offsets" : "adjacency") +
                     " section CRC mismatch");
    }
  }

  // CRCs passed; now re-validate CSR structure so even a file with
  // self-consistent checksums can never hand out an out-of-range index.
  const int64_t* offsets =
      reinterpret_cast<const int64_t*>(bytes.data() + off_pos);
  const int* adj = reinterpret_cast<const int*>(bytes.data() + adj_pos);
  const int64_t total = static_cast<int64_t>(2 * m);
  if (offsets[0] != 0 || offsets[n] != total) {
    return Corrupt("offsets do not span the adjacency section");
  }
  for (uint32_t u = 0; u < n; ++u) {
    if (offsets[u + 1] < offsets[u]) {
      return Corrupt("offsets not monotone at node " + std::to_string(u));
    }
    int prev = -1;
    for (int64_t k = offsets[u]; k < offsets[u + 1]; ++k) {
      const int v = adj[k];
      if (v < 0 || v >= static_cast<int>(n)) {
        return Corrupt("neighbor out of range at node " + std::to_string(u));
      }
      if (v == static_cast<int>(u)) {
        return Corrupt("self-loop at node " + std::to_string(u));
      }
      if (v <= prev) {
        return Corrupt("neighbor row not strictly sorted at node " +
                       std::to_string(u));
      }
      prev = v;
    }
  }

  if (info != nullptr) {
    info->num_nodes = static_cast<int>(n);
    info->num_edges = static_cast<int64_t>(m);
    info->content_hash = content_hash;
    info->file_bytes = bytes.size();
  }
  return Graph::FromCsrUnchecked(static_cast<int>(n),
                                 static_cast<int64_t>(m), offsets, adj,
                                 std::move(backing));
}

Result<Graph> OpenGstFile(const std::string& path, GstInfo* info) {
  GA_ASSIGN_OR_RETURN(std::shared_ptr<MappedFile> file,
                      MappedFile::Open(path));
  const std::string_view bytes = file->bytes();
  return OpenGstBytes(bytes, std::move(file), info);
}

Status WriteGstFile(const Graph& g, const std::string& path) {
  GA_FAILPOINT_STATUS("store.write.error",
                      Status::Unavailable("store write failed (injected)"));
  // Disk full is the transient-environment failure class, NEVER corruption:
  // the temp file simply did not commit, nothing on disk lies, and no
  // quarantine may fire. The injected status carries the strerror(ENOSPC)
  // text so callers exercise the same message path a real full disk takes.
  GA_FAILPOINT_STATUS(
      "store.write.enospc",
      Status::Unavailable("write to " + path + ".tmp failed: " +
                          std::string(strerror(ENOSPC)) +
                          " (injected ENOSPC)"));
  const std::string bytes = EncodeGst(g);
  // pid + sequence keeps concurrent writers (daemon worker threads racing
  // to publish the same graph) off each other's temp files; whoever renames
  // last wins with identical content.
  static std::atomic<uint64_t> temp_seq{0};
  const std::string tmp = path + ".tmp-" + std::to_string(getpid()) + "-" +
                          std::to_string(temp_seq.fetch_add(1));
  const int fd = open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Unavailable("cannot create " + tmp + ": " +
                               std::string(strerror(errno)));
  }
  if (!WriteAll(fd, bytes)) {
    const int err = errno;
    close(fd);
    unlink(tmp.c_str());
    return Status::Unavailable("write to " + tmp + " failed: " +
                               std::string(strerror(err)));
  }
  if (GA_FAILPOINT_FIRED("store.fsync.error") || fsync(fd) != 0) {
    close(fd);
    unlink(tmp.c_str());
    return Status::Unavailable("fsync of " + tmp + " failed");
  }
  close(fd);
  // The crash window: temp durable, final name not yet published. The
  // injected variant returns here ON PURPOSE without unlinking the temp —
  // exactly the garbage a real crash leaves for `store gc` to collect.
  GA_FAILPOINT_STATUS(
      "store.rename.error",
      Status::Unavailable("crash before rename (injected); temp left behind"));
  if (rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    unlink(tmp.c_str());
    return Status::Unavailable("rename to " + path + " failed: " +
                               std::string(strerror(err)));
  }
  return SyncParentDir(path);
}

}  // namespace graphalign
