#include "common/memory.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace graphalign {

namespace {

// Parses "<Key>:   <value> kB" lines from /proc/self/status.
int64_t ReadProcStatusKb(const char* key) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  int64_t kb = 0;
  const size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      kb = std::strtoll(line + key_len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

}  // namespace

int64_t PeakRssBytes() { return ReadProcStatusKb("VmHWM") * 1024; }

int64_t CurrentRssBytes() { return ReadProcStatusKb("VmRSS") * 1024; }

int64_t CurrentVmBytes() { return ReadProcStatusKb("VmSize") * 1024; }

}  // namespace graphalign
