// Resident and virtual memory of the calling process, from /proc/self/status.
//
// The paper reports peak resident memory per algorithm run (Figs 13-14).
// VmHWM is monotone over a process lifetime, so measuring several runs in
// one process would only record the largest: the bench harness's
// MeasurePeakMemory (bench_framework/experiment.h) runs each workload in a
// forked child that reads its own PeakRssBytes and reports it over a pipe.
#ifndef GRAPHALIGN_COMMON_MEMORY_H_
#define GRAPHALIGN_COMMON_MEMORY_H_

#include <cstdint>

namespace graphalign {

// Peak resident set size (VmHWM) of the calling process, in bytes.
// Returns 0 if /proc is unavailable.
int64_t PeakRssBytes();

// Current resident set size (VmRSS) of the calling process, in bytes.
int64_t CurrentRssBytes();

// Current virtual address-space size (VmSize) of the calling process, in
// bytes. Returns 0 if /proc is unavailable. This is the baseline on top of
// which subprocess memory limits budget their headroom.
int64_t CurrentVmBytes();

}  // namespace graphalign

#endif  // GRAPHALIGN_COMMON_MEMORY_H_
