// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// Host facts bench_pipeline records next to its numbers that
// bench/bench_env.h does not provide: how many CPUs this process may
// actually run on, and the process's memory peak.
//
// The CPU count comes from sched_getaffinity — what `nproc` prints — not
// std::thread::hardware_concurrency(), which reports every online CPU and
// ignores affinity masks and cpusets. bench_pipeline records both and caps
// its threads with the usable count.

#ifndef XMLSEL_BENCH_PIPELINE_HOST_ENV_H_
#define XMLSEL_BENCH_PIPELINE_HOST_ENV_H_

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <thread>

namespace xmlsel {
namespace bench {

/// CPUs in this process's affinity mask (at least 1).
inline int UsableCpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Peak resident set of this process (VmHWM), in bytes.
inline int64_t PeakRssBytes() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<int64_t>(kb) * 1024;
}

/// Returns freed heap to the kernel and restarts the VmHWM peak from the
/// current resident set (`5 > /proc/self/clear_refs`), so the next
/// PeakRssBytes() covers only what runs after this call. Returns false
/// when the kernel refuses the reset; the peak then covers the process.
inline bool ResetPeakRss() {
  ::malloc_trim(0);
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

}  // namespace bench
}  // namespace xmlsel

#endif  // XMLSEL_BENCH_PIPELINE_HOST_ENV_H_
