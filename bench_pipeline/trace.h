// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// In-memory span recorder for the traced bench_pipeline run. Spans are
// recorded by the benchmark around its calls into each library layer
// (name, start, end, parent, request id), kept in a per-thread vector,
// and written out once the run ends. Self time — a span's duration minus
// the part of its interval covered by its children — is what the
// per-layer metrics and the unattributed share are computed from.

#ifndef XMLSEL_BENCH_PIPELINE_TRACE_H_
#define XMLSEL_BENCH_PIPELINE_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace xmlsel {
namespace bench {

inline int64_t ToNs(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

inline int64_t NowNs() { return ToNs(std::chrono::steady_clock::now()); }

/// One recorded span. `name` points at a string literal; `parent` indexes
/// the same span vector (-1 for a root).
struct SpanRecord {
  const char* name = "";
  int32_t parent = -1;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Records the spans of one thread. Nesting follows scope: a span begun
/// while another is open becomes its child.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t request)
        : tracer_(tracer), id_(tracer->Begin(name, request)) {}
    ~Scope() { tracer_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t id_;
  };

  /// Records a span whose interval was measured by the caller (e.g. an
  /// open-loop publish timed from when it was due), under the open span.
  void Add(const char* name, uint64_t request, int64_t start_ns,
           int64_t end_ns) {
    spans_.push_back({name, open_, request, start_ns, end_ns});
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  int32_t Begin(const char* name, uint64_t request) {
    spans_.push_back({name, open_, request, NowNs(), 0});
    open_ = static_cast<int32_t>(spans_.size() - 1);
    return open_;
  }
  void End(int32_t id) {
    SpanRecord& s = spans_[static_cast<size_t>(id)];
    s.end_ns = NowNs();
    open_ = s.parent;
  }

  std::vector<SpanRecord> spans_;
  int32_t open_ = -1;
};

/// Appends `spans` to `out`, re-basing their parent indices.
inline void AppendSpans(std::span<const SpanRecord> spans,
                        std::vector<SpanRecord>* out) {
  const int32_t base = static_cast<int32_t>(out->size());
  for (SpanRecord s : spans) {
    if (s.parent >= 0) s.parent += base;
    out->push_back(s);
  }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to its own. Children may overlap each
/// other (concurrent work under one parent); overlap is counted once.
inline std::vector<int64_t> SelfTimes(std::span<const SpanRecord> spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_start = 0;
    int64_t run_end = 0;
    bool in_run = false;
    for (auto [start, end] : kids) {
      start = std::max(start, lo);
      end = std::min(end, hi);
      if (start >= end) continue;
      if (in_run && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (in_run) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      in_run = true;
    }
    if (in_run) covered += run_end - run_start;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

/// Per-name totals over a span set.
struct LayerTotals {
  int64_t count = 0;
  int64_t self_ns = 0;
  int64_t duration_ns = 0;

  double MeanSelfUs() const {
    return count == 0 ? 0.0 : static_cast<double>(self_ns) / 1e3 /
                                  static_cast<double>(count);
  }
  double MeanDurationUs() const {
    return count == 0 ? 0.0 : static_cast<double>(duration_ns) / 1e3 /
                                  static_cast<double>(count);
  }
};

inline std::map<std::string, LayerTotals> TotalsByName(
    std::span<const SpanRecord> spans) {
  std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, LayerTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerTotals& t = out[spans[i].name];
    ++t.count;
    t.self_ns += self[i];
    t.duration_ns += spans[i].end_ns - spans[i].start_ns;
  }
  return out;
}

/// Writes spans as tab-separated lines: id, parent, request, name, start
/// and end in nanoseconds from the earliest start, and self time.
inline bool WriteSpans(const std::string& path,
                       std::span<const SpanRecord> spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<int64_t> self = SelfTimes(spans);
  int64_t origin = spans.empty() ? 0 : spans[0].start_ns;
  for (const SpanRecord& s : spans) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f, "%zu\t%d\t%llu\t%s\t%lld\t%lld\t%lld\n", i, s.parent,
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace bench
}  // namespace xmlsel

#endif  // XMLSEL_BENCH_PIPELINE_TRACE_H_
