// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// bench_pipeline: the end-to-end and per-layer performance benchmark,
// from XML bytes in memory to estimate latency through ServingCatalog.
//
//   bench_pipeline --workload NAME|all --seed N --seconds S --trace 0|1
//                  [--workdir DIR] [--spans-dir DIR]
//   bench_pipeline --smoke [--workdir DIR]
//
// Each workload runs in a fresh child process (a re-exec of
// /proc/self/exe), so its memory peak and caches start cold. The child
// prints one line per metric, `workload metric value unit [samples=N]`;
// the parent forwards them and ends its standard output with one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
// Inputs are generated from --seed (GenerateDataset / GenerateWorkload)
// before any timer starts, and every estimate is checked against
// ExactEvaluator counts computed up front: the bounds must bracket the
// exact count, and the estimate must equal the reference estimate of the
// same tenant, packed version and query.
//
// Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
// (--trace 1) replay setup and every estimate layer by layer through the
// library's public calls, with a span around each call, and report the
// per-layer metrics; they also measure the untraced path in the same
// process, so the unattributed share and the tracing overhead compare
// like with like. bench_pipeline/README.md describes every workload and
// metric.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "automaton/compiled_cache.h"
#include "automaton/grammar_eval.h"
#include "baseline/exact.h"
#include "bench_env.h"
#include "data/generator.h"
#include "estimator/serving.h"
#include "estimator/synopsis.h"
#include "grammar/bplex.h"
#include "grammar/streaming.h"
#include "host_env.h"
#include "query/parser.h"
#include "query/rewrite.h"
#include "serving/catalog.h"
#include "serving/snapshot.h"
#include "storage/mapped.h"
#include "trace.h"
#include "workload/query_gen.h"
#include "xml/writer.h"
#include "xmlsel/rcu.h"

namespace xmlsel {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

/// Nearest-rank percentile.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Mean(std::span<const double> v) {
  double sum = 0;
  for (double x : v) sum += x;
  return Ratio(sum, static_cast<double>(v.size()));
}

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "bench_pipeline: %s\n", what.c_str());
  std::exit(2);
}

void Require(const Status& st, const char* what) {
  if (!st.ok()) Fail(std::string(what) + ": " + st.ToString());
}

// --- Metric catalogue ----------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Reported by untraced runs; mirrored by BENCHMARK.json "end_to_end".
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"first_estimate_ms", "ms"},
    {"estimate_p50_us", "us"},
    {"estimate_p90_us", "us"},
    {"throughput_qps", "1/s"},
    {"lower_rel_err", "ratio"},
    {"upper_qerror", "ratio"},
    {"image_bytes", "B"},
    {"peak_rss_mb", "MB"},
};

/// Reported by traced runs; mirrored by BENCHMARK.json "per_layer".
constexpr MetricSpec kPerLayer[] = {
    {"grammar.parse_dag_s", "s"},
    {"grammar.bplex_s", "s"},
    {"grammar.lossy_s", "s"},
    {"grammar.lossless_rules", "count"},
    {"grammar.lossy_rules", "count"},
    {"storage.pack_s", "s"},
    {"storage.open_us", "us"},
    {"serving.publish_us", "us"},
    {"serving.publish_late_ms", "ms"},
    {"serving.acquire_us", "us"},
    {"serving.retired_pending_max", "count"},
    {"query.parse_us", "us"},
    {"query.cap_us", "us"},
    {"automaton.prepare_us", "us"},
    {"automaton.prepare_hit_ratio", "ratio"},
    {"automaton.lower_us", "us"},
    {"automaton.upper_us", "us"},
    {"automaton.sigma_entries", "count"},
    {"automaton.distinct_states", "count"},
    {"automaton.memo_hit_ratio", "ratio"},
    {"automaton.intern_hit_ratio", "ratio"},
    {"automaton.arena_bytes", "B"},
    {"automaton.heap_allocs", "count"},
    {"storage.decode_misses", "count"},
    {"storage.decode_hit_ratio", "ratio"},
    {"storage.evictions", "count"},
    {"storage.resident_bytes_max", "B"},
    {"storage.decode_budget_bytes", "B"},
    {"quality.upper_rel_err", "ratio"},
    {"trace.unattributed_share", "ratio"},
    {"trace.setup_unattributed_share", "ratio"},
    {"trace.overhead", "ratio"},
    {"trace.setup_overhead", "ratio"},
};

constexpr const char* kWorkloads[] = {"steady_xmark", "fresh_tenants",
                                      "mixed_budget", "concurrent_readers"};

std::span<const MetricSpec> MetricsFor(bool trace) {
  if (trace) return kPerLayer;
  return kEndToEnd;
}

/// The metrics one child run reports, in catalogue order.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void Set(const char* name, double value, int64_t samples = -1) {
    if (!std::isfinite(value)) {
      Fail(std::string("metric ") + name + " is not finite");
    }
    values_[name] = {value, samples};
  }

  /// Prints `workload metric value unit [samples=N]` for every metric of
  /// the run's kind; a missing one is a harness bug.
  void Print(bool trace) const {
    for (const MetricSpec& m : MetricsFor(trace)) {
      auto it = values_.find(m.name);
      if (it == values_.end()) Fail(std::string("metric not set: ") + m.name);
      std::printf("%s %s %.12g %s", workload_.c_str(), m.name,
                  it->second.first, m.unit);
      if (it->second.second >= 0) {
        std::printf(" samples=%lld",
                    static_cast<long long>(it->second.second));
      }
      std::printf("\n");
    }
  }

 private:
  std::string workload_;
  std::map<std::string, std::pair<double, int64_t>> values_;
};

/// Estimates checked and failures seen over a whole child run. A failure
/// is a non-OK result, a bound that does not bracket the exact count, an
/// estimate that differs from the reference, or a broken invariant
/// (image bytes, reader locks).
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
};

// --- Inputs --------------------------------------------------------------

/// Input sizes; the full run follows the paper's operating points, the
/// smoke run shrinks everything so all workloads finish in seconds.
struct Sizes {
  int64_t xmark_elements;
  int32_t xmark_serving_rules;
  int32_t xmark_queries;
  int32_t fresh_seeds;
  int64_t fresh_elements;
  int32_t fresh_queries;
  int32_t dblp_tenants;
  int64_t dblp_elements;
  int32_t dblp_queries;
  int64_t mixed_estimates;
  int32_t publish_every;
  double writer_rate;
  int32_t setup_reps_large;
  int32_t setup_reps_small;
  int32_t cold_images;
};

// The error metrics average over every distinct query, so the query
// counts set how far they move between seeds: with 96 XMark queries
// upper_qerror moved 0.15 (IQR ÷ median over ten seeds) and with 768 it
// moved 0.05; 192 queries per DBLP tenant moved lower_rel_err by 0.08–0.10.
// cold_images samples each fresh_tenants tenant three times.
constexpr Sizes kFullSizes = {
    .xmark_elements = 440000,
    .xmark_serving_rules = 400,
    .xmark_queries = 768,
    .fresh_seeds = 8,
    .fresh_elements = 10000,
    .fresh_queries = 250,
    .dblp_tenants = 8,
    .dblp_elements = 50000,
    .dblp_queries = 384,
    .mixed_estimates = 8000,
    .publish_every = 50,
    .writer_rate = 5.0,
    .setup_reps_large = 3,
    .setup_reps_small = 9,
    .cold_images = 120,
};
constexpr Sizes kSmokeSizes = {
    .xmark_elements = 20000,
    .xmark_serving_rules = 100,
    .xmark_queries = 24,
    .fresh_seeds = 2,
    .fresh_elements = 1000,
    .fresh_queries = 12,
    .dblp_tenants = 4,
    .dblp_elements = 3000,
    .dblp_queries = 12,
    .mixed_estimates = 240,
    .publish_every = 10,
    .writer_rate = 40.0,
    .setup_reps_large = 2,
    .setup_reps_small = 2,
    .cold_images = 5,
};

constexpr double kOrderAxisProb = 0.15;  // §8.1 workload mix

/// One served tenant: the XML its synopses are built from, the κ of each
/// packed version, its queries with exact answers, and the reference
/// estimate per (version, query).
struct Tenant {
  std::string id;
  std::string xml;
  std::vector<int32_t> kappas;
  std::vector<std::string> xpaths;
  std::vector<int64_t> exact;
  std::vector<std::string> files;         ///< untraced image per version
  std::vector<std::string> replay_files;  ///< traced-replay image per version
  std::vector<std::vector<SelectivityEstimate>> reference;  ///< [v][q]

  int32_t versions() const { return static_cast<int32_t>(kappas.size()); }
};

/// A workload: its tenants, one pass of its (tenant, query) stream, and
/// how the timed phase drives the catalog.
struct Workload {
  std::string name;
  std::vector<Tenant> tenants;
  std::vector<std::pair<int32_t, int32_t>> stream;
  int32_t setup_reps = 5;
  bool republish_each_pass = false;  ///< every pass starts on cold images
  int32_t publish_every = 0;         ///< closed-loop publish cadence
  bool half_budget = false;          ///< decode budget = warm residency / 2
  int32_t readers = 0;               ///< > 0: threaded readers + writer
  double writer_rate = 0;            ///< open-loop publishes per second
  std::string dir;                   ///< where this run writes its images
};

template <typename F>
void ParallelFor(int64_t n, int threads, F&& body) {
  std::atomic<int64_t> next{0};
  auto worker = [&] {
    for (int64_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) body(i);
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& th : pool) th.join();
}

int32_t LosslessRuleCount(std::string_view xml) {
  Result<Synopsis> s = Synopsis::BuildStreaming(xml, SynopsisOptions{});
  Require(s.status(), "BuildStreaming");
  return s.value().lossless().rule_count();
}

/// Adds up to `count` distinct §8.1 queries over `doc`, sent as XPath
/// text, with their exact counts. Each text must parse back to itself.
void AddQueries(const Document& doc, int32_t count, uint64_t seed,
                int threads, Tenant* t) {
  WorkloadOptions options;
  options.count = count + count / 2;  // headroom for duplicate shapes
  options.order_axis_prob = kOrderAxisProb;
  options.seed = seed;
  NameTable names = doc.names();
  std::set<std::string> seen;
  std::vector<Query> forward;
  for (const Query& q : GenerateWorkload(doc, options)) {
    if (static_cast<int32_t>(t->xpaths.size()) == count) break;
    std::string text = q.ToString(doc.names());
    if (!seen.insert(text).second) continue;
    Result<Query> parsed = ParseQuery(text, &names);
    Require(parsed.status(), "query round trip");
    if (parsed.value().ToString(names) != text) {
      Fail("query does not round-trip: " + text);
    }
    Result<RewriteOutcome> rw = RewriteReverseAxes(parsed.value());
    Require(rw.status(), "RewriteReverseAxes");
    if (rw.value().unsatisfiable) continue;
    t->xpaths.push_back(std::move(text));
    forward.push_back(std::move(rw.value().query));
  }
  ExactEvaluator oracle(doc);
  t->exact.assign(forward.size(), 0);
  ParallelFor(static_cast<int64_t>(forward.size()), threads, [&](int64_t i) {
    t->exact[static_cast<size_t>(i)] =
        oracle.Count(forward[static_cast<size_t>(i)]);
  });
}

template <typename KappaFn>
Tenant MakeTenant(std::string id, DatasetId dataset, int64_t elements,
                  uint64_t doc_seed, int32_t queries, KappaFn kappas,
                  int threads) {
  Tenant t;
  t.id = std::move(id);
  Document doc = GenerateDataset(dataset, elements, doc_seed);
  t.xml = WriteXml(doc);
  t.kappas = kappas(LosslessRuleCount(t.xml));
  AddQueries(doc, queries, doc_seed, threads, &t);
  if (t.xpaths.empty()) Fail("no queries generated for " + t.id);
  return t;
}

/// Every (tenant, query) pair once, tenant-interleaved.
std::vector<std::pair<int32_t, int32_t>> RoundRobin(
    const std::vector<Tenant>& tenants) {
  std::vector<std::pair<int32_t, int32_t>> stream;
  size_t longest = 0;
  for (const Tenant& t : tenants) longest = std::max(longest, t.xpaths.size());
  for (size_t q = 0; q < longest; ++q) {
    for (size_t t = 0; t < tenants.size(); ++t) {
      if (q < tenants[t].xpaths.size()) {
        stream.emplace_back(static_cast<int32_t>(t), static_cast<int32_t>(q));
      }
    }
  }
  return stream;
}

uint64_t DocSeed(uint64_t seed, int64_t index) {
  return seed * 1000003ULL + static_cast<uint64_t>(index);
}

Workload MakeWorkload(const std::string& name, uint64_t seed, const Sizes& z,
                      int cpus) {
  const int threads = std::min(4, cpus);
  Workload w;
  w.name = name;
  if (name == "steady_xmark") {
    // One tenant at the paper's XMark size; κ leaves a serving layer of
    // about xmark_serving_rules rules.
    w.tenants.push_back(MakeTenant(
        "xmark", DatasetId::kXmark, z.xmark_elements, DocSeed(seed, 0),
        z.xmark_queries,
        [&](int32_t lossless) {
          return std::vector<int32_t>{
              std::max(0, lossless - z.xmark_serving_rules)};
        },
        threads));
    w.stream = RoundRobin(w.tenants);
    w.setup_reps = z.setup_reps_large;
  } else if (name == "fresh_tenants") {
    // Five generators × fresh_seeds documents, κ = 10 % of each grammar.
    constexpr DatasetId kGenerators[] = {
        DatasetId::kDblp, DatasetId::kSwissProt, DatasetId::kXmark,
        DatasetId::kPsd, DatasetId::kCatalog};
    for (int32_t s = 0; s < z.fresh_seeds; ++s) {
      for (DatasetId g : kGenerators) {
        const int64_t index = static_cast<int64_t>(w.tenants.size());
        w.tenants.push_back(MakeTenant(
            std::string(DatasetName(g)) + "-" + std::to_string(s), g,
            z.fresh_elements, DocSeed(seed, index), z.fresh_queries,
            [](int32_t lossless) {
              return std::vector<int32_t>{lossless / 10};
            },
            threads));
      }
    }
    w.stream = RoundRobin(w.tenants);
    w.setup_reps = z.setup_reps_small;
    w.republish_each_pass = true;
  } else if (name == "mixed_budget" || name == "concurrent_readers") {
    // DBLP tenants with two packed versions each: κ ≈ 10 % and ≈ 12 %.
    for (int32_t i = 0; i < z.dblp_tenants; ++i) {
      w.tenants.push_back(MakeTenant(
          "dblp-" + std::to_string(i), DatasetId::kDblp, z.dblp_elements,
          DocSeed(seed, i), z.dblp_queries,
          [](int32_t lossless) {
            const int32_t k = lossless / 10;
            return std::vector<int32_t>{k, k + std::max(1, lossless / 50)};
          },
          threads));
    }
    w.setup_reps = z.setup_reps_small;
    if (name == "mixed_budget") {
      const int64_t tenants = static_cast<int64_t>(w.tenants.size());
      for (int64_t i = 0; i < z.mixed_estimates; ++i) {
        const Tenant& t = w.tenants[static_cast<size_t>(i % tenants)];
        const int64_t q =
            (i / tenants) % static_cast<int64_t>(t.xpaths.size());
        w.stream.emplace_back(static_cast<int32_t>(i % tenants),
                              static_cast<int32_t>(q));
      }
      w.publish_every = z.publish_every;
      w.half_budget = true;
    } else {
      w.stream = RoundRobin(w.tenants);
      // Two readers and one writer, within the usable CPUs.
      w.readers = std::max(1, std::min(2, cpus - 1));
      w.writer_rate = z.writer_rate;
    }
  } else {
    Fail("unknown workload " + name);
  }
  return w;
}

// --- Estimating ----------------------------------------------------------

struct Outcome {
  Status status;
  SelectivityEstimate est;
  uint64_t version = 0;  ///< snapshot version that answered
};

/// The untraced path: one XPath per EstimateStrings call, the way a query
/// optimizer calls it.
Outcome EstimateOnce(const ServingCatalog& catalog, const std::string& tenant,
                     std::string_view xpath) {
  Outcome o;
  Result<BatchOutcome> r = catalog.EstimateStrings(
      tenant, std::span<const std::string_view>(&xpath, 1));
  if (!r.ok()) {
    o.status = r.status();
    return o;
  }
  o.version = r.value().snapshot_version;
  const Result<SelectivityEstimate>& e = r.value().results[0];
  if (!e.ok()) {
    o.status = e.status();
    return o;
  }
  o.est = e.value();
  return o;
}

/// Kernel and compiled-query-cache counters summed over traced estimates.
struct KernelCounters {
  int64_t estimates = 0;
  int64_t prepare_hits = 0;
  int64_t prepare_misses = 0;
  GrammarEvalResult sums;  ///< kernel counters over both bounds

  void Add(const GrammarEvalResult& r) {
    sums.sigma_entries += r.sigma_entries;
    sums.distinct_states += r.distinct_states;
    sums.memo_probes += r.memo_probes;
    sums.memo_hits += r.memo_hits;
    sums.intern_probes += r.intern_probes;
    sums.intern_hits += r.intern_hits;
    sums.arena_bytes += r.arena_bytes;
    sums.heap_allocs += r.heap_allocs;
  }
  void Merge(const KernelCounters& o) {
    estimates += o.estimates;
    prepare_hits += o.prepare_hits;
    prepare_misses += o.prepare_misses;
    Add(o.sums);
  }
};

/// The traced path: EstimateStrings replayed layer by layer — Acquire,
/// copy the names and parse, Prepare, lower bound, upper bound, cap — each
/// under its own span, all under one "estimate" span.
Outcome ReplayEstimate(const ServingCatalog& catalog,
                       const std::string& tenant, std::string_view xpath,
                       uint64_t request, Tracer* tracer,
                       KernelCounters* kernel) {
  Tracer::Scope root(tracer, "estimate", request);
  Outcome o;
  std::shared_ptr<const ServingSnapshot> snap;
  {
    Tracer::Scope s(tracer, "serving.acquire", request);
    snap = catalog.Acquire(tenant);
  }
  if (snap == nullptr) {
    o.status = Status::NotFound("unknown tenant: " + tenant);
    return o;
  }
  o.version = snap->version();
  std::optional<Result<Query>> query;
  {
    Tracer::Scope s(tracer, "query.parse", request);
    NameTable scratch = snap->base_names();
    query.emplace(ParseQuery(xpath, &scratch));
  }
  if (!query->ok()) {
    o.status = query->status();
    return o;
  }
  // Same cache policy as the catalog: queries with labels the snapshot
  // does not know compile against a call-local cache.
  ServingView view = snap->View();
  CompiledQueryCache local_cache;
  CompiledQueryCache* cache = QueryWithinBaseLabels(*snap, query->value())
                                  ? view.query_cache
                                  : &local_cache;
  // A call that compiled bumped the miss counter. Under concurrent readers
  // a miss of another reader in the same window also bumps it, so there a
  // hit can be counted as a miss (never the reverse): the ratio is a lower
  // bound when threaded.
  const int64_t misses_before = cache->misses();
  std::optional<Result<std::shared_ptr<const PreparedQuery>>> prepared;
  {
    Tracer::Scope s(tracer, "automaton.prepare", request);
    prepared.emplace(cache->Prepare(query->value()));
  }
  if (!prepared->ok()) {
    o.status = prepared->status();
    return o;
  }
  const PreparedQuery& pq = *prepared->value();
  // Exact [0, 0], like the catalog; Prepare counts neither a hit nor a
  // miss. AddQueries keeps no such query, so no workload sends one.
  if (pq.unsatisfiable) return o;
  ++(cache->misses() > misses_before ? kernel->prepare_misses
                                     : kernel->prepare_hits);
  GrammarEvalResult lower;
  {
    Tracer::Scope s(tracer, "automaton.lower", request);
    RcuDomain::ReadGuard guard;
    GrammarEvaluator eval(view.provider, &pq.lower, view.maps,
                          BoundMode::kLower);
    lower = eval.Evaluate();
  }
  if (!lower.status.ok()) {
    o.status = lower.status;
    return o;
  }
  GrammarEvalResult upper;
  {
    Tracer::Scope s(tracer, "automaton.upper", request);
    RcuDomain::ReadGuard guard;
    GrammarEvaluator eval(view.provider, &UpperQueryOf(pq), view.maps,
                          BoundMode::kUpper);
    upper = eval.Evaluate();
  }
  if (!upper.status.ok()) {
    o.status = upper.status;
    return o;
  }
  ++kernel->estimates;
  kernel->Add(lower);
  kernel->Add(upper);
  {
    Tracer::Scope s(tracer, "query.cap", request);
    const int64_t cap = pq.match_test > 0
                            ? ServingLabelTotal(view, pq.match_test)
                            : view.element_total;
    o.est.lower = lower.count;
    o.est.upper = std::max(std::min(upper.count, cap), lower.count);
  }
  return o;
}

/// True when `o` is OK, brackets the exact count, and equals the
/// reference estimate of the version that answered. Every tenant's k-th
/// publish in a catalog serves file (k − 1) mod versions.
bool Matches(const Tenant& t, int32_t q, const Outcome& o) {
  if (!o.status.ok() || o.version == 0) return false;
  const size_t qi = static_cast<size_t>(q);
  const int64_t exact = t.exact[qi];
  if (o.est.lower > exact || exact > o.est.upper) return false;
  const SelectivityEstimate& ref =
      t.reference[(o.version - 1) % t.kappas.size()][qi];
  return o.est.lower == ref.lower && o.est.upper == ref.upper;
}

// --- Setup ---------------------------------------------------------------

std::shared_ptr<const MappedSynopsis> OpenImage(const std::string& path) {
  Result<std::unique_ptr<MappedSynopsis>> image = MappedSynopsis::Open(path);
  Require(image.status(), "MappedSynopsis::Open");
  return std::shared_ptr<const MappedSynopsis>(std::move(image).value());
}

/// XML bytes in memory → every tenant published: BuildStreaming and
/// PackSynopsisToFile for each version, then Open + PublishMapped of the
/// first version.
std::unique_ptr<ServingCatalog> Setup(const Workload& w) {
  auto catalog = std::make_unique<ServingCatalog>();
  for (const Tenant& t : w.tenants) {
    for (int32_t v = 0; v < t.versions(); ++v) {
      SynopsisOptions options;
      options.kappa = t.kappas[static_cast<size_t>(v)];
      Result<Synopsis> s = Synopsis::BuildStreaming(t.xml, options);
      Require(s.status(), "BuildStreaming");
      Require(PackSynopsisToFile(s.value(), t.files[static_cast<size_t>(v)]),
              "PackSynopsisToFile");
    }
    catalog->PublishMapped(t.id, OpenImage(t.files[0]));
  }
  return catalog;
}

/// Request ids of the setup replay, one per tenant; estimate requests
/// count up from 1.
constexpr uint64_t kSetupRequest = uint64_t{1} << 62;

/// Rule counts over every image the traced setup built.
struct RuleCounts {
  int64_t lossless = 0;
  int64_t lossy = 0;
};

/// Setup replayed stage by stage with a span per public call:
/// BuildDagGrammarStreaming → BplexCompressDagGrammar → FromParts +
/// RecomputeLossy → pack → open → publish. Writes replay_files, which
/// must be byte-identical to the untraced images.
std::unique_ptr<ServingCatalog> SetupTraced(const Workload& w, Tracer* tracer,
                                            RuleCounts* rules) {
  Tracer::Scope root(tracer, "setup", kSetupRequest);
  auto catalog = std::make_unique<ServingCatalog>();
  for (size_t ti = 0; ti < w.tenants.size(); ++ti) {
    const Tenant& t = w.tenants[ti];
    const uint64_t request = kSetupRequest + ti;
    for (int32_t v = 0; v < t.versions(); ++v) {
      SynopsisOptions options;
      options.kappa = t.kappas[static_cast<size_t>(v)];
      std::optional<Result<StreamedDag>> streamed;
      {
        Tracer::Scope s(tracer, "grammar.parse_dag", request);
        streamed.emplace(BuildDagGrammarStreaming(t.xml));
      }
      Require(streamed->status(), "BuildDagGrammarStreaming");
      StreamedDag& dag = streamed->value();
      SltGrammar lossless;
      {
        Tracer::Scope s(tracer, "grammar.bplex", request);
        lossless = BplexCompressDagGrammar(std::move(dag.grammar),
                                           options.bplex, dag.names.size());
      }
      std::optional<Synopsis> synopsis;
      {
        Tracer::Scope s(tracer, "grammar.lossy", request);
        synopsis.emplace(Synopsis::FromParts(
            std::move(lossless), SltGrammar(), std::move(dag.maps),
            std::move(dag.names), {}, 0, options, 0));
        synopsis->RecomputeLossy(options.kappa);
      }
      rules->lossless += synopsis->lossless().rule_count();
      rules->lossy += synopsis->lossy().rule_count();
      {
        Tracer::Scope s(tracer, "storage.pack", request);
        Require(PackSynopsisToFile(*synopsis,
                                   t.replay_files[static_cast<size_t>(v)]),
                "PackSynopsisToFile");
      }
    }
    std::shared_ptr<const MappedSynopsis> image;
    {
      Tracer::Scope s(tracer, "storage.open", request);
      image = OpenImage(t.replay_files[0]);
    }
    {
      Tracer::Scope s(tracer, "serving.publish", request);
      catalog->PublishMapped(t.id, std::move(image));
    }
  }
  return catalog;
}

/// Points every tenant's image paths (`files`, or `replay_files`) into a
/// new subdirectory of the run's directory. Each setup writes new files:
/// renaming over recently mapped ones makes some file systems write back
/// synchronously, which would time the disk instead of the pipeline.
void PlaceImages(Workload* w, const std::string& subdir, bool replay) {
  const std::string dir = w->dir + "/" + subdir;
  std::filesystem::create_directories(dir);
  for (Tenant& t : w->tenants) {
    std::vector<std::string>& paths = replay ? t.replay_files : t.files;
    paths.clear();
    for (int32_t v = 0; v < t.versions(); ++v) {
      paths.push_back(dir + "/" + t.id + ".v" + std::to_string(v) + ".img");
    }
  }
}

/// Runs the untraced setup `setup_reps` times; returns the per-rep
/// seconds and keeps the last catalog. `after_rep(r)` runs after rep r,
/// outside its timing.
template <typename AfterRep>
std::vector<double> TimeSetups(Workload* w,
                               std::unique_ptr<ServingCatalog>* catalog,
                               AfterRep&& after_rep) {
  std::vector<double> seconds;
  for (int32_t r = 0; r < w->setup_reps; ++r) {
    PlaceImages(w, "setup" + std::to_string(r), false);
    catalog->reset();
    const Clock::time_point t0 = Clock::now();
    *catalog = Setup(*w);
    seconds.push_back(SecondsSince(t0));
    after_rep(r);
  }
  return seconds;
}

/// Estimates every query of every version once and records the results
/// as the reference. Version 0 runs on `main` (its warm round); later
/// versions on a scratch catalog serving them.
void ComputeReference(Workload* w, const ServingCatalog& main, Tally* tally) {
  const int32_t versions = w->tenants[0].versions();
  for (int32_t v = 0; v < versions; ++v) {
    std::unique_ptr<ServingCatalog> scratch;
    const ServingCatalog* catalog = &main;
    if (v > 0) {
      scratch = std::make_unique<ServingCatalog>();
      for (const Tenant& t : w->tenants) {
        scratch->PublishMapped(t.id,
                               OpenImage(t.files[static_cast<size_t>(v)]));
      }
      catalog = scratch.get();
    }
    for (Tenant& t : w->tenants) {
      t.reference.resize(static_cast<size_t>(versions));
      std::vector<SelectivityEstimate>& ref =
          t.reference[static_cast<size_t>(v)];
      ref.clear();
      for (size_t q = 0; q < t.xpaths.size(); ++q) {
        Outcome o = EstimateOnce(*catalog, t.id, t.xpaths[q]);
        Require(o.status, "reference estimate");
        ++tally->attempted;
        if (o.est.lower > t.exact[q] || t.exact[q] > o.est.upper) {
          ++tally->failed;
        }
        ref.push_back(o.est);
      }
    }
  }
}

/// One untraced round over every version-0 query, checked (the traced
/// catalog's warm round).
void WarmRound(const Workload& w, const ServingCatalog& catalog,
               Tally* tally) {
  for (const Tenant& t : w.tenants) {
    for (size_t q = 0; q < t.xpaths.size(); ++q) {
      ++tally->attempted;
      if (!Matches(t, static_cast<int32_t>(q),
                   EstimateOnce(catalog, t.id, t.xpaths[q]))) {
        ++tally->failed;
      }
    }
  }
}

/// Sets the decode budget to half the warm residency of the served
/// images and enforces it. Returns the budget.
int64_t ApplyHalfBudget(ServingCatalog* catalog) {
  const int64_t budget = catalog->Stats().decode_resident_bytes / 2;
  catalog->SetDecodeBudget(budget);
  catalog->EnforceDecodeBudget();
  catalog->ReclaimEvictedRules();
  return budget;
}

/// Median over `images` cold opens of Open → first estimate returned,
/// each with the next (tenant, query) of the stream.
double MedianFirstEstimateMs(const Workload& w, int32_t images,
                             Tally* tally) {
  std::vector<double> ms;
  for (int32_t i = 0; i < images; ++i) {
    const auto [ti, q] = w.stream[static_cast<size_t>(i) % w.stream.size()];
    const Tenant& t = w.tenants[static_cast<size_t>(ti)];
    ServingCatalog catalog;
    const Clock::time_point t0 = Clock::now();
    catalog.PublishMapped(t.id, OpenImage(t.files[0]));
    Outcome o = EstimateOnce(catalog, t.id, t.xpaths[static_cast<size_t>(q)]);
    ms.push_back(SecondsSince(t0) * 1e3);
    ++tally->attempted;
    if (!Matches(t, q, o)) ++tally->failed;
  }
  return Median(std::move(ms));
}

// --- Timed phase ---------------------------------------------------------

/// Decode-cache counters summed over every image a catalog has served,
/// including the ones publishes have replaced.
struct DecodeCounters {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;

  void Add(const MappedSynopsisStats& s) {
    hits += s.lossless.hits + s.lossy.hits;
    misses += s.lossless.misses + s.lossy.misses;
    evictions += s.lossless.evictions + s.lossy.evictions;
  }
  DecodeCounters Minus(const DecodeCounters& o) const {
    return {hits - o.hits, misses - o.misses, evictions - o.evictions};
  }
};

class DecodeLedger {
 public:
  void Retire(const std::shared_ptr<const ServingSnapshot>& old) {
    if (old != nullptr && old->mapped_image() != nullptr) {
      retired_.Add(old->mapped_image()->Stats());
    }
  }
  DecodeCounters Totals(const ServingCatalog& catalog,
                        const Workload& w) const {
    DecodeCounters total = retired_;
    for (const Tenant& t : w.tenants) {
      std::shared_ptr<const ServingSnapshot> snap = catalog.Acquire(t.id);
      if (snap != nullptr && snap->mapped_image() != nullptr) {
        total.Add(snap->mapped_image()->Stats());
      }
    }
    return total;
  }

 private:
  DecodeCounters retired_;
};

/// What one timed phase measured.
struct PhaseResult {
  std::vector<double> latency_us;  ///< per estimate
  std::vector<double> done_s;      ///< per estimate: end, from phase start
  double wall_s = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> publish_us;       ///< from when due to done
  std::vector<double> publish_late_ms;  ///< open-loop start lateness
  // Traced phases only:
  std::vector<SpanRecord> spans;
  KernelCounters kernel;  ///< first pass (all of it when threaded)
  DecodeCounters decode;  ///< first pass (all of it when threaded)
  int64_t resident_max = 0;
  int64_t retired_pending_max = 0;
};

int64_t RetiredPending(const ServingCatalog& catalog) {
  int64_t pending = 0;
  for (const ShardStats& s : catalog.Stats().shards) {
    pending += s.retired_pending;
  }
  return pending;
}

/// Runs `publish`, timed from `due`. Traced phases also record its span
/// and the catalog's retired versions and decode residency after it.
template <typename Publish>
void PublishTimed(ServingCatalog* catalog, Clock::time_point due,
                  Tracer* tracer, PhaseResult* r, Publish&& publish) {
  publish();
  const Clock::time_point done = Clock::now();
  r->publish_us.push_back(
      std::chrono::duration<double, std::micro>(done - due).count());
  if (tracer != nullptr) {
    tracer->Add("serving.publish", 0, ToNs(due), ToNs(done));
    r->retired_pending_max =
        std::max(r->retired_pending_max, RetiredPending(*catalog));
    r->resident_max = std::max(r->resident_max,
                               catalog->Stats().decode_resident_bytes);
  }
}

/// One closed-loop client over the workload stream, on its own catalog.
/// Two lanes stepped through the same stream positions see identical
/// work and identical catalog states, so the untraced and the traced lane
/// of a traced run can be driven in lockstep and drift in machine speed
/// hits both alike. With a tracer, each estimate is the layer-by-layer
/// replay; counters cover the first pass of the stream.
class ClientLane {
 public:
  ClientLane(const Workload& w, ServingCatalog* catalog, Tracer* tracer)
      : w_(w),
        catalog_(catalog),
        tracer_(tracer),
        served_(w.tenants.size(), 0),
        pass_(static_cast<int64_t>(w.stream.size())) {
    if (tracer_ != nullptr) decode_start_ = ledger_.Totals(*catalog_, w_);
  }

  /// Sends the estimate at stream index `i`, with the publishes due
  /// around it.
  void Step(int64_t i) {
    const Clock::time_point start = Clock::now();
    const int64_t pos = i % pass_;
    if (i == pass_) TakeCensus();
    if (pos == 0 && w_.republish_each_pass) {
      for (const Tenant& t : w_.tenants) Publish(t, 0);
    }
    const auto [ti, q] = w_.stream[static_cast<size_t>(pos)];
    const Tenant& t = w_.tenants[static_cast<size_t>(ti)];
    const std::string& xpath = t.xpaths[static_cast<size_t>(q)];
    const Clock::time_point t0 = Clock::now();
    Outcome o = tracer_ == nullptr
                    ? EstimateOnce(*catalog_, t.id, xpath)
                    : ReplayEstimate(*catalog_, t.id, xpath,
                                     static_cast<uint64_t>(i) + 1, tracer_,
                                     i < pass_ ? &census_ : &after_census_);
    const Clock::time_point t1 = Clock::now();
    r_.latency_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    r_.done_s.push_back(std::chrono::duration<double>(t1 - origin_).count());
    ++r_.attempted;
    if (!Matches(t, q, o)) ++r_.failed;
    if (w_.publish_every > 0 && (i + 1) % w_.publish_every == 0) {
      const size_t pt = static_cast<size_t>(publishes_++) % w_.tenants.size();
      const Tenant& target = w_.tenants[pt];
      served_[pt] = (served_[pt] + 1) % target.versions();
      Publish(target, served_[pt]);
      catalog_->ReclaimEvictedRules();
    }
    if (tracer_ != nullptr && (i + 1) % 50 == 0) {
      r_.resident_max = std::max(r_.resident_max,
                                 catalog_->Stats().decode_resident_bytes);
    }
    r_.wall_s += SecondsSince(start);
  }

  PhaseResult Finish() {
    if (tracer_ != nullptr) {
      if (!census_taken_) TakeCensus();
      r_.spans = tracer_->spans();
    }
    return std::move(r_);
  }

 private:
  /// PublishFile of `file` of tenant `t`; traced lanes also account the
  /// replaced image's decode counters.
  void Publish(const Tenant& t, int32_t file) {
    std::shared_ptr<const ServingSnapshot> old;
    if (tracer_ != nullptr) old = catalog_->Acquire(t.id);
    PublishTimed(catalog_, Clock::now(), tracer_, &r_, [&] {
      Require(catalog_->PublishFile(t.id, t.files[static_cast<size_t>(file)])
                  .status(),
              "PublishFile");
    });
    if (tracer_ != nullptr) ledger_.Retire(old);
  }

  void TakeCensus() {
    if (tracer_ == nullptr || census_taken_) return;
    r_.kernel = census_;
    r_.decode = ledger_.Totals(*catalog_, w_).Minus(decode_start_);
    census_taken_ = true;
  }

  const Workload& w_;
  ServingCatalog* catalog_;
  Tracer* tracer_;
  const Clock::time_point origin_ = Clock::now();
  std::vector<int32_t> served_;  ///< file each tenant currently serves
  const int64_t pass_;
  int64_t publishes_ = 0;
  PhaseResult r_;
  DecodeLedger ledger_;
  DecodeCounters decode_start_;
  KernelCounters census_;
  KernelCounters after_census_;
  bool census_taken_ = false;
};

/// The untraced timed phase of a single-client workload.
PhaseResult RunSingleClient(const Workload& w, ServingCatalog* catalog,
                            double seconds) {
  ClientLane lane(w, catalog, nullptr);
  const Clock::time_point start = Clock::now();
  for (int64_t i = 0; SecondsSince(start) < seconds; ++i) lane.Step(i);
  PhaseResult r = lane.Finish();
  r.wall_s = SecondsSince(start);
  return r;
}

/// An untraced and a traced lane in lockstep, a few estimates at a time,
/// for `seconds` in all and at least one pass each.
std::pair<PhaseResult, PhaseResult> RunLockstep(const Workload& w,
                                                ServingCatalog* plain,
                                                ServingCatalog* traced,
                                                double seconds,
                                                Tracer* tracer) {
  constexpr int64_t kChunk = 8;
  ClientLane a(w, plain, nullptr);
  ClientLane b(w, traced, tracer);
  const int64_t pass = static_cast<int64_t>(w.stream.size());
  const Clock::time_point start = Clock::now();
  for (int64_t i = 0; i < pass || SecondsSince(start) < seconds;
       i += kChunk) {
    for (int64_t j = i; j < i + kChunk; ++j) a.Step(j);
    for (int64_t j = i; j < i + kChunk; ++j) b.Step(j);
  }
  return {a.Finish(), b.Finish()};
}

/// `w.readers` client threads in a closed loop, each starting at its own
/// offset of the stream, against one writer that publishes the tenants'
/// other versions in an open loop at `w.writer_rate` per second.
///
/// The writer holds every packed version mapped, each opened once, and
/// publishes with PublishMapped, as a server keeping its versions resident
/// does. With PublishFile each publish starts a cold image, and on the
/// calibration host the readers then slowed down through the run at a rate
/// that differed between runs: over eight runs of one seed, alternated
/// with this form, the p90 spread was 0.146 against 0.067. mixed_budget
/// covers PublishFile.
PhaseResult RunConcurrent(const Workload& w, ServingCatalog* catalog,
                          double seconds, bool traced) {
  struct Reader {
    std::vector<double> latency_us;
    std::vector<double> done_s;
    int64_t attempted = 0;
    int64_t failed = 0;
    Tracer tracer;
    KernelCounters kernel;
  };
  std::vector<Reader> readers(static_cast<size_t>(w.readers));
  PhaseResult r;
  Tracer writer_tracer;
  // images[t][v]: version v of tenant t; version 0 is the one served now.
  std::vector<std::vector<std::shared_ptr<const MappedSynopsis>>> images;
  DecodeCounters decode_start;
  for (const Tenant& t : w.tenants) {
    std::vector<std::shared_ptr<const MappedSynopsis>>& v =
        images.emplace_back();
    v.push_back(catalog->Acquire(t.id)->mapped_image());
    for (size_t f = 1; f < t.files.size(); ++f) {
      v.push_back(OpenImage(t.files[f]));
    }
    for (const auto& image : v) decode_start.Add(image->Stats());
  }
  const int64_t pass = static_cast<int64_t>(w.stream.size());
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto read = [&](size_t k) {
    Reader& me = readers[k];
    const uint64_t request_base = (static_cast<uint64_t>(k) + 1) << 40;
    for (int64_t i = static_cast<int64_t>(k) * pass / w.readers;
         Clock::now() < deadline; ++i) {
      const auto [ti, q] = w.stream[static_cast<size_t>(i % pass)];
      const Tenant& t = w.tenants[static_cast<size_t>(ti)];
      const std::string& xpath = t.xpaths[static_cast<size_t>(q)];
      const Clock::time_point t0 = Clock::now();
      Outcome o = traced ? ReplayEstimate(*catalog, t.id, xpath,
                                          request_base + me.attempted + 1,
                                          &me.tracer, &me.kernel)
                         : EstimateOnce(*catalog, t.id, xpath);
      const Clock::time_point t1 = Clock::now();
      me.latency_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
      me.done_s.push_back(std::chrono::duration<double>(t1 - start).count());
      ++me.attempted;
      if (!Matches(t, q, o)) ++me.failed;
    }
  };
  auto write = [&] {
    std::vector<int32_t> served(w.tenants.size(), 0);
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / w.writer_rate));
    for (int64_t k = 0;; ++k) {
      const Clock::time_point due = start + period * k;
      if (due >= deadline) break;
      std::this_thread::sleep_until(due);
      r.publish_late_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - due)
              .count());
      const size_t pt = static_cast<size_t>(k) % w.tenants.size();
      served[pt] = (served[pt] + 1) % w.tenants[pt].versions();
      PublishTimed(catalog, due, traced ? &writer_tracer : nullptr, &r, [&] {
        catalog->PublishMapped(w.tenants[pt].id,
                               images[pt][static_cast<size_t>(served[pt])]);
      });
    }
  };
  std::vector<std::thread> threads;
  for (size_t k = 0; k < readers.size(); ++k) threads.emplace_back(read, k);
  threads.emplace_back(write);
  for (std::thread& th : threads) th.join();
  r.wall_s = SecondsSince(start);
  for (Reader& me : readers) {
    r.latency_us.insert(r.latency_us.end(), me.latency_us.begin(),
                        me.latency_us.end());
    r.done_s.insert(r.done_s.end(), me.done_s.begin(), me.done_s.end());
    r.attempted += me.attempted;
    r.failed += me.failed;
    r.kernel.Merge(me.kernel);
    AppendSpans(me.tracer.spans(), &r.spans);
  }
  if (traced) {
    AppendSpans(writer_tracer.spans(), &r.spans);
    DecodeCounters decode_end;
    for (const auto& v : images) {
      for (const auto& image : v) decode_end.Add(image->Stats());
    }
    r.decode = decode_end.Minus(decode_start);
  }
  return r;
}

// --- Reports -------------------------------------------------------------

/// Estimate quality over the reference estimates of every (tenant,
/// version, query) whose exact count is not 0: the §8.1 average relative
/// error of each bound, and the geometric mean of upper / exact. The
/// relative error of the upper bound is dominated by a handful of queries
/// whose bound exceeds a tiny exact count ten-thousandfold, so it swings
/// with the seed; the geometric mean does not.
struct EstimateErrors {
  double lower_rel = 0;
  double upper_rel = 0;
  double upper_qerror = 0;
};

EstimateErrors ComputeErrors(const Workload& w) {
  double lower = 0;
  double upper = 0;
  double log_ratio = 0;
  int64_t counted = 0;
  for (const Tenant& t : w.tenants) {
    for (const std::vector<SelectivityEstimate>& ref : t.reference) {
      for (size_t q = 0; q < ref.size(); ++q) {
        if (t.exact[q] == 0) continue;
        const double exact = static_cast<double>(t.exact[q]);
        lower += std::abs(static_cast<double>(ref[q].lower) - exact) / exact;
        upper += std::abs(static_cast<double>(ref[q].upper) - exact) / exact;
        log_ratio += std::log(static_cast<double>(ref[q].upper) / exact);
        ++counted;
      }
    }
  }
  const double n = static_cast<double>(counted);
  return {Ratio(lower, n), Ratio(upper, n), std::exp(Ratio(log_ratio, n))};
}

/// Latency and throughput of a timed phase, robust to bursts of host
/// slowness (on a shared VM, stretches of 2–10 s ran up to 1.9× slower):
/// the phase is cut into kWindows windows of equal length, and each figure
/// is the median over the windows of its value in one window. At
/// --seconds 10 a window is 1 s long, and even steady_xmark puts over ten
/// samples beyond each window's p90.
struct WindowedStats {
  double p50_us = 0;
  double p90_us = 0;
  double qps = 0;
};

constexpr int kWindows = 10;

WindowedStats Windowed(const PhaseResult& p, double seconds) {
  struct Window {
    std::vector<double> latency_us;
    double first_s = 0;  ///< earliest completion in the window
    double last_s = 0;   ///< latest completion in the window
  };
  const double len = seconds / kWindows;
  std::vector<Window> windows(kWindows);
  for (size_t i = 0; i < p.latency_us.size(); ++i) {
    const double t = p.done_s[i];
    const size_t k = static_cast<size_t>(t / len);
    if (k >= windows.size()) continue;
    Window& w = windows[k];
    w.first_s = w.latency_us.empty() ? t : std::min(w.first_s, t);
    w.last_s = std::max(w.last_s, t);
    w.latency_us.push_back(p.latency_us[i]);
  }
  std::vector<double> p50;
  std::vector<double> p90;
  std::vector<double> qps;
  for (const Window& w : windows) {
    if (w.latency_us.size() < 2 || w.last_s <= w.first_s) continue;
    p50.push_back(Percentile(w.latency_us, 0.50));
    p90.push_back(Percentile(w.latency_us, 0.90));
    // Completions after the window's first one, per second up to its last.
    qps.push_back(static_cast<double>(w.latency_us.size() - 1) /
                  (w.last_s - w.first_s));
  }
  return {Median(std::move(p50)), Median(std::move(p90)),
          Median(std::move(qps))};
}

int64_t ImageBytes(const Workload& w) {
  int64_t bytes = 0;
  for (const Tenant& t : w.tenants) {
    for (const std::string& f : t.files) {
      bytes += static_cast<int64_t>(std::filesystem::file_size(f));
    }
  }
  return bytes;
}

bool SameBytes(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  return std::equal(std::istreambuf_iterator<char>(fa),
                    std::istreambuf_iterator<char>(),
                    std::istreambuf_iterator<char>(fb),
                    std::istreambuf_iterator<char>());
}

void CheckReaderLocks(const ServingCatalog& catalog, Tally* tally) {
  const int64_t locks = catalog.Stats().reader_fast_path_locks;
  if (locks != 0) {
    std::printf("# reader_fast_path_locks=%lld (must be 0)\n",
                static_cast<long long>(locks));
    ++tally->failed;
  }
}

void AddPhase(const PhaseResult& p, Tally* tally) {
  tally->attempted += p.attempted;
  tally->failed += p.failed;
}

void FreeInputs(Workload* w) {
  for (Tenant& t : w->tenants) std::string().swap(t.xml);
}

void RunUntraced(Workload* w, const Sizes& z, double seconds, Report* report,
                 Tally* tally) {
  std::unique_ptr<ServingCatalog> catalog;
  std::vector<double> setups = TimeSetups(w, &catalog, [](int32_t) {});
  report->Set("setup_s", Median(setups),
              static_cast<int64_t>(setups.size()));
  ComputeReference(w, *catalog, tally);
  const EstimateErrors errors = ComputeErrors(*w);
  report->Set("lower_rel_err", errors.lower_rel);
  report->Set("upper_qerror", errors.upper_qerror);
  report->Set("first_estimate_ms",
              MedianFirstEstimateMs(*w, z.cold_images, tally),
              z.cold_images);
  report->Set("image_bytes", static_cast<double>(ImageBytes(*w)));
  if (w->half_budget) {
    std::printf("# %s decode_budget_bytes=%lld\n", w->name.c_str(),
                static_cast<long long>(ApplyHalfBudget(catalog.get())));
  }
  FreeInputs(w);
  if (!ResetPeakRss()) std::printf("# peak RSS reset refused by kernel\n");
  PhaseResult p = w->readers > 0
                      ? RunConcurrent(*w, catalog.get(), seconds, false)
                      : RunSingleClient(*w, catalog.get(), seconds);
  report->Set("peak_rss_mb",
              static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0));
  const int64_t n = static_cast<int64_t>(p.latency_us.size());
  const WindowedStats ws = Windowed(p, seconds);
  report->Set("estimate_p50_us", ws.p50_us, n);
  report->Set("estimate_p90_us", ws.p90_us, n);
  report->Set("throughput_qps", ws.qps, n);
  // The 99th percentile moves by a quarter between runs on the same
  // inputs on a shared host, wider than any usable bound: printed for
  // reading, not reported as a metric. So are the whole-phase figures.
  std::printf("# %s estimate_p99_us %.12g us samples=%lld\n", w->name.c_str(),
              Percentile(p.latency_us, 0.99), static_cast<long long>(n));
  std::printf("# %s phase p50_us=%.12g p90_us=%.12g qps=%.12g\n",
              w->name.c_str(), Percentile(p.latency_us, 0.50),
              Percentile(p.latency_us, 0.90),
              Ratio(static_cast<double>(n), p.wall_s));
  AddPhase(p, tally);
  CheckReaderLocks(*catalog, tally);
}

void RunTraced(Workload* w, double seconds,
               const std::string& spans_path, Report* report, Tally* tally) {
  // Set-up as in an untraced run, each rep followed by a traced replay, so
  // drift in machine speed hits both alike; the set-up figures are
  // medians over the pairs. The last catalog of each kind is served.
  std::unique_ptr<ServingCatalog> plain;
  std::unique_ptr<ServingCatalog> catalog;
  std::vector<double> traced_setup_s;
  std::vector<std::map<std::string, LayerTotals>> setup_layers;  ///< per rep
  std::vector<SpanRecord> setup_spans;  ///< of the last replay
  RuleCounts rules;                     ///< of the last replay
  const std::vector<double> untraced_setup_s =
      TimeSetups(w, &plain, [&](int32_t r) {
        PlaceImages(w, "replay" + std::to_string(r), true);
        catalog.reset();
        Tracer tracer;
        rules = {};
        const Clock::time_point t0 = Clock::now();
        catalog = SetupTraced(*w, &tracer, &rules);
        traced_setup_s.push_back(SecondsSince(t0));
        setup_layers.push_back(TotalsByName(tracer.spans()));
        setup_spans = tracer.spans();
      });
  ComputeReference(w, *plain, tally);
  if (w->half_budget) ApplyHalfBudget(plain.get());

  for (const Tenant& t : w->tenants) {
    for (int32_t v = 0; v < t.versions(); ++v) {
      ++tally->attempted;
      if (!SameBytes(t.files[static_cast<size_t>(v)],
                     t.replay_files[static_cast<size_t>(v)])) {
        std::printf("# replayed image differs: %s\n",
                    t.replay_files[static_cast<size_t>(v)].c_str());
        ++tally->failed;
      }
    }
  }
  // The traced catalog gets the same warm-up.
  if (!w->republish_each_pass) WarmRound(*w, *catalog, tally);
  const int64_t budget = w->half_budget ? ApplyHalfBudget(catalog.get()) : 0;

  // Both paths over the same stream: in lockstep for one client; one
  // after the other for threaded readers.
  Tracer tracer;
  PhaseResult plain_phase;
  PhaseResult traced;
  if (w->readers > 0) {
    plain_phase = RunConcurrent(*w, plain.get(), seconds / 2, false);
    traced = RunConcurrent(*w, catalog.get(), seconds / 2, true);
  } else {
    std::tie(plain_phase, traced) =
        RunLockstep(*w, plain.get(), catalog.get(), seconds, &tracer);
  }
  AddPhase(plain_phase, tally);
  AddPhase(traced, tally);
  CheckReaderLocks(*plain, tally);
  CheckReaderLocks(*catalog, tally);

  std::vector<SpanRecord> spans = setup_spans;
  AppendSpans(traced.spans, &spans);
  if (!spans_path.empty() && !WriteSpans(spans_path, spans)) {
    std::printf("# cannot write %s\n", spans_path.c_str());
  }
  const std::map<std::string, LayerTotals> layers = TotalsByName(spans);
  auto layer = [](const std::map<std::string, LayerTotals>& m,
                  const char* name) {
    auto it = m.find(name);
    return it == m.end() ? LayerTotals{} : it->second;
  };
  auto set_mean_us = [&](const char* metric, const char* span) {
    const LayerTotals l = layer(layers, span);
    report->Set(metric, l.MeanSelfUs(), l.count);
  };
  // A set-up figure: its median over the untraced/traced pairs.
  const int64_t pairs = static_cast<int64_t>(setup_layers.size());
  auto set_setup = [&](const char* metric, auto figure) {
    std::vector<double> v;
    for (size_t r = 0; r < setup_layers.size(); ++r) v.push_back(figure(r));
    report->Set(metric, Median(std::move(v)), pairs);
  };
  auto set_sum_s = [&](const char* metric, const char* span) {
    set_setup(metric, [&](size_t r) {
      return static_cast<double>(layer(setup_layers[r], span).self_ns) / 1e9;
    });
  };
  set_sum_s("grammar.parse_dag_s", "grammar.parse_dag");
  set_sum_s("grammar.bplex_s", "grammar.bplex");
  set_sum_s("grammar.lossy_s", "grammar.lossy");
  set_sum_s("storage.pack_s", "storage.pack");
  report->Set("grammar.lossless_rules", static_cast<double>(rules.lossless));
  report->Set("grammar.lossy_rules", static_cast<double>(rules.lossy));
  {
    set_setup("storage.open_us", [&](size_t r) {
      return layer(setup_layers[r], "storage.open").MeanSelfUs();
    });
    const LayerTotals publish = layer(layers, "serving.publish");
    report->Set("serving.publish_us", publish.MeanDurationUs(),
                publish.count);
  }
  report->Set("serving.publish_late_ms",
              traced.publish_late_ms.empty()
                  ? 0.0
                  : *std::max_element(traced.publish_late_ms.begin(),
                                      traced.publish_late_ms.end()),
              static_cast<int64_t>(traced.publish_late_ms.size()));
  set_mean_us("serving.acquire_us", "serving.acquire");
  report->Set("serving.retired_pending_max",
              static_cast<double>(traced.retired_pending_max));
  set_mean_us("query.parse_us", "query.parse");
  set_mean_us("query.cap_us", "query.cap");
  set_mean_us("automaton.prepare_us", "automaton.prepare");
  set_mean_us("automaton.lower_us", "automaton.lower");
  set_mean_us("automaton.upper_us", "automaton.upper");

  const KernelCounters& k = traced.kernel;
  const GrammarEvalResult& sums = k.sums;
  const double per = static_cast<double>(k.estimates);
  report->Set("automaton.prepare_hit_ratio",
              Ratio(static_cast<double>(k.prepare_hits),
                    static_cast<double>(k.prepare_hits + k.prepare_misses)),
              k.prepare_hits + k.prepare_misses);
  report->Set("automaton.sigma_entries",
              Ratio(static_cast<double>(sums.sigma_entries), per), k.estimates);
  report->Set("automaton.distinct_states",
              Ratio(static_cast<double>(sums.distinct_states), per),
              k.estimates);
  report->Set("automaton.memo_hit_ratio",
              Ratio(static_cast<double>(sums.memo_hits),
                    static_cast<double>(sums.memo_probes)));
  report->Set("automaton.intern_hit_ratio",
              Ratio(static_cast<double>(sums.intern_hits),
                    static_cast<double>(sums.intern_probes)));
  report->Set("automaton.arena_bytes",
              Ratio(static_cast<double>(sums.arena_bytes), per), k.estimates);
  report->Set("automaton.heap_allocs",
              Ratio(static_cast<double>(sums.heap_allocs), per), k.estimates);

  const DecodeCounters& d = traced.decode;
  report->Set("storage.decode_misses", static_cast<double>(d.misses));
  report->Set("storage.decode_hit_ratio",
              Ratio(static_cast<double>(d.hits),
                    static_cast<double>(d.hits + d.misses)),
              d.hits + d.misses);
  report->Set("storage.evictions", static_cast<double>(d.evictions));
  report->Set("storage.resident_bytes_max",
              static_cast<double>(traced.resident_max));
  report->Set("storage.decode_budget_bytes", static_cast<double>(budget));
  report->Set("quality.upper_rel_err", ComputeErrors(*w).upper_rel);

  // The lockstep lanes send the same estimates; the threaded halves the
  // same mix for the same time.
  const LayerTotals roots = layer(layers, "estimate");
  double layers_us = 0;
  for (const char* name : {"serving.acquire", "query.parse",
                           "automaton.prepare", "automaton.lower",
                           "automaton.upper", "query.cap"}) {
    layers_us += static_cast<double>(layer(layers, name).self_ns) / 1e3;
  }
  const double plain_mean_us = Mean(plain_phase.latency_us);
  report->Set("trace.unattributed_share",
              1.0 - Ratio(Ratio(layers_us, static_cast<double>(roots.count)),
                          plain_mean_us),
              roots.count);
  report->Set("trace.overhead", Ratio(roots.MeanDurationUs(), plain_mean_us),
              roots.count);
  set_setup("trace.setup_unattributed_share", [&](size_t r) {
    double layers_s = 0;
    for (const auto& [name, totals] : setup_layers[r]) {
      if (name != "setup") layers_s += static_cast<double>(totals.self_ns) / 1e9;
    }
    return 1.0 - Ratio(layers_s, untraced_setup_s[r]);
  });
  set_setup("trace.setup_overhead", [&](size_t r) {
    return Ratio(traced_setup_s[r], untraced_setup_s[r]);
  });
}

// --- Child process -------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool child = false;
  std::string workdir = "bench_pipeline_work";
  std::string spans_dir;
};

int RunChild(const Options& opt) {
  const Sizes& z = opt.smoke ? kSmokeSizes : kFullSizes;
  Workload w = MakeWorkload(opt.workload, opt.seed, z, UsableCpuCount());
  w.dir = opt.workdir + "/" + w.name + "-" + std::to_string(::getpid());
  int64_t queries = 0;
  for (const Tenant& t : w.tenants) {
    queries += static_cast<int64_t>(t.xpaths.size());
  }
  std::printf("# %s seed=%llu tenants=%zu distinct_queries=%lld pass=%zu "
              "kappa0=%d readers=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(opt.seed),
              w.tenants.size(), static_cast<long long>(queries),
              w.stream.size(), w.tenants[0].kappas[0], w.readers);

  Report report(w.name);
  Tally tally;
  if (opt.trace) {
    const std::string spans_path =
        opt.spans_dir.empty() ? "" : opt.spans_dir + "/" + w.name + ".tsv";
    RunTraced(&w, opt.seconds, spans_path, &report, &tally);
  } else {
    RunUntraced(&w, z, opt.seconds, &report, &tally);
  }
  std::filesystem::remove_all(w.dir);
  report.Print(opt.trace);
  std::printf("# result correct=%d attempted=%lld failed=%lld\n",
              tally.failed == 0 ? 1 : 0,
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed));
  return tally.failed == 0 ? 0 : 1;
}

// --- Parent process ------------------------------------------------------

struct ChildResult {
  bool ran = false;
  bool correct = false;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::pair<std::string, std::pair<std::string, std::string>>>
      metrics;  ///< name → (value text, unit)
};

std::string Quote(const std::string& s) {
  if (s.find('\'') != std::string::npos) Fail("path contains a quote: " + s);
  return "'" + s + "'";
}

/// Re-executes this binary for one workload and collects its report,
/// forwarding every line it prints.
ChildResult RunChildProcess(const Options& opt, const std::string& workload,
                            bool trace) {
  ChildResult out;
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n <= 0) return out;
  self[n] = '\0';
  char seconds[64];
  std::snprintf(seconds, sizeof(seconds), "%.17g", opt.seconds);
  std::string cmd = Quote(self) + " --child --workload " + workload +
                    " --seed " + std::to_string(opt.seed) + " --seconds " +
                    seconds + " --trace " + (trace ? "1" : "0") +
                    " --workdir " + Quote(opt.workdir);
  if (opt.smoke) cmd += " --smoke";
  if (!opt.spans_dir.empty()) cmd += " --spans-dir " + Quote(opt.spans_dir);
  std::fflush(stdout);
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return out;
  char line[4096];
  bool have_result = false;
  while (std::fgets(line, sizeof(line), pipe) != nullptr) {
    int correct = 0;
    if (std::sscanf(line, "# result correct=%d attempted=%lld failed=%lld",
                    &correct, &out.attempted, &out.failed) == 3) {
      out.correct = correct == 1;
      have_result = true;
      continue;
    }
    std::fputs(line, stdout);
    char wl[128];
    char name[128];
    char value[64];
    char unit[32];
    if (line[0] != '#' &&
        std::sscanf(line, "%127s %127s %63s %31s", wl, name, value, unit) ==
            4) {
      out.metrics.push_back({name, {value, unit}});
    }
  }
  const int status = ::pclose(pipe);
  out.ran = have_result && status != -1 && WIFEXITED(status);
  if (out.ran && WEXITSTATUS(status) != 0) out.correct = false;
  return out;
}

/// Every metric of the run's kind printed exactly once.
bool CompleteMetrics(const ChildResult& r, bool trace) {
  bool ok = true;
  for (const MetricSpec& m : MetricsFor(trace)) {
    int64_t seen = 0;
    for (const auto& [name, value] : r.metrics) seen += name == m.name;
    if (seen != 1) {
      std::fprintf(stderr, "metric %s printed %lld times\n", m.name,
                   static_cast<long long>(seen));
      ok = false;
    }
  }
  return ok && r.metrics.size() == MetricsFor(trace).size();
}

/// The self-time rule checked on a hand-built span tree whose children
/// overlap each other and overhang their parent.
bool SelfTimeCheck() {
  const std::vector<SpanRecord> spans = {
      {"root", -1, 1, 0, 100},  // 0
      {"a", 0, 1, 10, 40},      // 1: overlaps b
      {"b", 0, 1, 30, 60},      // 2
      {"c", 0, 1, 90, 120},     // 3: overhangs the root's end
      {"a1", 1, 1, 15, 20},     // 4
      {"a2", 1, 1, 18, 25},     // 5: overlaps a1
  };
  const std::vector<int64_t> expect = {40, 20, 30, 30, 5, 7};
  // Appending re-bases parents, so two copies give the same self times.
  std::vector<SpanRecord> twice;
  AppendSpans(spans, &twice);
  AppendSpans(spans, &twice);
  std::vector<int64_t> expect_twice = expect;
  expect_twice.insert(expect_twice.end(), expect.begin(), expect.end());
  if (SelfTimes(spans) != expect || SelfTimes(twice) != expect_twice) {
    std::fprintf(stderr, "self-time check failed\n");
    return false;
  }
  const std::map<std::string, LayerTotals> totals = TotalsByName(spans);
  return totals.at("a").self_ns == 20 && totals.at("root").duration_ns == 100;
}

void PrintJsonMetrics(const ChildResult& r, const std::string& prefix,
                      bool* first) {
  for (const auto& [name, value] : r.metrics) {
    std::printf("%s\"%s%s\": {\"value\": %s, \"unit\": \"%s\"}",
                 *first ? "" : ", ", prefix.c_str(), name.c_str(),
                 value.first.c_str(), value.second.c_str());
    *first = false;
  }
}

int RunParent(Options opt) {
  std::vector<std::string> workloads;
  if (opt.smoke || opt.workload == "all") {
    workloads.assign(std::begin(kWorkloads), std::end(kWorkloads));
  } else {
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                  opt.workload) == std::end(kWorkloads)) {
      std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
      return 2;
    }
    workloads.push_back(opt.workload);
  }
  std::vector<bool> traces = {opt.trace};
  if (opt.smoke) {
    traces = {false, true};
    opt.seconds = 0.2;
    if (!SelfTimeCheck()) return 1;
    std::printf("# smoke: self-time check holds\n");
  }
  std::filesystem::create_directories(opt.workdir);
  if (!opt.spans_dir.empty()) {
    std::filesystem::create_directories(opt.spans_dir);
  }
  const HostFingerprint host = CurrentHostFingerprint();
  std::printf("# host host_hash=%016llx usable_cpus=%d "
              "hardware_concurrency=%u\n",
              static_cast<unsigned long long>(host.host_hash),
              UsableCpuCount(), host.hardware_concurrency);

  std::vector<std::pair<std::string, ChildResult>> results;
  bool ok = true;
  for (const std::string& w : workloads) {
    for (bool trace : traces) {
      ChildResult r = RunChildProcess(opt, w, trace);
      if (!r.ran) {
        std::fprintf(stderr, "workload %s (trace %d) did not finish\n",
                     w.c_str(), trace ? 1 : 0);
        return 1;
      }
      ok = ok && r.correct && r.failed == 0 && CompleteMetrics(r, trace);
      results.emplace_back(w + (trace ? "/trace" : ""), std::move(r));
    }
  }
  std::error_code ignored;
  std::filesystem::remove(opt.workdir, ignored);  // only if empty

  long long attempted = 0;
  long long failed = 0;
  for (const auto& [key, r] : results) {
    attempted += r.attempted;
    failed += r.failed;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              ok ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [key, r] : results) {
    PrintJsonMetrics(r, results.size() == 1 ? "" : key + "/", &first);
  }
  std::printf("}}\n");
  return ok ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      opt->smoke = true;
    } else if (arg == "--child") {
      opt->child = true;
    } else if (!has_value) {
      return false;
    } else if (arg == "--workload") {
      opt->workload = argv[++i];
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      opt->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return false;
      opt->trace = v == "1";
    } else if (arg == "--workdir") {
      opt->workdir = argv[++i];
    } else if (arg == "--spans-dir") {
      opt->spans_dir = argv[++i];
    } else {
      return false;
    }
  }
  return opt->smoke || (!opt->workload.empty() && opt->seconds > 0);
}

}  // namespace
}  // namespace bench
}  // namespace xmlsel

int main(int argc, char** argv) {
  xmlsel::bench::Options opt;
  if (!xmlsel::bench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME|all --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR] [--spans-dir DIR]\n"
                 "       %s --smoke [--workdir DIR]\n",
                 argv[0], argv[0]);
    return 2;
  }
  if (opt.child) return xmlsel::bench::RunChild(opt);
  return xmlsel::bench::RunParent(std::move(opt));
}
