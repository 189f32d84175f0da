/// \file main.cpp
/// \brief holix_perfbench: runs one workload for a fixed time, checks every
/// answer, and prints its metrics as one JSON line (see README.md).
///
///   holix_perfbench --workload explore|serve|churn --seed N --seconds S
///                   --trace 0|1 [--out-dir DIR] [--plant-wrong-answer]
///
/// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
/// The exit code is 0 only when every operation succeeded with the right
/// answer (and, traced, the spans covered at least 90% of the wall time).

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "cracking/crack_kernels_simd.h"
#include "trace.h"
#include "util/cache_info.h"
#include "workloads.h"

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  std::function<double(const Collector&)> value;
};

double Layer(const Collector& c, const char* name) {
  const auto it = c.layer.find(name);
  return it == c.layer.end() ? 0 : Median(it->second);
}

double PerRound(const Collector& c, const char* name) {
  const auto it = c.per_round.find(name);
  return it == c.per_round.end() ? 0 : Median(it->second);
}

double Pooled(const Collector& c, const char* name, double q) {
  const auto it = c.pooled.find(name);
  return it == c.pooled.end() ? 0 : Quantile(it->second, q);
}

double PeakRssMiB() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Metrics of the untraced run: what a user of the system sees.
std::vector<MetricDef> EndToEndMetrics() {
  return {
      {"setup_s", "s", [](const Collector& c) { return Median(c.setup_s); }},
      {"query_total_s", "s",
       [](const Collector& c) { return PerRound(c, "query_total_s"); }},
      {"query_p50_ms", "ms",
       [](const Collector& c) { return PerRound(c, "query_p50_ms"); }},
      {"query_p99_ms", "ms",
       [](const Collector& c) { return PerRound(c, "query_p99_ms"); }},
      {"throughput_qps", "1/s",
       [](const Collector& c) { return PerRound(c, "throughput_qps"); }},
      {"peak_rss_mb", "MiB", [](const Collector&) { return PeakRssMiB(); }},
  };
}

/// Metrics of the traced run. A metric of a layer the workload does not
/// exercise reads 0.
std::vector<MetricDef> PerLayerMetrics() {
  std::vector<MetricDef> m;
  const auto layer = [&](const char* name, const char* unit) {
    m.push_back({name, unit, [name](const Collector& c) {
                   return Layer(c, name);
                 }});
  };
  layer("workload.gen_s", "s");
  m.push_back({"workload.query_samples", "count", [](const Collector& c) {
                 return static_cast<double>(c.query_samples);
               }});
  layer("storage.load_s", "s");
  layer("storage.ripple_merged_rows", "count");
  layer("cracking.cracks", "count");
  layer("cracking.bytes_moved", "bytes");
  layer("cracking.bytes_moved_per_query", "bytes");
  layer("cracking.simd_ops", "count");
  layer("cracking.morsel_steal_ratio", "ratio");
  layer("cracking.pieces_end", "count");
  layer("cracking.latch_failures", "count");
  layer("holistic.activations", "count");
  layer("holistic.refinements", "count");
  layer("holistic.worker_cracks", "count");
  layer("holistic.useful_ratio", "ratio");
  layer("holistic.busy_s", "s");
  layer("holistic.retirements", "count");
  layer("holistic.distance_bytes_end", "bytes");
  layer("engine.execute_s", "s");
  m.push_back({"engine.execute_p50_us", "us", [](const Collector& c) {
                 return 1e6 * Pooled(c, "engine.execute_s", 0.5);
               }});
  layer("engine.query_seconds_sum", "s");
  layer("engine.scan_bytes_per_result_row", "bytes");
  layer("engine.planner_merge", "count");
  layer("engine.planner_probe", "count");
  layer("engine.update_s", "s");
  layer("server.connect_s", "s");
  m.push_back({"server.rtt_p50_us", "us", [](const Collector& c) {
                 return 1e6 * Pooled(c, "server.rtt_s", 0.5);
               }});
  m.push_back({"server.rtt_p99_us", "us", [](const Collector& c) {
                 return 1e6 * Pooled(c, "server.rtt_s", 0.99);
               }});
  layer("server.overhead_share", "ratio");
  layer("server.requests", "count");
  layer("server.sharedscan_batches", "count");
  layer("server.sharedscan_avg_batch", "count");
  layer("server.backpressure_toggles", "count");
  layer("persist.wal_records", "count");
  layer("persist.wal_bytes_per_update", "bytes");
  layer("persist.wal_fsyncs_per_update", "count");
  layer("persist.wal_append_s", "s");
  layer("persist.checkpoint_s", "s");
  layer("persist.checkpoint_bytes", "bytes");
  layer("persist.recover_s", "s");
  layer("persist.recovery_pivots", "count");
  layer("persist.replayed_records", "count");
  layer("persist.reconverge_s", "s");
  m.push_back({"trace.overhead_share", "ratio", [](const Collector& c) {
                 const double base = Median(c.untraced_op_s);
                 return base > 0 ? Median(c.traced_op_s) / base - 1 : 0;
               }});
  m.push_back({"trace.coverage", "ratio", [](const Collector& c) {
                 return c.tracer != nullptr ? c.tracer->TopLevelCoverage() : 0;
               }});
  // The churn-only end-to-end figures, measured in the untraced rounds of
  // the traced run (they do not apply to every workload).
  for (const auto& [name, unit] :
       {std::pair{"update_p50_us", "us"}, std::pair{"update_p99_us", "us"},
        std::pair{"checkpoint_s", "s"}, std::pair{"restart_s", "s"},
        std::pair{"disk_bytes_per_user_byte", "ratio"}}) {
    m.push_back({name, unit, [name](const Collector& c) {
                   return PerRound(c, name);
                 }});
  }
  m.push_back({"error_rate", "ratio", [](const Collector& c) {
                 return c.attempted > 0 ? static_cast<double>(c.failed) /
                                              static_cast<double>(c.attempted)
                                        : 0;
               }});
  return m;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Usage() {
  std::fprintf(stderr,
               "usage: holix_perfbench --workload explore|serve|churn "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--plant-wrong-answer]\n");
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--plant-wrong-answer") {
      o->plant_wrong_answer = true;
    } else if (a == "--workload" && has_value) {
      o->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o->seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return false;
      o->trace = v == "1";
    } else if (a == "--out-dir" && has_value) {
      o->out_dir = argv[++i];
    } else {
      return false;
    }
  }
  return (o->workload == "explore" || o->workload == "serve" ||
          o->workload == "churn") &&
         o->seconds > 0;
}

/// Host and build facts printed with every result, so runs from different
/// hosts are never compared silently.
std::string Fingerprint(const Options& o) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %ld, \"simd\": \"%s\", \"l1d_bytes\": %zu, "
                "\"l2_bytes\": %zu, \"build_type\": \"%s\", \"fsync\": "
                "\"always\", \"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %s, \"trace\": %d}",
                ::sysconf(_SC_NPROCESSORS_ONLN),
                holix::SimdLevelName(holix::DetectSimdLevel()),
                holix::L1DataCacheBytes(), holix::L2CacheBytes(),
                PERFBENCH_BUILD_TYPE, o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), Num(o.seconds).c_str(),
                o.trace ? 1 : 0);
  return buf;
}

int Run(const Options& o) {
  std::filesystem::create_directories(o.out_dir);
  Collector c;
  Tracer tracer;
  if (o.trace) c.tracer = &tracer;
  const int64_t origin = NowNs();
  if (o.workload == "explore") {
    RunExplore(o, c);
  } else if (o.workload == "serve") {
    RunServe(o, c);
  } else {
    RunChurn(o, c);
  }

  bool ok = c.failed == 0;
  if (c.failed > 0) {
    std::fprintf(stderr,
                 "FAILED: %llu of %llu operations (%llu wrong answers)\n",
                 static_cast<unsigned long long>(c.failed),
                 static_cast<unsigned long long>(c.attempted),
                 static_cast<unsigned long long>(c.mismatched));
  }
  if (o.trace) {
    const std::string path = o.out_dir + "/spans-" + o.workload + "-" +
                             std::to_string(o.seed) + ".tsv";
    if (!tracer.WriteFile(path, origin)) {
      std::fprintf(stderr, "FAILED: cannot write %s\n", path.c_str());
      ok = false;
    }
    const double coverage = tracer.TopLevelCoverage();
    std::fprintf(stderr, "spans: %s (top-level coverage %.4f)\n",
                 path.c_str(), coverage);
    if (coverage < 0.9) {
      std::fprintf(stderr,
                   "FAILED: top-level spans cover %.1f%% of the measured "
                   "wall time (< 90%%)\n",
                   100 * coverage);
      ok = false;
    }
  }
  if (!o.trace && c.min_round_queries < 1000) {
    std::fprintf(stderr, "note: a round had %llu queries (< 1000) for p99\n",
                 static_cast<unsigned long long>(c.min_round_queries));
  }
  for (const std::string& name : c.absent_series) {
    std::fprintf(stderr, "absent series (reported as 0): %s\n", name.c_str());
  }

  std::printf("fingerprint %s\n", Fingerprint(o).c_str());
  std::string json = "{\"correct\": ";
  json += c.mismatched == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(c.attempted);
  json += ", \"failed\": " + std::to_string(c.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& m : o.trace ? PerLayerMetrics() : EndToEndMetrics()) {
    if (!first) json += ", ";
    first = false;
    json += "\"";
    json += m.name;
    json += "\": {\"value\": ";
    json += Num(m.value(c));
    json += ", \"unit\": \"";
    json += m.unit;
    json += "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // A fixed mmap threshold turns off glibc's adaptive one, under which a
  // round's large columns sometimes reuse pages an earlier round faulted in
  // and sometimes do not. Every round now maps fresh memory, as a newly
  // started process does, so set-up and first-touch times do not jump
  // between runs.
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  perfbench::Options o;
  if (!perfbench::ParseArgs(argc, argv, &o)) {
    perfbench::Usage();
    return 2;
  }
  try {
    return perfbench::Run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAILED: %s\n", e.what());
    return 1;
  }
}
