/// \file common.h
/// \brief Clock, order statistics and the per-run sample collector shared by
/// the benchmark's workloads.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Quantile with linear interpolation between closest ranks (numpy's
/// default); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// Derives an independent 64-bit seed from a base seed and a stream id.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

/// Command-line settings of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Test hook: corrupt the first recorded answer before the oracle runs.
  bool plant_wrong_answer = false;
  /// Output directory inside the checkout (data dirs, span files).
  std::string out_dir = ".bench_build/perfbench";
};

/// Everything one run measures. Per-round samples are reduced to medians at
/// the end, so a run's figures do not depend on how many rounds fit.
struct Collector {
  /// Records the spans of traced rounds; null in an untraced run.
  Tracer* tracer = nullptr;

  // End-to-end samples, taken from untraced rounds only.
  std::vector<double> setup_s;  ///< one per set-up
  /// Once-per-round figures (query_p99_ms, restart_s, ...), by name. Each
  /// round's quantiles come from that round's samples alone, so a burst of
  /// host noise moves one round, not the run's median.
  std::map<std::string, std::vector<double>> per_round;
  uint64_t query_samples = 0;  ///< query latencies behind per_round
  /// Fewest query samples in one round (p99 wants >= 1000).
  uint64_t min_round_queries = UINT64_MAX;

  // Correctness, over every round.
  uint64_t attempted = 0;
  uint64_t failed = 0;      ///< threw, or answered wrong
  uint64_t mismatched = 0;  ///< answered wrong (subset of failed)

  // Traced-run samples: one value per traced round, reduced by median.
  std::map<std::string, std::vector<double>> layer;
  /// Pooled per-event samples of the traced rounds (reduced by quantiles).
  std::map<std::string, std::vector<double>> pooled;
  /// Op-phase seconds per operation of each traced / untraced round.
  std::vector<double> traced_op_s;
  std::vector<double> untraced_op_s;
  /// Registry series the run looked for and did not find.
  std::set<std::string> absent_series;

  void Layer(const std::string& name, double v) { layer[name].push_back(v); }
};

}  // namespace perfbench
