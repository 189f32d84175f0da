/// \file trace.h
/// \brief Spans the benchmark records around each call it makes into a holix
/// layer (the traced run). Nothing here reaches into src/: a span brackets a
/// public API call from the caller's side.
///
/// A span's name is "<layer>.<call>" (engine.execute, persist.recover, ...).
/// Its parent is the span open on the same thread when it started, so a
/// layer's self time is its spans' durations minus their children's. Spans
/// stay in memory until the run ends and are then written to one TSV file.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 for a top-level span
  uint64_t request = 0;  ///< wire request id, 0 when not a request
  const char* name = "";
  uint32_t thread = 0;
  uint32_t round = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  /// Makes \p t the process's active tracer (nullptr turns tracing off).
  static void Install(Tracer* t);
  static Tracer* Active();

  /// Tags spans opened from now on with \p round.
  void SetRound(uint32_t round) { round_.store(round); }
  uint32_t round() const { return round_.load(); }

  /// Declares [start_ns, end_ns) measured wall time: the denominator of
  /// TopLevelCoverage().
  void AddMeasured(int64_t start_ns, int64_t end_ns);

  uint64_t NextId() { return next_id_.fetch_add(1); }
  uint32_t NextThread() { return next_thread_.fetch_add(1); }
  void Record(const SpanRecord& r);

  /// Self seconds per span name over the spans of \p round: each span's
  /// duration minus its children's.
  std::map<std::string, double> SelfSeconds(uint32_t round) const;

  /// Durations (seconds) of the spans named \p name in \p round.
  std::vector<double> Durations(const char* name, uint32_t round) const;

  /// Share of the measured wall time covered by the union of top-level
  /// spans, over every round.
  double TopLevelCoverage() const;

  /// Writes "id parent request name thread round start_ns end_ns" rows,
  /// times relative to \p origin_ns. Returns false on I/O failure.
  bool WriteFile(const std::string& path, int64_t origin_ns) const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::vector<std::pair<int64_t, int64_t>> measured_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint32_t> next_thread_{0};
  std::atomic<uint32_t> round_{0};
};

/// RAII span around one call into a layer. A no-op when no tracer is active.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Tags the span with a request id known only once the call returned.
  void set_request(uint64_t request) { rec_.request = request; }

 private:
  Tracer* tracer_;
  SpanRecord rec_;
};

}  // namespace perfbench
