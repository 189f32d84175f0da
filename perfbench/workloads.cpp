#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <deque>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "persist/persistence.h"
#include "server/client.h"
#include "server/server.h"
#include "trace.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using holix::Database;
using holix::KeyScalar;
using holix::QuerySpec;
using holix::ResultRequest;
using holix::obs::MetricsSnapshot;

constexpr int64_t kDomain = int64_t{1} << 30;
/// Hardware contexts the thread splits are planned for. Fixed, so every
/// host runs the same configuration; the fingerprint records the real nproc.
constexpr size_t kContexts = 4;

/// What one round measured; merged into the Collector's end-to-end samples
/// only when the round ran untraced.
struct RoundSamples {
  double setup_s = 0;
  std::vector<double> query_latency_s;
  std::vector<double> update_latency_s;
  uint64_t ops = 0;
  double op_phase_s = 0;
  std::map<std::string, double> per_round;
};

struct Round {
  uint32_t index = 0;
  Tracer* tracer = nullptr;  ///< null when the round runs untraced
  RoundSamples samples;

  bool traced() const { return tracer != nullptr; }

  /// Declares [start_ns, end_ns) measured wall time (the span coverage
  /// check's denominator).
  void Measured(int64_t start_ns, int64_t end_ns) {
    if (tracer != nullptr) tracer->AddMeasured(start_ns, end_ns);
  }
};

double SumOf(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// Runs rounds until o.seconds have passed. A traced run alternates
/// untraced and traced rounds: the first give the end-to-end samples, the
/// second the per-layer metrics, and their op-phase time per operation
/// compared gives the tracing overhead.
template <typename Fn>
void RunRounds(const Options& o, Collector& c, Fn&& run_round) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(o.seconds * 1e9);
  const uint32_t min_rounds = o.trace ? 2 : 1;
  for (uint32_t i = 0; i < min_rounds || NowNs() < deadline; ++i) {
    Round r;
    r.index = i;
    if (c.tracer != nullptr && i % 2 == 1) {
      r.tracer = c.tracer;
      r.tracer->SetRound(i);
    }
    Tracer::Install(r.tracer);
    run_round(r);
    Tracer::Install(nullptr);
    const RoundSamples& s = r.samples;
    const double per_op = s.op_phase_s / static_cast<double>(s.ops);
    if (r.traced()) {
      c.traced_op_s.push_back(per_op);
      continue;
    }
    c.untraced_op_s.push_back(per_op);
    c.setup_s.push_back(s.setup_s);
    c.query_samples += s.query_latency_s.size();
    c.min_round_queries = std::min<uint64_t>(c.min_round_queries,
                                             s.query_latency_s.size());
    auto& pr = c.per_round;
    pr["query_total_s"].push_back(SumOf(s.query_latency_s));
    pr["query_p50_ms"].push_back(1e3 * Quantile(s.query_latency_s, 0.50));
    pr["query_p99_ms"].push_back(1e3 * Quantile(s.query_latency_s, 0.99));
    pr["throughput_qps"].push_back(static_cast<double>(s.ops) / s.op_phase_s);
    if (!s.update_latency_s.empty()) {
      pr["update_p50_us"].push_back(1e6 * Quantile(s.update_latency_s, 0.50));
      pr["update_p99_us"].push_back(1e6 * Quantile(s.update_latency_s, 0.99));
    }
    for (const auto& [name, v] : s.per_round) pr[name].push_back(v);
  }
}

/// Counts one checked operation. \p ok is false when the call threw.
void Check(Collector& c, bool ok, bool match) {
  ++c.attempted;
  if (!ok || !match) ++c.failed;
  if (ok && !match) ++c.mismatched;
}

/// Registry series deltas across a measured phase. A series missing from
/// the later snapshot reads 0 and is recorded as absent, so a later change
/// may delete a series without failing the run.
class RegistryDelta {
 public:
  RegistryDelta(const MetricsSnapshot& before, const MetricsSnapshot& after,
                Collector& c)
      : before_(before), after_(after), c_(c) {}

  double Counter(const std::string& name) const {
    const auto find = [&](const MetricsSnapshot& s) -> const uint64_t* {
      for (const auto& [n, v] : s.counters) {
        if (n == name) return &v;
      }
      return nullptr;
    };
    const uint64_t* a = find(after_);
    if (a == nullptr) {
      c_.absent_series.insert(name);
      return 0;
    }
    const uint64_t* b = find(before_);
    return static_cast<double>(*a - (b == nullptr ? 0 : *b));
  }

  /// Delta of the summed observations of every histogram named \p prefix*.
  double HistogramSum(const std::string& prefix) const {
    return Histograms(prefix, [](const holix::obs::HistogramSnapshot& h) {
      return h.sum;
    });
  }
  /// Delta of the observation count of every histogram named \p prefix*.
  double HistogramCount(const std::string& prefix) const {
    return Histograms(prefix, [](const holix::obs::HistogramSnapshot& h) {
      return static_cast<double>(h.Total());
    });
  }

  /// Sum of the gauges named \p prefix* in the later snapshot.
  double GaugeSum(const std::string& prefix) const {
    double sum = 0;
    bool found = false;
    for (const auto& [n, v] : after_.gauges) {
      if (n.rfind(prefix, 0) == 0) {
        sum += v;
        found = true;
      }
    }
    if (!found) c_.absent_series.insert(prefix);
    return sum;
  }

 private:
  template <typename Fn>
  double Histograms(const std::string& prefix, Fn value) const {
    double total = 0;
    bool found = false;
    for (const auto& h : after_.histograms) {
      if (h.name.rfind(prefix, 0) == 0) {
        total += value(h);
        found = true;
      }
    }
    for (const auto& h : before_.histograms) {
      if (h.name.rfind(prefix, 0) == 0) total -= value(h);
    }
    if (!found) c_.absent_series.insert(prefix);
    return total;
  }

  const MetricsSnapshot& before_;
  const MetricsSnapshot& after_;
  Collector& c_;
};

MetricsSnapshot Snapshot(const Database& db) {
  Span s("engine.metrics_snapshot");
  return db.MetricsSnapshot();
}

std::vector<holix::ActivationRecord> Activations(Database& db) {
  if (db.holistic() == nullptr) return {};
  Span s("holistic.activations");
  return db.holistic()->Activations();
}

std::vector<std::string> AttributeNames(size_t n) {
  std::vector<std::string> names;
  for (size_t i = 0; i < n; ++i) {
    std::string name = "a";
    name += std::to_string(i);
    names.push_back(std::move(name));
  }
  return names;
}

/// Generates the run's base columns: the same seed gives the same data in
/// every round.
std::vector<std::vector<int64_t>> GenerateColumns(const Options& o,
                                                  size_t attrs, size_t rows) {
  Span s("workload.gen");
  std::vector<std::vector<int64_t>> cols;
  for (size_t i = 0; i < attrs; ++i) {
    cols.push_back(
        holix::GenerateUniformColumn(rows, kDomain, MixSeed(o.seed, i)));
  }
  return cols;
}

std::vector<holix::RangeQuery> GenerateQueries(size_t n, size_t attrs,
                                               bool skewed, uint64_t seed) {
  Span s("workload.gen");
  holix::WorkloadSpec spec;
  spec.num_queries = n;
  spec.num_attributes = attrs;
  spec.domain = kDomain;
  spec.pattern = holix::QueryPattern::kRandom;
  spec.selectivity = 0;  // random ranges, as in §5.1
  spec.skewed_attributes = skewed;
  spec.seed = seed;
  return holix::GenerateWorkload(spec);
}

std::unique_ptr<Database> OpenDatabase(const holix::DatabaseOptions& opts) {
  Span s("engine.open");
  return std::make_unique<Database>(opts);
}

void LoadColumns(Database& db, const std::vector<std::string>& names,
                 std::vector<std::vector<int64_t>> cols) {
  for (size_t i = 0; i < cols.size(); ++i) {
    Span s("storage.load");
    db.LoadColumn<int64_t>("r", names[i], std::move(cols[i]));
  }
}

/// Holistic mode with the paper's uXwYxZ thread split over kContexts.
holix::DatabaseOptions HolisticSplit(size_t u, size_t w, size_t z) {
  holix::DatabaseOptions opts;
  opts.mode = holix::ExecMode::kHolistic;
  opts.user_threads = u;
  opts.total_cores = kContexts;
  opts.holistic.max_workers = w;
  opts.holistic.threads_per_worker = z;
  opts.holistic.refinements_per_worker = 16;
  opts.holistic.strategy = holix::Strategy::kW4;
  opts.holistic.monitor_interval_seconds = 0.001;
  return opts;
}

QuerySpec CountSpec(const holix::ColumnHandle& h, int64_t low, int64_t high) {
  return QuerySpec::Single(h, KeyScalar::I64(low), KeyScalar::I64(high),
                           {ResultRequest::kCount, {}});
}

QuerySpec SumSpec(const holix::ColumnHandle& h, int64_t low, int64_t high) {
  return QuerySpec::Single(h, KeyScalar::I64(low), KeyScalar::I64(high),
                           {ResultRequest::kSum, h});
}

/// Per-layer metrics every workload shares: set-up split, storage merges,
/// cracking and engine, over the measured phase.
void CommonLayerMetrics(const Round& r, Collector& c, const RegistryDelta& d,
                        const MetricsSnapshot& after, double queries,
                        double result_rows) {
  const auto self = r.tracer->SelfSeconds(r.index);
  const auto self_of = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  c.Layer("workload.gen_s", self_of("workload.gen"));
  c.Layer("storage.load_s", self_of("storage.load"));
  c.Layer("storage.ripple_merged_rows",
          d.Counter("holix_ripple_merged_inserts_total") +
              d.Counter("holix_ripple_merged_deletes_total"));

  const double bytes_moved = d.Counter("holix_crack_bytes_moved_total");
  const double morsels = d.Counter("holix_crack_morsels_total");
  const double steals = d.Counter("holix_crack_morsel_steals_total");
  c.Layer("cracking.cracks", d.Counter("holix_cracks_total"));
  c.Layer("cracking.bytes_moved", bytes_moved);
  c.Layer("cracking.bytes_moved_per_query",
          queries > 0 ? bytes_moved / queries : 0);
  c.Layer("cracking.simd_ops", d.Counter("holix_crack_simd_ops_total"));
  c.Layer("cracking.morsel_steal_ratio", morsels > 0 ? steals / morsels : 0);
  c.Layer("cracking.pieces_end", after.GaugeValue("holix_index_pieces"));
  c.Layer("cracking.latch_failures", d.Counter("holix_latch_failures_total"));

  c.Layer("engine.execute_s", self_of("engine.execute"));
  c.Layer("engine.update_s", self_of("engine.update"));
  c.Layer("engine.query_seconds_sum", d.HistogramSum("holix_query_seconds"));
  c.Layer("engine.scan_bytes_per_result_row",
          result_rows > 0 ? d.Counter("holix_scan_bytes_total") / result_rows
                          : 0);
  c.Layer("engine.planner_merge", d.Counter("holix_planner_merge_total"));
  c.Layer("engine.planner_probe", d.Counter("holix_planner_probe_total"));
  auto& execute = c.pooled["engine.execute_s"];
  for (double s : r.tracer->Durations("engine.execute", r.index)) {
    execute.push_back(s);
  }
}

/// Holistic-engine metrics over the measured phase. \p acts are the
/// engine's activation records, of which the first \p acts_before predate
/// the phase.
void HolisticLayerMetrics(Collector& c, const RegistryDelta& d,
                          const std::vector<holix::ActivationRecord>& acts,
                          size_t acts_before) {
  const double refinements = d.Counter("holix_holistic_refinements_total");
  const double worker_cracks = d.Counter("holix_holistic_worker_cracks_total");
  double busy = 0;
  for (size_t i = acts_before; i < acts.size(); ++i) {
    busy += acts[i].cycle_seconds;
  }
  c.Layer("holistic.activations",
          d.Counter("holix_holistic_activations_total"));
  c.Layer("holistic.refinements", refinements);
  c.Layer("holistic.worker_cracks", worker_cracks);
  c.Layer("holistic.useful_ratio",
          refinements > 0 ? worker_cracks / refinements : 0);
  c.Layer("holistic.busy_s", busy);
  c.Layer("holistic.retirements",
          d.Counter("holix_holistic_retirements_total"));
  c.Layer("holistic.distance_bytes_end",
          d.GaugeSum("holix_holistic_distance_bytes"));
}

}  // namespace

// --- explore ---------------------------------------------------------------

void RunExplore(const Options& o, Collector& c) {
  constexpr size_t kAttrs = 10;
  constexpr size_t kRows = size_t{1} << 21;
  // Forty times Fig. 6's 1000 queries. p99 is then the 400th-slowest query,
  // about the 40th crack of each attribute, on pieces small enough for L2:
  // the smooth, cache-resident part of the convergence curve. At 2000
  // queries it was the 20th-slowest, the second touch of each attribute,
  // and moved by a factor of 2-4 from round to round with the holistic
  // workers' timing; at 10000 it sat on pieces in L3 and DRAM and moved
  // with the memory load of the rest of the host.
  constexpr size_t kQueries = 40000;
  const holix::DatabaseOptions opts = HolisticSplit(2, 1, 2);
  const std::vector<std::string> names = AttributeNames(kAttrs);
  std::vector<ColumnOracle> oracle;

  RunRounds(o, c, [&](Round& r) {
    const int64_t t0 = NowNs();
    auto cols = GenerateColumns(o, kAttrs, kRows);
    const auto queries = GenerateQueries(kQueries, kAttrs, false,
                                         MixSeed(o.seed, 1000 + r.index));
    const int64_t t1 = NowNs();
    if (oracle.empty()) {
      for (const auto& col : cols) oracle.emplace_back(col);
    }
    const int64_t t2 = NowNs();
    auto db = OpenDatabase(opts);
    LoadColumns(*db, names, std::move(cols));
    const int64_t t3 = NowNs();
    r.Measured(t0, t1);
    r.Measured(t2, t3);
    r.samples.setup_s = SecondsBetween(t0, t1) + SecondsBetween(t2, t3);

    MetricsSnapshot before;
    size_t acts_before = 0;
    if (r.traced()) {
      before = Snapshot(*db);
      acts_before = Activations(*db).size();
    }

    std::vector<uint64_t> answers(kQueries, 0);
    std::vector<char> ok(kQueries, 1);
    auto& lat = r.samples.query_latency_s;
    lat.reserve(kQueries);
    int64_t q0 = 0;
    {
      holix::Session session = db->OpenSession();
      std::vector<holix::ColumnHandle> handles;
      for (const auto& n : names) handles.push_back(session.Handle("r", n));
      q0 = NowNs();
      for (size_t i = 0; i < kQueries; ++i) {
        const holix::RangeQuery& q = queries[i];
        const QuerySpec spec = CountSpec(handles[q.attr], q.low, q.high);
        const int64_t s0 = NowNs();
        try {
          Span s("engine.execute");
          answers[i] =
              static_cast<uint64_t>(session.Execute(spec).values.at(0).i);
        } catch (const std::exception&) {
          ok[i] = 0;
        }
        lat.push_back(SecondsBetween(s0, NowNs()));
      }
    }
    const int64_t q1 = NowNs();
    r.Measured(q0, q1);
    r.samples.ops = kQueries;
    r.samples.op_phase_s = SecondsBetween(q0, q1);

    if (r.traced()) {
      const MetricsSnapshot after = Snapshot(*db);
      const auto acts = Activations(*db);
      double rows = 0;
      for (uint64_t a : answers) rows += static_cast<double>(a);
      const RegistryDelta d(before, after, c);
      CommonLayerMetrics(r, c, d, after, kQueries, rows);
      HolisticLayerMetrics(c, d, acts, acts_before);
    }
    db.reset();

    if (o.plant_wrong_answer && r.index == 0) answers[0] += 1;
    for (size_t i = 0; i < kQueries; ++i) {
      const holix::RangeQuery& q = queries[i];
      Check(c, ok[i], answers[i] == oracle[q.attr].Count(q.low, q.high));
    }
  });
}

// --- serve -----------------------------------------------------------------

namespace {

struct ServeRequest {
  std::vector<holix::net::QueryPredicateWire> predicates;
  std::vector<holix::net::QueryResultSpecWire> results;
  bool conjunction = false;
  size_t attr = 0;  ///< single-predicate requests
  int64_t low = 0, high = 0;
  size_t conjunction_index = 0;  ///< into the round's Conjunction list
};

struct ServeAnswer {
  bool ok = false;
  uint64_t count = 0;
  int64_t sum = 0;
};

struct ConnectionRun {
  std::vector<ServeAnswer> answers;
  std::vector<double> latency_s;
  double connect_s = 0;
};

/// One closed-loop client: keeps up to \p window requests in flight and
/// awaits them oldest first. Latency runs from the send to the await.
void ClientLoop(uint16_t port, const std::vector<ServeRequest>& requests,
                size_t window, ConnectionRun* out) {
  out->answers.assign(requests.size(), {});
  out->latency_s.assign(requests.size(), 0);
  std::vector<int64_t> sent_ns(requests.size(), 0);
  holix::net::HolixClient client;
  uint64_t session = 0;
  try {
    const int64_t c0 = NowNs();
    {
      Span s("server.connect");
      client.Connect("127.0.0.1", port);
      session = client.OpenSession();
    }
    out->connect_s = SecondsBetween(c0, NowNs());
    std::deque<std::pair<uint64_t, size_t>> in_flight;
    size_t next = 0;
    while (next < requests.size() || !in_flight.empty()) {
      if (next < requests.size() && in_flight.size() < window) {
        const ServeRequest& req = requests[next];
        sent_ns[next] = NowNs();
        Span s("server.send");
        const uint64_t id = client.SendExecuteQuery(session, "r",
                                                    req.predicates,
                                                    req.results);
        s.set_request(id);
        in_flight.emplace_back(id, next++);
        continue;
      }
      const auto [id, idx] = in_flight.front();
      in_flight.pop_front();
      holix::net::ExecuteQueryResult res;
      try {
        Span s("server.await", id);
        res = client.AwaitExecuteQuery(id);
      } catch (const holix::net::ConnectionLost&) {
        throw;
      } catch (const std::exception&) {
        out->latency_s[idx] = SecondsBetween(sent_ns[idx], NowNs());
        continue;  // a server Error frame: the answer stays !ok
      }
      out->latency_s[idx] = SecondsBetween(sent_ns[idx], NowNs());
      ServeAnswer& a = out->answers[idx];
      if (!res.values.empty()) {
        a.ok = true;
        a.count = static_cast<uint64_t>(res.values[0].i);
        if (res.values.size() > 1) a.sum = res.values[1].i;
      }
    }
    Span s("server.close");
    client.CloseSession(session);
    client.Close();
  } catch (const std::exception&) {
    // Transport lost: every answer not yet received stays !ok.
  }
}

}  // namespace

void RunServe(const Options& o, Collector& c) {
  constexpr size_t kAttrs = 4;
  constexpr size_t kRows = size_t{1} << 20;
  constexpr size_t kConnections = 4;
  constexpr size_t kPerConnection = 500;
  constexpr size_t kWindow = 8;
  constexpr uint64_t kConjunctionPercent = 15;
  // Fig. 17's socket split for 4 clients on 4 contexts: u1 w1 x2.
  const holix::DatabaseOptions opts = HolisticSplit(1, 1, 2);
  const std::vector<std::string> names = AttributeNames(kAttrs);
  std::vector<std::vector<int64_t>> base;  // row order, for conjunctions
  std::vector<ColumnOracle> oracle;

  RunRounds(o, c, [&](Round& r) {
    const int64_t t0 = NowNs();
    auto cols = GenerateColumns(o, kAttrs, kRows);
    // Zipf-skewed attribute choice: concurrent requests share hot columns.
    const auto pool = GenerateQueries(kConnections * kPerConnection * 4,
                                      kAttrs, true,
                                      MixSeed(o.seed, 2000 + r.index));
    std::vector<std::vector<ServeRequest>> requests(kConnections);
    std::vector<Conjunction> conjunctions;
    {
      Span s("workload.gen");
      holix::Rng mix(MixSeed(o.seed, 3000 + r.index));
      size_t p = 0;
      for (auto& conn : requests) {
        for (size_t i = 0; i < kPerConnection; ++i) {
          ServeRequest req;
          const holix::RangeQuery& first = pool[p++];
          req.attr = first.attr;
          req.low = first.low;
          req.high = first.high;
          req.predicates.push_back(
              {names[first.attr], KeyScalar::I64(first.low),
               KeyScalar::I64(first.high)});
          req.results.push_back({0, ""});
          if (mix.Below(100) < kConjunctionPercent) {
            Conjunction conj;
            conj.ranges.push_back({first.attr, {first.low, first.high}});
            const size_t width = 2 + mix.Below(2);
            while (conj.ranges.size() < width) {
              const holix::RangeQuery& q = pool[p++];
              const bool taken = std::any_of(
                  conj.ranges.begin(), conj.ranges.end(),
                  [&](const auto& rg) { return rg.first == q.attr; });
              if (taken) continue;
              conj.ranges.push_back({q.attr, {q.low, q.high}});
              req.predicates.push_back({names[q.attr], KeyScalar::I64(q.low),
                                        KeyScalar::I64(q.high)});
            }
            conj.sum_column = mix.Below(kAttrs);
            req.results.push_back({1, names[conj.sum_column]});
            req.conjunction = true;
            req.conjunction_index = conjunctions.size();
            conjunctions.push_back(std::move(conj));
          }
          conn.push_back(std::move(req));
        }
      }
    }
    const int64_t t1 = NowNs();
    if (oracle.empty()) {
      base = cols;
      for (const auto& col : cols) oracle.emplace_back(col);
    }
    const int64_t t2 = NowNs();
    auto db = OpenDatabase(opts);
    LoadColumns(*db, names, std::move(cols));
    auto server = std::make_unique<holix::net::HolixServer>(*db);
    {
      Span s("server.start");
      server->Start();
    }
    const int64_t t3 = NowNs();
    r.Measured(t0, t1);
    r.Measured(t2, t3);
    r.samples.setup_s = SecondsBetween(t0, t1) + SecondsBetween(t2, t3);

    MetricsSnapshot before;
    size_t acts_before = 0;
    if (r.traced()) {
      before = Snapshot(*db);
      acts_before = Activations(*db).size();
    }
    std::vector<ConnectionRun> runs(kConnections);
    const int64_t q0 = NowNs();
    {
      std::vector<std::thread> clients;
      for (size_t i = 0; i < kConnections; ++i) {
        clients.emplace_back(ClientLoop, server->port(),
                             std::cref(requests[i]), kWindow, &runs[i]);
      }
      for (std::thread& th : clients) th.join();
    }
    const int64_t q1 = NowNs();
    r.Measured(q0, q1);
    for (const ConnectionRun& run : runs) {
      r.samples.query_latency_s.insert(r.samples.query_latency_s.end(),
                                       run.latency_s.begin(),
                                       run.latency_s.end());
    }
    r.samples.ops = kConnections * kPerConnection;
    r.samples.op_phase_s = SecondsBetween(q0, q1);

    if (r.traced()) {
      const MetricsSnapshot after = Snapshot(*db);
      const auto acts = Activations(*db);
      const RegistryDelta d(before, after, c);
      double rows = 0;
      for (const ConnectionRun& run : runs) {
        for (const ServeAnswer& a : run.answers) rows += a.count;
      }
      CommonLayerMetrics(r, c, d, after, r.samples.ops, rows);
      HolisticLayerMetrics(c, d, acts, acts_before);
      std::vector<double> connect;
      for (const ConnectionRun& run : runs) connect.push_back(run.connect_s);
      c.Layer("server.connect_s", Median(connect));
      const double engine_s = d.HistogramSum("holix_query_seconds");
      c.Layer("server.overhead_share",
              1.0 - engine_s / SumOf(r.samples.query_latency_s));
      c.Layer("server.requests", d.Counter("holix_server_requests_total"));
      const double batched = d.HistogramSum("holix_sharedscan_batch_size");
      const double batches = d.HistogramCount("holix_sharedscan_batch_size");
      c.Layer("server.sharedscan_batches",
              d.Counter("holix_sharedscan_batches_total"));
      c.Layer("server.sharedscan_avg_batch",
              batches > 0 ? batched / batches : 0);
      c.Layer("server.backpressure_toggles",
              d.Counter("holix_server_backpressure_toggles_total"));
      auto& rtt = c.pooled["server.rtt_s"];
      rtt.insert(rtt.end(), r.samples.query_latency_s.begin(),
                 r.samples.query_latency_s.end());
    }
    {
      Span s("server.stop");
      server->Stop();
    }
    server.reset();
    db.reset();

    if (o.plant_wrong_answer && r.index == 0) runs[0].answers[0].count += 1;
    const auto expected = ScanConjunctions(base, conjunctions, kContexts);
    for (size_t k = 0; k < kConnections; ++k) {
      for (size_t i = 0; i < kPerConnection; ++i) {
        const ServeRequest& req = requests[k][i];
        const ServeAnswer& a = runs[k].answers[i];
        const bool match =
            req.conjunction
                ? ConjunctionAnswer{a.count, a.sum} ==
                      expected[req.conjunction_index]
                : a.count == oracle[req.attr].Count(req.low, req.high);
        Check(c, a.ok, match);
      }
    }
  });
}

// --- churn -----------------------------------------------------------------

namespace {

struct ChurnOp {
  enum class Kind : uint8_t { kRead, kInsert, kDelete } kind = Kind::kRead;
  size_t attr = 0;
  int64_t low = 0;   ///< read: range low; insert/delete: the value
  int64_t high = 0;  ///< read: range high
  int64_t expected = 0;  ///< read: sum of the live values; delete: 1 (found)
  uint64_t rows = 0;     ///< read: live rows in range
};

/// Churn's reads sum a band of 1-8 cells of a 128-cell grid over the value
/// domain, as a report over fixed value bands does. The sum makes a read
/// touch its rows (32K-256K per column), so its latency measures work, not
/// timer noise. Random bounds would add two pivots per read, and warm
/// restart re-cracks every saved pivot at a cost that grows with the pivot
/// count times the column size; with the grid, reads add at most 127
/// pivots per column, and restart stays within the run (still far above a
/// cold reload).
constexpr int64_t kChurnGridCells = 128;
constexpr int64_t kChurnMaxBandCells = 8;

holix::RangeQuery GridBand(holix::RangeQuery q, holix::Rng& rng) {
  constexpr int64_t kCell = kDomain / kChurnGridCells;
  const int64_t cells = 1 + static_cast<int64_t>(rng.Below(kChurnMaxBandCells));
  q.low = q.low / kCell * kCell;
  q.high = std::min(kDomain, q.low + cells * kCell);
  return q;
}

/// Reads every grid cell of every column once, so the measured phase runs
/// on the converged index a long-running database has (explore measures
/// convergence itself). Part of churn's set-up time. The cells go in a
/// shuffled order: an ascending sweep would re-partition the whole tail of
/// the column on every read.
void WarmGrid(Database& db, const std::vector<std::string>& names,
              holix::Rng& rng) {
  constexpr int64_t kCell = kDomain / kChurnGridCells;
  std::vector<int64_t> cells(kChurnGridCells);
  for (int64_t i = 0; i < kChurnGridCells; ++i) cells[i] = i;
  holix::Session session = db.OpenSession();
  for (const std::string& name : names) {
    const holix::ColumnHandle h = session.Handle("r", name);
    std::shuffle(cells.begin(), cells.end(), rng);
    for (int64_t cell : cells) {
      Span s("engine.execute");
      session.Execute(CountSpec(h, cell * kCell, (cell + 1) * kCell));
    }
  }
}

/// Generates one phase of ops against the oracle's live state, so every
/// expected answer is known before the engine runs. Deletes only target
/// values the oracle holds, so none of them can miss.
std::vector<ChurnOp> GenerateChurnOps(
    const std::vector<holix::RangeQuery>& reads, size_t* next_read,
    size_t n, holix::Rng& rng, std::vector<ColumnOracle>& oracle) {
  std::vector<ChurnOp> ops;
  for (size_t i = 0; i < n; ++i) {
    ChurnOp op;
    const uint64_t roll = rng.Below(100);
    if (roll < 70) {
      const holix::RangeQuery q = GridBand(reads[(*next_read)++], rng);
      op.attr = q.attr;
      op.low = q.low;
      op.high = q.high;
      op.expected = oracle[q.attr].Sum(q.low, q.high);
      op.rows = oracle[q.attr].Count(q.low, q.high);
    } else if (roll < 90) {
      op.kind = ChurnOp::Kind::kInsert;
      op.attr = rng.Below(oracle.size());
      op.low = static_cast<int64_t>(rng.Below(kDomain));
      oracle[op.attr].Insert(op.low);
    } else {
      op.kind = ChurnOp::Kind::kDelete;
      op.attr = rng.Below(oracle.size());
      ColumnOracle& col = oracle[op.attr];
      do {
        if (rng.Below(2) == 0 || !col.SampleInserted(rng, &op.low)) {
          op.low = col.SampleBase(rng);
        }
      } while (!col.Contains(op.low));
      col.Delete(op.low);
      op.expected = 1;
    }
    ops.push_back(op);
  }
  return ops;
}

/// Runs \p ops through \p session; answers[i] is the read's sum or the
/// delete's found flag, ok[i] is false when the call threw.
void RunChurnOps(holix::Session& session,
                 const std::vector<holix::ColumnHandle>& handles,
                 const std::vector<ChurnOp>& ops, RoundSamples& samples,
                 std::vector<int64_t>& answers, std::vector<char>& ok) {
  for (const ChurnOp& op : ops) {
    int64_t answer = 0;
    bool fine = true;
    const int64_t s0 = NowNs();
    try {
      switch (op.kind) {
        case ChurnOp::Kind::kRead: {
          const QuerySpec spec = SumSpec(handles[op.attr], op.low, op.high);
          Span s("engine.execute");
          answer = session.Execute(spec).values.at(0).i;
          break;
        }
        case ChurnOp::Kind::kInsert: {
          Span s("engine.update");
          session.Insert(handles[op.attr], op.low);
          break;
        }
        case ChurnOp::Kind::kDelete: {
          Span s("engine.update");
          answer = session.Delete(handles[op.attr], op.low) ? 1 : 0;
          break;
        }
      }
    } catch (const std::exception&) {
      fine = false;
    }
    const double lat = SecondsBetween(s0, NowNs());
    if (op.kind == ChurnOp::Kind::kRead) {
      samples.query_latency_s.push_back(lat);
    } else {
      samples.update_latency_s.push_back(lat);
    }
    answers.push_back(answer);
    ok.push_back(fine ? 1 : 0);
  }
}

struct RestartRun {
  bool recovered = false;
  std::vector<int64_t> answers;
  std::vector<char> ok;
  double recover_s = 0;
  double reconverge_s = 0;
  MetricsSnapshot after;  ///< registry after the re-query (traced rounds)
};

/// Recovers a database from \p popts.data_dir and answers \p queries on
/// it. Times restart_s from the start of recovery to the last answer.
RestartRun RestartAndQuery(const holix::DatabaseOptions& opts,
                           const holix::persist::PersistOptions& popts,
                           const std::vector<std::string>& names,
                           const std::vector<holix::RangeQuery>& queries,
                           Round& r) {
  RestartRun rs;
  const int64_t t0 = NowNs();
  auto db = OpenDatabase(opts);
  std::unique_ptr<holix::persist::PersistenceManager> pm;
  {
    Span s("persist.recover");
    pm = std::make_unique<holix::persist::PersistenceManager>(*db, popts);
  }
  const int64_t t1 = NowNs();
  rs.answers.assign(queries.size(), 0);
  rs.ok.assign(queries.size(), 1);
  {
    holix::Session session = db->OpenSession();
    std::vector<holix::ColumnHandle> handles;
    for (const auto& n : names) handles.push_back(session.Handle("r", n));
    for (size_t i = 0; i < queries.size(); ++i) {
      const holix::RangeQuery& q = queries[i];
      const QuerySpec spec = SumSpec(handles[q.attr], q.low, q.high);
      try {
        Span s("engine.execute");
        rs.answers[i] = session.Execute(spec).values.at(0).i;
      } catch (const std::exception&) {
        rs.ok[i] = 0;
      }
    }
  }
  const int64_t t2 = NowNs();
  r.Measured(t0, t2);
  r.samples.per_round["restart_s"] = SecondsBetween(t0, t2);
  rs.recover_s = SecondsBetween(t0, t1);
  rs.reconverge_s = SecondsBetween(t1, t2);
  rs.recovered = pm->recovered();
  if (r.traced()) rs.after = Snapshot(*db);
  {
    Span s("persist.detach");
    pm.reset();
  }
  return rs;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return bytes;
}

}  // namespace

void RunChurn(const Options& o, Collector& c) {
  constexpr size_t kAttrs = 2;
  constexpr size_t kRows = size_t{1} << 22;
  // 70% reads, 20% inserts, 10% deletes: >= 1000 reads and >= 1000
  // updates per round. A delete cracks at its value, and each pivot adds to
  // the restart, so deletes are the smallest share.
  constexpr size_t kOpsPerPhase = 1750;
  constexpr size_t kRestartQueries = 500;
  holix::DatabaseOptions opts;
  opts.mode = holix::ExecMode::kAdaptive;
  opts.user_threads = 1;  // one client, one context
  opts.total_cores = kContexts;
  const std::vector<std::string> names = AttributeNames(kAttrs);
  std::vector<ColumnOracle> oracle;

  RunRounds(o, c, [&](Round& r) {
    holix::persist::PersistOptions popts;
    popts.data_dir = o.out_dir + "/data-" + std::to_string(::getpid()) +
                     "-" + std::to_string(r.index);
    popts.fsync = holix::persist::FsyncPolicy::kAlways;
    fs::remove_all(popts.data_dir);

    const int64_t t0 = NowNs();
    auto cols = GenerateColumns(o, kAttrs, kRows);
    const auto reads = GenerateQueries(2 * kOpsPerPhase + kRestartQueries,
                                       kAttrs, false,
                                       MixSeed(o.seed, 4000 + r.index));
    const int64_t t1 = NowNs();
    if (oracle.empty()) {
      for (const auto& col : cols) oracle.emplace_back(col);
    }
    const int64_t t2 = NowNs();
    auto db = OpenDatabase(opts);
    LoadColumns(*db, names, std::move(cols));
    holix::Rng warm_rng(MixSeed(o.seed, 6000 + r.index));
    WarmGrid(*db, names, warm_rng);
    std::unique_ptr<holix::persist::PersistenceManager> pm;
    {
      Span s("persist.attach");
      pm = std::make_unique<holix::persist::PersistenceManager>(*db, popts);
      pm->Checkpoint();
    }
    const int64_t t3 = NowNs();
    r.Measured(t0, t1);
    r.Measured(t2, t3);
    r.samples.setup_s = SecondsBetween(t0, t1) + SecondsBetween(t2, t3);

    // The op stream and its expected answers (oracle, untimed).
    for (ColumnOracle& col : oracle) col.Reset();
    holix::Rng rng(MixSeed(o.seed, 5000 + r.index));
    size_t next_read = 0;
    const auto phase_a =
        GenerateChurnOps(reads, &next_read, kOpsPerPhase, rng, oracle);
    const auto phase_b =
        GenerateChurnOps(reads, &next_read, kOpsPerPhase, rng, oracle);
    std::vector<holix::RangeQuery> post;
    for (size_t i = 0; i < kRestartQueries; ++i) {
      post.push_back(GridBand(reads[next_read + i], rng));
    }
    std::vector<int64_t> post_expected;
    for (const auto& q : post) {
      post_expected.push_back(oracle[q.attr].Sum(q.low, q.high));
    }

    MetricsSnapshot before;
    if (r.traced()) before = Snapshot(*db);

    std::vector<int64_t> answers;
    std::vector<char> ok;
    int64_t a0 = 0, a1 = 0, b0 = 0, b1 = 0;
    {
      holix::Session session = db->OpenSession();
      std::vector<holix::ColumnHandle> handles;
      for (const auto& n : names) handles.push_back(session.Handle("r", n));
      a0 = NowNs();
      RunChurnOps(session, handles, phase_a, r.samples, answers, ok);
      a1 = NowNs();
      {
        Span s("persist.checkpoint");
        pm->Checkpoint();
      }
      b0 = NowNs();
      RunChurnOps(session, handles, phase_b, r.samples, answers, ok);
      b1 = NowNs();
    }
    r.Measured(a0, b1);
    r.samples.ops = 2 * kOpsPerPhase;
    r.samples.op_phase_s = SecondsBetween(a0, a1) + SecondsBetween(b0, b1);
    r.samples.per_round["checkpoint_s"] = SecondsBetween(a1, b0);

    MetricsSnapshot after_ops;
    if (r.traced()) after_ops = Snapshot(*db);
    {
      Span s("persist.detach");
      pm.reset();
    }
    db.reset();
    r.samples.per_round["disk_bytes_per_user_byte"] =
        static_cast<double>(DirectoryBytes(popts.data_dir)) /
        static_cast<double>(kAttrs * kRows * sizeof(int64_t));

    // The first untraced and the first traced round restart. Warm restart
    // re-cracks every saved pivot and takes seconds, so restarting in
    // every round would leave room for too few rounds.
    const bool restart = r.index < (c.tracer != nullptr ? 2u : 1u);
    RestartRun rs;
    if (restart) rs = RestartAndQuery(opts, popts, names, post, r);

    if (r.traced()) {
      const RegistryDelta d(before, after_ops, c);
      double rows = 0;
      for (const auto* phase : {&phase_a, &phase_b}) {
        for (const ChurnOp& op : *phase) {
          if (op.kind == ChurnOp::Kind::kRead) rows += op.rows;
        }
      }
      CommonLayerMetrics(r, c, d, after_ops,
                         static_cast<double>(r.samples.query_latency_s.size()),
                         rows);
      const double updates =
          static_cast<double>(r.samples.update_latency_s.size());
      c.Layer("persist.wal_records", d.Counter("holix_wal_records_total"));
      c.Layer("persist.wal_bytes_per_update",
              d.Counter("holix_wal_bytes_total") / updates);
      c.Layer("persist.wal_fsyncs_per_update",
              d.Counter("holix_wal_fsyncs_total") / updates);
      c.Layer("persist.wal_append_s",
              d.HistogramSum("holix_wal_append_seconds"));
      c.Layer("persist.checkpoint_s", SecondsBetween(a1, b0));
      c.Layer("persist.checkpoint_bytes",
              d.Counter("holix_checkpoint_bytes_total"));
      if (restart) {
        const RegistryDelta rd(after_ops, rs.after, c);
        c.Layer("persist.recover_s", rs.recover_s);
        c.Layer("persist.recovery_pivots",
                rd.Counter("holix_recovery_pivots_total"));
        c.Layer("persist.replayed_records",
                rd.Counter("holix_wal_replayed_records_total"));
        c.Layer("persist.reconverge_s", rs.reconverge_s);
      }
    }
    fs::remove_all(popts.data_dir);

    if (o.plant_wrong_answer && r.index == 0) answers[0] += 1;
    if (restart) Check(c, true, rs.recovered);
    size_t i = 0;
    for (const auto* phase : {&phase_a, &phase_b}) {
      for (const ChurnOp& op : *phase) {
        const bool match = op.kind == ChurnOp::Kind::kInsert ||
                           answers[i] == op.expected;
        Check(c, ok[i], match);
        ++i;
      }
    }
    for (size_t k = 0; k < rs.answers.size(); ++k) {
      Check(c, rs.ok[k], rs.answers[k] == post_expected[k]);
    }
  });
}

}  // namespace perfbench
