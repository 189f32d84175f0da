#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "common.h"

namespace perfbench {

namespace {

std::atomic<Tracer*> g_tracer{nullptr};
thread_local uint64_t t_current_span = 0;
thread_local int64_t t_thread_index = -1;

using Interval = std::pair<int64_t, int64_t>;

/// Sorts and merges overlapping intervals.
std::vector<Interval> Union(std::vector<Interval> v) {
  std::sort(v.begin(), v.end());
  std::vector<Interval> out;
  for (const Interval& iv : v) {
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

int64_t Length(const std::vector<Interval>& v) {
  int64_t n = 0;
  for (const Interval& iv : v) n += iv.second - iv.first;
  return n;
}

/// Length of the intersection of two merged interval lists.
int64_t OverlapLength(const std::vector<Interval>& a,
                      const std::vector<Interval>& b) {
  int64_t n = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const int64_t lo = std::max(a[i].first, b[j].first);
    const int64_t hi = std::min(a[i].second, b[j].second);
    if (lo < hi) n += hi - lo;
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return n;
}

}  // namespace

void Tracer::Install(Tracer* t) { g_tracer.store(t); }
Tracer* Tracer::Active() { return g_tracer.load(std::memory_order_relaxed); }

void Tracer::AddMeasured(int64_t start_ns, int64_t end_ns) {
  std::lock_guard<std::mutex> lk(mu_);
  measured_.emplace_back(start_ns, end_ns);
}

void Tracer::Record(const SpanRecord& r) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(r);
}

std::map<std::string, double> Tracer::SelfSeconds(uint32_t round) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const SpanRecord& s : spans_) {
    if (s.round == round && s.parent != 0) {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (const SpanRecord& s : spans_) {
    if (s.round != round) continue;
    const auto it = child_ns.find(s.id);
    const int64_t children = it == child_ns.end() ? 0 : it->second;
    self[s.name] += (s.end_ns - s.start_ns - children) * 1e-9;
  }
  return self;
}

std::vector<double> Tracer::Durations(const char* name, uint32_t round) const {
  std::lock_guard<std::mutex> lk(mu_);
  const std::string want(name);
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.round == round && want == s.name) {
      out.push_back(SecondsBetween(s.start_ns, s.end_ns));
    }
  }
  return out;
}

double Tracer::TopLevelCoverage() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Interval> top;
  for (const SpanRecord& s : spans_) {
    if (s.parent == 0) top.emplace_back(s.start_ns, s.end_ns);
  }
  const std::vector<Interval> measured = Union(measured_);
  const int64_t wall = Length(measured);
  if (wall <= 0) return 0;
  return static_cast<double>(OverlapLength(Union(std::move(top)), measured)) /
         static_cast<double>(wall);
}

bool Tracer::WriteFile(const std::string& path, int64_t origin_ns) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "id\tparent\trequest\tname\tthread\tround\tstart_ns\tend_ns\n");
  for (const SpanRecord& s : spans_) {
    std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%u\t%u\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name, s.thread,
                 s.round, static_cast<long long>(s.start_ns - origin_ns),
                 static_cast<long long>(s.end_ns - origin_ns));
  }
  return std::fclose(f) == 0;
}

Span::Span(const char* name, uint64_t request) : tracer_(Tracer::Active()) {
  if (tracer_ == nullptr) return;
  if (t_thread_index < 0) t_thread_index = tracer_->NextThread();
  rec_.id = tracer_->NextId();
  rec_.parent = t_current_span;
  rec_.request = request;
  rec_.name = name;
  rec_.thread = static_cast<uint32_t>(t_thread_index);
  rec_.round = tracer_->round();
  t_current_span = rec_.id;
  rec_.start_ns = NowNs();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  rec_.end_ns = NowNs();
  t_current_span = rec_.parent;
  tracer_->Record(rec_);
}

}  // namespace perfbench
