// Shared plumbing of the end-to-end benchmark: clocks, quantiles, the
// metric sink, process resource probes, and the in-memory span tracer.
#ifndef E2EBENCH_BENCH_UTIL_H_
#define E2EBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}
inline int64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Linearly interpolated quantile (q in [0,1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double Sum(const std::vector<double>& v);

/// Interquartile mean: the mean of the middle half of the sample (all of
/// it below four values); 0 for an empty sample.
double InterquartileMean(std::vector<double> v);

/// A closed-loop run cut into equal time slices: the median over the full
/// slices of each slice's throughput and latency quantiles. Medians over
/// slices keep a burst of outside load on a shared host from moving the
/// run's figures.
struct SliceMedians {
  double per_s = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  int slices = 0;
};
/// `done_s[i]` is when operation i completed (seconds since the loop
/// started) and `latency[i]` its latency; operations of the trailing
/// partial slice are ignored unless there is no full slice.
SliceMedians Slice(const std::vector<double>& done_s,
                   const std::vector<double>& latency, double wall_s,
                   double slice_s);

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Everything a workload reports. End-to-end metrics go into the result
/// JSON of an untraced run, per-layer metrics into that of a traced run;
/// `extra` lines are printed with their units but are not part of the
/// JSON (workload-specific views and the error rate).
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<Metric> extra;
  std::vector<std::string> notes;  ///< Free-form "name: ..." lines.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> failures;  ///< First few failure descriptions.

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Extra(const std::string& name, double value, const std::string& unit) {
    extra.push_back({name, value, unit});
  }
  /// Records `n` failed or wrong operations of one kind.
  void Fail(const std::string& what, uint64_t n = 1);
};

/// One timed call into a layer, kept in memory until the run ends.
struct Span {
  const char* name;
  uint64_t request;  ///< Spans of one request share this id.
  int64_t start_ns;  ///< Relative to the tracer's epoch.
  int64_t dur_ns;
  int tid;
};

/// Collects spans from many threads (each thread appends to its own
/// buffer; the buffers are merged when the run ends) and writes them as
/// Chrome trace_event JSON.
class Tracer {
 public:
  explicit Tracer(int threads);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Record(int tid, const char* name, uint64_t request,
              Clock::time_point start, Clock::time_point end);
  /// Durations (µs) of every span named `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  double TotalUs(const std::string& name) const;
  size_t size() const;
  /// Writes {"traceEvents": [...]} with the first spans of each thread,
  /// at most kMaxWrittenSpans in all; false on I/O error. Metrics are
  /// computed from every span, written or not.
  static constexpr size_t kMaxWrittenSpans = 200000;
  bool WriteChromeJson(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<std::vector<Span>> per_thread_;
};

/// Times one call into a layer when a tracer is attached; a no-op shell
/// otherwise.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, int tid, const char* name, uint64_t request)
      : tracer_(tracer), tid_(tid), name_(name), request_(request) {
    if (tracer_ != nullptr) start_ = Clock::now();
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Record(tid_, name_, request_, start_, Clock::now());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int tid_;
  const char* name_;
  uint64_t request_;
  Clock::time_point start_;
};

/// FNV-1a over a byte string (input fingerprints for the determinism
/// check).
uint64_t Fnv1a(const std::string& s, uint64_t h = 0xcbf29ce484222325ULL);

}  // namespace e2e

#endif  // E2EBENCH_BENCH_UTIL_H_
