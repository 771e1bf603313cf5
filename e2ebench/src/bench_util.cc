#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

namespace e2e {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double InterquartileMean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t lo = 0, hi = v.size();
  if (v.size() >= 4) {
    lo = v.size() / 4;
    hi = v.size() - v.size() / 4;
  }
  double sum = 0.0;
  for (size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

SliceMedians Slice(const std::vector<double>& done_s,
                   const std::vector<double>& latency, double wall_s,
                   double slice_s) {
  const int full = static_cast<int>(wall_s / slice_s);
  const int slices = std::max(1, full);
  const double width = full >= 1 ? slice_s : wall_s;
  std::vector<std::vector<double>> lat(slices);
  for (size_t i = 0; i < done_s.size(); ++i) {
    const int k = static_cast<int>(done_s[i] / width);
    if (k < slices) lat[k].push_back(latency[i]);
  }
  std::vector<double> rate, p50, p99;
  for (const auto& l : lat) {
    rate.push_back(static_cast<double>(l.size()) / width);
    p50.push_back(Quantile(l, 0.5));
    p99.push_back(Quantile(l, 0.99));
  }
  return SliceMedians{Median(rate), Median(p50), Median(p99), slices};
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

void Report::Fail(const std::string& what, uint64_t n) {
  failed += n;
  correct = false;
  if (failures.size() < 8) failures.push_back(what);
}

Tracer::Tracer(int threads) : epoch_(Clock::now()), per_thread_(threads) {
  for (auto& buf : per_thread_) buf.reserve(1 << 14);
}

void Tracer::Record(int tid, const char* name, uint64_t request,
                    Clock::time_point start, Clock::time_point end) {
  per_thread_[tid].push_back(Span{name, request, NanosBetween(epoch_, start),
                                  NanosBetween(start, end), tid});
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const auto& buf : per_thread_) {
    for (const Span& s : buf) {
      if (name == s.name) out.push_back(static_cast<double>(s.dur_ns) / 1e3);
    }
  }
  return out;
}

double Tracer::TotalUs(const std::string& name) const {
  return Sum(DurationsUs(name));
}

size_t Tracer::size() const {
  size_t n = 0;
  for (const auto& buf : per_thread_) n += buf.size();
  return n;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  const size_t per_thread_cap =
      kMaxWrittenSpans / std::max<size_t>(1, per_thread_.size());
  for (const auto& buf : per_thread_) {
    for (size_t i = 0; i < buf.size() && i < per_thread_cap; ++i) {
      const Span& s = buf[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu}}",
                   first ? "" : ",\n", s.name, s.tid,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.dur_ns) / 1e3,
                   static_cast<unsigned long long>(s.request));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

uint64_t Fnv1a(const std::string& s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace e2e
