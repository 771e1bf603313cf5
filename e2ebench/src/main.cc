// wydb end-to-end benchmark (see e2ebench/README.md).
//
//   wydb_e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --workdir <dir> [--smoke]
//   wydb_e2ebench --dump-inputs --workload <name> --seed <n>
//
// Prints every metric as `metric <name> <value> <unit>`, the workload's
// own views as `extra ...` lines, and as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when an output
// check failed, 2 on bad arguments or a non-optimized build.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench_util.h"
#include "inputs.h"
#include "io/text_format.h"
#include "workloads.h"

namespace {

using e2e::Report;

/// End-to-end metrics, reported by every workload's untraced run.
const char* const kEndToEnd[] = {"setup_s", "ops_per_s", "op_p50_ms",
                                 "op_p99_ms", "peak_rss_mb"};

/// Per-layer metrics of the traced run, with their units.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"io.parse_us_p50", "us"},
    {"canonical.key_us_p50", "us"},
    {"canonical.key_us_p99", "us"},
    {"cache.find_us_p50", "us"},
    {"cache.find_delta_us_p50", "us"},
    {"cache.insert_us_p50", "us"},
    {"cache.hit_ratio", "ratio"},
    {"cache.delta_ratio", "ratio"},
    {"certificate.countersign_us_p50", "us"},
    {"certificate.serialize_us_p50", "us"},
    {"search.full_us_p50", "us"},
    {"search.full_us_p99", "us"},
    {"search.delta_us_p50", "us"},
    {"search.states_visited", "count"},
    {"search.ns_per_state", "ns"},
    {"search.parallel_us_sum", "us"},
    {"search.reduced_us_sum", "us"},
    {"search.parallel_scaling", "ratio"},
    {"search.reduced_scaling", "ratio"},
    {"search.store_bytes_per_state", "bytes"},
    {"journal.append_us_p50", "us"},
    {"journal.append_us_p99", "us"},
    {"journal.fsyncs", "count"},
    {"journal.compactions", "count"},
    {"journal.compact_us_p50", "us"},
    {"journal.bytes_per_verdict", "bytes"},
    {"journal.recover_s", "s"},
    {"lock.acquire_ns_p50", "ns"},
    {"lock.acquire_ns_p99", "ns"},
    {"lock.release_ns_p50", "ns"},
    {"lock.ops_per_s", "1/s"},
    {"lock.shared_grant_ratio", "ratio"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"serve.handler_us_p50", "us"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

const char* const kWorkloads[] = {"serve-cold", "serve-resubmit",
                                  "analyze-large", "runtime-farm"};

int Usage(const char* why) {
  std::fprintf(stderr,
               "wydb_e2ebench: %s\nusage: wydb_e2ebench --workload "
               "<serve-cold|serve-resubmit|analyze-large|runtime-farm> "
               "--seed N --seconds S --trace 0|1 --workdir DIR [--smoke]\n"
               "       wydb_e2ebench --dump-inputs --workload W --seed N\n",
               why);
  return 2;
}

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Prints a number with all its digits, as JSON accepts it.
std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The request list (serve workloads) or instance texts, one fingerprint
/// per line, for the determinism check.
int DumpInputs(const e2e::RunConfig& c) {
  if (c.workload == "serve-cold") {
    std::printf("fingerprint %llu\n",
                static_cast<unsigned long long>(
                    e2e::Fingerprint(e2e::GenerateServeCold(c.seed, 4096))));
  } else if (c.workload == "serve-resubmit") {
    std::printf("fingerprint %llu\n",
                static_cast<unsigned long long>(e2e::Fingerprint(
                    e2e::GenerateServeResubmit(c.seed, 4096))));
  } else if (c.workload == "analyze-large") {
    auto instances = e2e::GenerateAnalyzeInstances(c.seed);
    if (!instances.ok()) return 1;
    uint64_t h = e2e::Fnv1a("");
    for (const e2e::Instance& i : *instances) {
      h = e2e::Fnv1a(wydb::SerializeSystem(*i.owned.system), h);
    }
    std::printf("fingerprint %llu\n", static_cast<unsigned long long>(h));
  } else {
    auto farm = e2e::GenerateRuntimeFarm(c.seed);
    if (!farm.ok()) return 1;
    std::printf("fingerprint %llu\n",
                static_cast<unsigned long long>(
                    e2e::Fnv1a(wydb::SerializeSystem(*farm->owned.system))));
  }
  return 0;
}

Report Run(const e2e::RunConfig& c) {
  if (c.workload == "serve-cold") return e2e::RunServe(c, /*resubmit=*/false);
  if (c.workload == "serve-resubmit") {
    return e2e::RunServe(c, /*resubmit=*/true);
  }
  if (c.workload == "analyze-large") return e2e::RunAnalyze(c);
  return e2e::RunRuntime(c);
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "wydb_e2ebench: refusing to measure a build without NDEBUG "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 2;
#endif
  e2e::RunConfig c;
  bool dump = false;
  bool have_seconds = false, have_trace = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--smoke") {
      c.smoke = true;
    } else if (arg == "--dump-inputs") {
      dump = true;
    } else if (arg == "--workload") {
      const char* v = value();
      if (v == nullptr) return Usage("--workload needs a value");
      c.workload = v;
    } else if (arg == "--seed") {
      const char* v = value();
      if (v == nullptr || !ParseU64(v, &c.seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      const char* v = value();
      char* end = nullptr;
      if (v == nullptr) return Usage("--seconds needs a value");
      c.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(c.seconds > 0.0) || c.seconds > 600.0) {
        return Usage("bad --seconds");
      }
      have_seconds = true;
    } else if (arg == "--trace") {
      const char* v = value();
      if (v == nullptr ||
          (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)) {
        return Usage("--trace takes 0 or 1");
      }
      c.trace = v[0] == '1';
      have_trace = true;
    } else if (arg == "--workdir") {
      const char* v = value();
      if (v == nullptr) return Usage("--workdir needs a value");
      c.workdir = v;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || c.workload == w;
  if (!known) return Usage("unknown or missing --workload");
  if (!have_seed) return Usage("missing --seed");
  if (dump) return DumpInputs(c);
  if (!have_seconds || !have_trace || c.workdir.empty()) {
    return Usage("--seconds, --trace and --workdir are required");
  }
  std::error_code ec;
  std::filesystem::create_directories(c.workdir, ec);
  if (ec) return Usage("cannot create --workdir");
  c.threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  std::printf("provenance: workload=%s seed=%llu seconds=%g trace=%d nproc=%d "
              "cpu=\"%s\" compiler=\"gcc %s\" ndebug=1%s\n",
              c.workload.c_str(), static_cast<unsigned long long>(c.seed),
              c.seconds, c.trace ? 1 : 0, c.threads, CpuModel().c_str(),
              __VERSION__, c.smoke ? " smoke=1" : "");
  std::fflush(stdout);

  Report report = Run(c);
  auto find = [&](const std::string& name) -> const Report::Metric* {
    for (const Report::Metric& m : report.metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  };

  // The JSON carries exactly the metric set of this run's kind. A traced
  // run takes each layer metric its workload does not measure from a
  // smoke-size traced run, same seed, of a workload that does, and says so
  // on a `filled:` line.
  std::vector<Report::Metric> out;
  if (c.trace) {
    for (const char* other : kWorkloads) {
      bool missing = false;
      for (const auto& [name, unit] : kPerLayer) {
        missing = missing || find(name) == nullptr;
      }
      if (!missing) break;
      if (c.workload == other) continue;
      e2e::RunConfig probe = c;
      probe.workload = other;
      probe.smoke = true;
      probe.seconds = 2.0;
      const Report filler = Run(probe);
      report.attempted += filler.attempted;
      if (!filler.correct) {
        report.Fail(std::string("layer probe ") + other + " failed",
                    std::max<uint64_t>(1, filler.failed));
      }
      std::string filled;
      for (const Report::Metric& m : filler.metrics) {
        if (find(m.name) == nullptr) {
          report.metrics.push_back(m);
          filled += " " + m.name;
        }
      }
      if (!filled.empty()) {
        report.notes.push_back(std::string("filled: from a smoke-size ") +
                               other + " run:" + filled);
      }
    }
    for (const auto& [name, unit] : kPerLayer) {
      const Report::Metric* m = find(name);
      if (m == nullptr) {
        report.notes.push_back(std::string("unmeasured: ") + name);
      }
      out.push_back(m != nullptr ? *m : Report::Metric{name, 0.0, unit});
    }
  } else {
    for (const char* name : kEndToEnd) {
      const Report::Metric* m = find(name);
      if (m == nullptr) {
        report.Fail(std::string("metric ") + name + " was not measured");
        continue;
      }
      out.push_back(*m);
    }
  }
  if (report.attempted == 0) report.attempted = 1;

  for (const std::string& n : report.notes) std::printf("%s\n", n.c_str());
  for (const Report::Metric& m : report.extra) {
    std::printf("extra %s %s %s\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("extra error_rate %s ratio\n",
              Num(static_cast<double>(report.failed) /
                  static_cast<double>(report.attempted))
                  .c_str());
  for (const std::string& f : report.failures) {
    std::printf("failure: %s\n", f.c_str());
    std::fprintf(stderr, "wydb_e2ebench: failure: %s\n", f.c_str());
  }
  for (const Report::Metric& m : out) {
    std::printf("metric %s %s %s\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") +
                     (report.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    json += (i ? ", " : "") + std::string("\"") + out[i].name +
            "\": {\"value\": " + Num(out[i].value) + ", \"unit\": \"" +
            out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
