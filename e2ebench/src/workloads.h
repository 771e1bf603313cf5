// The four workloads. Each runs its set-up, measures for the configured
// time, checks every output against its oracle, and fills a Report: the
// end-to-end metrics when untraced, the per-layer metrics when traced.
#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "bench_util.h"

namespace e2e {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs and short phases: every workload end to end in seconds.
  bool smoke = false;
  /// Scratch directory for journals and the trace file.
  std::string workdir;
  /// Client / worker / search threads: the host's CPU count.
  int threads = 1;
};

Report RunServe(const RunConfig& config, bool resubmit);
Report RunAnalyze(const RunConfig& config);
Report RunRuntime(const RunConfig& config);

/// Where a traced run writes its spans.
inline std::string TracePath(const RunConfig& config) {
  return config.workdir + "/trace-" + config.workload + "-seed" +
         std::to_string(config.seed) + (config.smoke ? "-smoke" : "") +
         ".json";
}

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
