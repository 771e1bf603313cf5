// analyze-large: one caller runs a fixed, seeded set of large instances
// through both exact checkers on the parallel sharded engine and on the
// reduced engine, with as many search threads as the host has CPUs.
#include <cmath>
#include <map>
#include <string>

#include "analysis/deadlock_checker.h"
#include "analysis/safety_checker.h"
#include "inputs.h"
#include "workloads.h"

namespace e2e {
namespace {

using wydb::Result;
using wydb::SearchEngine;

enum class Checker { kSafeAndDeadlockFree, kDeadlockFreedom };

/// One exact check of one instance: what it decided and what it cost.
struct Check {
  bool ok = false;
  bool holds = false;
  uint64_t states_visited = 0;
  uint64_t states_interned = 0;
  uint64_t store_bytes = 0;
};

Check RunCheck(const wydb::TransactionSystem& sys, Checker checker,
               SearchEngine engine, int threads) {
  Check c;
  if (checker == Checker::kSafeAndDeadlockFree) {
    wydb::SafetyCheckOptions o;
    o.engine = engine;
    o.search_threads = threads;
    Result<wydb::SafetyReport> r = wydb::CheckSafeAndDeadlockFree(sys, o);
    if (!r.ok()) return c;
    c = Check{true, r->holds, r->states_visited, r->states_interned,
              r->store_bytes};
  } else {
    wydb::DeadlockCheckOptions o;
    o.engine = engine;
    o.search_threads = threads;
    Result<wydb::DeadlockReport> r = wydb::CheckDeadlockFreedom(sys, o);
    if (!r.ok()) return c;
    c = Check{true, r->deadlock_free, r->states_visited, r->states_interned,
              r->store_bytes};
  }
  return c;
}

/// One operation of a pass: an instance, a checker and an engine.
struct Op {
  int instance;
  Checker checker;
  SearchEngine engine;
  std::string name;  ///< instance.checker.engine
};

std::vector<Op> PassOps(const std::vector<Instance>& instances) {
  std::vector<Op> ops;
  for (int i = 0; i < static_cast<int>(instances.size()); ++i) {
    for (Checker ch :
         {Checker::kSafeAndDeadlockFree, Checker::kDeadlockFreedom}) {
      for (SearchEngine e :
           {SearchEngine::kParallelSharded, SearchEngine::kReduced}) {
        ops.push_back(Op{i, ch, e,
                         instances[i].name +
                             (ch == Checker::kSafeAndDeadlockFree ? ".safedf"
                                                                  : ".df") +
                             (e == SearchEngine::kReduced ? ".reduced"
                                                          : ".parallel")});
      }
    }
  }
  return ops;
}

/// The recorded answer of each (instance, checker): the serial exact
/// engine's verdict and state count, computed before timing.
struct Recorded {
  bool holds;
  uint64_t states_visited;
};

struct PassResult {
  double seconds = 0.0;
  std::vector<double> op_ms;  ///< Indexed like the pass's ops.
  uint64_t parallel_states = 0;
  uint64_t parallel_interned = 0;
  uint64_t parallel_store_bytes = 0;
};

/// Runs every op once, checking each answer.
PassResult RunPass(const std::vector<Instance>& instances,
                   const std::vector<Op>& ops,
                   const std::map<std::pair<int, int>, Recorded>& recorded,
                   int threads, Tracer* tracer, uint64_t pass,
                   Report* report) {
  PassResult out;
  const Clock::time_point start = Clock::now();
  for (const Op& op : ops) {
    const char* span = op.engine == SearchEngine::kReduced ? "search.reduced"
                                                           : "search.parallel";
    const Clock::time_point t0 = Clock::now();
    Check c;
    {
      ScopedSpan s(tracer, 0, span, pass);
      c = RunCheck(*instances[op.instance].owned.system, op.checker, op.engine,
                   threads);
    }
    out.op_ms.push_back(NanosBetween(t0, Clock::now()) / 1e6);
    ++report->attempted;
    const Recorded& want =
        recorded.at({op.instance, static_cast<int>(op.checker)});
    if (!c.ok) {
      report->Fail(op.name + ": check failed");
    } else if (c.holds != want.holds) {
      report->Fail(op.name + ": verdict disagrees with the serial engine");
    } else if (op.engine == SearchEngine::kParallelSharded &&
               c.states_visited != want.states_visited) {
      report->Fail(op.name + ": states_visited " +
                   std::to_string(c.states_visited) + " != recorded " +
                   std::to_string(want.states_visited));
    }
    if (op.engine == SearchEngine::kParallelSharded) {
      out.parallel_states += c.states_visited;
      out.parallel_interned += c.states_interned;
      out.parallel_store_bytes += c.store_bytes;
    }
  }
  out.seconds = SecondsSince(start);
  return out;
}

/// Whole passes until `seconds` have passed (at least one).
std::vector<PassResult> RunPasses(
    const std::vector<Instance>& instances, const std::vector<Op>& ops,
    const std::map<std::pair<int, int>, Recorded>& recorded, int threads,
    double seconds, Tracer* tracer, Report* report) {
  std::vector<PassResult> passes;
  const Clock::time_point start = Clock::now();
  do {
    passes.push_back(RunPass(instances, ops, recorded, threads, tracer,
                             passes.size(), report));
  } while (SecondsSince(start) < seconds);
  return passes;
}

double PassRate(const std::vector<PassResult>& passes, size_t ops) {
  double s = 0.0;
  for (const PassResult& p : passes) s += p.seconds;
  return static_cast<double>(passes.size() * ops) / s;
}

/// Median time of each op over the passes, ms.
std::vector<double> OpMedians(const std::vector<PassResult>& passes,
                              size_t ops) {
  std::vector<double> out;
  for (size_t i = 0; i < ops; ++i) {
    std::vector<double> v;
    for (const PassResult& p : passes) v.push_back(p.op_ms[i]);
    out.push_back(Median(v));
  }
  return out;
}

}  // namespace

Report RunAnalyze(const RunConfig& c) {
  Report report;
  // Set-up, repeated: instance generation plus one checked warm-up pass,
  // so the lazy allocations and first-touch page faults of the engines'
  // stores are paid here and not in the timed passes. The recorded
  // answers (the serial incremental engine's) are computed once, untimed.
  std::vector<double> setup_reps;
  std::vector<Instance> instances;
  std::map<std::pair<int, int>, Recorded> recorded;
  std::vector<Op> ops;
  const int reps = c.smoke ? 1 : 3;
  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    Result<std::vector<Instance>> gen = GenerateAnalyzeInstances(c.seed);
    if (!gen.ok()) {
      report.Fail("instances: " + gen.status().message());
      return report;
    }
    instances = std::move(*gen);
    double setup_s = SecondsSince(t0);
    if (recorded.empty()) {
      for (int i = 0; i < static_cast<int>(instances.size()); ++i) {
        for (Checker ch :
             {Checker::kSafeAndDeadlockFree, Checker::kDeadlockFreedom}) {
          Check r = RunCheck(*instances[i].owned.system, ch,
                             SearchEngine::kIncremental, 1);
          if (!r.ok) {
            report.Fail(instances[i].name + ": recording run failed");
            return report;
          }
          recorded[{i, static_cast<int>(ch)}] =
              Recorded{r.holds, r.states_visited};
        }
      }
      ops = PassOps(instances);
    }
    setup_s += RunPass(instances, ops, recorded, c.threads, nullptr, 0,
                       &report)
                   .seconds;
    setup_reps.push_back(setup_s);
  }

  if (!c.trace) {
    std::vector<PassResult> passes = RunPasses(
        instances, ops, recorded, c.threads, c.seconds, nullptr, &report);
    // The tail is the median over passes of each pass's p99, as serve
    // takes it over slices: one pass holds one run of the costliest check,
    // so a stall of the host during a few passes does not move it.
    std::vector<double> all_ms, pass_rates, pass_p99;
    for (const PassResult& p : passes) {
      all_ms.insert(all_ms.end(), p.op_ms.begin(), p.op_ms.end());
      pass_rates.push_back(static_cast<double>(ops.size()) / p.seconds);
      pass_p99.push_back(Quantile(p.op_ms, 0.99));
    }
    const double rate = PassRate(passes, ops.size());
    report.Add("setup_s", Median(setup_reps), "s");
    report.Add("ops_per_s", Median(pass_rates), "1/s");
    report.Add("op_p50_ms", Quantile(all_ms, 0.5), "ms");
    report.Add("op_p99_ms", Median(pass_p99), "ms");
    report.Add("peak_rss_mb", PeakRssMb(), "MiB");
    report.Extra("certify_per_s", rate, "1/s");
    report.Extra("certify_p50_ms", Quantile(all_ms, 0.5), "ms");
    report.Extra("certify_p99_ms", Quantile(all_ms, 0.99), "ms");
    report.Extra("passes", static_cast<double>(passes.size()), "count");
    const std::vector<double> medians = OpMedians(passes, ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      report.Extra(ops[i].name + "_ms", medians[i], "ms");
    }
    return report;
  }

  // Traced run: untraced passes at nproc threads (overhead baseline), then
  // traced passes at nproc and at 1 thread (scaling).
  const double phase_s = c.seconds / 3.0;
  std::vector<PassResult> untraced = RunPasses(
      instances, ops, recorded, c.threads, phase_s, nullptr, &report);
  Tracer tracer(1);
  std::vector<PassResult> traced = RunPasses(instances, ops, recorded,
                                             c.threads, phase_s, &tracer,
                                             &report);
  std::vector<PassResult> serial = RunPasses(instances, ops, recorded, 1,
                                             phase_s, nullptr, &report);
  const std::vector<double> at_n = OpMedians(traced, ops.size());
  const std::vector<double> at_1 = OpMedians(serial, ops.size());
  double parallel_sum = 0.0, reduced_sum = 0.0;
  double log_par = 0.0, log_red = 0.0;
  int n_par = 0, n_red = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const double ratio = std::log(at_1[i] / at_n[i]);
    if (ops[i].engine == SearchEngine::kReduced) {
      reduced_sum += at_n[i] * 1e3;
      log_red += ratio;
      ++n_red;
    } else {
      parallel_sum += at_n[i] * 1e3;
      log_par += ratio;
      ++n_par;
    }
    report.Extra(ops[i].name + "_scaling", at_1[i] / at_n[i], "ratio");
  }
  const PassResult& first = traced.front();
  report.Add("search.states_visited",
             static_cast<double>(first.parallel_states), "count");
  report.Add("search.ns_per_state",
             tracer.TotalUs("search.parallel") * 1e3 /
                 static_cast<double>(first.parallel_states * traced.size()),
             "ns");
  report.Add("search.parallel_us_sum", parallel_sum, "us");
  report.Add("search.reduced_us_sum", reduced_sum, "us");
  report.Add("search.parallel_scaling", std::exp(log_par / n_par), "ratio");
  report.Add("search.reduced_scaling", std::exp(log_red / n_red), "ratio");
  report.Add("search.store_bytes_per_state",
             static_cast<double>(first.parallel_store_bytes) /
                 static_cast<double>(first.parallel_interned),
             "bytes");
  report.Add(
      "trace.overhead",
      PassRate(untraced, ops.size()) / PassRate(traced, ops.size()) - 1.0,
      "ratio");
  report.Extra("threads", c.threads, "count");
  if (!tracer.WriteChromeJson(TracePath(c))) report.Fail("cannot write trace");
  return report;
}

}  // namespace e2e
