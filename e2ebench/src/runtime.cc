// runtime-farm: a certified read-mostly farm runs live under kBlock on
// real threads, then through the closed-loop simulator. The traced run
// replays the farm's lock sequences straight into a StripedLockManager to
// time the lock table's Acquire and Release.
#include <algorithm>
#include <atomic>
#include <thread>

#include "analysis/safety_checker.h"
#include "inputs.h"
#include "runtime/live_engine.h"
#include "runtime/striped_lock_manager.h"
#include "runtime/txn_runtime.h"
#include "runtime/workload.h"
#include "workloads.h"

namespace e2e {
namespace {

using wydb::Result;

/// Busy work after each granted lock, µs: keeps holders runnable, as a
/// transaction computing under its locks would.
constexpr int64_t kWorkUs = 2;
/// Length of one live session; the run is a series of these.
constexpr int64_t kSessionMs = 500;
/// Simulated time of one simulator session.
constexpr int64_t kSimDuration = 200'000;

wydb::LiveOptions LiveOpts(uint64_t seed, int threads, int64_t ms) {
  wydb::LiveOptions o;
  o.policy = wydb::ConflictPolicy::kBlock;
  o.seed = seed;
  o.threads = threads;
  o.duration_ms = ms;
  o.work_us = kWorkUs;
  return o;
}

wydb::WorkloadOptions SimOpts(uint64_t seed) {
  wydb::WorkloadOptions o;
  o.sim.policy = wydb::ConflictPolicy::kBlock;
  o.sim.seed = seed;
  o.sim.max_events = 0;
  o.duration = kSimDuration;
  return o;
}

void Spin(int64_t us) {
  const Clock::time_point end = Clock::now() + std::chrono::microseconds(us);
  while (Clock::now() < end) {
  }
}

struct LockReplay {
  double seconds = 0.0;
  uint64_t ops = 0;
  uint64_t grants = 0;
  uint64_t shared_grants = 0;
  bool aborted = false;
};

/// Replays `rounds` rounds of the farm's transactions from `threads`
/// threads, dealt round-robin as the live engine deals them, with the live
/// leg's policy, stripe setting and per-lock work. Each Acquire and
/// Release is a span when `tracer` is set.
LockReplay ReplayLocks(const wydb::TransactionSystem& sys, int threads,
                       int rounds, Tracer* tracer) {
  const int n = sys.num_transactions();
  wydb::StripedLockManager mgr(sys.db().num_entities(), n,
                               wydb::StripedLockManager::Options{});
  std::atomic<bool> aborted{false};
  std::atomic<uint64_t> ops{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> workers;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      std::vector<wydb::TxnExecutor> mine;
      for (int t = w; t < n; t += threads) mine.emplace_back(t, &sys.txn(t));
      uint64_t local_ops = 0;
      uint64_t id = 0;
      for (int r = 0; r < rounds; ++r) {
        for (wydb::TxnExecutor& ex : mine) {
          ex.BeginRound();
          mgr.BeginAttempt(ex.index());
          while (!ex.IsDone()) {
            const wydb::NodeId v = ex.ReadySteps().front();
            ex.MarkIssued(v);
            const wydb::Step& step = ex.txn().step(v);
            ++id;
            if (step.kind == wydb::StepKind::kLock) {
              wydb::StripedLockManager::AcquireStatus st;
              {
                ScopedSpan s(tracer, w, "lock.acquire", id);
                st = mgr.Acquire(ex.index(), step.entity, step.mode);
              }
              if (st != wydb::StripedLockManager::AcquireStatus::kGranted) {
                aborted = true;
                mgr.RequestStop();
                return;
              }
              Spin(kWorkUs);
            } else {
              ScopedSpan s(tracer, w, "lock.release", id);
              mgr.Release(ex.index(), step.entity);
            }
            ex.MarkCompleted(v);
            ++local_ops;
          }
        }
      }
      ops += local_ops;
    });
  }
  for (std::thread& t : workers) t.join();
  LockReplay out;
  out.seconds = SecondsSince(start);
  out.ops = ops;
  out.grants = mgr.grants();
  out.shared_grants = mgr.shared_grants();
  out.aborted = aborted;
  return out;
}

struct LiveTotals {
  uint64_t commits = 0;
  double wall = 0.0;
  std::vector<double> per_s, p50_us, p99_us;
  uint64_t lock_ops = 0;
  uint64_t shared_grants = 0;
  int sessions = 0;
};

/// Live sessions until `seconds` have passed; every session must complete
/// without deadlock or abort.
LiveTotals RunLiveSessions(const wydb::TransactionSystem& sys,
                           const RunConfig& c, double seconds,
                           Report* report) {
  LiveTotals t;
  const Clock::time_point start = Clock::now();
  const int64_t session_ms = c.smoke ? 200 : kSessionMs;
  do {
    Result<wydb::LiveResult> r = wydb::RunLive(
        sys, LiveOpts(c.seed * 1000 + t.sessions, c.threads, session_ms));
    ++t.sessions;
    if (!r.ok()) {
      ++report->attempted;
      report->Fail("live: " + r.status().message());
      continue;
    }
    report->attempted += r->commits + r->aborts;
    if (!r->completed || r->deadlocked || r->gave_up || r->aborts > 0) {
      report->Fail("live session " + std::to_string(t.sessions) +
                   (r->deadlocked ? " deadlocked" : " did not complete") +
                   " aborts=" + std::to_string(r->aborts));
      continue;
    }
    t.commits += r->commits;
    t.wall += r->wall_seconds;
    t.per_s.push_back(r->commits_per_sec);
    t.p50_us.push_back(static_cast<double>(r->latency.p50));
    t.p99_us.push_back(static_cast<double>(r->latency.p99));
    t.lock_ops += r->lock_ops;
    t.shared_grants += r->shared_grants;
  } while (SecondsSince(start) < seconds);
  return t;
}

struct SimTotals {
  uint64_t events = 0;
  uint64_t first_events = 0;  ///< Exact count of the first session.
  double wall = 0.0;
  int sessions = 0;
};

SimTotals RunSimSessions(const wydb::TransactionSystem& sys,
                         const RunConfig& c, double seconds, Report* report) {
  SimTotals t;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point t0 = Clock::now();
    Result<wydb::SimResult> r =
        wydb::RunWorkload(sys, SimOpts(c.seed * 1000 + t.sessions));
    t.wall += SecondsSince(t0);
    ++t.sessions;
    ++report->attempted;
    if (!r.ok()) {
      report->Fail("sim: " + r.status().message());
      continue;
    }
    if (r->deadlocked || r->budget_exhausted || r->gave_up || r->aborts > 0) {
      report->Fail("sim session " + std::to_string(t.sessions) +
                   " deadlocked or aborted");
      continue;
    }
    if (t.sessions == 1) t.first_events = r->events;
    t.events += r->events;
  } while (SecondsSince(start) < seconds);
  return t;
}

}  // namespace

Report RunRuntime(const RunConfig& c) {
  Report report;
  std::vector<double> setup_reps;
  Instance farm;
  const int reps = c.smoke ? 1 : 9;
  for (int rep = 0; rep < reps; ++rep) {
    // Set-up is generation plus the certification that admits the farm to
    // kBlock, by the exact Lemma-1 checker.
    const Clock::time_point t0 = Clock::now();
    Result<Instance> gen = GenerateRuntimeFarm(c.seed);
    if (!gen.ok()) {
      report.Fail("farm: " + gen.status().message());
      return report;
    }
    wydb::SafetyCheckOptions o;
    o.engine = wydb::SearchEngine::kReduced;
    o.search_threads = c.threads;
    Result<wydb::SafetyReport> cert =
        wydb::CheckSafeAndDeadlockFree(*gen->owned.system, o);
    if (!cert.ok() || !cert->holds) {
      report.Fail("the farm is not certified safe and deadlock-free");
      return report;
    }
    farm = std::move(*gen);
    setup_reps.push_back(SecondsSince(t0));
  }
  const wydb::TransactionSystem& sys = *farm.owned.system;

  if (!c.trace) {
    LiveTotals live = RunLiveSessions(sys, c, c.seconds * 0.8, &report);
    SimTotals sim = RunSimSessions(sys, c, c.seconds * 0.2, &report);
    // Per-session figures, summarized robustly: the median session
    // throughput, and the interquartile mean of the sessions' latency
    // percentiles (whole microseconds each, so a median would repeat).
    const double commits_per_s = Median(live.per_s);
    const double p50_us = InterquartileMean(live.p50_us);
    const double p99_us = InterquartileMean(live.p99_us);
    report.Add("setup_s", Median(setup_reps), "s");
    report.Add("ops_per_s", commits_per_s, "1/s");
    report.Add("op_p50_ms", p50_us / 1e3, "ms");
    report.Add("op_p99_ms", p99_us / 1e3, "ms");
    report.Add("peak_rss_mb", PeakRssMb(), "MiB");
    report.Extra("commits_per_s", commits_per_s, "1/s");
    report.Extra("commit_p50_us", p50_us, "us");
    report.Extra("commit_p99_us", p99_us, "us");
    report.Extra("sim_events_per_s", static_cast<double>(sim.events) / sim.wall,
                 "1/s");
    report.Extra("live_sessions", live.sessions, "count");
    report.Extra("sim_sessions", sim.sessions, "count");
    report.Extra("live_shared_grant_ratio",
                 static_cast<double>(live.shared_grants) /
                     static_cast<double>(live.lock_ops / 2),
                 "ratio");
    return report;
  }

  // Traced run: one live session and the simulator (untraced), then the
  // lock replay untraced and traced over the same number of rounds.
  RunLiveSessions(sys, c, c.seconds * 0.2, &report);
  SimTotals sim = RunSimSessions(sys, c, c.seconds * 0.3, &report);
  const int rounds = c.smoke ? 200 : 2000;
  LockReplay plain = ReplayLocks(sys, c.threads, rounds, nullptr);
  Tracer tracer(c.threads);
  LockReplay traced = ReplayLocks(sys, c.threads, rounds, &tracer);
  report.attempted += plain.ops + traced.ops;
  if (plain.aborted || traced.aborted) report.Fail("lock replay aborted");
  report.Add("lock.acquire_ns_p50",
             Quantile(tracer.DurationsUs("lock.acquire"), 0.5) * 1e3, "ns");
  report.Add("lock.acquire_ns_p99",
             Quantile(tracer.DurationsUs("lock.acquire"), 0.99) * 1e3, "ns");
  report.Add("lock.release_ns_p50",
             Quantile(tracer.DurationsUs("lock.release"), 0.5) * 1e3, "ns");
  report.Add("lock.ops_per_s", static_cast<double>(plain.ops) / plain.seconds,
             "1/s");
  report.Add("lock.shared_grant_ratio",
             static_cast<double>(traced.shared_grants) /
                 static_cast<double>(traced.grants),
             "ratio");
  report.Add("sim.events", static_cast<double>(sim.first_events), "count");
  report.Add("sim.ns_per_event",
             sim.wall * 1e9 / static_cast<double>(sim.events), "ns");
  report.Add("trace.overhead", traced.seconds / plain.seconds - 1.0, "ratio");
  if (!tracer.WriteChromeJson(TracePath(c))) report.Fail("cannot write trace");
  return report;
}

}  // namespace e2e
