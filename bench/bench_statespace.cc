// Microbenchmarks for the interned-state search substrate: state
// interning, incremental move generation vs the naive rescan, and the
// exact checkers under both engines (the incremental-arc cycle path is
// exercised by the SafeDf series). Baseline numbers are recorded in
// BENCH_statespace.json at the repo root.
#include <benchmark/benchmark.h>

#include <vector>

#include "analysis/deadlock_checker.h"
#include "analysis/safety_checker.h"
#include "analysis/sat/dpll.h"
#include "common/random.h"
#include "core/state_space.h"
#include "core/state_store.h"
#include "gen/system_gen.h"

namespace wydb {
namespace {

OwnedSystem SameOrderPair(int entities) {
  RandomSystemOptions opts;
  opts.num_sites = 1;
  opts.entities_per_site = entities;
  opts.num_transactions = 2;
  opts.entities_per_txn = entities;
  opts.two_phase = false;
  opts.seed = 5;
  auto sys = GenerateRandomSystem(opts);
  if (!sys.ok()) std::abort();
  return std::move(*sys);
}

// ---------------------------------------------------------------------
// StateStore: raw intern throughput (50% hit rate on re-intern pass).

void BM_StateStoreIntern(benchmark::State& state) {
  const int kKeyWords = 4;
  const int n = static_cast<int>(state.range(0));
  Rng rng(99);
  std::vector<uint64_t> keys(static_cast<size_t>(n) * kKeyWords);
  for (auto& w : keys) w = rng.Next();
  for (auto _ : state) {
    StateStore store(kKeyWords);
    for (int i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(
          store.Intern(keys.data() + static_cast<size_t>(i) * kKeyWords));
    }
    // Second pass: all hits.
    for (int i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(
          store.Intern(keys.data() + static_cast<size_t>(i) * kKeyWords));
    }
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_StateStoreIntern)->Arg(1024)->Arg(16384);

// ---------------------------------------------------------------------
// Move generation: naive full rescan vs incremental frontier walk, over
// the same fixed random walk through a mid-sized system.

struct WalkFixture {
  OwnedSystem sys;
  StateSpace space;
  std::vector<ExecState> states;                // Naive representation.
  std::vector<std::vector<uint64_t>> auxes;     // Incremental caches.

  explicit WalkFixture(int entities)
      : sys(SameOrderPair(entities)), space(sys.system.get()) {
    const int kw = space.words_per_state();
    const int aw = space.aux_words();
    ExecState s = space.EmptyState();
    std::vector<uint64_t> aux(aw), next_aux(aw), next_state(kw);
    space.InitAux(s.words.data(), aux.data());
    Rng rng(7);
    while (true) {
      states.push_back(s);
      auxes.push_back(aux);
      std::vector<GlobalNode> moves = space.LegalMoves(s);
      if (moves.empty()) break;
      GlobalNode g = moves[rng.NextBelow(moves.size())];
      space.ApplyInto(s.words.data(), aux.data(), g, next_state.data(),
                      next_aux.data());
      s.words.assign(next_state.begin(), next_state.end());
      aux = next_aux;
    }
  }
};

void BM_MoveGen_Naive(benchmark::State& state) {
  WalkFixture f(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    for (const ExecState& s : f.states) {
      std::vector<GlobalNode> moves = f.space.LegalMoves(s);
      benchmark::DoNotOptimize(moves);
    }
  }
  state.SetItemsProcessed(state.iterations() * f.states.size());
}
BENCHMARK(BM_MoveGen_Naive)->Arg(8)->Arg(16);

void BM_MoveGen_Incremental(benchmark::State& state) {
  WalkFixture f(static_cast<int>(state.range(0)));
  std::vector<GlobalNode> moves;
  for (auto _ : state) {
    for (const auto& aux : f.auxes) {
      moves.clear();
      f.space.ExpandInto(aux.data(), &moves);
      benchmark::DoNotOptimize(moves);
    }
  }
  state.SetItemsProcessed(state.iterations() * f.auxes.size());
}
BENCHMARK(BM_MoveGen_Incremental)->Arg(8)->Arg(16);

// ---------------------------------------------------------------------
// End-to-end: exact checkers under both engines. The ns/state contrast is
// the headline number of this substrate (ISSUE 1 acceptance).

void RunDeadlockBench(benchmark::State& state, SearchEngine engine) {
  OwnedSystem sys = SameOrderPair(static_cast<int>(state.range(0)));
  DeadlockCheckOptions opts;
  opts.engine = engine;
  uint64_t states = 0;
  for (auto _ : state) {
    auto report = CheckDeadlockFreedom(*sys.system, opts);
    if (!report.ok()) {
      state.SkipWithError("budget");
      break;
    }
    states = report->states_visited;
    benchmark::DoNotOptimize(report);
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["ns_per_state"] = benchmark::Counter(
      static_cast<double>(states) * state.iterations(),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_DeadlockCheck_Naive(benchmark::State& state) {
  RunDeadlockBench(state, SearchEngine::kNaiveReference);
}
BENCHMARK(BM_DeadlockCheck_Naive)->DenseRange(4, 8, 2);

void BM_DeadlockCheck_Incremental(benchmark::State& state) {
  RunDeadlockBench(state, SearchEngine::kIncremental);
}
BENCHMARK(BM_DeadlockCheck_Incremental)->DenseRange(4, 8, 2);

// The exploding-workload contrasts (disjoint grid, shared chain) live in
// bench_checker.cc as BM_ExactDeadlockCheck_StuckState_Grid{,_Seed} and
// BM_ExactSafeDfCheck_Chain{,_Seed}; they are deliberately not duplicated
// here.

// ---------------------------------------------------------------------
// Thread scaling on the exploding disjoint-grid deadlock series (ISSUE 4
// acceptance series): k transactions over disjoint entities visit
// (2*entities+1)^k states, so per-state work dominates and the sharded
// parallel engine's speedup is directly visible in ns_per_state. Results
// are bit-identical to the serial engines at every thread count
// (property-tested); only the wall clock may differ. On a single-core
// host the >1-thread rows measure determinism overhead, not scaling —
// compare against the recording context's num_cpus.

void RunGridDeadlockBench(benchmark::State& state, SearchEngine engine) {
  const int k = static_cast<int>(state.range(0));
  auto sys = GenerateDisjointGridSystem(k, /*entities_per_txn=*/3);
  if (!sys.ok()) std::abort();
  DeadlockCheckOptions opts;
  opts.engine = engine;
  opts.search_threads = static_cast<int>(state.range(1));
  uint64_t states = 0;
  for (auto _ : state) {
    auto report = CheckDeadlockFreedom(*sys->system, opts);
    if (!report.ok() || !report->deadlock_free) {
      state.SkipWithError("budget");
      break;
    }
    states = report->states_visited;
    benchmark::DoNotOptimize(report);
  }
  state.counters["states"] = static_cast<double>(states);
  // Wall-clock ns/state (UseRealTime below): the scaling metric. The
  // default CPU-time rate would only meter the calling thread and
  // overstate multi-thread runs.
  state.counters["ns_per_state"] = benchmark::Counter(
      static_cast<double>(states) * state.iterations(),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_GridDeadlock_Incremental(benchmark::State& state) {
  RunGridDeadlockBench(state, SearchEngine::kIncremental);
}
BENCHMARK(BM_GridDeadlock_Incremental)
    ->Args({4, 0})
    ->Args({5, 0})
    ->UseRealTime();

// Second arg = worker threads of the sharded engine.
void BM_GridDeadlock_ParallelSharded(benchmark::State& state) {
  RunGridDeadlockBench(state, SearchEngine::kParallelSharded);
}
BENCHMARK(BM_GridDeadlock_ParallelSharded)
    ->Args({4, 1})
    ->Args({4, 2})
    ->Args({4, 4})
    ->Args({5, 1})
    ->Args({5, 2})
    ->Args({5, 4})
    ->UseRealTime();

// Commutativity-reduced engine on the same grid (DESIGN.md §1.7): every
// grid move is on a private entity, so the persistent singleton
// collapses (2*entities+1)^k states to the single 2*entities*k path —
// the `states` counter is the headline, not ns/state.
void BM_GridDeadlock_Reduced(benchmark::State& state) {
  RunGridDeadlockBench(state, SearchEngine::kReduced);
}
BENCHMARK(BM_GridDeadlock_Reduced)
    ->Args({4, 1})
    ->Args({5, 1})
    ->Args({5, 4})
    ->UseRealTime();

// ---------------------------------------------------------------------
// Large-symmetric series (ISSUE 5 acceptance): k identical latch-ordered
// workers over shared entities (the certified replicated-farm template,
// degree 1). The exhaustive engines intern ~(2.5k+1)*2^k states — the
// completed-worker *subsets* — while orbit canonicalization tracks only
// completed-worker *counts* (~6k states). The 2M state budget is the
// series' point: at k=16 (~2.69M reachable states) every exhaustive
// engine dies with ResourceExhausted (recorded as an error row) and
// only kReduced finishes.

void RunFarmDeadlockBench(benchmark::State& state, SearchEngine engine) {
  ReplicatedFarmOptions fopts;
  fopts.workers = static_cast<int>(state.range(0));
  fopts.entities = 3;
  fopts.degree = 1;
  fopts.certified = true;
  auto sys = GenerateReplicatedFarm(fopts);
  if (!sys.ok()) std::abort();
  DeadlockCheckOptions opts;
  opts.engine = engine;
  opts.search_threads = static_cast<int>(state.range(1));
  opts.max_states = 2'000'000;
  uint64_t states = 0;
  for (auto _ : state) {
    auto report = CheckDeadlockFreedom(*sys->system, opts);
    if (!report.ok()) {
      state.SkipWithError("budget");
      break;
    }
    if (!report->deadlock_free) {
      // The certified farm is deadlock-free by construction — this is a
      // soundness regression, not the series' expected budget error.
      state.SkipWithError("wrong verdict");
      break;
    }
    states = report->states_visited;
    benchmark::DoNotOptimize(report);
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["ns_per_state"] = benchmark::Counter(
      static_cast<double>(states) * state.iterations(),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_FarmDeadlock_Incremental(benchmark::State& state) {
  RunFarmDeadlockBench(state, SearchEngine::kIncremental);
}
BENCHMARK(BM_FarmDeadlock_Incremental)
    ->Args({8, 0})
    ->Args({12, 0})
    ->Args({16, 0})
    ->UseRealTime();

void BM_FarmDeadlock_ParallelSharded(benchmark::State& state) {
  RunFarmDeadlockBench(state, SearchEngine::kParallelSharded);
}
BENCHMARK(BM_FarmDeadlock_ParallelSharded)
    ->Args({8, 2})
    ->Args({16, 2})
    ->UseRealTime();

void BM_FarmDeadlock_Reduced(benchmark::State& state) {
  RunFarmDeadlockBench(state, SearchEngine::kReduced);
}
BENCHMARK(BM_FarmDeadlock_Reduced)
    ->Args({8, 1})
    ->Args({8, 4})
    ->Args({12, 1})
    ->Args({16, 1})
    ->Args({16, 4})
    ->UseRealTime();

// ---------------------------------------------------------------------
// Memory-mode series (ISSUE 6 acceptance, DESIGN.md §9): the k=16 farm
// (2,686,976 reachable states — beyond the 2M budget that kills the
// exhaustive engines above) checked exhaustively under a fixed 64 MiB
// `--mem-budget-mb`-style frontier budget, once per key encoding. The
// headline counter is bytes_per_state: delta must be strictly below
// plain, and compact (frontier-resident keys only; non-certified
// verdict) far below both. spilled_levels > 0 records that the run was
// disk-bounded, not RAM-bounded.

void RunFarmMemoryBench(benchmark::State& state,
                        StoreOptions::KeyEncoding encoding) {
  ReplicatedFarmOptions fopts;
  fopts.workers = static_cast<int>(state.range(0));
  fopts.entities = 3;
  fopts.degree = 1;
  fopts.certified = true;
  auto sys = GenerateReplicatedFarm(fopts);
  if (!sys.ok()) std::abort();
  DeadlockCheckOptions opts;
  opts.engine = SearchEngine::kParallelSharded;
  opts.search_threads = static_cast<int>(state.range(1));
  opts.max_states = 4'000'000;
  opts.store.encoding = encoding;
  opts.store.mem_budget_mb = 64;
  uint64_t states = 0;
  uint64_t interned = 0;
  uint64_t store_bytes = 0;
  uint64_t spilled = 0;
  for (auto _ : state) {
    auto report = CheckDeadlockFreedom(*sys->system, opts);
    if (!report.ok()) {
      state.SkipWithError("budget");
      break;
    }
    if (!report->deadlock_free) {
      state.SkipWithError("wrong verdict");
      break;
    }
    states = report->states_visited;
    interned = report->states_interned;
    store_bytes = report->store_bytes;
    spilled = report->spilled_levels;
    benchmark::DoNotOptimize(report);
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["ns_per_state"] = benchmark::Counter(
      static_cast<double>(states) * state.iterations(),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["bytes_per_state"] =
      static_cast<double>(store_bytes) /
      static_cast<double>(interned > 0 ? interned : 1);
  state.counters["spilled_levels"] = static_cast<double>(spilled);
}

void BM_FarmDeadlockMem_Plain(benchmark::State& state) {
  RunFarmMemoryBench(state, StoreOptions::KeyEncoding::kPlain);
}
BENCHMARK(BM_FarmDeadlockMem_Plain)->Args({16, 2})->UseRealTime();

void BM_FarmDeadlockMem_Delta(benchmark::State& state) {
  RunFarmMemoryBench(state, StoreOptions::KeyEncoding::kDelta);
}
BENCHMARK(BM_FarmDeadlockMem_Delta)->Args({16, 2})->UseRealTime();

void BM_FarmDeadlockMem_Compact(benchmark::State& state) {
  RunFarmMemoryBench(state, StoreOptions::KeyEncoding::kCompact);
}
BENCHMARK(BM_FarmDeadlockMem_Compact)->Args({16, 2})->UseRealTime();

void RunSafeDfBench(benchmark::State& state, SearchEngine engine) {
  OwnedSystem sys = SameOrderPair(static_cast<int>(state.range(0)));
  SafetyCheckOptions opts;
  opts.engine = engine;
  uint64_t states = 0;
  for (auto _ : state) {
    auto report = CheckSafeAndDeadlockFree(*sys.system, opts);
    if (!report.ok()) {
      state.SkipWithError("budget");
      break;
    }
    states = report->states_visited;
    benchmark::DoNotOptimize(report);
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["ns_per_state"] = benchmark::Counter(
      static_cast<double>(states) * state.iterations(),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_SafeDfCheck_Naive(benchmark::State& state) {
  RunSafeDfBench(state, SearchEngine::kNaiveReference);
}
BENCHMARK(BM_SafeDfCheck_Naive)->DenseRange(3, 6, 1);

void BM_SafeDfCheck_Incremental(benchmark::State& state) {
  RunSafeDfBench(state, SearchEngine::kIncremental);
}
BENCHMARK(BM_SafeDfCheck_Incremental)->DenseRange(3, 6, 1);

// ---------------------------------------------------------------------
// Watched-literal DPLL on pigeonhole formulas (exponentially many
// conflicts: pure propagation stress).

void BM_DpllPigeonhole(benchmark::State& state) {
  const int holes = static_cast<int>(state.range(0));
  const int pigeons = holes + 1;
  CnfFormula f;
  auto var = [&](int i, int h) { return i * holes + h; };
  for (int i = 0; i < pigeons; ++i) {
    std::vector<Literal> clause;
    for (int h = 0; h < holes; ++h) clause.push_back({var(i, h), true});
    f.AddClause(clause);
  }
  for (int h = 0; h < holes; ++h) {
    for (int i = 0; i < pigeons; ++i) {
      for (int j = i + 1; j < pigeons; ++j) {
        f.AddClause({{var(i, h), false}, {var(j, h), false}});
      }
    }
  }
  uint64_t decisions = 0;
  for (auto _ : state) {
    auto r = SolveDpll(f);
    if (!r.ok() || r->satisfiable) {
      state.SkipWithError("unexpected");
      break;
    }
    decisions = r->decisions;
    benchmark::DoNotOptimize(r);
  }
  state.counters["decisions"] = static_cast<double>(decisions);
}
BENCHMARK(BM_DpllPigeonhole)->DenseRange(5, 7, 1);

}  // namespace
}  // namespace wydb
