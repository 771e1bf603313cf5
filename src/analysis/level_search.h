// The one search skeleton behind both exact checkers (DESIGN.md §1):
// a level-synchronous BFS over a ShardedStateStore + FrontierStager,
// expanded on a work-stealing ThreadPool, with two compile-time
// parameters.
//
//   * Property — what a witness is and how it is reported. Deadlock
//     freedom (Theorem 1) decides a stuck state or cyclic reduction
//     graph when the state is expanded; the Lemma 1 property decides a
//     cyclic D(S') on the child, flags it in an aux word, and resolves
//     flagged states serially in id order (with FindCompletion pruning
//     for pure safety).
//   * kReduced — none, or the reduction of DESIGN.md §1.7: persistent-move
//     expansion (ExpandReducedInto), orbit canonicalization of staged
//     keys (StageCanonical), and witness replay (ReplayReducedPath).
//
// Ids are dense and assigned in serial-Intern order by the staging-
// order rank, so a level's states are exactly the states a FIFO search
// would pop in that order. Verdicts, witnesses and states_visited are
// therefore the same for every thread, shard and window count.
//
// Budget arithmetic (one definition for both properties): a serial pop
// loop fails at the first pop k with k+1 > max_states. A witness at id
// w therefore fails the search iff w+1 > max_states; a level without a
// witness fails it iff its last id + 1 does, i.e. level_end >
// max_states, and then no child of the level is observable.
//
// Deadline polling: once per level on the calling thread, every
// kDeadlineStride ids of the serial flag scan, and once per worker
// chunk during expansion. A level whose deadline fired ends the search
// with an error and never reports a witness (skipped chunks may hide
// the minimal one).
#ifndef WYDB_ANALYSIS_LEVEL_SEARCH_H_
#define WYDB_ANALYSIS_LEVEL_SEARCH_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>
#include <optional>
#include <vector>

#include "analysis/search_engine.h"
#include "common/result.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/frontier_spill.h"
#include "core/state_space.h"
#include "core/state_store.h"
#include "core/symmetry.h"

namespace wydb {

/// Serial scans (the reference engine's pops, the skeleton's flag scan)
/// poll the deadline once per this many states.
inline constexpr uint64_t kDeadlineStride = 2048;

/// Polls `options.deadline`, counting the clock read in `report`; true
/// once a configured deadline has passed. Without a deadline it costs one
/// comparison and counts nothing.
template <typename Options, typename Report>
bool PollDeadline(const Options& options, Report* report) {
  if (options.deadline == std::chrono::steady_clock::time_point{}) {
    return false;
  }
  ++report->deadline_polls;
  return std::chrono::steady_clock::now() >= options.deadline;
}

/// Runs the level-synchronous search for `prop` on `space`. `options`
/// supplies max_states, store and deadline; `threads` is the pool size
/// (0 = ResolveThreadCount's default). Callers go through RunLevelSearch.
///
/// A Property provides:
///   using Report, Options;  static constexpr const char* kWhat;
///   static constexpr bool kFlagsChildren;  struct Scratch;
///   key_words(), aux_words(), arc_row_words(), dedupe(), NewScratch();
///   Flagged(aux)              [kFlagsChildren] child marked witness;
///   Resolve(key)              [kFlagsChildren] Result<optional<extra
///                             schedule>>: nullopt prunes the state;
///   IsWitness(key, moves)     [!kFlagsChildren] witness at expansion;
///   StageChild(parent_key, g, child_key, child_aux, scratch) — fills
///                             the child beyond ApplyInto's exec/aux;
///   ReplayChild(parent_key, g, child_key) — the same key completion for
///                             witness replay (exec bit already set);
///   Refute(report, schedule, tau, key)  — verdict + witness;
///   Certify(report);  Collect(scratch, report).
template <typename Property, bool kReduced>
Result<typename Property::Report> LevelSearch(
    const Property& prop, const StateSpace& space,
    const typename Property::Options& options, int threads) {
  using Report = typename Property::Report;
  constexpr size_t kChunkStates = 64;
  Report report;

  ThreadPool pool(threads);
  // Shards only cut contention, so a single worker gets a single shard.
  const int shards = pool.threads() == 1 ? 1 : 4 * pool.threads();
  ShardedStateStore store(prop.key_words(), prop.aux_words(), shards,
                          options.store);
  FrontierStager stager(&store, &pool, options.store.mem_budget_mb << 20,
                        kChunkStates, prop.dedupe());
  std::optional<TransactionOrbits> orbits;
  std::optional<OrbitCanonicalizer> canon;
  bool canonical = false;
  if constexpr (kReduced) {
    orbits.emplace(space.system());
    canon.emplace(&space, &*orbits, prop.arc_row_words());
    canonical = orbits->HasNontrivialOrbit();
    if (canonical) store.set_canonicalizer(&*canon);
  }
  const bool compact =
      options.store.encoding == StoreOptions::KeyEncoding::kCompact;

  {
    // The empty state is its own canonical form.
    std::vector<uint64_t> key(prop.key_words(), 0), aux(prop.aux_words(), 0);
    space.InitRoot(key.data(), aux.data());  // Property words start zero.
    const uint32_t root = store.InternRoot(key.data());
    std::memcpy(store.MutableAuxOf(root), aux.data(),
                prop.aux_words() * sizeof(uint64_t));
  }

  struct WorkerScratch {
    std::vector<uint64_t> key;
    std::vector<uint64_t> aux;
    std::vector<GlobalNode> moves;
    ShardedStateStore::KeyDecodeCache decode;
    uint32_t witness = ShardedStateStore::kNoId;  ///< Min witness id seen.
    uint64_t pruned = 0;
    typename Property::Scratch prop;
  };
  std::vector<WorkerScratch> scratch(pool.threads());
  for (WorkerScratch& s : scratch) {
    s.key.resize(prop.key_words());
    s.aux.resize(prop.aux_words());
    s.moves.reserve(64);
    s.prop = prop.NewScratch();
  }
  ShardedStateStore::KeyDecodeCache decode;  // Calling-thread cache.

  auto finish = [&](uint64_t visited) {
    report.states_visited = visited;
    report.states_interned = store.size();
    for (const WorkerScratch& s : scratch) {
      report.sleep_set_pruned += s.pruned;
      prop.Collect(s.prop, &report);
    }
    const StoreMemoryStats m = store.MemoryStats();
    report.store_bytes = m.total();
    report.arena_bytes = m.arena_bytes;
    report.probe_table_bytes = m.probe_bytes;
    report.spilled_levels = stager.spilled_levels();
    if (compact) {
      // Fingerprint identity can merge distinct states, so a positive
      // verdict is not a certificate; the expected number of colliding
      // pairs among n 64-bit fingerprints is <= n(n-1)/2^65.
      report.exact = false;
      const double n = static_cast<double>(store.size());
      report.fingerprint_collision_bound = std::ldexp(n * (n - 1.0), -65);
    }
    return std::move(report);
  };
  // Builds the concrete witness of state `id`: the stored path, replayed
  // through the canonicalization permutations under the reduction, plus
  // `extra` moves in the final representative's coordinates.
  auto refute = [&](uint32_t id, const Schedule& extra) {
    Schedule sched;
    std::vector<int> tau;
    if constexpr (kReduced) {
      const int kw = prop.key_words();
      ReplayReducedPath(
          store, id, *canon, canonical, space, kw,
          [&](const uint64_t* parent_key, GlobalNode g, uint64_t* child) {
            // The pre-canonical child, exactly as the search staged it.
            std::memcpy(child, parent_key, kw * sizeof(uint64_t));
            const int bit = space.txn_word_offset(g.txn) * 64 + g.node;
            child[bit / 64] |= 1ULL << (bit % 64);
            prop.ReplayChild(parent_key, g, child);
          },
          &sched, &tau);
    } else {
      sched = store.PathFromRoot(id);
      tau.resize(space.system().num_transactions());
      std::iota(tau.begin(), tau.end(), 0);
    }
    for (GlobalNode g : extra) sched.push_back(GlobalNode{tau[g.txn], g.node});
    prop.Refute(&report, std::move(sched), tau, store.KeyView(id, &decode));
    return finish(static_cast<uint64_t>(id) + 1);
  };
  auto exhausted = [&] {
    return Status::ResourceExhausted(
        StrFormat("%s exceeded %llu states", Property::kWhat,
                  static_cast<unsigned long long>(options.max_states)));
  };
  auto deadline_error = [&] {
    return Status::ResourceExhausted(
        StrFormat("%s deadline exceeded", Property::kWhat));
  };

  // Deadline machinery. The calling thread's polls count straight into
  // the report; workers poll once per chunk and raise `deadline_hit`
  // for everyone, so one oversized level cannot outrun the budget.
  const bool has_deadline =
      options.deadline != std::chrono::steady_clock::time_point{};
  auto poll = [&] { return PollDeadline(options, &report); };
  std::atomic<bool> deadline_hit{false};
  std::atomic<uint64_t> worker_polls{0};
  auto chunk_expired = [&] {
    if (!has_deadline) return false;
    if (deadline_hit.load(std::memory_order_relaxed)) return true;
    worker_polls.fetch_add(1, std::memory_order_relaxed);
    if (std::chrono::steady_clock::now() >= options.deadline) {
      deadline_hit.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  };

  size_t level_begin = 0;
  while (level_begin < store.size()) {
    if (poll()) return deadline_error();
    const size_t level_end = store.size();
    const size_t level_size = level_end - level_begin;
    const bool budget_ends_here =
        options.max_states != 0 && level_end > options.max_states;

    if constexpr (Property::kFlagsChildren) {
      // Flagged states, in id order — the serial pop order: each one
      // reports, or is pruned when Resolve finds no extension.
      for (size_t i = 0; i < level_size; ++i) {
        const uint32_t id = static_cast<uint32_t>(level_begin + i);
        if (i % kDeadlineStride == kDeadlineStride - 1 && poll()) {
          return deadline_error();
        }
        if (!prop.Flagged(store.AuxOf(id))) continue;
        if (options.max_states != 0 &&
            static_cast<uint64_t>(id) + 1 > options.max_states) {
          return exhausted();
        }
        auto extra = prop.Resolve(store.KeyView(id, &decode));
        if (!extra.ok()) return extra.status();
        if (extra->has_value()) return refute(id, **extra);
      }
      // No witness can surface while expanding this level.
      if (budget_ends_here) return exhausted();
    }

    // Expand the level in bounded windows. After each one the stager
    // commits it (commits compose, so ids are those of one commit per
    // level), or under a memory budget may spill it to disk. Ids ascend
    // across windows, so the first window holding a witness holds the
    // level's minimum and later windows need not run.
    for (WorkerScratch& s : scratch) s.witness = ShardedStateStore::kNoId;
    uint32_t witness = ShardedStateStore::kNoId;
    size_t done = 0;
    while (done < level_size) {
      const size_t wcount =
          std::min(stager.window_states(), level_size - done);
      ShardedStateStore::Staging* window = stager.PrepareWindow(wcount);
      const size_t wbase = level_begin + done;

      pool.ParallelFor(
          wcount, kChunkStates, [&](size_t begin, size_t end, int worker) {
            if (chunk_expired()) return;  // The level aborts below.
            WorkerScratch& ws = scratch[worker];
            ShardedStateStore::Staging& staging =
                window[begin / kChunkStates];
            for (size_t i = begin; i < end; ++i) {
              const uint32_t id = static_cast<uint32_t>(wbase + i);
              const uint64_t* aux = store.AuxOf(id);
              if constexpr (Property::kFlagsChildren) {
                if (prop.Flagged(aux)) continue;  // Pruned.
              }
              const uint64_t* key = store.KeyView(id, &ws.decode);
              ws.moves.clear();
              if constexpr (kReduced) {
                // Empty only for genuinely stuck states, so witness
                // predicates are unaffected by the pruning.
                ws.pruned += space.ExpandReducedInto(key, aux, &ws.moves);
              } else {
                space.ExpandInto(aux, &ws.moves);
              }
              if constexpr (!Property::kFlagsChildren) {
                if (prop.IsWitness(key, ws.moves)) {
                  // The serial loop returns here; children of this level
                  // are never observed, so nothing more is staged.
                  if (id < ws.witness) ws.witness = id;
                  continue;
                }
                if (budget_ends_here) continue;
              }
              for (GlobalNode g : ws.moves) {
                space.ApplyInto(key, aux, g, ws.key.data(), ws.aux.data());
                prop.StageChild(key, g, ws.key.data(), ws.aux.data(),
                                ws.prop);
                // The parent's stored key is already canonical, so a
                // delta record relates two canonical representatives.
                if constexpr (kReduced) {
                  store.StageCanonical(&staging, ws.key.data(),
                                       ws.aux.data(), id, g, key);
                } else {
                  store.Stage(&staging, ws.key.data(), ws.aux.data(), id,
                              g, key);
                }
              }
            }
          });

      done += wcount;
      for (const WorkerScratch& s : scratch) {
        witness = std::min(witness, s.witness);
      }
      if (witness != ShardedStateStore::kNoId ||
          deadline_hit.load(std::memory_order_relaxed)) {
        break;
      }
      if (!budget_ends_here && !stager.EndWindow()) {
        return Status::Internal("frontier spill write failed");
      }
    }
    report.deadline_polls +=
        worker_polls.exchange(0, std::memory_order_relaxed);
    if (deadline_hit.load(std::memory_order_relaxed)) {
      return deadline_error();  // Skipped chunks lost their children.
    }
    if (witness != ShardedStateStore::kNoId) {
      if (options.max_states != 0 &&
          static_cast<uint64_t>(witness) + 1 > options.max_states) {
        return exhausted();
      }
      return refute(witness, Schedule{});
    }
    if (budget_ends_here) return exhausted();

    // Deterministic commit of what is left (replayed from disk if
    // spilled).
    if (!stager.Commit()) {
      return Status::Internal("frontier spill read-back failed");
    }
    // Hash compaction keeps only the frontier's key/aux words resident;
    // everything below this level has been fully expanded.
    if (compact) store.RetireExpanded();
    level_begin = level_end;
  }

  prop.Certify(&report);
  return finish(store.size());
}

/// Engine dispatch for every engine but the reference oracle: kReduced
/// runs the reduction; kParallelSharded honors `search_threads`; and
/// kIncremental is the same search at exactly one thread, so no pool is
/// started whatever `search_threads` says.
template <typename Property>
Result<typename Property::Report> RunLevelSearch(
    const Property& prop, const StateSpace& space,
    const typename Property::Options& options) {
  const int threads = options.engine == SearchEngine::kIncremental
                          ? 1
                          : options.search_threads;
  if (options.engine == SearchEngine::kReduced) {
    return LevelSearch<Property, true>(prop, space, options, threads);
  }
  return LevelSearch<Property, false>(prop, space, options, threads);
}

}  // namespace wydb

#endif  // WYDB_ANALYSIS_LEVEL_SEARCH_H_
