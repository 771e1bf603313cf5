// Engine selection knob shared by the exact checkers.
#ifndef WYDB_ANALYSIS_SEARCH_ENGINE_H_
#define WYDB_ANALYSIS_SEARCH_ENGINE_H_

#include "common/status.h"
#include "core/state_store.h"

namespace wydb {

/// Which engine backs an exact state-space search. Every value but
/// kNaiveReference runs the one level-synchronous skeleton of
/// analysis/level_search.h (DESIGN.md §1); the values pick its thread
/// count and whether the reduction is on.
enum class SearchEngine {
  /// The skeleton at exactly one thread: no pool is started, whatever
  /// `search_threads` says. Results are those of kParallelSharded.
  kIncremental,
  /// The seed implementation: heap-copied states in hash containers, full
  /// rescans per state. Retained as the cross-validation reference and as
  /// the benchmark baseline; verdicts, witnesses and states_visited are
  /// bit-identical to the skeleton's exhaustive runs (property-tested).
  kNaiveReference,
  /// The skeleton on `search_threads` workers: expansion and per-shard
  /// deduplication run on a work-stealing thread pool, and fresh states
  /// get dense ids by a deterministic staging-order rank. Verdicts,
  /// witnesses, and states_visited are identical for any thread or
  /// shard count.
  kParallelSharded,
  /// The skeleton with the commutativity and symmetry reduction
  /// (DESIGN.md §1.7): persistent-move pruning
  /// (StateSpace::ExpandReducedInto) plus transaction-orbit
  /// canonicalization of state keys (core/symmetry). Verdicts agree with
  /// the exhaustive engines and every witness replays to a real
  /// stuck/unsafe state, but states_visited counts the *reduced* space —
  /// orders of magnitude smaller on symmetric workloads. Honors
  /// `search_threads`; results are identical for every thread count.
  kReduced,
};

/// Store memory modes (DESIGN.md §9) need the sharded store, which every
/// engine but the reference oracle runs on; hash compaction also rules
/// out kReduced, whose witness replay reads ancestor keys.
inline Status ValidateStoreOptions(const StoreOptions& store,
                                   SearchEngine engine) {
  const bool nondefault = store.encoding != StoreOptions::KeyEncoding::kPlain ||
                          store.mem_budget_mb > 0;
  if (nondefault && engine == SearchEngine::kNaiveReference) {
    return Status::InvalidArgument(
        "store encoding / memory budget options are not supported by the "
        "reference engine");
  }
  if (store.encoding == StoreOptions::KeyEncoding::kCompact &&
      engine == SearchEngine::kReduced) {
    return Status::InvalidArgument(
        "hash compaction requires the parallel engine: reduced witness "
        "replay reads ancestor keys, which compaction discards");
  }
  return Status::OK();
}

}  // namespace wydb

#endif  // WYDB_ANALYSIS_SEARCH_ENGINE_H_
