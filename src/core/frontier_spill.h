// Disk-backed staging for the level-synchronous parallel BFS
// (DESIGN.md §9.3): bounds peak RAM by a --mem-budget-mb watermark
// without changing a single interned id.
//
// The parallel engines stage a level's children into per-chunk Staging
// buffers and commit them in chunk order. CommitStaged composes — a
// level committed as several sequential batches (in chunk order) yields
// the same ids/parents/dedup decisions as one big commit — so the
// staged chunks themselves are pure data that can round-trip through a
// file. FrontierStager exploits that: the engine stages one bounded
// *window* of chunks at a time; after each window, if the store plus the
// retained staging exceed the budget, every retained chunk is appended
// to an anonymous spill file (plain fwrite of the staged records). At
// the end of the level, Commit() replays the file chunk-by-chunk in the
// original order and commits in bounded batches, then commits whatever
// never spilled. BFS depth becomes disk-bound; RAM holds the store plus
// one window.
//
// With a zero budget no window is retained: each one is committed as
// soon as it is staged, so staging never holds more than one window.
#ifndef WYDB_CORE_FRONTIER_SPILL_H_
#define WYDB_CORE_FRONTIER_SPILL_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/state_store.h"

namespace wydb {

class ThreadPool;

class FrontierStager {
 public:
  /// `mem_budget_bytes` == 0 disables spilling (each window is committed
  /// by EndWindow). `chunk_states` is the engine's ParallelFor chunk size;
  /// staged chunk c of a window covers states [c*chunk_states, ...) of
  /// that window. `dedupe` is passed to every CommitStaged.
  FrontierStager(ShardedStateStore* store, ThreadPool* pool,
                 uint64_t mem_budget_bytes, size_t chunk_states,
                 bool dedupe);
  ~FrontierStager();

  FrontierStager(const FrontierStager&) = delete;
  FrontierStager& operator=(const FrontierStager&) = delete;

  /// Max states the engine may stage before the next EndWindow call.
  size_t window_states() const { return window_states_; }

  /// Returns the first of ceil(states / chunk_states) reset Staging
  /// buffers for the next window; the engine indexes them by
  /// begin / chunk_states exactly as it indexed the old per-level chunk
  /// vector. Pointers stay valid until EndWindow/Commit.
  ShardedStateStore::Staging* PrepareWindow(size_t states);

  /// Ends the current window. Without a budget it commits the window.
  /// With one it accounts the window's bytes and spills every retained
  /// chunk when `store bytes + retained staging bytes` exceed the
  /// budget; once a level spills, every later window of that level
  /// spills too, keeping the file in global chunk order. Returns false
  /// on I/O failure.
  bool EndWindow();

  /// Commits the rest of the level: spilled chunks first (read back in
  /// file order, committed in bounded batches), then the retained ones.
  /// Resets the stager for the next level. Returns false on I/O failure.
  bool Commit();

  /// Levels whose staging hit the spill file (the --stats counter).
  uint64_t spilled_levels() const { return spilled_levels_; }

 private:
  bool SpillRetained();

  ShardedStateStore* const store_;
  ThreadPool* const pool_;
  const uint64_t budget_bytes_;
  const size_t chunk_states_;
  const size_t window_chunks_;
  const size_t window_states_;
  const bool dedupe_;

  /// Retained (not yet spilled) chunks of the current level, in global
  /// chunk order; the window under construction is its tail. Buffers are
  /// reused across windows and levels.
  std::vector<ShardedStateStore::Staging> chunks_;
  size_t chunks_used_ = 0;         ///< Retained chunks, incl. open window.
  size_t window_first_ = 0;        ///< First chunk of the open window.
  uint64_t retained_bytes_ = 0;    ///< Staged bytes in closed windows.

  std::FILE* file_ = nullptr;      ///< Spill file (tmpfile, lazy).
  size_t spilled_chunks_ = 0;      ///< Chunks in the file this level.
  bool spilling_ = false;          ///< This level has hit the file.
  uint64_t spilled_levels_ = 0;
};

}  // namespace wydb

#endif  // WYDB_CORE_FRONTIER_SPILL_H_
