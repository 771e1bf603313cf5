#include "core/frontier_spill.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace wydb {

namespace {
// Chunks per window and worker: with the search's 64-state chunks, 1024
// states of staging in RAM per worker at a time — committed at once
// without a budget, spilled once a level exceeds one. Sixteen chunks per
// worker leave work stealing room to balance skewed chunks.
constexpr size_t kWindowChunksPerWorker = 16;
}  // namespace

FrontierStager::FrontierStager(ShardedStateStore* store, ThreadPool* pool,
                               uint64_t mem_budget_bytes,
                               size_t chunk_states, bool dedupe)
    : store_(store),
      pool_(pool),
      budget_bytes_(mem_budget_bytes),
      chunk_states_(chunk_states),
      window_chunks_(kWindowChunksPerWorker * pool->threads()),
      window_states_(window_chunks_ * chunk_states),
      dedupe_(dedupe) {}

FrontierStager::~FrontierStager() {
  if (file_ != nullptr) std::fclose(file_);
}

ShardedStateStore::Staging* FrontierStager::PrepareWindow(size_t states) {
  const size_t nchunks = (states + chunk_states_ - 1) / chunk_states_;
  if (chunks_.size() < chunks_used_ + nchunks) {
    chunks_.resize(chunks_used_ + nchunks);
  }
  window_first_ = chunks_used_;
  for (size_t c = 0; c < nchunks; ++c) {
    store_->ResetStaging(&chunks_[chunks_used_ + c]);
  }
  chunks_used_ += nchunks;
  return chunks_.data() + window_first_;
}

bool FrontierStager::EndWindow() {
  if (budget_bytes_ == 0) {
    // Committing now instead of at the end of the level is id-identical
    // (commits compose) and keeps staging to one window.
    store_->CommitStaged(&chunks_, chunks_used_, pool_, dedupe_);
    chunks_used_ = 0;
    window_first_ = 0;
    return true;
  }
  for (size_t c = window_first_; c < chunks_used_; ++c) {
    retained_bytes_ += store_->StagingBytes(chunks_[c]);
  }
  window_first_ = chunks_used_;
  if (spilling_ ||
      store_->MemoryBytes() + retained_bytes_ > budget_bytes_) {
    return SpillRetained();
  }
  return true;
}

bool FrontierStager::SpillRetained() {
  if (file_ == nullptr) {
    file_ = std::tmpfile();
    if (file_ == nullptr) return false;
  }
  for (size_t c = 0; c < chunks_used_; ++c) {
    if (!store_->WriteStaging(file_, chunks_[c])) return false;
  }
  spilled_chunks_ += chunks_used_;
  chunks_used_ = 0;
  window_first_ = 0;
  retained_bytes_ = 0;
  spilling_ = true;
  return true;
}

bool FrontierStager::Commit() {
  if (spilled_chunks_ > 0) {
    // A spilling level spills every window, so nothing is retained in
    // RAM here and the file holds the whole level in chunk order.
    // Replay it in window-sized batches; sequential CommitStaged calls
    // in chunk order are id-identical to one big commit.
    if (std::fflush(file_) != 0 || std::fseek(file_, 0, SEEK_SET) != 0) {
      return false;
    }
    size_t remaining = spilled_chunks_;
    while (remaining > 0) {
      const size_t n = std::min(window_chunks_, remaining);
      if (chunks_.size() < n) chunks_.resize(n);
      for (size_t c = 0; c < n; ++c) {
        if (!store_->ReadStaging(file_, &chunks_[c])) return false;
      }
      store_->CommitStaged(&chunks_, n, pool_, dedupe_);
      remaining -= n;
    }
    // Rewind for the next level; later writes overwrite in place.
    if (std::fseek(file_, 0, SEEK_SET) != 0) return false;
    ++spilled_levels_;
    spilled_chunks_ = 0;
    spilling_ = false;
  } else if (chunks_used_ > 0) {
    store_->CommitStaged(&chunks_, chunks_used_, pool_, dedupe_);
  }
  chunks_used_ = 0;
  window_first_ = 0;
  retained_bytes_ = 0;
  return true;
}

}  // namespace wydb
