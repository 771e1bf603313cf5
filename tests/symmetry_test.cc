// Unit tests for the reduced search engine's two layers (DESIGN.md §1.7):
// transaction orbits + orbit canonicalization (core/symmetry), the
// persistent-move pruning of StateSpace::ExpandReducedInto, the
// canonical-key store hooks, and the end-to-end state-count wins of
// SearchEngine::kReduced against the exhaustive engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "analysis/deadlock_checker.h"
#include "analysis/safety_checker.h"
#include "core/state_space.h"
#include "core/state_store.h"
#include "core/symmetry.h"
#include "gen/system_gen.h"

namespace wydb {
namespace {

OwnedSystem CertifiedFarm(int workers, int entities = 3) {
  ReplicatedFarmOptions opts;
  opts.workers = workers;
  opts.entities = entities;
  opts.degree = 1;
  opts.certified = true;
  auto sys = GenerateReplicatedFarm(opts);
  EXPECT_TRUE(sys.ok());
  return std::move(*sys);
}

// ---------------------------------------------------------------------------
// TransactionOrbits.
// ---------------------------------------------------------------------------

TEST(TransactionOrbitsTest, FarmWorkersFormOneOrbit) {
  OwnedSystem farm = CertifiedFarm(6);
  TransactionOrbits orbits(*farm.system);
  EXPECT_EQ(orbits.num_orbits(), 1);
  EXPECT_EQ(orbits.largest_orbit(), 6);
  EXPECT_TRUE(orbits.HasNontrivialOrbit());
  for (int i = 0; i < 6; ++i) EXPECT_EQ(orbits.orbit_of(i), 0);
}

TEST(TransactionOrbitsTest, DisjointGridHasOnlyTrivialOrbits) {
  // Grid transactions access pairwise disjoint entities, so no two are
  // structurally equal even though their shapes match.
  auto grid = GenerateDisjointGridSystem(4, 3);
  ASSERT_TRUE(grid.ok());
  TransactionOrbits orbits(*grid->system);
  EXPECT_EQ(orbits.num_orbits(), 4);
  EXPECT_EQ(orbits.largest_orbit(), 1);
  EXPECT_FALSE(orbits.HasNontrivialOrbit());
}

TEST(TransactionOrbitsTest, RingTransactionsAreAsymmetric) {
  // Ring transaction i locks e_i then e_{i+1}: same shape, different
  // entities — structurally distinct.
  auto ring = GenerateRingSystem(4);
  ASSERT_TRUE(ring.ok());
  TransactionOrbits orbits(*ring->system);
  EXPECT_EQ(orbits.largest_orbit(), 1);
}

// ---------------------------------------------------------------------------
// OrbitCanonicalizer: permutation-equivalent states collapse to one key
// with a consistent aux cache.
// ---------------------------------------------------------------------------

TEST(OrbitCanonicalizerTest, PermutedFarmStatesShareOneCanonicalKey) {
  OwnedSystem farm = CertifiedFarm(4);
  const TransactionSystem& sys = *farm.system;
  StateSpace space(&sys);
  TransactionOrbits orbits(sys);
  OrbitCanonicalizer canon(&space, &orbits, /*arc_row_words=*/0);

  // Advance worker w through its first two steps (Lock e0, Lock e1); all
  // four choices of w are permutation-equivalent.
  const int kw = space.words_per_state();
  const int aw = space.aux_words();
  std::vector<std::vector<uint64_t>> keys, auxes;
  for (int w = 0; w < 4; ++w) {
    std::vector<uint64_t> state(kw), aux(aw), s2(kw), a2(aw);
    space.InitRoot(state.data(), aux.data());
    space.ApplyInto(state.data(), aux.data(), GlobalNode{w, 0}, s2.data(),
                    a2.data());
    space.ApplyInto(s2.data(), a2.data(), GlobalNode{w, 1}, state.data(),
                    aux.data());
    canon.Canonicalize(state.data(), aux.data());
    keys.push_back(state);
    auxes.push_back(aux);
  }
  for (int w = 1; w < 4; ++w) {
    EXPECT_EQ(keys[w], keys[0]) << "worker " << w;
    EXPECT_EQ(auxes[w], auxes[0]) << "worker " << w;
  }
  // The canonical aux must equal a from-scratch InitAux of the canonical
  // key: frontier blocks and the holder table were permuted coherently.
  std::vector<uint64_t> fresh(aw);
  space.InitAux(keys[0].data(), fresh.data());
  EXPECT_EQ(auxes[0], fresh);
}

TEST(OrbitCanonicalizerTest, ArcMatrixPermutesWithTheExecBlocks) {
  // Lemma layout: exec blocks + n rows of arc words. Distinct exec
  // blocks (worker a one step in, worker b two steps in) with an arc
  // a -> b: every (a, b) choice is one symmetry class, and since the
  // blocks are untied the sort must merge all six images — carrying the
  // arc endpoints along with the blocks.
  OwnedSystem farm = CertifiedFarm(3);
  const TransactionSystem& sys = *farm.system;
  StateSpace space(&sys);
  TransactionOrbits orbits(sys);
  const int n = sys.num_transactions();
  const int row_words = (n + 63) / 64;
  OrbitCanonicalizer canon(&space, &orbits, row_words);
  const int kw = space.words_per_state() + n * row_words;

  auto make_key = [&](int a, int b) {
    std::vector<uint64_t> key(kw, 0);
    key[space.txn_word_offset(a)] = 0b1;
    key[space.txn_word_offset(b)] = 0b11;
    uint64_t* arcs = key.data() + space.words_per_state();
    arcs[a * row_words + b / 64] |= 1ULL << (b % 64);
    return key;
  };

  std::vector<std::vector<uint64_t>> canonical;
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a == b) continue;
      std::vector<uint64_t> key = make_key(a, b);
      canon.Canonicalize(key.data(), nullptr);
      canonical.push_back(std::move(key));
    }
  }
  for (size_t i = 1; i < canonical.size(); ++i) {
    EXPECT_EQ(canonical[i], canonical[0]) << "image " << i;
  }
  // And the canonical arc runs from the one-step slot to the two-step
  // slot, whatever slots the sort put them in.
  int slot_a = -1, slot_b = -1;
  for (int i = 0; i < n; ++i) {
    if (canonical[0][space.txn_word_offset(i)] == 0b1) slot_a = i;
    if (canonical[0][space.txn_word_offset(i)] == 0b11) slot_b = i;
  }
  ASSERT_GE(slot_a, 0);
  ASSERT_GE(slot_b, 0);
  const uint64_t* arcs = canonical[0].data() + space.words_per_state();
  EXPECT_TRUE((arcs[slot_a * row_words + slot_b / 64] >> (slot_b % 64)) & 1);
}

TEST(OrbitCanonicalizerTest, ExecTiesStayUnsortedButSound) {
  // Two workers with *identical* exec blocks but different arc rows: the
  // stable sort keys on exec content only, so these images need not
  // merge — but each canonicalization must still be a valid automorphic
  // image (idempotent, same block multiset). Coarser, never wrong
  // (DESIGN.md §1.8).
  OwnedSystem farm = CertifiedFarm(3);
  StateSpace space(farm.system.get());
  TransactionOrbits orbits(*farm.system);
  const int n = 3, row_words = 1;
  OrbitCanonicalizer canon(&space, &orbits, row_words);
  const int kw = space.words_per_state() + n * row_words;

  std::vector<uint64_t> key(kw, 0);
  key[space.txn_word_offset(2)] = 0b1;  // Worker 2 ahead; 0 and 1 tied.
  uint64_t* arcs = key.data() + space.words_per_state();
  arcs[0] = 0b100;  // T0 -> T2, distinguishing the tied pair.
  std::vector<uint64_t> once = key;
  canon.Canonicalize(once.data(), nullptr);
  std::vector<uint64_t> twice = once;
  canon.Canonicalize(twice.data(), nullptr);
  EXPECT_EQ(twice, once);
}

TEST(OrbitCanonicalizerTest, CanonicalizeKeyReportsTheSortPermutation) {
  OwnedSystem farm = CertifiedFarm(3);
  StateSpace space(farm.system.get());
  TransactionOrbits orbits(*farm.system);
  OrbitCanonicalizer canon(&space, &orbits, 0);

  // Worker 2 ahead of workers 0, 1: the all-zero blocks sort first
  // (memcmp order), so slot 2's content must come from somewhere else.
  const int kw = space.words_per_state();
  std::vector<uint64_t> key(kw, 0);
  const int bit = space.txn_word_offset(2) * 64 + 0;
  key[bit / 64] |= 1ULL << (bit % 64);
  std::vector<int> perm(3);
  canon.CanonicalizeKey(key.data(), perm.data());
  // Valid permutation within the orbit...
  std::vector<int> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2}));
  // ...that maps the canonical key back onto the input: exactly one slot
  // carries the advanced block, and it came from input slot 2.
  int advanced_slots = 0;
  for (int i = 0; i < 3; ++i) {
    const int b = space.txn_word_offset(i) * 64;
    if ((key[b / 64] >> (b % 64)) & 1) {
      ++advanced_slots;
      EXPECT_EQ(perm[i], 2);
    }
  }
  EXPECT_EQ(advanced_slots, 1);
}

// ---------------------------------------------------------------------------
// Store hooks.
// ---------------------------------------------------------------------------

TEST(CanonicalStoreTest, InternCanonicalMergesPermutedSiblings) {
  OwnedSystem farm = CertifiedFarm(4);
  StateSpace space(farm.system.get());
  TransactionOrbits orbits(*farm.system);
  OrbitCanonicalizer canon(&space, &orbits, 0);

  const int kw = space.words_per_state();
  const int aw = space.aux_words();
  StateStore store(kw, aw);
  store.set_canonicalizer(&canon);

  std::vector<uint64_t> root(kw), root_aux(aw);
  space.InitRoot(root.data(), root_aux.data());
  uint32_t ids[4];
  for (int w = 0; w < 4; ++w) {
    std::vector<uint64_t> state(kw), aux(aw);
    space.ApplyInto(root.data(), root_aux.data(), GlobalNode{w, 0},
                    state.data(), aux.data());
    ids[w] = store.InternCanonical(state.data(), aux.data()).id;
  }
  // All four "some worker holds the latch" states are one orbit.
  EXPECT_EQ(ids[1], ids[0]);
  EXPECT_EQ(ids[2], ids[0]);
  EXPECT_EQ(ids[3], ids[0]);
  EXPECT_EQ(store.size(), 1u);
}

// ---------------------------------------------------------------------------
// Persistent-move pruning.
// ---------------------------------------------------------------------------

TEST(ExpandReducedTest, DisjointEntitiesCollapseToOneMove) {
  auto grid = GenerateDisjointGridSystem(4, 3);
  ASSERT_TRUE(grid.ok());
  StateSpace space(grid->system.get());
  const int kw = space.words_per_state();
  const int aw = space.aux_words();
  std::vector<uint64_t> state(kw), aux(aw);
  space.InitRoot(state.data(), aux.data());

  std::vector<GlobalNode> full, reduced;
  space.ExpandInto(aux.data(), &full);
  EXPECT_EQ(full.size(), 4u);  // Every transaction's first Lock.
  int pruned = space.ExpandReducedInto(state.data(), aux.data(), &reduced);
  ASSERT_EQ(reduced.size(), 1u);
  EXPECT_EQ(pruned, 3);
  // The surviving move is the first legal one — determinism matters for
  // thread-count-independent results.
  EXPECT_EQ(reduced[0], full[0]);
}

TEST(ExpandReducedTest, ContendedEntitiesKeepTheFullMoveSet) {
  // Ring root: every entity's other accessor still has its Unlock ahead,
  // so no move is invisible and nothing may be pruned.
  auto ring = GenerateRingSystem(4);
  ASSERT_TRUE(ring.ok());
  StateSpace space(ring->system.get());
  std::vector<uint64_t> state(space.words_per_state());
  std::vector<uint64_t> aux(space.aux_words());
  space.InitRoot(state.data(), aux.data());

  std::vector<GlobalNode> full, reduced;
  space.ExpandInto(aux.data(), &full);
  int pruned = space.ExpandReducedInto(state.data(), aux.data(), &reduced);
  EXPECT_EQ(pruned, 0);
  EXPECT_EQ(reduced, full);
}

TEST(ExpandReducedTest, EmptyExpansionStillMeansStuck) {
  // A deadlocked ring-2 state: T0 holds e0, T1 holds e1, both next Locks
  // blocked. The reduced expansion must stay empty (stuck detection).
  auto ring = GenerateRingSystem(2);
  ASSERT_TRUE(ring.ok());
  StateSpace space(ring->system.get());
  const int kw = space.words_per_state();
  const int aw = space.aux_words();
  std::vector<uint64_t> s0(kw), a0(aw), s1(kw), a1(aw), s2(kw), a2(aw);
  space.InitRoot(s0.data(), a0.data());
  space.ApplyInto(s0.data(), a0.data(), GlobalNode{0, 0}, s1.data(),
                  a1.data());
  space.ApplyInto(s1.data(), a1.data(), GlobalNode{1, 0}, s2.data(),
                  a2.data());
  std::vector<GlobalNode> reduced;
  EXPECT_EQ(space.ExpandReducedInto(s2.data(), a2.data(), &reduced), 0);
  EXPECT_TRUE(reduced.empty());
  EXPECT_FALSE(space.IsComplete(s2.data()));
}

// ---------------------------------------------------------------------------
// End-to-end kReduced: verdict parity and the ISSUE's >= 5x state-count
// acceptance on the grid and farm shapes.
// ---------------------------------------------------------------------------

TEST(ReducedEngineTest, GridDeadlockAtLeastFiveTimesFewerStates) {
  auto grid = GenerateDisjointGridSystem(4, 3);
  ASSERT_TRUE(grid.ok());
  DeadlockCheckOptions inc, red;
  red.engine = SearchEngine::kReduced;
  red.search_threads = 1;
  auto a = CheckDeadlockFreedom(*grid->system, inc);
  auto b = CheckDeadlockFreedom(*grid->system, red);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->deadlock_free);
  EXPECT_TRUE(b->deadlock_free);
  EXPECT_EQ(a->states_interned, 2401u);  // (2*3+1)^4.
  // The persistent singleton reduces the grid to one path: 4 txns * 6
  // steps + root.
  EXPECT_EQ(b->states_interned, 25u);
  EXPECT_GE(a->states_interned, 5 * b->states_interned);
  EXPECT_GT(b->sleep_set_pruned, 0u);
}

TEST(ReducedEngineTest, FarmDeadlockAtLeastFiveTimesFewerStates) {
  OwnedSystem farm = CertifiedFarm(6);
  DeadlockCheckOptions inc, red;
  red.engine = SearchEngine::kReduced;
  red.search_threads = 1;
  auto a = CheckDeadlockFreedom(*farm.system, inc);
  auto b = CheckDeadlockFreedom(*farm.system, red);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->deadlock_free);
  EXPECT_TRUE(b->deadlock_free);
  // Completed-worker subsets collapse to counts: 2^k * ... -> O(k * m).
  EXPECT_GE(a->states_interned, 5 * b->states_interned);
}

TEST(ReducedEngineTest, FarmSafetySearchCollapsesToo) {
  OwnedSystem farm = CertifiedFarm(5);
  SafetyCheckOptions inc, red;
  red.engine = SearchEngine::kReduced;
  red.search_threads = 1;
  auto a = CheckSafeAndDeadlockFree(*farm.system, inc);
  auto b = CheckSafeAndDeadlockFree(*farm.system, red);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->holds);
  EXPECT_TRUE(b->holds);
  EXPECT_GE(a->states_visited, 5 * b->states_visited);
}

TEST(ReducedEngineTest, ThreadCountDoesNotChangeTheResult) {
  OwnedSystem farm = CertifiedFarm(5);
  auto ring = GenerateRingSystem(5);
  ASSERT_TRUE(ring.ok());
  for (const TransactionSystem* sys : {farm.system.get(),
                                       ring->system.get()}) {
    DeadlockCheckOptions red;
    red.engine = SearchEngine::kReduced;
    red.search_threads = 1;
    auto serial = CheckDeadlockFreedom(*sys, red);
    ASSERT_TRUE(serial.ok());
    for (int threads : {2, 4}) {
      red.search_threads = threads;
      auto parallel = CheckDeadlockFreedom(*sys, red);
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(parallel->deadlock_free, serial->deadlock_free);
      EXPECT_EQ(parallel->states_visited, serial->states_visited);
      EXPECT_EQ(parallel->states_interned, serial->states_interned);
      ASSERT_EQ(parallel->witness.has_value(), serial->witness.has_value());
      if (parallel->witness.has_value()) {
        EXPECT_EQ(parallel->witness->schedule, serial->witness->schedule);
      }
    }
  }
}

TEST(ReducedEngineTest, LargeFarmFinishesWhereExhaustiveSearchCannot) {
  // The "large-symmetric" shape of the bench series: at k = 12 workers
  // the exhaustive engines must intern ~2^12 completed-subset states per
  // progress point, while the reduced engine tracks only (completed
  // count, active progress) pairs — thousands of times fewer.
  OwnedSystem farm = CertifiedFarm(12);
  DeadlockCheckOptions red;
  red.engine = SearchEngine::kReduced;
  red.search_threads = 1;
  red.max_states = 10'000;  // Far below the exhaustive count.
  auto b = CheckDeadlockFreedom(*farm.system, red);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->deadlock_free);
  EXPECT_LE(b->states_interned, 200u);

  DeadlockCheckOptions inc;
  inc.max_states = 10'000;
  auto a = CheckDeadlockFreedom(*farm.system, inc);
  EXPECT_FALSE(a.ok());  // ResourceExhausted within the same budget.
}

}  // namespace
}  // namespace wydb
