// Transaction-symmetry machinery for the reduced search engine
// (SearchEngine::kReduced, DESIGN.md §1.8).
//
// Generator-produced systems (farms, replicated farms, rings of identical
// templates) are full of *structurally identical* transactions: same
// Lock/Unlock step list over the same entities, same precedence relation.
// Swapping two such transactions is an automorphism of the whole system —
// it maps legal schedules to legal schedules and preserves stuckness,
// completeness, and conflict-digraph cyclicity. The reachable state space
// is therefore partitioned into orbits of the permutation group
// ∏ Sym(orbit), and an exhaustive search only needs one representative
// per orbit.
//
// TransactionOrbits computes the equivalence classes once per system;
// OrbitCanonicalizer is the KeyCanonicalizer hook (core/state_store.h)
// that rewrites a packed search state to its class representative: the
// per-transaction key blocks of each orbit are stable-sorted by content,
// and the aux cache (frontier blocks, lock-holder table) plus the
// optional conflict-arc matrix of the Lemma 1 key are permuted
// consistently. Permutation-equivalent states then intern to one id.
//
// The sort permutation is also exposed (CanonicalizeKey) so the reduced
// engines can reconstruct a *concrete* witness schedule from a stored
// path of representatives: replaying the path while composing the
// per-step sort permutations yields a legal schedule of the original,
// unpermuted system (DESIGN.md §1.9).
#ifndef WYDB_CORE_SYMMETRY_H_
#define WYDB_CORE_SYMMETRY_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/state_space.h"
#include "core/state_store.h"
#include "core/system.h"

namespace wydb {

/// \brief Orbits of the transaction-permutation symmetry group, from
/// structural transaction equality (identical steps over identical
/// entities, identical precedence relation).
class TransactionOrbits {
 public:
  explicit TransactionOrbits(const TransactionSystem& sys);

  int num_transactions() const { return static_cast<int>(orbit_of_.size()); }
  int num_orbits() const { return static_cast<int>(orbits_.size()); }
  int orbit_of(int txn) const { return orbit_of_[txn]; }
  /// Members of each orbit, ascending.
  const std::vector<std::vector<int>>& orbits() const { return orbits_; }
  /// Size of the largest orbit (1 when the system has no symmetry).
  int largest_orbit() const { return largest_; }
  /// True iff some orbit has at least two members (canonicalization can
  /// merge states).
  bool HasNontrivialOrbit() const { return largest_ > 1; }

 private:
  std::vector<int> orbit_of_;
  std::vector<std::vector<int>> orbits_;
  int largest_ = 1;
};

/// \brief KeyCanonicalizer sorting the state key by transaction orbit.
///
/// Key layout: [exec blocks] for the deadlock checker, or
/// [exec blocks | n rows of `arc_row_words` conflict-arc words] for the
/// Lemma 1 safety key. Aux layout: the StateSpace cache ([frontier
/// blocks | holder table]) optionally followed by engine flag words,
/// which are permutation-invariant and left untouched.
///
/// Canonicalize applies a *valid automorphism* chosen deterministically
/// from the key (stable sort of each orbit's exec blocks by content), so
/// the rewritten state is always equivalent to the input — merging is
/// sound even when exec-block ties leave the arc matrix unsorted (the
/// quotient is then merely coarser than optimal; see DESIGN.md §1.8).
class OrbitCanonicalizer : public KeyCanonicalizer {
 public:
  /// `arc_row_words` > 0 selects the Lemma key layout. `space` and
  /// `orbits` must outlive the canonicalizer.
  OrbitCanonicalizer(const StateSpace* space, const TransactionOrbits* orbits,
                     int arc_row_words = 0);

  /// Rewrites `key` (and, when non-null, `aux`) in place to the orbit
  /// representative. Thread-safe (per-thread scratch).
  void Canonicalize(uint64_t* key, uint64_t* aux) const override;

  /// Canonicalize plus the permutation used: `perm[new_index] =
  /// old_index` — the canonical block at transaction slot `new_index`
  /// came from input slot `old_index` (identity outside nontrivial
  /// orbits). `perm` must hold num_transactions() ints.
  void CanonicalizeKey(uint64_t* key, int* perm) const;

 private:
  /// Computes the sort permutation of `key` into `perm` (perm[new]=old).
  /// Returns false when the permutation is the identity.
  bool SortPerm(const uint64_t* key, int* perm) const;
  /// Applies `perm` to key (+ optional aux) using `scratch`.
  void Apply(const int* perm, uint64_t* key, uint64_t* aux,
             std::vector<uint64_t>* scratch) const;

  const StateSpace* space_;
  const TransactionOrbits* orbits_;
  const int arc_row_words_;
  const int n_;
  const int exec_words_;
  const int key_words_;
};

/// \brief Rebuilds a concrete move sequence from a reduced search's
/// stored path of orbit representatives (DESIGN.md §1.9).
///
/// Parent links of a canonicalizing store record each move in its
/// parent *representative's* coordinates. This walks root -> `id` and,
/// per step, emits the concrete move `(tau[txn], node)` and composes
/// `tau` with the step's canonicalization permutation (`tau' = tau o
/// sigma`, recomputed deterministically from the key) — `build_child`
/// writes the *pre-canonical* child key of (parent representative key,
/// move) into a caller buffer of `canon.key words`, i.e. exactly what
/// the engine staged before the canonical hook ran. On return
/// `schedule` is a legal schedule of the unpermuted system and `tau`
/// maps the final representative's transaction indices to concrete
/// ones. The shared core of both checkers' witness reconstruction; the
/// composition direction lives in one place on purpose.
void ReplayReducedPath(
    const ShardedStateStore& store, uint32_t id,
    const OrbitCanonicalizer& canon, bool canonical_active,
    const StateSpace& space, int key_words,
    const std::function<void(const uint64_t* parent_key, GlobalNode move,
                             uint64_t* child_key)>& build_child,
    std::vector<GlobalNode>* schedule, std::vector<int>* tau);

}  // namespace wydb

#endif  // WYDB_CORE_SYMMETRY_H_
