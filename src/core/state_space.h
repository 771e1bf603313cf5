// Execution state space of a transaction system: states are the prefixes
// reached by legal partial schedules; moves are single lock-respecting
// steps. The exact (exponential-time) checkers and the schedule-completion
// search are all built on this engine.
//
// Two APIs are exposed:
//
//   * The naive API (LegalMoves/Apply/IsLegal over heap-allocated
//     ExecState) rescans every step of every transaction per state. It is
//     retained as the cross-validation reference and for callers off the
//     hot path.
//
//   * The incremental API (InitRoot/InitAux/ExpandInto/ApplyInto) works on
//     raw word buffers sized for a StateStore: each state carries an aux
//     cache holding its frontier bitmask (steps whose intra-transaction
//     predecessors are all executed) and a per-entity lock-holder table.
//     ApplyInto updates both in O(successors-of-move + 1), and ExpandInto
//     emits legal moves in O(frontier) — instead of O(total steps x
//     transactions) per state.
#ifndef WYDB_CORE_STATE_SPACE_H_
#define WYDB_CORE_STATE_SPACE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "core/prefix.h"
#include "core/system.h"

namespace wydb {

/// \brief A point in the execution: for each transaction, the set of steps
/// already executed (always downward-closed). Hashable, cheap to copy.
struct ExecState {
  /// Concatenation of per-transaction node bitmasks.
  std::vector<uint64_t> words;

  bool operator==(const ExecState&) const = default;
};

struct ExecStateHash {
  size_t operator()(const ExecState& s) const {
    uint64_t h = 0xCBF29CE484222325ULL;
    for (uint64_t w : s.words) {
      h ^= w;
      h *= 0x100000001B3ULL;
    }
    return static_cast<size_t>(h);
  }
};

/// \brief Legal-move engine over a TransactionSystem.
///
/// Precomputes per-step predecessor masks, Hasse successors, per-entity
/// lock/unlock positions and accessor lists so that move generation is
/// incremental along search paths.
class StateSpace {
 public:
  /// "No transaction" marker in the per-entity holder table.
  static constexpr uint16_t kNoHolder = 0xFFFF;
  /// Holder-table entries are a holder SET, packed in 16 bits per entity
  /// (DESIGN.md §11): kNoHolder = free; a value < kSharedFlag = the id of
  /// the single exclusive holder; kSharedFlag|count = held shared by
  /// `count` transactions. The count form is deliberately anonymous —
  /// it is permutation-invariant, so the orbit canonicalizer only remaps
  /// exclusive entries — and suffices for legality: an X request is
  /// blocked by any entry, an S request only by an exclusive one.
  /// X-only systems never produce shared entries, so their aux buffers
  /// are bit-identical to the exclusive-only encoding.
  static constexpr uint16_t kSharedFlag = 0x8000;

  static bool IsSharedEntry(uint16_t h) {
    return h != kNoHolder && (h & kSharedFlag) != 0;
  }
  static bool IsExclusiveEntry(uint16_t h) {
    return h != kNoHolder && (h & kSharedFlag) == 0;
  }

  explicit StateSpace(const TransactionSystem* sys);

  const TransactionSystem& system() const { return *sys_; }

  ExecState EmptyState() const;
  ExecState FullState() const;

  /// State in which exactly the nodes of `prefix` are executed.
  ExecState StateOf(const PrefixSet& prefix) const;

  /// PrefixSet view of a state (for diagnostics / reduction graphs).
  PrefixSet ToPrefixSet(const ExecState& s) const;
  /// Same, from a raw word buffer of words_per_state() words.
  PrefixSet ToPrefixSet(const uint64_t* words) const;

  bool IsExecuted(const ExecState& s, int txn, NodeId v) const {
    return bitmask::Test(s.words, offset_[txn] * 64 + v) != 0;
  }
  bool IsExecuted(const uint64_t* words, int txn, NodeId v) const {
    int bit = offset_[txn] * 64 + v;
    return (words[bit / 64] >> (bit % 64)) & 1;
  }

  bool IsComplete(const ExecState& s) const;
  bool IsComplete(const uint64_t* words) const;

  /// Steps executable next: per-transaction frontier nodes whose lock
  /// acquisition (if any) is permitted by the current lock table.
  std::vector<GlobalNode> LegalMoves(const ExecState& s) const;

  /// Executes `move`; the caller guarantees it is legal.
  ExecState Apply(const ExecState& s, GlobalNode move) const;

  /// True iff the Lock/step `g` is permitted in `s` (predecessors executed
  /// and, for a Lock, no other transaction holds the entity in a
  /// conflicting mode — two shared holders coexist).
  bool IsLegal(const ExecState& s, GlobalNode g) const;

  /// Entity currently held (locked-not-unlocked) by txn `i` in `s`.
  std::vector<EntityId> Held(const ExecState& s, int i) const;

  // --- Incremental expansion API (StateStore-backed searches) -----------
  //
  // A state is `words_per_state()` key words plus `aux_words()` cache
  // words laid out as [frontier: words_per_state()][holders: packed
  // uint16 per database entity, kNoHolder when free].

  int words_per_state() const { return total_words_; }
  int aux_words() const { return total_words_ + holder_words_; }

  /// Writes the empty state and its aux cache into caller buffers of
  /// words_per_state() / aux_words() words.
  void InitRoot(uint64_t* state, uint64_t* aux) const;

  /// Recomputes the aux cache of an arbitrary `state` from scratch
  /// (O(total steps); used once per search root).
  void InitAux(const uint64_t* state, uint64_t* aux) const;

  /// Appends the legal moves of the state described by `aux` to `*moves`,
  /// in ascending (txn, node) order — the same order as LegalMoves.
  void ExpandInto(const uint64_t* aux, std::vector<GlobalNode>* moves) const;

  /// Commutativity-reduced expansion (the sleep-set / persistent-move
  /// half of SearchEngine::kReduced, DESIGN.md §1.7 and §11). A legal
  /// move is *invisible* when every other accessor of its entity whose
  /// lock mode CONFLICTS with the move's mode has already executed its
  /// Unlock of that entity: no future step of any other transaction can
  /// conflict on the entity, so the move commutes with every
  /// interleaving that postpones it — and {move} is a singleton
  /// persistent set. Shared locks commute with each other, so an S move
  /// ignores the other S accessors entirely — strictly more pruning
  /// than the exclusive-only rule, which needs every other accessor
  /// done. When the state has an invisible move, only the first one (in
  /// ExpandInto order) is appended; otherwise all legal moves are.
  /// Returns the number of expansions pruned. `*moves` is empty on
  /// return iff the state has no legal move at all, so stuck detection
  /// is unaffected by the pruning.
  int ExpandReducedInto(const uint64_t* state, const uint64_t* aux,
                        std::vector<GlobalNode>* moves) const;

  /// Applies legal move `g`: writes the child state and its incrementally
  /// updated aux cache. `next_state`/`next_aux` must not alias the inputs.
  void ApplyInto(const uint64_t* state, const uint64_t* aux, GlobalNode g,
                 uint64_t* next_state, uint64_t* next_aux) const;

  /// O(1) per-entity step lookups (kInvalidNode when txn does not access e).
  NodeId LockNodeOf(int txn, EntityId e) const { return lock_node_[txn][e]; }
  NodeId UnlockNodeOf(int txn, EntityId e) const {
    return unlock_node_[txn][e];
  }
  /// Transactions accessing entity e (precomputed; ascending).
  const std::vector<int>& AccessorsOf(EntityId e) const {
    return accessors_[e];
  }

  // --- Packed-layout accessors (core/symmetry's canonicalizer) ----------

  /// First word of transaction i's mask inside a packed state.
  int txn_word_offset(int i) const { return offset_[i]; }
  /// Number of mask words of transaction i.
  int txn_word_count(int i) const { return words_[i]; }
  /// The per-entity lock-holder table inside an aux buffer.
  const uint16_t* HolderTable(const uint64_t* aux) const {
    return Holders(aux);
  }
  uint16_t* HolderTable(uint64_t* aux) const { return Holders(aux); }

  /// Searches for a legal schedule from `from` that executes exactly the
  /// nodes of `target` (a superset state). Returns the move sequence, or
  /// nullopt if no such schedule exists, or ResourceExhausted if more than
  /// `max_states` distinct states were expanded (0 = unbounded). Runs on
  /// an explicit stack: schedule depth is bounded by memory, not by the
  /// native call stack.
  Result<std::optional<std::vector<GlobalNode>>> FindScheduleBetween(
      const ExecState& from, const ExecState& target,
      uint64_t max_states = 0) const;

  /// Searches for any completion from `from` to the full state.
  Result<std::optional<std::vector<GlobalNode>>> FindCompletion(
      const ExecState& from, uint64_t max_states = 0) const {
    return FindScheduleBetween(from, FullState(), max_states);
  }

 private:
  const uint16_t* Holders(const uint64_t* aux) const {
    return reinterpret_cast<const uint16_t*>(aux + total_words_);
  }
  uint16_t* Holders(uint64_t* aux) const {
    return reinterpret_cast<uint16_t*>(aux + total_words_);
  }

  const TransactionSystem* sys_;
  /// offset_[i] = first word of transaction i's mask inside ExecState.
  std::vector<int> offset_;
  /// words_[i] = number of mask words of transaction i.
  std::vector<int> words_;
  int total_words_ = 0;
  int holder_words_ = 0;
  /// pred_mask_[i][v] = bitmask (in state coordinates) of v's strict
  /// predecessors within transaction i.
  std::vector<std::vector<std::vector<uint64_t>>> pred_mask_;
  /// hasse_succ_[i][v] = direct successors of v in transaction i (the only
  /// steps whose readiness can change when v executes).
  std::vector<std::vector<std::vector<NodeId>>> hasse_succ_;
  /// lock_node_[i][e] / unlock_node_[i][e]: O(1) step positions.
  std::vector<std::vector<NodeId>> lock_node_;
  std::vector<std::vector<NodeId>> unlock_node_;
  /// accessors_[e]: transactions accessing entity e.
  std::vector<std::vector<int>> accessors_;
  /// Per-accessor Unlock-step bit positions of each entity, in state
  /// coordinates: the invisibility test of ExpandReducedInto is "every
  /// *other* listed bit whose mode conflicts with the move's is set".
  struct UnlockBit {
    int txn;
    int word;
    uint64_t mask;
    LockMode mode;  ///< Mode of this accessor's lock on the entity.
  };
  std::vector<std::vector<UnlockBit>> entity_unlock_bits_;
  /// The full state's words (for IsComplete on raw buffers).
  std::vector<uint64_t> full_words_;
};

}  // namespace wydb

#endif  // WYDB_CORE_STATE_SPACE_H_
