#include "analysis/deadlock_checker.h"

#include <unordered_map>
#include <unordered_set>

#include "analysis/level_search.h"
#include "common/string_util.h"
#include "core/reduction_graph.h"
#include "core/state_space.h"

namespace wydb {
namespace {

// Reconstructs the schedule leading to `state` by following parent links.
Schedule PathTo(const ExecState& state,
                const std::unordered_map<ExecState,
                                         std::pair<ExecState, GlobalNode>,
                                         ExecStateHash>& parent,
                const ExecState& root) {
  Schedule rev;
  ExecState cur = state;
  while (!(cur == root)) {
    auto it = parent.find(cur);
    rev.push_back(it->second.second);
    cur = it->second.first;
  }
  return Schedule(rev.rbegin(), rev.rend());
}

std::vector<std::vector<NodeId>> PrefixNodesOf(const StateSpace& space,
                                               const uint64_t* words) {
  const TransactionSystem& sys = space.system();
  std::vector<std::vector<NodeId>> out(sys.num_transactions());
  for (int i = 0; i < sys.num_transactions(); ++i) {
    for (NodeId v = 0; v < sys.txn(i).num_steps(); ++v) {
      if (space.IsExecuted(words, i, v)) out[i].push_back(v);
    }
  }
  return out;
}

// The seed implementation: hash containers of heap-copied ExecStates and
// full move rescans per state. Retained as the cross-validation reference;
// CheckDeadlockFreedom with the incremental engine must match it verdict-
// and count-for-count.
Result<DeadlockReport> CheckDeadlockFreedomNaive(
    const TransactionSystem& sys, const DeadlockCheckOptions& options) {
  StateSpace space(&sys);
  DeadlockReport report;

  // BFS over reachable states. Reachable state <=> prefix admitting a
  // schedule, so in kReductionGraph mode every visited state is a
  // candidate deadlock prefix.
  std::unordered_set<ExecState, ExecStateHash> visited;
  std::unordered_map<ExecState, std::pair<ExecState, GlobalNode>,
                     ExecStateHash>
      parent;
  std::vector<ExecState> queue;
  ExecState root = space.EmptyState();
  queue.push_back(root);
  visited.insert(root);

  auto make_witness = [&](const ExecState& s,
                          std::string cycle_text) -> DeadlockWitness {
    DeadlockWitness w;
    w.schedule = PathTo(s, parent, root);
    w.prefix_nodes = PrefixNodesOf(space, s.words.data());
    w.reduction_cycle = std::move(cycle_text);
    return w;
  };

  for (size_t head = 0; head < queue.size(); ++head) {
    ExecState s = queue[head];
    ++report.states_visited;
    if (options.max_states != 0 &&
        report.states_visited > options.max_states) {
      return Status::ResourceExhausted(StrFormat(
          "deadlock check exceeded %llu states",
          static_cast<unsigned long long>(options.max_states)));
    }
    if (report.states_visited % kDeadlineStride == 1 &&
        PollDeadline(options, &report)) {
      return Status::ResourceExhausted("deadlock check deadline exceeded");
    }

    std::vector<GlobalNode> moves = space.LegalMoves(s);

    if (options.mode == DeadlockDetectionMode::kStuckState) {
      if (moves.empty() && !space.IsComplete(s)) {
        report.deadlock_free = false;
        report.witness = make_witness(s, "");
        report.states_interned = visited.size();
        return report;
      }
    } else {
      ReductionGraph rg(space.ToPrefixSet(s));
      if (rg.HasCycle()) {
        std::vector<GlobalNode> cycle = rg.FindGlobalCycle();
        report.deadlock_free = false;
        report.witness = make_witness(s, rg.CycleToString(sys, cycle));
        report.states_interned = visited.size();
        return report;
      }
    }

    for (GlobalNode g : moves) {
      ExecState next = space.Apply(s, g);
      bool fresh = options.memoize ? visited.insert(next).second : true;
      if (fresh) {
        parent.emplace(next, std::make_pair(s, g));
        queue.push_back(next);
      }
    }
  }

  report.deadlock_free = true;
  report.states_interned = visited.size();
  return report;
}

// ---------------------------------------------------------------------------
// The Theorem 1 property of the level-synchronous skeleton
// (analysis/level_search.h, DESIGN.md §1). Keys are the exec words alone.
// The witness predicate — stuck state, or cyclic reduction graph — is
// purely per-state, so it is evaluated when a state is expanded, and the
// minimum witness id of a level reproduces the serial report exactly.
// ExpandReducedInto returns an empty set only for genuinely stuck states,
// and both reductions preserve the reachability of terminal (stuck or
// complete) states (§1.10), so the predicate is unchanged under the
// reduction.
// ---------------------------------------------------------------------------

class DeadlockProperty {
 public:
  using Report = DeadlockReport;
  using Options = DeadlockCheckOptions;
  static constexpr const char* kWhat = "deadlock check";
  static constexpr bool kFlagsChildren = false;
  struct Scratch {};

  DeadlockProperty(const StateSpace& space, const DeadlockCheckOptions& options)
      : space_(space), mode_(options.mode), memoize_(options.memoize) {}

  int key_words() const { return space_.words_per_state(); }
  int aux_words() const { return space_.aux_words(); }
  int arc_row_words() const { return 0; }
  bool dedupe() const { return memoize_; }
  Scratch NewScratch() const { return {}; }

  bool IsWitness(const uint64_t* key,
                 const std::vector<GlobalNode>& moves) const {
    if (mode_ == DeadlockDetectionMode::kStuckState) {
      return moves.empty() && !space_.IsComplete(key);
    }
    return ReductionGraph(space_.ToPrefixSet(key)).HasCycle();
  }
  void StageChild(const uint64_t*, GlobalNode, uint64_t*, uint64_t*,
                  Scratch&) const {}
  void ReplayChild(const uint64_t*, GlobalNode, uint64_t*) const {}

  // The witness state is rebuilt from the concrete schedule, which is
  // legal from the empty state and ends in a genuine stuck / cyclic
  // state under the reduction too.
  void Refute(DeadlockReport* report, Schedule schedule,
              const std::vector<int>&, const uint64_t*) const {
    std::vector<uint64_t> concrete(space_.words_per_state(), 0);
    for (GlobalNode g : schedule) {
      const int bit = space_.txn_word_offset(g.txn) * 64 + g.node;
      concrete[bit / 64] |= 1ULL << (bit % 64);
    }
    DeadlockWitness w;
    w.schedule = std::move(schedule);
    w.prefix_nodes = PrefixNodesOf(space_, concrete.data());
    if (mode_ == DeadlockDetectionMode::kReductionGraph) {
      ReductionGraph rg(space_.ToPrefixSet(concrete.data()));
      w.reduction_cycle =
          rg.CycleToString(space_.system(), rg.FindGlobalCycle());
    }
    report->deadlock_free = false;
    report->witness = std::move(w);
  }
  static void Certify(DeadlockReport* report) {
    report->deadlock_free = true;
  }
  static void Collect(const Scratch&, DeadlockReport*) {}

 private:
  const StateSpace& space_;
  const DeadlockDetectionMode mode_;
  const bool memoize_;
};

}  // namespace

Result<DeadlockReport> CheckDeadlockFreedom(
    const TransactionSystem& sys, const DeadlockCheckOptions& options) {
  WYDB_RETURN_IF_ERROR(ValidateStoreOptions(options.store, options.engine));
  if (options.engine == SearchEngine::kNaiveReference) {
    return CheckDeadlockFreedomNaive(sys, options);
  }
  StateSpace space(&sys);
  return RunLevelSearch(DeadlockProperty(space, options), space, options);
}

Result<bool> IsDeadlockPrefix(const TransactionSystem& sys,
                              const PrefixSet& prefix, uint64_t max_states) {
  ReductionGraph rg(prefix);
  if (!rg.HasCycle()) return false;
  StateSpace space(&sys);
  auto sched = space.FindScheduleBetween(space.EmptyState(),
                                         space.StateOf(prefix), max_states);
  if (!sched.ok()) return sched.status();
  return sched->has_value();
}

}  // namespace wydb
