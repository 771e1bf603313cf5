#include "analysis/safety_checker.h"

#include <bit>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "analysis/level_search.h"
#include "common/string_util.h"
#include "core/state_space.h"
#include "graph/algorithms.h"

namespace wydb {
namespace {

/// True iff transaction `t` lies on a cycle of the packed row-major arc
/// bitset (one row of `row_words` words per transaction): bitset BFS from
/// t's successor row until it reaches t or stops growing. `reach` and
/// `frontier` are caller scratch of row_words words (so concurrent
/// searches can keep per-worker buffers).
bool ArcsOnCycle(const uint64_t* arcs, int t, int row_words,
                 std::vector<uint64_t>& reach,
                 std::vector<uint64_t>& frontier) {
  for (int w = 0; w < row_words; ++w) {
    reach[w] = arcs[t * row_words + w];
    frontier[w] = reach[w];
  }
  while (true) {
    if ((reach[t / 64] >> (t % 64)) & 1) return true;
    bool grew = false;
    for (int w = 0; w < row_words; ++w) {
      uint64_t bits = frontier[w];
      frontier[w] = 0;
      while (bits != 0) {
        int j = w * 64 + std::countr_zero(bits);
        bits &= bits - 1;
        const uint64_t* row = arcs + static_cast<size_t>(j) * row_words;
        for (int rw = 0; rw < row_words; ++rw) {
          uint64_t fresh = row[rw] & ~reach[rw];
          if (fresh != 0) {
            reach[rw] |= fresh;
            frontier[rw] |= fresh;
            grew = true;
          }
        }
      }
    }
    if (!grew) return false;
  }
}

inline void AddPackedArc(uint64_t* arcs, int row_words, int i, int j) {
  arcs[i * row_words + j / 64] |= 1ULL << (j % 64);
}

/// The one definition of the §5 child arc update of the Lemma property,
/// used both to stage children and to replay reduced witnesses:
/// executing `g` from the parent state `parent_key` adds, for a
/// Lock of x by Ti, the arc Tj -> Ti for every CONFLICTING accessor Tj
/// whose Lx is already executed in S' and Ti -> Tj otherwise. Two
/// shared locks on x are compatible and draw no arc (X–X and X–S pairs
/// do); with every lock exclusive this is exactly the paper's §5 rule.
/// Returns false when `g` is not a Lock (no arcs added).
bool ApplyLockArcs(const StateSpace& space, const uint64_t* parent_key,
                   GlobalNode g, int row_words, uint64_t* arcs) {
  const Step& st = space.system().txn(g.txn).step(g.node);
  if (st.kind != StepKind::kLock) return false;
  const EntityId x = st.entity;
  const int t = g.txn;
  for (int j : space.AccessorsOf(x)) {
    if (j == t) continue;
    if (!LockModesConflict(st.mode, space.system().txn(j).LockModeOf(x))) {
      continue;  // S–S: compatible, no conflict arc.
    }
    NodeId lj = space.LockNodeOf(j, x);
    if (space.IsExecuted(parent_key, j, lj)) {
      AddPackedArc(arcs, row_words, j, t);  // Tj locked x earlier in S'.
    } else {
      AddPackedArc(arcs, row_words, t, j);  // Ti locks first, even if Lx
                                            // of Tj never executes in S'.
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Naive reference engine (the seed implementation): heap-copied states in
// hash containers, the conflict digraph rebuilt and FindCycle rerun from
// scratch at every state. Retained for cross-validation and benchmarking.
// ---------------------------------------------------------------------------

// Search state: executed steps plus the arc set of D(S') packed as an
// n*n bitmask appended to the exec words (arc i->j at bit i*n + j).
struct LemmaState {
  std::vector<uint64_t> words;
  bool operator==(const LemmaState&) const = default;
};

struct LemmaStateHash {
  size_t operator()(const LemmaState& s) const {
    uint64_t h = 0xCBF29CE484222325ULL;
    for (uint64_t w : s.words) {
      h ^= w;
      h *= 0x100000001B3ULL;
    }
    return static_cast<size_t>(h);
  }
};

class LemmaSearchNaive {
 public:
  LemmaSearchNaive(const TransactionSystem& sys,
                   const SafetyCheckOptions& options, bool require_complete)
      : sys_(sys),
        options_(options),
        require_complete_(require_complete),
        space_(&sys),
        n_(sys.num_transactions()),
        exec_words_(space_.words_per_state()),
        arc_words_((n_ * n_ + 63) / 64) {}

  Result<SafetyReport> Run();

 private:
  LemmaState Root() const {
    LemmaState s;
    s.words.assign(exec_words_ + arc_words_, 0);
    return s;
  }

  ExecState ExecOf(const LemmaState& s) const {
    ExecState e;
    e.words.assign(s.words.begin(), s.words.begin() + exec_words_);
    return e;
  }

  bool ArcSet(const LemmaState& s, int i, int j) const {
    int bit = i * n_ + j;
    return (s.words[exec_words_ + bit / 64] >> (bit % 64)) & 1;
  }

  void AddArc(LemmaState* s, int i, int j) const {
    int bit = i * n_ + j;
    s->words[exec_words_ + bit / 64] |= 1ULL << (bit % 64);
  }

  Digraph ArcsDigraph(const LemmaState& s) const {
    Digraph d(n_);
    for (int i = 0; i < n_; ++i) {
      for (int j = 0; j < n_; ++j) {
        if (i != j && ArcSet(s, i, j)) d.AddArc(i, j);
      }
    }
    return d;
  }

  // Applies `g`, updating arcs per the partial-schedule digraph D(S')
  // definition of Section 5.
  LemmaState Apply(const LemmaState& s, GlobalNode g) const {
    LemmaState next = s;
    ExecState exec = ExecOf(s);
    ExecState exec_next = space_.Apply(exec, g);
    for (int w = 0; w < exec_words_; ++w) next.words[w] = exec_next.words[w];

    const Step& st = sys_.txn(g.txn).step(g.node);
    if (st.kind == StepKind::kLock) {
      EntityId x = st.entity;
      for (int j : sys_.AccessorsOf(x)) {
        if (j == g.txn) continue;
        if (!LockModesConflict(st.mode, sys_.txn(j).LockModeOf(x))) {
          continue;  // S–S: compatible, no conflict arc.
        }
        NodeId lj = sys_.txn(j).LockNode(x);
        if (space_.IsExecuted(exec, j, lj)) {
          AddArc(&next, j, g.txn);  // Tj locked x earlier in S'.
        } else {
          AddArc(&next, g.txn, j);  // Ti locks first, even if Lx of Tj
                                    // never executes in S'.
        }
      }
    }
    return next;
  }

  const TransactionSystem& sys_;
  const SafetyCheckOptions& options_;
  const bool require_complete_;
  StateSpace space_;
  const int n_;
  const int exec_words_;
  const int arc_words_;
};

Result<SafetyReport> LemmaSearchNaive::Run() {
  SafetyReport report;
  std::unordered_set<LemmaState, LemmaStateHash> visited;
  std::unordered_map<LemmaState, std::pair<LemmaState, GlobalNode>,
                     LemmaStateHash>
      parent;
  std::vector<LemmaState> queue;
  LemmaState root = Root();
  queue.push_back(root);
  visited.insert(root);

  auto path_to = [&](const LemmaState& state) {
    Schedule rev;
    LemmaState cur = state;
    while (!(cur == root)) {
      auto it = parent.find(cur);
      rev.push_back(it->second.second);
      cur = it->second.first;
    }
    return Schedule(rev.rbegin(), rev.rend());
  };

  for (size_t head = 0; head < queue.size(); ++head) {
    LemmaState s = queue[head];
    ++report.states_visited;
    if (options_.max_states != 0 &&
        report.states_visited > options_.max_states) {
      return Status::ResourceExhausted(StrFormat(
          "safety check exceeded %llu states",
          static_cast<unsigned long long>(options_.max_states)));
    }
    if (report.states_visited % kDeadlineStride == 1 &&
        PollDeadline(options_, &report)) {
      return Status::ResourceExhausted("safety check deadline exceeded");
    }

    Digraph arcs = ArcsDigraph(s);
    std::vector<NodeId> cycle = FindCycle(arcs);
    if (!cycle.empty()) {
      Schedule sched = path_to(s);
      if (!require_complete_) {
        report.holds = false;
        report.violation = SafetyViolation{
            std::move(sched), std::vector<int>(cycle.begin(), cycle.end())};
        report.states_interned = visited.size();
        return report;
      }
      // Safety alone: the cyclic partial schedule only matters if it can
      // be extended to a complete schedule. Arc sets only grow, so the
      // completed schedule is also cyclic.
      auto completion =
          space_.FindCompletion(ExecOf(s), options_.max_states);
      if (!completion.ok()) return completion.status();
      if (completion->has_value()) {
        sched.insert(sched.end(), (*completion)->begin(),
                     (*completion)->end());
        report.holds = false;
        report.violation = SafetyViolation{
            std::move(sched), std::vector<int>(cycle.begin(), cycle.end())};
        report.states_interned = visited.size();
        return report;
      }
      // Not completable: neither this state nor any descendant can reach a
      // complete schedule — prune the subtree.
      continue;
    }

    for (GlobalNode g : space_.LegalMoves(ExecOf(s))) {
      LemmaState next = Apply(s, g);
      if (visited.insert(next).second) {
        parent.emplace(next, std::make_pair(s, g));
        queue.push_back(next);
      }
    }
  }

  report.holds = true;
  report.states_interned = visited.size();
  return report;
}


// ---------------------------------------------------------------------------
// The Lemma 1 property of the level-synchronous skeleton
// (analysis/level_search.h, DESIGN.md §1).
//
// States are keyed [exec words | arc rows]: the conflict-arc set of D(S')
// packed row-major, one row of ceil(n/64) words per transaction, so row
// operations (reachability) are word ops.
//
// Cycle detection is incremental. Arc sets only grow along a path (§5
// lemma), and every arc added by applying a Lock step of transaction t is
// incident to t. Hence if the parent state's digraph is acyclic, any cycle
// in the child passes through t, so the child is cyclic iff t can reach
// itself — one bitset BFS from t's row instead of a full FindCycle. The
// search only ever expands acyclic states (cyclic ones report or prune),
// so the invariant "parent acyclic" holds inductively and each state's
// cyclicity is decided once, at creation, and carried in an aux flag word.
// The skeleton resolves flagged states serially in id order: for safe+DF
// the first one is the violation; for pure safety each runs
// FindCompletion — completable reports, uncompletable prunes (every
// descendant inherits the cycle, and none completes).
//
// Under the reduction the canonical permutation sorts orbit blocks by
// exec content and permutes the arc matrix rows/columns along; both
// reductions preserve the reachability of terminal extended states, and
// a cyclic arc set persists to every descendant, so the verdicts survive
// (§1.10). Completability is permutation-invariant, so it is probed on the
// representative.
// ---------------------------------------------------------------------------

class LemmaProperty {
 public:
  using Report = SafetyReport;
  using Options = SafetyCheckOptions;
  static constexpr const char* kWhat = "safety check";
  static constexpr bool kFlagsChildren = true;
  struct Scratch {
    std::vector<uint64_t> reach;
    std::vector<uint64_t> frontier;
    uint64_t delta_skipped = 0;
  };

  LemmaProperty(const StateSpace& space, const SafetyCheckOptions& options,
                bool require_complete)
      : space_(space),
        max_states_(options.max_states),
        require_complete_(require_complete),
        n_(space.system().num_transactions()),
        exec_words_(space.words_per_state()),
        row_words_((n_ + 63) / 64),
        arc_words_(n_ * row_words_),
        flag_word_(space.aux_words()),
        delta_(options.delta_txn),
        delta_off_(delta_ >= 0 ? space.txn_word_offset(delta_) : 0),
        delta_cnt_(delta_ >= 0 ? space.txn_word_count(delta_) : 0) {}

  int key_words() const { return exec_words_ + arc_words_; }
  int aux_words() const { return flag_word_ + 1; }
  int arc_row_words() const { return row_words_; }
  bool dedupe() const { return true; }
  Scratch NewScratch() const {
    return Scratch{std::vector<uint64_t>(row_words_),
                   std::vector<uint64_t>(row_words_), 0};
  }

  bool Flagged(const uint64_t* aux) const {
    return (aux[flag_word_] & 1) != 0;
  }

  Result<std::optional<Schedule>> Resolve(const uint64_t* key) const {
    if (!require_complete_) return std::optional<Schedule>(Schedule{});
    ExecState exec;
    exec.words.assign(key, key + exec_words_);
    return space_.FindCompletion(exec, max_states_);
  }

  void StageChild(const uint64_t* parent_key, GlobalNode g, uint64_t* key,
                  uint64_t* aux, Scratch& s) const {
    uint64_t* arcs = key + exec_words_;
    std::memcpy(arcs, parent_key + exec_words_,
                arc_words_ * sizeof(uint64_t));
    aux[flag_word_] = 0;
    const bool locked = ApplyLockArcs(space_, parent_key, g, row_words_, arcs);
    if (DeltaGateSkips(parent_key, g)) {
      // The child stays delta-idle, hence acyclic by the gate's
      // precondition.
      ++s.delta_skipped;
    } else if (locked &&
               ArcsOnCycle(arcs, g.txn, row_words_, s.reach, s.frontier)) {
      aux[flag_word_] = 1;
    }
  }

  void ReplayChild(const uint64_t* parent_key, GlobalNode g,
                   uint64_t* key) const {
    ApplyLockArcs(space_, parent_key, g, row_words_, key + exec_words_);
  }

  // Reports a cycle of the *concrete* digraph: the stored arc matrix
  // permuted through `tau` (the identity without the reduction).
  void Refute(SafetyReport* report, Schedule schedule,
              const std::vector<int>& tau, const uint64_t* key) const {
    Digraph concrete(n_);
    const uint64_t* arcs = key + exec_words_;
    for (int i = 0; i < n_; ++i) {
      for (int j = 0; j < n_; ++j) {
        if (i != j && ((arcs[i * row_words_ + j / 64] >> (j % 64)) & 1) != 0) {
          concrete.AddArc(tau[i], tau[j]);
        }
      }
    }
    std::vector<NodeId> cycle = FindCycle(concrete);
    report->holds = false;
    report->violation = SafetyViolation{
        std::move(schedule), std::vector<int>(cycle.begin(), cycle.end())};
  }
  static void Certify(SafetyReport* report) { report->holds = true; }
  static void Collect(const Scratch& s, SafetyReport* report) {
    report->delta_skipped_tests += s.delta_skipped;
  }

 private:
  // Delta gate (docs/SERVE.md): with the system minus txn `delta_` known
  // safe+DF, no reachable state with `delta_` idle can be cyclic, so
  // children of delta-idle parents reached by non-delta moves skip the
  // cycle test. Idleness is one word-range scan of the parent's exec
  // block for `delta_`.
  bool DeltaGateSkips(const uint64_t* parent_key, GlobalNode g) const {
    if (delta_ < 0 || g.txn == delta_) return false;
    for (int w = 0; w < delta_cnt_; ++w) {
      if (parent_key[delta_off_ + w] != 0) return false;
    }
    return true;
  }

  const StateSpace& space_;
  const uint64_t max_states_;
  const bool require_complete_;
  const int n_;
  const int exec_words_;
  const int row_words_;
  const int arc_words_;
  const int flag_word_;
  const int delta_;
  const int delta_off_;
  const int delta_cnt_;
};

Result<SafetyReport> RunSearch(const TransactionSystem& sys,
                               const SafetyCheckOptions& options,
                               bool require_complete) {
  WYDB_RETURN_IF_ERROR(ValidateStoreOptions(options.store, options.engine));
  if (options.delta_txn >= 0) {
    if (options.delta_txn >= sys.num_transactions()) {
      return Status::InvalidArgument(
          StrFormat("delta_txn %d out of range (system has %d transactions)",
                    options.delta_txn, sys.num_transactions()));
    }
    if (options.engine == SearchEngine::kNaiveReference) {
      return Status::InvalidArgument(
          "delta_txn is not supported by the reference engine");
    }
    if (options.engine == SearchEngine::kReduced) {
      return Status::InvalidArgument(
          "delta_txn is not supported by the reduced engine: orbit "
          "canonicalization can map the delta transaction onto another one");
    }
    if (require_complete) {
      return Status::InvalidArgument(
          "delta_txn applies to the safe+deadlock-free check only");
    }
  }
  if (options.engine == SearchEngine::kNaiveReference) {
    LemmaSearchNaive search(sys, options, require_complete);
    return search.Run();
  }
  StateSpace space(&sys);
  return RunLevelSearch(LemmaProperty(space, options, require_complete),
                        space, options);
}

}  // namespace

Result<SafetyReport> CheckSafeAndDeadlockFree(
    const TransactionSystem& sys, const SafetyCheckOptions& options) {
  return RunSearch(sys, options, /*require_complete=*/false);
}

Result<SafetyReport> CheckSafety(const TransactionSystem& sys,
                                 const SafetyCheckOptions& options) {
  return RunSearch(sys, options, /*require_complete=*/true);
}

}  // namespace wydb
