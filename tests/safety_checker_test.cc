// Tests for the exact Lemma 1 checker: safety, and safety+deadlock-freedom.
#include <gtest/gtest.h>

#include <chrono>
#include <utility>
#include <vector>

#include "analysis/deadlock_checker.h"
#include "analysis/safety_checker.h"
#include "core/conflict_graph.h"
#include "gen/system_gen.h"
#include "tests/test_util.h"

namespace wydb {
namespace {

using testutil::MakeDb;
using testutil::MakeSeq;
using testutil::MakeSystem;

TEST(SafetyCheckerTest, TwoPhaseSameOrderIsSafeAndDf) {
  auto db = MakeDb({{"s1", {"x"}}, {"s2", {"y"}}});
  std::vector<Transaction> txns;
  txns.push_back(MakeSeq(db.get(), "T1", {"Lx", "Ly", "Ux", "Uy"}));
  txns.push_back(MakeSeq(db.get(), "T2", {"Lx", "Ly", "Ux", "Uy"}));
  TransactionSystem sys = MakeSystem(db.get(), std::move(txns));
  auto report = CheckSafeAndDeadlockFree(sys);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->holds);
}

TEST(SafetyCheckerTest, OppositeOrderFailsSafeDf) {
  auto db = MakeDb({{"s1", {"x"}}, {"s2", {"y"}}});
  std::vector<Transaction> txns;
  txns.push_back(MakeSeq(db.get(), "T1", {"Lx", "Ly", "Ux", "Uy"}));
  txns.push_back(MakeSeq(db.get(), "T2", {"Ly", "Lx", "Ux", "Uy"}));
  TransactionSystem sys = MakeSystem(db.get(), std::move(txns));
  auto report = CheckSafeAndDeadlockFree(sys);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->holds);
  ASSERT_TRUE(report->violation.has_value());
  // The violating partial schedule must be legal and have a cyclic D(S').
  EXPECT_TRUE(
      ValidateSchedule(sys, report->violation->schedule, false).ok());
  auto cg = ConflictGraph::FromSchedule(sys, report->violation->schedule);
  ASSERT_TRUE(cg.ok());
  EXPECT_FALSE(cg->IsAcyclic());
}

TEST(SafetyCheckerTest, EarlyUnlockIsUnsafeButDeadlockFree) {
  // Both transactions lock/unlock x then y in the same order but release
  // early: no deadlock is possible, yet schedules are not serializable.
  auto db = MakeDb({{"s1", {"x"}}, {"s2", {"y"}}});
  std::vector<Transaction> txns;
  txns.push_back(MakeSeq(db.get(), "T1", {"Lx", "Ux", "Ly", "Uy"}));
  txns.push_back(MakeSeq(db.get(), "T2", {"Lx", "Ux", "Ly", "Uy"}));
  TransactionSystem sys = MakeSystem(db.get(), std::move(txns));

  auto safety = CheckSafety(sys);
  ASSERT_TRUE(safety.ok());
  EXPECT_FALSE(safety->holds);
  ASSERT_TRUE(safety->violation.has_value());
  // Safety violations must be COMPLETE schedules.
  EXPECT_TRUE(
      ValidateSchedule(sys, safety->violation->schedule, true).ok());

  auto df = CheckDeadlockFreedom(sys);
  ASSERT_TRUE(df.ok());
  EXPECT_TRUE(df->deadlock_free);

  auto both = CheckSafeAndDeadlockFree(sys);
  ASSERT_TRUE(both.ok());
  EXPECT_FALSE(both->holds);
}

TEST(SafetyCheckerTest, DeadlockableButSafeSystem) {
  // Two-phase locked transactions are always safe [EGLT], but opposite
  // lock orders deadlock: safety holds, safe+DF does not.
  auto db = MakeDb({{"s1", {"x"}}, {"s2", {"y"}}});
  std::vector<Transaction> txns;
  txns.push_back(MakeSeq(db.get(), "T1", {"Lx", "Ly", "Ux", "Uy"}));
  txns.push_back(MakeSeq(db.get(), "T2", {"Ly", "Lx", "Ux", "Uy"}));
  TransactionSystem sys = MakeSystem(db.get(), std::move(txns));
  auto safety = CheckSafety(sys);
  ASSERT_TRUE(safety.ok());
  EXPECT_TRUE(safety->holds);
  auto df = CheckDeadlockFreedom(sys);
  ASSERT_TRUE(df.ok());
  EXPECT_FALSE(df->deadlock_free);
}

TEST(SafetyCheckerTest, DisjointSystemTriviallySafeDf) {
  auto db = MakeDb({{"s1", {"x"}}, {"s2", {"y"}}});
  std::vector<Transaction> txns;
  txns.push_back(MakeSeq(db.get(), "T1", {"Lx", "Ux"}));
  txns.push_back(MakeSeq(db.get(), "T2", {"Ly", "Uy"}));
  TransactionSystem sys = MakeSystem(db.get(), std::move(txns));
  auto report = CheckSafeAndDeadlockFree(sys);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->holds);
}

TEST(SafetyCheckerTest, BudgetReported) {
  auto db = MakeDb({{"s1", {"x"}}, {"s2", {"y"}}});
  std::vector<Transaction> txns;
  txns.push_back(MakeSeq(db.get(), "T1", {"Lx", "Ly", "Ux", "Uy"}));
  txns.push_back(MakeSeq(db.get(), "T2", {"Ly", "Lx", "Ux", "Uy"}));
  TransactionSystem sys = MakeSystem(db.get(), std::move(txns));
  SafetyCheckOptions opts;
  opts.max_states = 1;
  EXPECT_EQ(CheckSafeAndDeadlockFree(sys, opts).status().code(),
            StatusCode::kResourceExhausted);
}

// Lemma 1 decomposition: safe+DF == safe AND deadlock-free, across random
// systems (small enough for the exact checkers).
TEST(SafetyCheckerProperty, Lemma1EquivalenceOnRandomSystems) {
  int nontrivial = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    RandomSystemOptions opts;
    opts.num_sites = 2;
    opts.entities_per_site = 2;
    opts.num_transactions = 2;
    opts.entities_per_txn = 2;
    opts.seed = seed;
    auto sys = GenerateRandomSystem(opts);
    ASSERT_TRUE(sys.ok());

    auto both = CheckSafeAndDeadlockFree(*sys->system);
    auto safe = CheckSafety(*sys->system);
    auto df = CheckDeadlockFreedom(*sys->system);
    ASSERT_TRUE(both.ok());
    ASSERT_TRUE(safe.ok());
    ASSERT_TRUE(df.ok());
    EXPECT_EQ(both->holds, safe->holds && df->deadlock_free)
        << "seed " << seed;
    if (!both->holds) ++nontrivial;
  }
  EXPECT_GT(nontrivial, 0);  // The workload actually exercises failures.
}

// ---------------------------------------------------------------------
// Per-request deadlines.

TEST(SafetyCheckerTest, ExpiredDeadlineIsResourceExhausted) {
  auto db = MakeDb({{"s1", {"x"}}, {"s2", {"y"}}});
  std::vector<Transaction> txns;
  txns.push_back(MakeSeq(db.get(), "T1", {"Lx", "Ly", "Ux", "Uy"}));
  txns.push_back(MakeSeq(db.get(), "T2", {"Ly", "Lx", "Ux", "Uy"}));
  TransactionSystem sys = MakeSystem(db.get(), std::move(txns));
  for (SearchEngine engine :
       {SearchEngine::kNaiveReference, SearchEngine::kIncremental,
        SearchEngine::kParallelSharded, SearchEngine::kReduced}) {
    SafetyCheckOptions opts;
    opts.engine = engine;
    opts.deadline = std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1);
    auto report = CheckSafeAndDeadlockFree(sys, opts);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(report.status().message().find("deadline"), std::string::npos)
        << report.status().ToString();
  }
}

TEST(SafetyCheckerTest, GenerousDeadlineDoesNotChangeTheVerdict) {
  auto db = MakeDb({{"s1", {"x"}}, {"s2", {"y"}}});
  std::vector<Transaction> txns;
  txns.push_back(MakeSeq(db.get(), "T1", {"Lx", "Ly", "Ux", "Uy"}));
  txns.push_back(MakeSeq(db.get(), "T2", {"Ly", "Lx", "Ux", "Uy"}));
  TransactionSystem sys = MakeSystem(db.get(), std::move(txns));
  SafetyCheckOptions opts;
  opts.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
  auto with = CheckSafeAndDeadlockFree(sys, opts);
  auto without = CheckSafeAndDeadlockFree(sys);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(with->holds, without->holds);
  EXPECT_EQ(with->states_visited, without->states_visited);
  // The poll counter is the evidence the budget was live: present when
  // a deadline is set, zero when not.
  EXPECT_GT(with->deadline_polls, 0u);
  EXPECT_EQ(without->deadline_polls, 0u);
}

/// The acceptance bar for enforced deadlines: on a state space far too
/// large to exhaust, the parallel engine must answer ResourceExhausted
/// within 2x the wall-clock budget — in-level polling, not just
/// per-level, so one long level cannot blow through the deadline.
TEST(SafetyCheckerTest, ParallelEngineAnswersWithinTwiceTheBudget) {
  // Ten identical same-order transactions over two entities: certified,
  // so the search has no early witness out — it must be stopped by the
  // clock (the reachable (state, arc-set) space is ~5^10).
  auto db = MakeDb({{"s1", {"x"}}, {"s2", {"y"}}});
  std::vector<Transaction> txns;
  for (int i = 0; i < 10; ++i) {
    txns.push_back(
        MakeSeq(db.get(), "T" + std::to_string(i), {"Lx", "Ly", "Ux", "Uy"}));
  }
  TransactionSystem sys = MakeSystem(db.get(), std::move(txns));
  SafetyCheckOptions opts;
  opts.engine = SearchEngine::kParallelSharded;
  opts.max_states = 0;  // The deadline is the only bound.
  const auto budget = std::chrono::milliseconds(500);
  const auto start = std::chrono::steady_clock::now();
  opts.deadline = start + budget;
  auto report = CheckSafeAndDeadlockFree(sys, opts);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(report.status().message().find("deadline"), std::string::npos);
  EXPECT_LT(elapsed, 2 * budget)
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
             .count()
      << " ms";
}

// ---------------------------------------------------------------------
// The delta gate (incremental recertification, docs/SERVE.md).

TEST(SafetyCheckerTest, DeltaTxnOptionIsValidated) {
  auto db = MakeDb({{"s1", {"x"}}, {"s2", {"y"}}});
  std::vector<Transaction> txns;
  txns.push_back(MakeSeq(db.get(), "T1", {"Lx", "Ly", "Ux", "Uy"}));
  txns.push_back(MakeSeq(db.get(), "T2", {"Lx", "Ly", "Ux", "Uy"}));
  TransactionSystem sys = MakeSystem(db.get(), std::move(txns));

  SafetyCheckOptions opts;
  opts.delta_txn = 5;  // Out of range.
  EXPECT_EQ(CheckSafeAndDeadlockFree(sys, opts).status().code(),
            StatusCode::kInvalidArgument);

  // Orbit canonicalization can map the delta transaction onto another
  // one, so the reduced engine refuses the gate; so does the reference
  // oracle, which has none.
  opts.delta_txn = 1;
  opts.engine = SearchEngine::kReduced;
  auto reduced = CheckSafeAndDeadlockFree(sys, opts);
  ASSERT_FALSE(reduced.ok());
  EXPECT_EQ(reduced.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reduced.status().message().find("orbit canonicalization"),
            std::string::npos)
      << reduced.status().ToString();
  opts.engine = SearchEngine::kNaiveReference;
  EXPECT_EQ(CheckSafeAndDeadlockFree(sys, opts).status().code(),
            StatusCode::kInvalidArgument);
  opts.engine = SearchEngine::kParallelSharded;
  EXPECT_TRUE(CheckSafeAndDeadlockFree(sys, opts).ok());

  // The gate's soundness argument is specific to safe+DF; plain safety
  // (complete schedules) rejects it.
  opts.engine = SearchEngine::kIncremental;
  EXPECT_EQ(CheckSafety(sys, opts).status().code(),
            StatusCode::kInvalidArgument);
}

// Under the gate's precondition — the system minus the delta transaction
// is already certified — the delta run must agree with the full run bit
// for bit, while actually skipping cycle tests.
TEST(SafetyCheckerProperty, DeltaGateMatchesFullRunOnCertifiedBases) {
  int exercised = 0;
  uint64_t total_skipped = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    // A certified base: the safe generator's systems are safe+DF.
    SafeSystemOptions gopts;
    gopts.num_transactions = 3;
    gopts.entities_per_txn = 2;
    gopts.seed = seed;
    auto base = GenerateSafeSystem(gopts);
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE(CheckSafeAndDeadlockFree(*base->system)->holds);

    // Add one random transaction over the same entities; the result may
    // or may not stay certified — the gate must agree either way.
    RandomSystemOptions ropts;
    ropts.num_sites = base->db->num_sites();
    ropts.entities_per_site = 1;
    ropts.num_transactions = 1;
    ropts.entities_per_txn = 2;
    ropts.seed = seed * 31 + 7;
    auto extra = GenerateRandomSystem(ropts);
    ASSERT_TRUE(extra.ok());
    std::vector<Step> steps;
    std::vector<std::pair<int, int>> arcs;
    const Transaction& src = extra->system->txn(0);
    for (NodeId v = 0; v < src.num_steps(); ++v) {
      Step s = src.step(v);
      // Remap into the base database by entity index (both databases
      // enumerate entities densely).
      s.entity = s.entity % base->db->num_entities();
      steps.push_back(s);
    }
    for (NodeId v = 0; v + 1 < src.num_steps(); ++v) arcs.emplace_back(v, v + 1);
    // Duplicate entity accesses after remapping make Create fail; skip
    // those seeds rather than special-casing the remap.
    auto delta =
        Transaction::Create(base->db.get(), "Delta", steps, arcs);
    if (!delta.ok()) continue;

    std::vector<Transaction> all;
    for (int t = 0; t < base->system->num_transactions(); ++t) {
      all.push_back(base->system->txn(t));
    }
    all.push_back(std::move(*delta));
    auto sys = TransactionSystem::Create(base->db.get(), std::move(all));
    if (!sys.ok()) continue;

    SafetyCheckOptions gated;
    gated.delta_txn = sys->num_transactions() - 1;
    auto fast = CheckSafeAndDeadlockFree(*sys, gated);
    auto full = CheckSafeAndDeadlockFree(*sys);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    ASSERT_TRUE(full.ok());
    EXPECT_EQ(fast->holds, full->holds) << "seed " << seed;
    EXPECT_EQ(fast->states_visited, full->states_visited) << "seed " << seed;
    if (!fast->holds) {
      ASSERT_TRUE(fast->violation.has_value());
      EXPECT_EQ(fast->violation->schedule, full->violation->schedule)
          << "seed " << seed;
    }
    EXPECT_EQ(full->delta_skipped_tests, 0u);
    total_skipped += fast->delta_skipped_tests;
    ++exercised;

    // The gate lives in the search skeleton, so the parallel engine runs
    // it too, with the same result at every thread count. Every level
    // the search expands is expanded whole, so even the skip count
    // matches kIncremental's.
    for (int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " threads "
                                      << threads);
      SafetyCheckOptions opts = gated;
      opts.engine = SearchEngine::kParallelSharded;
      opts.search_threads = threads;
      auto par = CheckSafeAndDeadlockFree(*sys, opts);
      ASSERT_TRUE(par.ok()) << par.status().ToString();
      EXPECT_EQ(par->holds, full->holds);
      EXPECT_EQ(par->states_visited, full->states_visited);
      ASSERT_EQ(par->violation.has_value(), full->violation.has_value());
      if (par->violation.has_value()) {
        EXPECT_EQ(par->violation->schedule, full->violation->schedule);
      }
      EXPECT_EQ(par->delta_skipped_tests, fast->delta_skipped_tests);
    }
  }
  EXPECT_GT(exercised, 20);     // The remap filter leaves real coverage.
  EXPECT_GT(total_skipped, 0u);  // The gate actually fires.
}

// Safe-by-construction generator really is safe+DF.
TEST(SafetyCheckerProperty, SafeGeneratorIsSafeDf) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SafeSystemOptions opts;
    opts.num_transactions = 3;
    opts.entities_per_txn = 2;
    opts.seed = seed;
    auto sys = GenerateSafeSystem(opts);
    ASSERT_TRUE(sys.ok());
    auto report = CheckSafeAndDeadlockFree(*sys->system);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->holds) << "seed " << seed;
  }
}

}  // namespace
}  // namespace wydb
