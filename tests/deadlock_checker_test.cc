// Tests for the exact deadlock-freedom checker (Theorem 1), including the
// equivalence of its two detection modes.
#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "analysis/deadlock_checker.h"
#include "core/reduction_graph.h"
#include "gen/system_gen.h"
#include "tests/test_util.h"

namespace wydb {
namespace {

using testutil::MakeDb;
using testutil::MakeSeq;
using testutil::MakeSystem;

TransactionSystem ClassicDeadlockPair(const Database* db) {
  std::vector<Transaction> txns;
  txns.push_back(MakeSeq(db, "T1", {"Lx", "Ly", "Ux", "Uy"}));
  txns.push_back(MakeSeq(db, "T2", {"Ly", "Lx", "Ux", "Uy"}));
  return MakeSystem(db, std::move(txns));
}

TEST(DeadlockCheckerTest, ClassicPairDeadlocks) {
  auto db = MakeDb({{"s1", {"x"}}, {"s2", {"y"}}});
  TransactionSystem sys = ClassicDeadlockPair(db.get());
  auto report = CheckDeadlockFreedom(sys);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->deadlock_free);
  ASSERT_TRUE(report->witness.has_value());
  // The witness schedule must be a legal partial schedule.
  EXPECT_TRUE(
      ValidateSchedule(sys, report->witness->schedule, false).ok());
}

TEST(DeadlockCheckerTest, SameLockOrderIsDeadlockFree) {
  auto db = MakeDb({{"s1", {"x"}}, {"s2", {"y"}}});
  std::vector<Transaction> txns;
  txns.push_back(MakeSeq(db.get(), "T1", {"Lx", "Ly", "Ux", "Uy"}));
  txns.push_back(MakeSeq(db.get(), "T2", {"Lx", "Ly", "Ux", "Uy"}));
  TransactionSystem sys = MakeSystem(db.get(), std::move(txns));
  auto report = CheckDeadlockFreedom(sys);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->deadlock_free);
  EXPECT_FALSE(report->witness.has_value());
}

TEST(DeadlockCheckerTest, DisjointTransactionsAreDeadlockFree) {
  auto db = MakeDb({{"s1", {"x"}}, {"s2", {"y"}}});
  std::vector<Transaction> txns;
  txns.push_back(MakeSeq(db.get(), "T1", {"Lx", "Ux"}));
  txns.push_back(MakeSeq(db.get(), "T2", {"Ly", "Uy"}));
  TransactionSystem sys = MakeSystem(db.get(), std::move(txns));
  auto report = CheckDeadlockFreedom(sys);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->deadlock_free);
}

TEST(DeadlockCheckerTest, SingleTransactionNeverDeadlocks) {
  auto db = MakeDb({{"s1", {"x", "y"}}});
  std::vector<Transaction> txns;
  txns.push_back(MakeSeq(db.get(), "T1", {"Lx", "Ly", "Uy", "Ux"}));
  TransactionSystem sys = MakeSystem(db.get(), std::move(txns));
  auto report = CheckDeadlockFreedom(sys);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->deadlock_free);
}

TEST(DeadlockCheckerTest, ReductionGraphModeAgreesOnClassicPair) {
  auto db = MakeDb({{"s1", {"x"}}, {"s2", {"y"}}});
  TransactionSystem sys = ClassicDeadlockPair(db.get());
  DeadlockCheckOptions opts;
  opts.mode = DeadlockDetectionMode::kReductionGraph;
  auto report = CheckDeadlockFreedom(sys, opts);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->deadlock_free);
  ASSERT_TRUE(report->witness.has_value());
  EXPECT_FALSE(report->witness->reduction_cycle.empty());
}

TEST(DeadlockCheckerTest, ReductionGraphModeDetectsDoomEarlier) {
  auto db = MakeDb({{"s1", {"x"}}, {"s2", {"y"}}});
  TransactionSystem sys = ClassicDeadlockPair(db.get());
  DeadlockCheckOptions stuck, reduction;
  stuck.mode = DeadlockDetectionMode::kStuckState;
  reduction.mode = DeadlockDetectionMode::kReductionGraph;
  auto a = CheckDeadlockFreedom(sys, stuck);
  auto b = CheckDeadlockFreedom(sys, reduction);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Both find the deadlock; the reduction-graph witness is no longer than
  // the stuck-state witness (it flags the doomed prefix at or before the
  // moment everything wedges).
  EXPECT_LE(b->witness->schedule.size(), a->witness->schedule.size());
}

TEST(DeadlockCheckerTest, ThreeRingDeadlocks) {
  auto ring = GenerateRingSystem(3);
  ASSERT_TRUE(ring.ok());
  auto report = CheckDeadlockFreedom(*ring->system);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->deadlock_free);
}

TEST(DeadlockCheckerTest, BudgetIsReported) {
  auto db = MakeDb({{"s1", {"x"}}, {"s2", {"y"}}});
  TransactionSystem sys = ClassicDeadlockPair(db.get());
  DeadlockCheckOptions opts;
  opts.max_states = 1;
  auto report = CheckDeadlockFreedom(sys, opts);
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
}

TEST(DeadlockCheckerTest, IsDeadlockPrefixOnClassicPair) {
  auto db = MakeDb({{"s1", {"x"}}, {"s2", {"y"}}});
  TransactionSystem sys = ClassicDeadlockPair(db.get());
  // T1 holds x, T2 holds y: reachable and doomed.
  auto p = PrefixSet::FromNodeSets(&sys, {{0}, {0}});
  ASSERT_TRUE(p.ok());
  auto verdict = IsDeadlockPrefix(sys, *p);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(*verdict);

  // The empty prefix is never a deadlock prefix.
  PrefixSet empty(&sys);
  auto nope = IsDeadlockPrefix(sys, empty);
  ASSERT_TRUE(nope.ok());
  EXPECT_FALSE(*nope);
}

TEST(DeadlockCheckerTest, CyclicReductionGraphOfUnreachablePrefix) {
  // A prefix whose reduction graph is cyclic but which has NO schedule is
  // not a deadlock prefix (condition (1) of the definition).
  auto db = MakeDb({{"s1", {"x"}}, {"s2", {"y"}}});
  std::vector<Transaction> txns;
  txns.push_back(MakeSeq(db.get(), "T1", {"Lx", "Ly", "Ux", "Uy"}));
  txns.push_back(MakeSeq(db.get(), "T2", {"Lx", "Ly", "Ux", "Uy"}));
  TransactionSystem sys = MakeSystem(db.get(), std::move(txns));
  // Both prefixes = {Lx}: impossible (both would hold x).
  auto p = PrefixSet::FromNodeSets(&sys, {{0}, {0}});
  ASSERT_TRUE(p.ok());
  auto verdict = IsDeadlockPrefix(sys, *p);
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(*verdict);
}

// Property: the two detection modes decide the same predicate (Theorem 1).
TEST(DeadlockCheckerProperty, ModesAgreeOnRandomSystems) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    RandomSystemOptions opts;
    opts.num_sites = 2;
    opts.entities_per_site = 2;
    opts.num_transactions = 2 + static_cast<int>(seed % 2);
    opts.entities_per_txn = 2;
    opts.seed = seed;
    auto sys = GenerateRandomSystem(opts);
    ASSERT_TRUE(sys.ok());
    DeadlockCheckOptions stuck, reduction;
    stuck.mode = DeadlockDetectionMode::kStuckState;
    reduction.mode = DeadlockDetectionMode::kReductionGraph;
    auto a = CheckDeadlockFreedom(*sys->system, stuck);
    auto b = CheckDeadlockFreedom(*sys->system, reduction);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->deadlock_free, b->deadlock_free) << "seed " << seed;
  }
}

// Property: memoization changes cost, not the verdict.
TEST(DeadlockCheckerProperty, MemoizationDoesNotChangeVerdict) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    RandomSystemOptions opts;
    opts.num_transactions = 2;
    opts.entities_per_txn = 2;
    opts.seed = seed;
    auto sys = GenerateRandomSystem(opts);
    ASSERT_TRUE(sys.ok());
    DeadlockCheckOptions memo, nomemo;
    nomemo.memoize = false;
    nomemo.max_states = 2'000'000;
    auto a = CheckDeadlockFreedom(*sys->system, memo);
    auto b = CheckDeadlockFreedom(*sys->system, nomemo);
    ASSERT_TRUE(a.ok());
    if (b.ok()) {
      EXPECT_EQ(a->deadlock_free, b->deadlock_free) << "seed " << seed;
      EXPECT_GE(b->states_visited, a->states_visited);
    }
  }
}

// Property: every witness schedule is legal and genuinely stuck.
TEST(DeadlockCheckerProperty, WitnessesAreRealDeadlocks) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    RandomSystemOptions opts;
    opts.num_transactions = 3;
    opts.entities_per_txn = 2;
    opts.seed = seed;
    auto sys = GenerateRandomSystem(opts);
    ASSERT_TRUE(sys.ok());
    auto report = CheckDeadlockFreedom(*sys->system);
    ASSERT_TRUE(report.ok());
    if (report->deadlock_free) continue;
    const Schedule& w = report->witness->schedule;
    ASSERT_TRUE(ValidateSchedule(*sys->system, w, false).ok())
        << "seed " << seed;
    // Stuck: no completion exists from the witness prefix.
    auto completion = TryComplete(*sys->system, w);
    ASSERT_TRUE(completion.ok());
    EXPECT_FALSE(completion->has_value()) << "seed " << seed;
  }
}


// ---------------------------------------------------------------------
// Per-request deadlines: both detection modes share the search
// skeleton's one deadline path with the safety checker.

constexpr SearchEngine kAllEngines[] = {
    SearchEngine::kNaiveReference, SearchEngine::kIncremental,
    SearchEngine::kParallelSharded, SearchEngine::kReduced};
constexpr DeadlockDetectionMode kBothModes[] = {
    DeadlockDetectionMode::kStuckState,
    DeadlockDetectionMode::kReductionGraph};

TEST(DeadlockCheckerTest, ExpiredDeadlineIsResourceExhausted) {
  auto db = MakeDb({{"s1", {"x"}}, {"s2", {"y"}}});
  TransactionSystem sys = ClassicDeadlockPair(db.get());
  for (SearchEngine engine : kAllEngines) {
    for (DeadlockDetectionMode mode : kBothModes) {
      DeadlockCheckOptions opts;
      opts.engine = engine;
      opts.mode = mode;
      opts.deadline =
          std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
      auto report = CheckDeadlockFreedom(sys, opts);
      ASSERT_FALSE(report.ok());
      EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
      EXPECT_NE(report.status().message().find("deadline"),
                std::string::npos)
          << report.status().ToString();
    }
  }
}

TEST(DeadlockCheckerTest, GenerousDeadlineDoesNotChangeTheVerdict) {
  auto db = MakeDb({{"s1", {"x"}}, {"s2", {"y"}}});
  TransactionSystem sys = ClassicDeadlockPair(db.get());
  for (SearchEngine engine : kAllEngines) {
    for (DeadlockDetectionMode mode : kBothModes) {
      DeadlockCheckOptions opts;
      opts.engine = engine;
      opts.mode = mode;
      auto without = CheckDeadlockFreedom(sys, opts);
      opts.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
      auto with = CheckDeadlockFreedom(sys, opts);
      ASSERT_TRUE(with.ok());
      ASSERT_TRUE(without.ok());
      EXPECT_EQ(with->deadlock_free, without->deadlock_free);
      EXPECT_EQ(with->states_visited, without->states_visited);
      // The poll counter is the evidence the budget was live.
      EXPECT_GT(with->deadline_polls, 0u);
      EXPECT_EQ(without->deadline_polls, 0u);
    }
  }
}

/// On a deadlock-free state space far too large to exhaust, the parallel
/// engine must answer ResourceExhausted within 2x the wall-clock budget:
/// workers poll within a level, so one long level cannot outrun it.
TEST(DeadlockCheckerTest, ParallelEngineAnswersWithinTwiceTheBudget) {
  // Twelve transactions on disjoint entities: no witness to stop at, and
  // 5^12 reachable states.
  auto grid = GenerateDisjointGridSystem(12, 2);
  ASSERT_TRUE(grid.ok());
  DeadlockCheckOptions opts;
  opts.engine = SearchEngine::kParallelSharded;
  // The costlier per-state predicate keeps the half-second's store small.
  opts.mode = DeadlockDetectionMode::kReductionGraph;
  opts.max_states = 0;  // The deadline is the only bound.
  const auto budget = std::chrono::milliseconds(500);
  const auto start = std::chrono::steady_clock::now();
  opts.deadline = start + budget;
  auto report = CheckDeadlockFreedom(*grid->system, opts);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(report.status().message().find("deadline"), std::string::npos);
  EXPECT_LT(elapsed, 2 * budget)
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
             .count()
      << " ms";
}

}  // namespace
}  // namespace wydb
