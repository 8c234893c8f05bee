/**
 * @file
 * SearchStrategy contract tests: registry round-trips, exhaustive
 * parity with explore(), canonical enumeration order, hard evaluation
 * budgets, seeded determinism, and warm-start behavior — everything
 * the ParetoEngine and StrategyExplorer::best() rely on.
 */

#include <gtest/gtest.h>

#include "core/strategy_explorer.hh"
#include "dse/search_strategy.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/logging.hh"

namespace madmax
{

namespace
{

/** A two-point joint space (ZionEX at 8 and 16 nodes) over DLRM-A. */
struct JointFixture
{
    ModelDesc desc = model_zoo::dlrmA();
    TaskSpec task = TaskSpec::preTraining();
    PerfModel small;
    PerfModel large;
    SearchSpace space;

    JointFixture()
        : small(hw_zoo::dlrmTrainingSystem().withNumNodes(8)),
          large(hw_zoo::dlrmTrainingSystem())
    {
        space = makeSearchSpace({&small, &large}, desc, task);
    }
};

/** Visit-order fingerprint: (hwIndex, plan, prefetch) per candidate. */
std::vector<std::string>
visitTrace(const SearchOutcome &outcome)
{
    std::vector<std::string> trace;
    trace.reserve(outcome.evaluated.size());
    for (const SearchCandidate &c : outcome.evaluated) {
        trace.push_back(std::to_string(c.hwIndex) + '|' +
                        c.plan.toString() +
                        (c.plan.fsdpPrefetch ? "+p" : "-p"));
    }
    return trace;
}

} // namespace

TEST(SearchStrategyRegistry, NamesRoundTripThroughFactory)
{
    ASSERT_EQ(searchStrategyNames().size(), 4u);
    for (const std::string &name : searchStrategyNames()) {
        std::unique_ptr<SearchStrategy> strategy =
            makeSearchStrategy(name);
        ASSERT_NE(strategy, nullptr);
        EXPECT_EQ(strategy->name(), name);
    }
}

TEST(SearchStrategyRegistry, UnknownNameThrowsWithKnownList)
{
    try {
        makeSearchStrategy("gradient-descent");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("exhaustive"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("genetic"),
                  std::string::npos);
    }
}

TEST(SearchSpaceTest, MakeSearchSpaceFindsPresentClasses)
{
    PerfModel model(hw_zoo::llmTrainingSystem());
    ModelDesc gpt3 = model_zoo::gpt3();
    TaskSpec task = TaskSpec::preTraining();
    SearchSpace space = makeSearchSpace({&model}, gpt3, task);
    ASSERT_EQ(space.models.size(), 1u);
    ASSERT_EQ(space.classes.size(), space.candidates.size());
    size_t product = 1;
    for (const auto &cands : space.candidates)
        product *= cands.size();
    EXPECT_EQ(space.planCount(), product);
    EXPECT_EQ(space.size(), product);
}

TEST(SearchSpaceTest, ValidateRejectsBrokenSpaces)
{
    SearchSpace empty;
    EXPECT_THROW(empty.validate(), ConfigError);

    JointFixture fx;
    SearchSpace bad = fx.space;
    bad.candidates.pop_back();
    EXPECT_THROW(bad.validate(), ConfigError);
}

TEST(EnumeratePlans, CanonicalOrderAndPrefetchVariants)
{
    JointFixture fx;
    std::vector<ParallelPlan> plans = enumeratePlans(fx.space);
    ASSERT_EQ(plans.size(), fx.space.planCount());
    // First plan: every class at its first candidate, prefetch on.
    for (size_t ci = 0; ci < fx.space.classes.size(); ++ci) {
        EXPECT_EQ(plans[0].strategyFor(fx.space.classes[ci]),
                  fx.space.candidates[ci][0]);
    }
    EXPECT_TRUE(plans[0].fsdpPrefetch);

    SearchSpace withPrefetch = fx.space;
    withPrefetch.explorePrefetch = true;
    std::vector<ParallelPlan> expanded = enumeratePlans(withPrefetch);
    EXPECT_GT(expanded.size(), plans.size());
    // The appended variants are prefetch-off copies of FSDP plans.
    for (size_t i = plans.size(); i < expanded.size(); ++i)
        EXPECT_FALSE(expanded[i].fsdpPrefetch);
}

TEST(ExhaustiveSearch, MatchesExploreReportsAndStats)
{
    JointFixture fx;
    SearchSpace single = makeSearchSpace({&fx.large}, fx.desc, fx.task);

    EvalEngine engineA;
    SearchOutcome outcome = makeSearchStrategy("exhaustive")
                                ->run(single, engineA);

    EvalEngine engineB;
    StrategyExplorer explorer(fx.large, &engineB);
    Exploration exploration = explorer.explore(fx.desc, fx.task);

    ASSERT_EQ(outcome.evaluated.size(), exploration.results.size());
    EXPECT_EQ(outcome.stats.evaluations, exploration.stats.evaluations);
    EXPECT_EQ(outcome.stats.pruned, exploration.stats.pruned);
    EXPECT_EQ(outcome.stats.cacheHits, exploration.stats.cacheHits);

    // Same best point, bitwise.
    const SearchCandidate *best = bestCandidate(outcome);
    ASSERT_NE(best, nullptr);
    EXPECT_EQ(best->report.throughput(),
              exploration.results[0].report.throughput());
    EXPECT_EQ(best->plan.toString(),
              exploration.results[0].plan.toString());
}

TEST(ExhaustiveSearch, CoversTheFullJointSpace)
{
    JointFixture fx;
    EvalEngine engine;
    SearchOutcome outcome =
        makeSearchStrategy("exhaustive")->run(fx.space, engine);
    EXPECT_EQ(outcome.evaluated.size(), fx.space.size());
    // Hardware-major order: the first planCount() visits are hw 0.
    for (size_t i = 0; i < fx.space.planCount(); ++i)
        EXPECT_EQ(outcome.evaluated[i].hwIndex, 0u);
    EXPECT_EQ(outcome.evaluated.back().hwIndex, 1u);
}

TEST(GuidedSearch, BudgetIsAHardCeiling)
{
    JointFixture fx;
    for (const char *name : {"annealing", "genetic",
                             "coordinate-descent"}) {
        EvalEngine engine;
        SearchOptions opts;
        opts.maxEvaluations = 7;
        SearchOutcome outcome =
            makeSearchStrategy(name)->run(fx.space, engine, opts);
        EXPECT_LE(outcome.stats.evaluations, 7) << name;
    }
}

TEST(GuidedSearch, NegativeBudgetEvaluatesNothing)
{
    JointFixture fx;
    for (const char *name : {"annealing", "genetic"}) {
        EvalEngine engine;
        SearchOptions opts;
        opts.maxEvaluations = -1;
        SearchOutcome outcome =
            makeSearchStrategy(name)->run(fx.space, engine, opts);
        EXPECT_EQ(outcome.stats.evaluations, 0) << name;
        EXPECT_TRUE(outcome.evaluated.empty()) << name;
    }
}

TEST(GuidedSearch, SameSeedSameOutcome)
{
    JointFixture fx;
    for (const char *name : {"annealing", "genetic"}) {
        SearchOptions opts;
        opts.seed = 42;
        EvalEngine engineA, engineB;
        SearchOutcome a =
            makeSearchStrategy(name)->run(fx.space, engineA, opts);
        SearchOutcome b =
            makeSearchStrategy(name)->run(fx.space, engineB, opts);
        EXPECT_EQ(visitTrace(a), visitTrace(b)) << name;
        EXPECT_EQ(a.stats.evaluations, b.stats.evaluations) << name;
    }
}

TEST(GuidedSearch, WarmStartPinsTheSeedHardwarePoint)
{
    JointFixture fx;

    // Pretend hardware point 0 (the small system) won the baseline
    // sweep; the guided searches must start there instead of on the
    // capability-ranked larger one. (A synthetic report suffices —
    // strategies only read hwIndex, validity, and throughput.)
    SearchSpace warm = fx.space;
    PerfReport seeded;
    seeded.valid = true;
    seeded.globalBatchSize = 1000;
    seeded.iterationTime = 1.0;
    warm.warmStart.push_back(
        SearchCandidate{0, ParallelPlan::fsdpBaseline(), seeded});

    for (const char *name : {"annealing", "genetic",
                             "coordinate-descent"}) {
        EvalEngine engine;
        SearchOutcome outcome =
            makeSearchStrategy(name)->run(warm, engine);
        ASSERT_FALSE(outcome.evaluated.empty()) << name;
        EXPECT_EQ(outcome.evaluated[0].hwIndex, 0u) << name;
    }
}

TEST(GuidedSearch, FindsTheJointOptimumOnThisSpace)
{
    // Both budgeted searches reach the exhaustive optimum of the
    // two-point joint space (deterministic seeds; the space is small
    // enough that anything less indicates a search bug).
    JointFixture fx;
    EvalEngine exhaustiveEngine;
    SearchOutcome exhaustive = makeSearchStrategy("exhaustive")
                                   ->run(fx.space, exhaustiveEngine);
    const SearchCandidate *best = bestCandidate(exhaustive);
    ASSERT_NE(best, nullptr);

    for (const char *name : {"coordinate-descent", "annealing",
                             "genetic"}) {
        EvalEngine engine;
        SearchOutcome outcome =
            makeSearchStrategy(name)->run(fx.space, engine);
        const SearchCandidate *found = bestCandidate(outcome);
        ASSERT_NE(found, nullptr) << name;
        EXPECT_GE(found->report.throughput(),
                  0.95 * best->report.throughput())
            << name;
        // <= rather than <: this joint space is so heavily OOM-pruned
        // that exhaustive itself needs only a handful of evaluations.
        EXPECT_LE(outcome.stats.evaluations,
                  exhaustive.stats.evaluations)
            << name;
    }
}

TEST(BestCandidateTest, FirstWinsTiesAndInvalidLoses)
{
    SearchOutcome outcome;
    SearchCandidate a;
    a.hwIndex = 0;
    a.report.valid = false;
    outcome.evaluated.push_back(a);
    EXPECT_EQ(bestCandidate(outcome), nullptr);

    SearchCandidate b;
    b.hwIndex = 1;
    b.report.valid = true;
    b.report.iterationTime = 1.0;
    b.report.globalBatchSize = 100;
    outcome.evaluated.push_back(b);
    SearchCandidate c = b;
    c.hwIndex = 2;
    outcome.evaluated.push_back(c);
    const SearchCandidate *best = bestCandidate(outcome);
    ASSERT_NE(best, nullptr);
    EXPECT_EQ(best->hwIndex, 1u); // Equal throughput: first wins.
}

} // namespace madmax
