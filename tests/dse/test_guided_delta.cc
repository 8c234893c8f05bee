/**
 * @file
 * Delta re-evaluation in the guided searches must be invisible in
 * every output and visible only in cost accounting: every point that
 * annealing / genetic / coordinate-descent visit through their
 * per-run DeltaSession, and every frontier, bestPerHw and candidate
 * report, is byte-identical to a session-less replay of the same
 * point through a fresh engine; the replay's hit/prune/evaluation
 * split matches the search's; and EvalStats always satisfies
 * deltaEvals + fullEvals == evaluations.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "dse/pareto_engine.hh"
#include "dse/search_strategy.hh"
#include "engine/eval_engine.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"

namespace madmax
{

namespace
{

/**
 * A two-point joint space over DLRM-A with timeline retention off —
 * the configuration under which the incremental splice path actually
 * engages (keepTimeline models always fall back to full builds).
 */
struct DeltaFixture
{
    ModelDesc desc = model_zoo::dlrmA();
    TaskSpec task = TaskSpec::preTraining();
    PerfModelOptions opts;
    PerfModel small;
    PerfModel large;
    SearchSpace space;

    static PerfModelOptions noTimeline()
    {
        PerfModelOptions o;
        o.keepTimeline = false;
        return o;
    }

    DeltaFixture()
        : opts(noTimeline()),
          small(hw_zoo::dlrmTrainingSystem().withNumNodes(8), opts),
          large(hw_zoo::dlrmTrainingSystem(), opts)
    {
        space = makeSearchSpace({&small, &large}, desc, task);
    }
};

/** Byte-exact fingerprint of one visited candidate. */
std::string
candidateKey(size_t hwIndex, const ParallelPlan &plan,
             const PerfReport &report)
{
    std::string key = std::to_string(hwIndex) + '|' + plan.toString() +
                      (plan.fsdpPrefetch ? "+p" : "-p") + '|';
    key += std::to_string(report.valid) + '|';
    // Hex-exact doubles: any drift in the evaluation path shows here.
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a|%a|%a", report.iterationTime,
                  report.exposedCommTime, report.memory.total());
    return key + buf;
}

std::vector<std::string>
outcomeTrace(const SearchOutcome &outcome)
{
    std::vector<std::string> trace;
    trace.reserve(outcome.evaluated.size());
    for (const SearchCandidate &c : outcome.evaluated)
        trace.push_back(candidateKey(c.hwIndex, c.plan, c.report));
    return trace;
}

std::vector<std::string>
paretoTrace(const std::vector<ParetoCandidate> &candidates)
{
    std::vector<std::string> trace;
    trace.reserve(candidates.size());
    for (const ParetoCandidate &c : candidates)
        trace.push_back(candidateKey(c.hwIndex, c.plan, c.report));
    return trace;
}

/**
 * The session-less reference: re-evaluate @p visits (hardware index,
 * plan) in visit order as one evaluateAll batch through a fresh
 * engine with no DeltaSession, fingerprinted like the traces above.
 * Revisits collapse onto their first evaluation, exactly as they hit
 * the search engine's memo, so @p stats mirrors the search's split.
 */
std::vector<std::string>
replayTrace(const std::vector<const PerfModel *> &models,
            const ModelDesc &desc, const TaskSpec &task,
            const std::vector<std::pair<size_t, ParallelPlan>> &visits,
            EvalStats *stats = nullptr)
{
    std::vector<PlanRequest> points;
    for (const auto &[hwIndex, plan] : visits)
        points.push_back(PlanRequest{models.at(hwIndex), &desc, &task,
                                     plan});
    EvalEngine fresh;
    std::vector<PerfReport> reports = fresh.evaluateAll(points, stats);
    std::vector<std::string> trace;
    for (size_t i = 0; i < visits.size(); ++i)
        trace.push_back(
            candidateKey(visits[i].first, visits[i].second, reports[i]));
    return trace;
}

template <typename Candidate>
std::vector<std::pair<size_t, ParallelPlan>>
visitsOf(const std::vector<Candidate> &candidates)
{
    std::vector<std::pair<size_t, ParallelPlan>> visits;
    for (const Candidate &c : candidates)
        visits.emplace_back(c.hwIndex, c.plan);
    return visits;
}

void
expectDeltaSplitInvariant(const EvalStats &stats, bool deltaOn)
{
    EXPECT_EQ(stats.deltaEvals + stats.fullEvals, stats.evaluations);
    if (deltaOn)
        EXPECT_GT(stats.deltaEvals, 0);
    else
        EXPECT_EQ(stats.deltaEvals, 0);
}

} // namespace

TEST(GuidedDelta, SearchOutcomesIdenticalWithDeltaOnAndOff)
{
    DeltaFixture cfg;
    for (const std::string &name :
         {std::string("coordinate-descent"), std::string("annealing"),
          std::string("genetic")}) {
        std::unique_ptr<SearchStrategy> strategy =
            makeSearchStrategy(name);

        SearchOptions options;
        options.maxEvaluations = 60;

        EvalEngine engine;
        const SearchOutcome a = strategy->run(cfg.space, engine, options);

        EvalStats replay;
        EXPECT_EQ(outcomeTrace(a),
                  replayTrace(cfg.space.models, cfg.desc, cfg.task,
                              visitsOf(a.evaluated), &replay))
            << name;
        EXPECT_EQ(a.stats.evaluations, replay.evaluations) << name;
        EXPECT_EQ(a.stats.cacheHits, replay.cacheHits) << name;
        EXPECT_EQ(a.stats.pruned, replay.pruned) << name;
        expectDeltaSplitInvariant(a.stats, /*deltaOn=*/true);
        expectDeltaSplitInvariant(replay, /*deltaOn=*/false);
    }
}

TEST(GuidedDelta, ExhaustiveIgnoresDeltaSessions)
{
    DeltaFixture cfg;
    std::unique_ptr<SearchStrategy> strategy =
        makeSearchStrategy("exhaustive");
    EvalEngine engine;
    const SearchOutcome outcome = strategy->run(cfg.space, engine, {});
    // The one wide batch stays on the engine pool: no delta split.
    EXPECT_EQ(outcome.stats.deltaEvals, 0);
    EXPECT_EQ(outcome.stats.fullEvals, outcome.stats.evaluations);
}

TEST(GuidedDelta, ParetoFrontiersIdenticalWithDeltaOnAndOff)
{
    std::vector<HardwarePoint> hw = nodeCountSweep(
        hw_zoo::dlrmTrainingSystem(), {8, 16});
    ModelDesc desc = model_zoo::dlrmA();
    TaskSpec task = TaskSpec::preTraining();

    // The same models the ParetoEngine prices with: timelines off.
    PerfModelOptions opts;
    opts.keepTimeline = false;
    std::vector<PerfModel> perf;
    for (const HardwarePoint &point : hw)
        perf.emplace_back(point.cluster, opts);
    std::vector<const PerfModel *> models;
    for (const PerfModel &m : perf)
        models.push_back(&m);

    for (const std::string &name :
         {std::string("annealing"), std::string("genetic")}) {
        ParetoOptions options;
        options.strategy = name;
        options.search.maxEvaluations = 60;

        ParetoEngine engine(hw);
        const ParetoFrontier a = engine.explore(desc, task, options);

        EXPECT_EQ(paretoTrace(a.points),
                  replayTrace(models, desc, task, visitsOf(a.points)))
            << name;
        EXPECT_EQ(paretoTrace(a.bestPerHw),
                  replayTrace(models, desc, task, visitsOf(a.bestPerHw)))
            << name;
        EvalStats replay;
        EXPECT_EQ(paretoTrace(a.candidates),
                  replayTrace(models, desc, task,
                              visitsOf(a.candidates), &replay))
            << name;
        EXPECT_EQ(a.stats.evaluations, replay.evaluations) << name;
        EXPECT_EQ(a.stats.pruned, replay.pruned) << name;
        expectDeltaSplitInvariant(a.stats, /*deltaOn=*/true);
        expectDeltaSplitInvariant(replay, /*deltaOn=*/false);
    }
}

} // namespace madmax
