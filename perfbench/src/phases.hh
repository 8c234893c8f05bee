/**
 * @file
 * The benchmark's three phases. Every run interleaves its search phase
 * (exhaustive or guided) with slices of the serve phase; the workload
 * picks the search phase and how the time is shared (see
 * perfbench/README.md, "Phases and workloads").
 */

#ifndef PERFBENCH_PHASES_HH
#define PERFBENCH_PHASES_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "dse/pareto_engine.hh"

namespace perfbench
{

/** Command-line settings of one run. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Self-test fault: "corrupt" (flip a byte of some serve
     *  responses) or "dominated" (append a dominated point to every
     *  frontier before it is checked). Empty in real runs. */
    std::string inject;
};

/** One item of the fixed Pareto suite: model x task x catalog. */
struct SuiteItem
{
    std::string label;
    madmax::ModelDesc desc;
    madmax::TaskSpec task;
    std::vector<madmax::HardwarePoint> hardware;

    /** Reference models (one per hardware point) with the options the
     *  ParetoEngine uses, for the bitwise re-evaluation check and the
     *  traced core replay. */
    std::vector<madmax::PerfModel> reference;
};

/** The 24-item suite: 6 models x {pre-training, inference} x
 *  {cloud catalog, LLM-system node sweep}. */
std::vector<SuiteItem> buildSuite();

/** Per-item best throughput of the exhaustive search (0 when nothing
 *  fits), computed untimed. */
std::vector<double> exhaustiveBests(const std::vector<SuiteItem> &suite);

/** Which search the pareto phase runs. */
enum class SearchKind
{
    Exhaustive, ///< jobs 2, one wide batch per search.
    Guided,     ///< annealing + genetic, serial, DeltaSession path.
};

/**
 * A closed-loop pareto phase, run one full pass over the suite at a
 * time. Each search is timed on its own; its output checks (and, in
 * traced runs, the replay of its visited points through the engine
 * and core layers) run outside the timed region.
 */
class ParetoPhase
{
  public:
    /** @p warmer, when given, is alive during every pass; its CPU
     *  time is left out of engine.cpu_per_wall. */
    ParetoPhase(SearchKind kind, const std::vector<SuiteItem> &suite,
                const std::vector<double> &bests, const RunConfig &cfg,
                const CpuWarmer *warmer = nullptr);
    ~ParetoPhase();

    ParetoPhase(const ParetoPhase &) = delete;
    ParetoPhase &operator=(const ParetoPhase &) = delete;

    /** Run one pass; one tally entry per search. Returns the pass's
     *  timed seconds. */
    double pass(Tally &tally);

    size_t searches() const;

    /** searches_per_s and search_ms.* into @p e2e; engine, dse and
     *  core layer metrics into @p layer. */
    void finish(MetricSink &e2e, MetricSink &layer) const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * best_gap_pct, untimed: the mean shortfall (%) of the guided best
 * throughput against the exhaustive best, over annealing and genetic
 * searches of every suite item where the exhaustive search found a
 * valid plan, each run with a fixed panel of search seeds.
 */
double bestGapPct(const std::vector<SuiteItem> &suite,
                  const std::vector<double> &bests);

/**
 * The open-loop serve phase: the in-process service stack, its
 * pre-warmed hot set and the generator's connections. Construction
 * (including a short warm-up) is part of set-up; the phase then runs
 * as slices interleaved with the search passes.
 */
class ServePhase
{
  public:
    ServePhase(const RunConfig &cfg);
    ~ServePhase();

    ServePhase(const ServePhase &) = delete;
    ServePhase &operator=(const ServePhase &) = delete;

    /** Drive @p loSeconds at 500 req/s, then @p hiSeconds at
     *  2000 req/s, and wait for every response. */
    void slice(double loSeconds, double hiSeconds);

    /** Check every response (one tally entry per request) and report
     *  the serve metrics. */
    void finish(Tally &tally, MetricSink &e2e, MetricSink &layer);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace perfbench

#endif // PERFBENCH_PHASES_HH
