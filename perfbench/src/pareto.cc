/**
 * @file
 * The pareto phases: the fixed 24-item suite run through exhaustive
 * or guided ParetoEngine::explore calls in a closed loop, the output
 * checks on every frontier, and (traced runs) the replay of each
 * search's visited points through the engine and core layers.
 */

#include <sys/resource.h>

#include <algorithm>
#include <random>

#include "core/eval_context.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "phases.hh"

using namespace madmax;

namespace perfbench
{

namespace
{

const char *const kGuided[] = {"annealing", "genetic"};

/**
 * Search seeds behind best_gap_pct. Guided misses are rare and large
 * (one seed's gap over the suite ranged 0-1.7% across workload seeds
 * 1-20, and was 0 on three of them), so the gap is scored on a fixed
 * panel of seeds: the same program always gets the same score, and a
 * change to the search logic moves it.
 */
constexpr uint64_t kGapPanelSeeds = 8;

/** Process CPU seconds, less what @p warmer's spinners used. */
double
cpuSeconds(const CpuWarmer *warmer)
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
           (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6 -
           (warmer ? warmer->cpuSeconds() : 0.0);
}

/** Time @p f as span @p name, adding microseconds to @p s. */
template <class F>
auto
spanned(const char *name, Samples *s, F &&f)
{
    Tracer::Scope scope(name);
    int64_t t0 = nowNs();
    auto r = f();
    if (s)
        s->add((nowNs() - t0) / 1e3);
    return r;
}

/** a dominates b: no worse on every objective, better on one. */
bool
dominates(const ParetoObjectives &a, const ParetoObjectives &b)
{
    bool geq = a.throughput >= b.throughput &&
               a.perfPerTco >= b.perfPerTco &&
               a.memHeadroomBytes >= b.memHeadroomBytes;
    bool gt = a.throughput > b.throughput ||
              a.perfPerTco > b.perfPerTco ||
              a.memHeadroomBytes > b.memHeadroomBytes;
    return geq && gt;
}

/**
 * The output checks of one search. Returns an empty string when the
 * frontier passes, else the first reason it fails.
 */
std::string
checkFrontier(const ParetoFrontier &f, const SuiteItem &item,
              double exhaustive_best, bool guided, bool reevaluate)
{
    for (size_t i = 0; i < f.points.size(); ++i) {
        if (!f.points[i].report.valid)
            return "frontier point " + std::to_string(i) + " is invalid";
        for (size_t j = 0; j < f.points.size(); ++j) {
            if (i != j && dominates(f.points[i].objectives,
                                    f.points[j].objectives))
                return "frontier point " + std::to_string(j) +
                       " is dominated";
        }
    }
    if (guided && !f.points.empty() &&
        f.points.front().objectives.throughput > exhaustive_best)
        return "guided best exceeds the exhaustive best";
    if (reevaluate) {
        for (const ParetoCandidate &p : f.points) {
            PerfReport ref = item.reference[p.hwIndex].evaluate(
                item.desc, item.task, p.plan);
            if (ref.iterationTime != p.report.iterationTime ||
                ref.serializedTime != p.report.serializedTime ||
                toJson(ref).dump() != toJson(p.report).dump())
                return "frontier point differs from PerfModel::evaluate";
        }
    }
    return {};
}

/** Guided-search seed for (seed, suite item, strategy). */
uint64_t
guidedSeed(uint64_t seed, size_t item, int strategy)
{
    std::seed_seq seq{static_cast<uint32_t>(seed),
                      static_cast<uint32_t>(seed >> 32),
                      static_cast<uint32_t>(item),
                      static_cast<uint32_t>(strategy)};
    uint32_t out[2];
    seq.generate(out, out + 2);
    return (static_cast<uint64_t>(out[0]) << 32) | out[1];
}

/** Per-layer samples of the traced replay. */
struct Replay
{
    Samples contextUs, verdictUs, evalUs, deltaUs, batchMs, dseSelfMs;
    double batchSerialNs = 0; ///< Serial evaluateAll replay time.
    double coreNs = 0;        ///< Sum of the core calls it replays.
};

/**
 * Replay the points @p f visited: once through an engine configured
 * like the search's (batch_ms, dse self time), and once directly
 * through EvalContext (core call times). For exhaustive searches also
 * once through a serial engine, whose time minus the core calls'
 * is the engine's own time.
 */
void
replay(const ParetoFrontier &f, const SuiteItem &item, SearchKind kind,
       double explore_ns, Replay &out)
{
    std::vector<PlanRequest> reqs;
    reqs.reserve(f.candidates.size());
    for (const ParetoCandidate &c : f.candidates)
        reqs.push_back(PlanRequest{&item.reference[c.hwIndex], &item.desc,
                                   &item.task, c.plan});

    EvalEngineOptions eopts;
    eopts.jobs = kind == SearchKind::Exhaustive ? 2 : 1;
    EvalEngine engine(eopts);
    DeltaSession session;
    int64_t t0 = nowNs();
    {
        Tracer::Scope scope("engine.evaluateAll");
        engine.evaluateAll(reqs, nullptr,
                           kind == SearchKind::Guided ? &session : nullptr);
    }
    double batch_ns = static_cast<double>(nowNs() - t0);
    out.batchMs.add(batch_ns / 1e6);
    out.dseSelfMs.add((explore_ns - batch_ns) / 1e6);

    // Direct core replay, one context per hardware point in use.
    double core_ns = 0;
    std::vector<std::unique_ptr<EvalContext>> ctx(item.reference.size());
    std::vector<EvalContext::DeltaState> state(item.reference.size());
    for (const ParetoCandidate &c : f.candidates) {
        int64_t c0 = nowNs();
        if (!ctx[c.hwIndex]) {
            ctx[c.hwIndex] = spanned("core.context", &out.contextUs, [&] {
                return std::make_unique<EvalContext>(
                    item.reference[c.hwIndex], item.desc, item.task);
            });
        }
        const EvalContext &cx = *ctx[c.hwIndex];
        PerfReport v = spanned("core.verdict", &out.verdictUs,
                               [&] { return cx.verdict(c.plan); });
        if (v.valid) {
            if (kind == SearchKind::Exhaustive) {
                spanned("core.eval", &out.evalUs,
                        [&] { return cx.evaluate(c.plan); });
            } else {
                spanned("core.delta", &out.deltaUs, [&] {
                    return cx.evaluateDelta(state[c.hwIndex], c.plan);
                });
            }
        }
        core_ns += static_cast<double>(nowNs() - c0);
    }

    if (kind == SearchKind::Exhaustive) {
        EvalEngine serial(EvalEngineOptions{});
        int64_t s0 = nowNs();
        {
            Tracer::Scope scope("engine.evaluateAll");
            serial.evaluateAll(reqs);
        }
        out.batchSerialNs += static_cast<double>(nowNs() - s0);
        out.coreNs += core_ns;
    }
}

} // namespace

std::vector<SuiteItem>
buildSuite()
{
    const std::pair<const char *, ModelDesc (*)()> models[] = {
        {"DLRM-A", model_zoo::dlrmA},
        {"DLRM-A-Transformer", model_zoo::dlrmATransformer},
        {"DLRM-A-MoE", model_zoo::dlrmAMoe},
        {"GPT-3", model_zoo::gpt3},
        {"LLaMA2-70B", model_zoo::llama2_70b},
        {"LLM-MoE", model_zoo::llmMoe},
    };
    const std::pair<const char *, TaskSpec> tasks[] = {
        {"pre-training", TaskSpec::preTraining()},
        {"inference", TaskSpec::inference()},
    };
    const std::pair<const char *, std::vector<HardwarePoint>> catalogs[] = {
        {"cloud16", cloudHardwareCatalog(16)},
        {"llm-nodes", nodeCountSweep(hw_zoo::llmTrainingSystem(),
                                     {8, 16, 32, 64})},
    };

    PerfModelOptions opts;
    opts.keepTimeline = false; // as ParetoEngine builds its models
    std::vector<SuiteItem> suite;
    for (const auto &[mname, make] : models) {
        for (const auto &[tname, task] : tasks) {
            for (const auto &[cname, hw] : catalogs) {
                SuiteItem item;
                item.label = std::string(mname) + "/" + tname + "/" + cname;
                item.desc = make();
                item.task = task;
                item.hardware = hw;
                for (const HardwarePoint &p : hw)
                    item.reference.emplace_back(p.cluster, opts);
                suite.push_back(std::move(item));
            }
        }
    }
    return suite;
}

std::vector<double>
exhaustiveBests(const std::vector<SuiteItem> &suite)
{
    std::vector<double> bests;
    for (const SuiteItem &item : suite) {
        EvalEngineOptions eopts;
        eopts.jobs = 2;
        EvalEngine engine(eopts);
        ParetoFrontier f =
            ParetoEngine(item.hardware, &engine).explore(item.desc, item.task);
        bests.push_back(f.points.empty()
                            ? 0.0
                            : f.points.front().objectives.throughput);
    }
    return bests;
}


double
bestGapPct(const std::vector<SuiteItem> &suite,
           const std::vector<double> &bests)
{
    double gap = 0;
    long n = 0;
    for (uint64_t panel = 1; panel <= kGapPanelSeeds; ++panel) {
        for (size_t i = 0; i < suite.size(); ++i) {
            if (bests[i] <= 0)
                continue;
            for (int s = 0; s < 2; ++s) {
                EvalEngine engine(EvalEngineOptions{});
                ParetoOptions opts;
                opts.strategy = kGuided[s];
                opts.search.seed = guidedSeed(panel, i, s);
                ParetoFrontier f =
                    ParetoEngine(suite[i].hardware, &engine)
                        .explore(suite[i].desc, suite[i].task, opts);
                double best = f.points.empty()
                                  ? 0.0
                                  : f.points.front().objectives.throughput;
                gap += (bests[i] - best) / bests[i] * 100.0;
                ++n;
            }
        }
    }
    return n ? gap / n : 0.0;
}

struct ParetoPhase::Impl
{
    SearchKind kind;
    const std::vector<SuiteItem> &suite;
    const std::vector<double> &bests;
    const RunConfig &cfg;
    const CpuWarmer *warmer;
    std::mt19937_64 rng;
    std::vector<size_t> order;

    int passes = 0;
    Samples searchMs, passSearchesPerS;
    Replay rep;
    EvalStats firstPass;
    double frontierPts = 0, visitedPts = 0, evalsTotal = 0;
    double exploreCpu = 0, exploreWall = 0;

    Impl(SearchKind k, const std::vector<SuiteItem> &s,
         const std::vector<double> &b, const RunConfig &c,
         const CpuWarmer *w)
        : kind(k), suite(s), bests(b), cfg(c), warmer(w),
          rng(c.seed ^ (k == SearchKind::Guided ? 0x9e3779b97f4a7c15ull : 0)),
          order(s.size())
    {
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
    }
};

ParetoPhase::ParetoPhase(SearchKind kind, const std::vector<SuiteItem> &suite,
                         const std::vector<double> &bests,
                         const RunConfig &cfg, const CpuWarmer *warmer)
    : impl_(std::make_unique<Impl>(kind, suite, bests, cfg, warmer))
{
}

ParetoPhase::~ParetoPhase() = default;

size_t
ParetoPhase::searches() const
{
    return impl_->searchMs.size();
}

double
ParetoPhase::pass(Tally &tally)
{
    Impl &im = *impl_;
    const bool guided = im.kind == SearchKind::Guided;
    const int perItem = guided ? 2 : 1;
    const bool first = im.passes++ == 0;
    std::shuffle(im.order.begin(), im.order.end(), im.rng);
    double passMs = 0;
    for (size_t i : im.order) {
        const SuiteItem &item = im.suite[i];
        for (int s = 0; s < perItem; ++s) {
            ParetoOptions opts;
            EvalEngineOptions eopts;
            if (guided) {
                opts.strategy = kGuided[s];
                opts.search.seed = guidedSeed(im.cfg.seed, i, s);
            } else {
                eopts.jobs = 2;
            }
            double cpu0 = guided ? 0 : cpuSeconds(im.warmer);
            int64_t t0 = nowNs();
            ParetoFrontier f;
            {
                EvalEngine engine(eopts);
                ParetoEngine pe(item.hardware, &engine);
                Tracer::Scope scope("dse.explore");
                f = pe.explore(item.desc, item.task, opts);
            }
            int64_t t1 = nowNs();
            im.searchMs.add((t1 - t0) / 1e6);
            passMs += (t1 - t0) / 1e6;
            if (!guided) {
                im.exploreCpu += cpuSeconds(im.warmer) - cpu0;
                im.exploreWall += (t1 - t0) / 1e9;
            }

            // Everything below is outside the timed region.
            if (im.cfg.inject == "dominated" && !f.points.empty()) {
                ParetoCandidate bad = f.points.front();
                bad.objectives.throughput *= 0.5;
                f.points.push_back(bad);
            }
            std::string why =
                checkFrontier(f, item, im.bests[i], guided, first);
            tally.record(why.empty(), item.label + ": " + why);
            if (first)
                im.firstPass += f.stats;
            im.frontierPts += static_cast<double>(f.points.size());
            im.visitedPts += static_cast<double>(f.candidates.size());
            im.evalsTotal += static_cast<double>(f.stats.evaluations);
            if (Tracer::get().enabled())
                replay(f, item, im.kind, static_cast<double>(t1 - t0),
                       im.rep);
        }
    }
    im.passSearchesPerS.add(im.suite.size() * perItem / (passMs / 1e3));
    return passMs / 1e3;
}

void
ParetoPhase::finish(MetricSink &e2e, MetricSink &layer) const
{
    const Impl &im = *impl_;
    const long n = static_cast<long>(im.searchMs.size());
    // Median over passes, so a pass caught in a burst of stolen CPU
    // time does not move it.
    e2e.set("searches_per_s", im.passSearchesPerS.pct(0.5), "1/s", n);
    e2e.percentiles("search_ms", im.searchMs, "ms");

    const EvalStats &fp = im.firstPass;
    layer.set("engine.evals", static_cast<double>(fp.evaluations), "count",
              1);
    layer.set("engine.pruned", static_cast<double>(fp.pruned), "count", 1);
    layer.set("engine.hits", static_cast<double>(fp.cacheHits), "count", 1);
    layer.set("engine.delta_frac",
              fp.evaluations ? static_cast<double>(fp.deltaEvals) /
                                   static_cast<double>(fp.evaluations)
                             : 0.0,
              "ratio", 1);
    layer.set("dse.evals_per_search", im.evalsTotal / n, "count", n);
    layer.set("dse.frontier_frac", im.frontierPts / im.visitedPts, "ratio",
              n);
    const Replay &rep = im.rep;
    layer.percentiles("engine.batch_ms", rep.batchMs, "ms", false);
    layer.percentiles("dse.self_ms", rep.dseSelfMs, "ms", false);
    layer.percentiles("core.context_us", rep.contextUs, "us", false);
    layer.percentiles("core.verdict_us", rep.verdictUs, "us", false);
    if (im.kind == SearchKind::Guided) {
        layer.percentiles("core.delta_us", rep.deltaUs, "us", false);
    } else {
        layer.percentiles("core.eval_us", rep.evalUs, "us");
        layer.set("engine.self_frac",
                  rep.batchSerialNs > 0
                      ? (rep.batchSerialNs - rep.coreNs) / rep.batchSerialNs
                      : 0.0,
                  "ratio", static_cast<long>(rep.batchMs.size()));
        layer.set("engine.cpu_per_wall",
                  im.exploreWall > 0 ? im.exploreCpu / im.exploreWall : 0.0,
                  "ratio", n);
    }
}

} // namespace perfbench
