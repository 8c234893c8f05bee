/**
 * @file
 * Repository benchmark binary. Usually started by
 * perfbench/run.py, which builds it and reshapes its output:
 *
 *   madmax_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    [--trace-out PATH] [--inject corrupt|dominated]
 *
 * Prints one JSON object on stdout: every metric with its unit and
 * sample count, the operation tally behind ok_frac, the machine
 * fingerprint, and (traced runs) each layer's self time.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <thread>

#include "config/json.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "phases.hh"

using namespace madmax;
using namespace perfbench;

namespace
{

/** Set-up repetitions; setup_s is their median. */
constexpr int kSetups = 3;

/** Searches a run times at least, so search_ms.p99 has 10 beyond it. */
constexpr size_t kMinSearches = 1000;

/** Share of serve time spent at the lo rate (it needs longer than hi
 *  for the same number of requests). */
constexpr double kLoShare = 2.0 / 3.0;

/** Serve slices are at least this long: requests at the start of a
 *  slice find the server's threads idle after a search pass, and
 *  short slices would make those a large share. */
constexpr double kMinSliceSeconds = 1.5;

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unknown";
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0; // ru_maxrss is KiB on Linux
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "madmax_perfbench: " << why
              << "\nusage: madmax_perfbench --workload "
                 "pareto_exhaustive|pareto_guided|serve_open --seed N "
                 "--seconds S --trace 0|1 [--trace-out PATH] "
                 "[--inject corrupt|dominated]\n";
    std::exit(2);
}

RunConfig
parseArgs(int argc, char **argv, std::string &traceOut)
{
    RunConfig cfg;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        std::string v = argv[++i];
        if (a == "--workload")
            cfg.workload = v;
        else if (a == "--seed")
            cfg.seed = std::stoull(v);
        else if (a == "--seconds")
            cfg.seconds = std::stod(v);
        else if (a == "--trace")
            cfg.trace = v == "1";
        else if (a == "--trace-out")
            traceOut = v;
        else if (a == "--inject")
            cfg.inject = v;
        else
            usage("unknown flag " + a);
    }
    if (cfg.workload != "pareto_exhaustive" &&
        cfg.workload != "pareto_guided" && cfg.workload != "serve_open")
        usage("unknown workload '" + cfg.workload + "'");
    if (!(cfg.seconds > 0))
        usage("--seconds must be positive");
    return cfg;
}

/** Inputs and warm state built by one set-up. */
struct Setup
{
    std::vector<SuiteItem> suite;
    std::vector<double> bests;
    std::unique_ptr<ServePhase> serve;
};

Setup
setUp(const RunConfig &cfg)
{
    Setup s;
    s.suite = buildSuite();
    s.bests = exhaustiveBests(s.suite); // also the warm-up pass
    s.serve = std::make_unique<ServePhase>(cfg);
    return s;
}

/** Worst relative error (%) over the paper's Table I rows. */
double
modelErrPct()
{
    // The rows bench/table1_validation scores against the paper's
    // measurements (DLRM-B is reported there as n/a).
    PerfModel zion(hw_zoo::dlrmTrainingSystem());
    ParallelPlan dlrm;
    dlrm.set(LayerClass::SparseEmbedding, HierStrategy{Strategy::MP});
    dlrm.set(LayerClass::BaseDense, HierStrategy{Strategy::TP, Strategy::DDP});
    PerfReport a = zion.evaluate(model_zoo::dlrmA(), TaskSpec::preTraining(),
                                 dlrm);
    PerfModel llm(hw_zoo::llmTrainingSystem());
    ParallelPlan fsdp = ParallelPlan::fsdpBaseline();
    fsdp.fsdpPrefetch = true;
    PerfReport l = llm.evaluate(model_zoo::llama65b(),
                                TaskSpec::preTraining(), fsdp);
    const std::pair<double, double> rows[] = {
        {a.serializedTime * 1e3, 67.40},
        {a.exposedFraction() * 100.0, 82.37},
        {a.throughput() / 1e6, 1.20},
        {306000.0 * l.iterationTime / 3600.0 * 2048.0, 1022361.0},
        {1.4e12 / l.tokensPerSecond() / 86400.0, 20.83},
    };
    double worst = 0;
    for (const auto &[ours, paper] : rows)
        worst = std::max(worst, std::abs(ours - paper) / paper * 100.0);
    return worst;
}

} // namespace

int
main(int argc, char **argv)
{
    const int64_t processStart = nowNs();
    std::string traceOut;
    RunConfig cfg = parseArgs(argc, argv, traceOut);
    if (cfg.trace)
        Tracer::get().enable();

    // Set-up, repeated; the last one's state is measured.
    Samples setupS;
    Setup setup;
    for (int i = 0; i < kSetups; ++i) {
        int64_t t0 = i == 0 ? processStart : nowNs();
        setup = Setup{};
        setup = setUp(cfg);
        setupS.add((nowNs() - t0) / 1e9);
    }

    // The run: search passes interleaved with serve slices, so both
    // sample the whole run. The serve phase gets a fixed share of
    // --seconds: two thirds in serve_open, one third otherwise.
    Tally tally;
    MetricSink e2e, layer, searchLayer, otherLayer, serveLayer;
    const SearchKind kind = cfg.workload == "pareto_guided"
                                ? SearchKind::Guided
                                : SearchKind::Exhaustive;
    const double serveShare = cfg.workload == "serve_open" ? 2.0 / 3 : 1.0 / 3;
    auto warmer = std::make_unique<CpuWarmer>();
    {
        ParetoPhase search(kind, setup.suite, setup.bests, cfg, warmer.get());
        double budget = cfg.seconds * serveShare; // Serve seconds left.
        double owed = 0;                          // ... due now.
        auto serve = [&] {
            owed = std::min(owed, budget);
            setup.serve->slice(owed * kLoShare, owed * (1 - kLoShare));
            budget -= owed;
            owed = 0;
        };
        const int64_t start = nowNs();
        while ((nowNs() - start) / 1e9 < cfg.seconds ||
               (!cfg.trace && search.searches() < kMinSearches)) {
            owed += search.pass(tally) * serveShare / (1 - serveShare);
            if (owed >= kMinSliceSeconds)
                serve();
        }
        owed = budget;
        serve();
        search.finish(e2e, searchLayer);
        setup.serve->finish(tally, e2e, serveLayer);
    }
    // Traced runs also run one pass of the other search, so every
    // layer metric is measured.
    if (cfg.trace) {
        ParetoPhase other(kind == SearchKind::Guided ? SearchKind::Exhaustive
                                                     : SearchKind::Guided,
                          setup.suite, setup.bests, cfg, warmer.get());
        other.pass(tally);
        MetricSink ignored;
        other.finish(ignored, otherLayer);
    }
    warmer.reset();
    setup.serve.reset();

    e2e.set("best_gap_pct",
            bestGapPct(setup.suite, setup.bests), "%", 1);
    e2e.set("model_err_pct", modelErrPct(), "%", 1);
    e2e.set("setup_s", setupS.pct(0.5), "s",
            static_cast<long>(setupS.size()));
    e2e.set("peak_rss_mb", peakRssMb(), "MB", 1);
    e2e.set("ok_frac",
            tally.attempted ? static_cast<double>(tally.passed) /
                                  tally.attempted
                            : 0.0,
            "ratio", tally.attempted);

    // Layer metrics of the run's own search phase win over the other
    // pareto phase's where both report one.
    for (const MetricSink *s : {&otherLayer, &searchLayer, &serveLayer})
        for (const auto &[name, m] : s->all())
            layer.set(name, m.value, m.unit, m.samples);

    JsonValue metrics;
    for (const MetricSink *s : {&e2e, &layer}) {
        for (const auto &[name, m] : s->all()) {
            JsonValue j;
            j.set("value", m.value);
            j.set("unit", m.unit);
            j.set("samples", m.samples);
            metrics.set(name, std::move(j));
        }
    }
    JsonValue out;
    out.set("workload", cfg.workload);
    out.set("seed", static_cast<double>(cfg.seed));
    out.set("trace", cfg.trace);
    JsonValue fp;
    fp.set("cpu_model", cpuModel());
    fp.set("nproc", static_cast<long>(std::thread::hardware_concurrency()));
    out.set("fingerprint", std::move(fp));
    out.set("correct", tally.passed == tally.attempted);
    out.set("attempted", tally.attempted);
    out.set("failed", tally.attempted - tally.passed);
    JsonValue failures{JsonValue::Array{}};
    for (const std::string &f : tally.firstFailures)
        failures.append(JsonValue(f));
    out.set("first_failures", std::move(failures));
    out.set("metrics", std::move(metrics));
    if (cfg.trace) {
        JsonValue self;
        for (const auto &[name, ns] : Tracer::get().layerSelfNs())
            self.set(name, ns / 1e6);
        out.set("layer_self_ms", std::move(self));
        out.set("spans", static_cast<long>(Tracer::get().spanCount()));
        if (!traceOut.empty() && !Tracer::get().write(traceOut)) {
            std::cerr << "madmax_perfbench: cannot write " << traceOut
                      << "\n";
            return 1;
        }
    }
    std::cout << out.dump() << std::endl;
    return 0;
}
