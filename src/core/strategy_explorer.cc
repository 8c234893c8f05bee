#include "core/strategy_explorer.hh"

#include <algorithm>
#include <optional>

#include "util/logging.hh"

namespace madmax
{

StrategyExplorer::StrategyExplorer(const PerfModel &model,
                                   EvalEngine *engine)
    : model_(model), shared_(engine)
{
    // The private fallback engine is built eagerly (it is cheap: one
    // thread means no pool) so the const search methods stay safe to
    // call concurrently, matching PerfModel's thread-safety contract.
    if (!shared_)
        owned_ = std::make_unique<EvalEngine>();
}

EvalEngine &
StrategyExplorer::engine() const
{
    return shared_ ? *shared_ : *owned_;
}

std::vector<HierStrategy>
StrategyExplorer::candidates(LayerClass cls)
{
    using S = Strategy;
    switch (cls) {
      case LayerClass::SparseEmbedding:
        // Trillion-parameter tables: sharding variants only
        // (Insight 1); node-local sharding replicates tables across
        // nodes and needs the memory headroom of future devices.
        return {
            HierStrategy{S::MP},
            HierStrategy{S::MP, S::DDP},
        };
      case LayerClass::MoE:
        // Expert-parallel sharding plus the dense-style fallbacks.
        return {
            HierStrategy{S::MP},
            HierStrategy{S::MP, S::DDP},
            HierStrategy{S::FSDP},
            HierStrategy{S::DDP},
            HierStrategy{S::TP, S::DDP},
        };
      case LayerClass::DenseEmbedding:
      case LayerClass::BaseDense:
      case LayerClass::Transformer:
        return {
            HierStrategy{S::FSDP},
            HierStrategy{S::DDP},
            HierStrategy{S::TP},
            HierStrategy{S::TP, S::DDP},
            HierStrategy{S::DDP, S::TP},
            HierStrategy{S::TP, S::FSDP},
            HierStrategy{S::FSDP, S::DDP},
            HierStrategy{S::DDP, S::FSDP},
        };
    }
    panic("candidates: unknown LayerClass");
}

Exploration
StrategyExplorer::explore(const ModelDesc &desc, const TaskSpec &task,
                          const ExplorerOptions &options) const
{
    // The unconstrained variant is only materialized on the
    // ignoreMemory path: it costs a full cluster copy + re-validation,
    // which the common constrained sweep must not pay.
    const PerfModel *model = &model_;
    std::optional<PerfModel> unconstrained;
    if (options.ignoreMemory) {
        PerfModelOptions o = model_.options();
        o.ignoreMemory = true;
        unconstrained.emplace(model_.cluster(), o);
        model = &*unconstrained;
    }

    // The full plan product in canonical enumeration order (a golden-
    // suite compatibility contract — see dse::enumeratePlans).
    SearchSpace space =
        makeSearchSpace({model}, desc, task, options.explorePrefetch);
    std::vector<ParallelPlan> plans = enumeratePlans(space);

    std::vector<PlanRequest> requests;
    requests.reserve(plans.size());
    for (ParallelPlan &plan : plans) {
        PlanRequest req;
        req.model = model;
        req.desc = &desc;
        req.task = &task;
        req.plan = std::move(plan);
        requests.push_back(std::move(req));
    }

    Exploration out;
    std::vector<PerfReport> reports =
        engine().evaluateAll(requests, &out.stats);

    out.results.reserve(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
        if (!reports[i].valid && !options.keepInvalid)
            continue;
        out.results.push_back(
            ExplorationResult{std::move(requests[i].plan),
                              std::move(reports[i]), EvalStats{}});
    }

    // stable_sort keeps enumeration order on throughput ties, so the
    // ranking is bytewise-identical for any thread count.
    std::stable_sort(
        out.results.begin(), out.results.end(),
        [](const ExplorationResult &a, const ExplorationResult &b) {
            if (a.report.valid != b.report.valid)
                return a.report.valid;
            return a.report.throughput() > b.report.throughput();
        });
    return out;
}

ExplorationResult
StrategyExplorer::best(const ModelDesc &desc, const TaskSpec &task,
                       const ExplorerOptions &options) const
{
    const PerfModel *model = &model_;
    std::optional<PerfModel> unconstrained;
    if (options.ignoreMemory) {
        PerfModelOptions o = model_.options();
        o.ignoreMemory = true;
        unconstrained.emplace(model_.cluster(), o);
        model = &*unconstrained;
    }

    SearchSpace space =
        makeSearchSpace({model}, desc, task, options.explorePrefetch);
    std::unique_ptr<SearchStrategy> strategy =
        makeSearchStrategy(options.algorithm);
    SearchOutcome outcome =
        strategy->run(space, engine(), options.search);

    const SearchCandidate *winner = bestCandidate(outcome);
    if (!winner) {
        fatal("StrategyExplorer: no valid plan fits device memory "
              "for '" + desc.name + "'");
    }
    return ExplorationResult{winner->plan, winner->report,
                             outcome.stats};
}

PerfReport
StrategyExplorer::baseline(const ModelDesc &desc,
                           const TaskSpec &task) const
{
    return engine().evaluateOne(model_, desc, task,
                                ParallelPlan::fsdpBaseline());
}

} // namespace madmax
