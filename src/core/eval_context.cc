#include "core/eval_context.hh"

#include <cstring>

#include "core/layer_processor.hh"
#include "core/overlap_simulator.hh"
#include "core/stream_builder.hh"
#include "util/logging.hh"

namespace madmax
{

EventCategory
commCategoryOf(Collective kind)
{
    switch (kind) {
      case Collective::AllReduce: return EventCategory::AllReduce;
      case Collective::AllGather: return EventCategory::AllGather;
      case Collective::ReduceScatter: return EventCategory::ReduceScatter;
      case Collective::All2All: return EventCategory::All2All;
      case Collective::Broadcast: return EventCategory::Other;
    }
    panic("commCategoryOf: unknown Collective");
}

EvalContext::EvalContext(const PerfModel &model, const ModelDesc &desc,
                         const TaskSpec &task)
    : model_(&model), desc_(&desc), task_(&task),
      taskName_(task.toString()),
      collectives_(makeCollectiveModelFor(
          model.cluster(), model.options().latency,
          model.options().allReduceAlgorithm,
          model.options().collectiveModel)),
      collectiveIdentity_(collectives_->identity())
{
    // LayerProcessor validates the cluster and the model once; every
    // plan evaluated through this context reuses that validation.
    LayerProcessor processor(cluster(), desc, options().smModel);

    const int num_layers = desc.graph.numLayers();
    costs_.resize(static_cast<size_t>(num_layers));
    for (int i = 0; i < num_layers; ++i) {
        const Layer &layer = desc.graph.layer(i);
        LayerCosts &lc = costs_[static_cast<size_t>(i)];
        lc.fwdTime = processor.forwardTime(layer, task);
        lc.bwdTime = processor.backwardTime(layer, task);
        lc.category = processor.categoryOf(layer);
        lc.fwdName = &layer.name();
        lc.bwdName = layer.name() + "'";
        lc.cls = layer.layerClass();
    }
}

size_t
EvalContext::encode(HierStrategy hs)
{
    // The 5x5 table indexing assumes exactly five Strategy values; a
    // new enumerator must grow the strategies_ array alongside this
    // multiplier or encode() writes past its end.
    static_assert(static_cast<size_t>(Strategy::MP) == 4,
                  "strategy table encoding assumes 5 Strategy values");
    return static_cast<size_t>(hs.intra) * 5 +
        static_cast<size_t>(hs.inter);
}

CollectiveEstimate
EvalContext::collectiveEstimate(Collective kind, CommScope scope,
                                double bytes) const
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(bytes), "double is 64-bit");
    std::memcpy(&bits, &bytes, sizeof(bits));
    auto key = std::make_tuple(collectiveIdentity_,
                               static_cast<int>(kind),
                               static_cast<int>(scope), bits);
    auto it = collectiveTable_.find(key);
    if (it != collectiveTable_.end())
        return it->second;
    CollectiveEstimate est = collectives_->estimate(kind, scope, bytes);
    collectiveTable_.emplace(key, est);
    return est;
}

size_t
EvalContext::collectiveTableSize() const
{
    std::lock_guard<std::mutex> lock(buildMutex_);
    return collectiveTable_.size();
}

void
EvalContext::buildStrategyTable(size_t slot, HierStrategy hs) const
{
    std::lock_guard<std::mutex> lock(buildMutex_);
    StrategyTable &table = strategies_[slot];
    if (table.ready.load(std::memory_order_acquire))
        return; // Another thread built it while we waited.

    // One planner pass covers every layer: a plan that maps all
    // classes to @p hs makes strategyFor(cls) == hs for each layer, so
    // planLayer yields exactly what any real plan assigning @p hs to
    // that layer's class would get.
    ParallelPlan uniform;
    for (LayerClass cls : {LayerClass::SparseEmbedding,
                           LayerClass::DenseEmbedding,
                           LayerClass::BaseDense, LayerClass::Transformer,
                           LayerClass::MoE}) {
        uniform.set(cls, hs);
    }
    CommPlanner planner(*desc_, *task_, uniform, cluster());

    const int num_layers = desc_->graph.numLayers();
    std::vector<std::vector<ResolvedCommOp>> per_layer(
        static_cast<size_t>(num_layers));
    for (int i = 0; i < num_layers; ++i) {
        std::vector<ResolvedCommOp> resolved;
        for (CommOp &op : planner.planLayer(i)) {
            CollectiveEstimate est =
                collectiveEstimate(op.kind, op.scope, op.bytes);
            if (est.seconds <= 0.0)
                continue;
            resolved.push_back(ResolvedCommOp{
                op.phase, op.position, op.kind, commCategoryOf(op.kind),
                op.blocking, est.seconds, std::move(op.tag), est.algo});
        }
        per_layer[static_cast<size_t>(i)] = std::move(resolved);
    }
    table.perLayer = std::move(per_layer);

    // The segment templates every graph is spliced from ride along:
    // symbolic per-layer event subgraphs for both prefetch variants
    // (see stream_builder.hh).
    for (int pf = 0; pf < 2; ++pf) {
        buildSegmentSet(*desc_, costs_, table.perLayer, false,
                        pf == 1, table.fwdSegs[pf]);
        if (task_->needsBackward()) {
            buildSegmentSet(*desc_, costs_, table.perLayer, true,
                            pf == 1, table.bwdSegs[pf]);
        }
    }
    table.ready.store(true, std::memory_order_release);
}

const EvalContext::StrategyTable &
EvalContext::strategyTable(HierStrategy hs) const
{
    const size_t slot = encode(hs);
    const StrategyTable &table = strategies_[slot];
    if (!table.ready.load(std::memory_order_acquire))
        buildStrategyTable(slot, hs);
    return table;
}

PerfReport
EvalContext::verdict(const ParallelPlan &plan) const
{
    return model_->verdict(*desc_, *task_, plan, taskName_);
}

namespace
{

/** The schedule-to-report assembly shared by the full and delta
 *  evaluation paths (everything but the optional Timeline). */
void
fillScheduleReport(PerfReport &report, const EventGraph &graph,
                   const FlatSchedule &sched)
{
    report.iterationTime = sched.makespan;
    report.serializedTime = sched.computeBusy + sched.commBusy;
    report.computeTime = sched.computeBusy;
    report.commTime = sched.commBusy;
    report.exposedCommTime = sched.exposedComm;

    // Per-category sums accumulate into fixed arrays in node order —
    // the same additions in the same order the per-node map
    // operator[] version performed, so every sum is bit-identical —
    // and land in the maps in ascending enum order afterwards (which
    // is also std::map's iteration order, so the maps come out
    // byte-identical too). A category's key exists iff a node touched
    // it, even when the touches summed to zero, hence the flags.
    constexpr size_t kNumCategories =
        static_cast<size_t>(EventCategory::Other) + 1;
    double serialized[kNumCategories] = {};
    double exposed[kNumCategories] = {};
    bool serialized_touched[kNumCategories] = {};
    bool exposed_touched[kNumCategories] = {};

    // One pass feeds both breakdowns (each accumulates per category in
    // node order, exactly as two passes would). The exposed terms come
    // from the same sweep that produced the aggregate
    // (sched.rawOverlap) — the second O(comm x compute) pass this used
    // to be is gone.
    const size_t n = graph.nodes.size();
    for (size_t i = 0; i < n; ++i) {
        const EventNode &node = graph.nodes[i];
        const size_t c = static_cast<size_t>(node.category);
        if (node.duration > 0.0) {
            serialized[c] += node.duration;
            serialized_touched[c] = true;
        }
        if (node.stream == StreamKind::Communication &&
            sched.finish[i] > sched.start[i]) {
            exposed[c] +=
                (sched.finish[i] - sched.start[i]) - sched.rawOverlap[i];
            exposed_touched[c] = true;
        }
    }
    for (size_t c = 0; c < kNumCategories; ++c) {
        const EventCategory cat = static_cast<EventCategory>(c);
        if (serialized_touched[c])
            report.serializedBreakdown.emplace(cat, serialized[c]);
        if (exposed_touched[c])
            report.exposedBreakdown.emplace(cat, exposed[c]);
    }
}

} // namespace

PerfReport
EvalContext::evaluate(const ParallelPlan &plan) const
{
    PerfReport report = verdict(plan);
    if (!report.memory.fits() && !options().ignoreMemory)
        return report;

    DeltaState state;
    spliceAndSchedule(state, plan, report);
    if (options().keepTimeline)
        report.timeline = materializeTimeline(state.graph, state.sched);
    return report;
}

void
EvalContext::spliceAndSchedule(DeltaState &state, const ParallelPlan &plan,
                               PerfReport &report) const
{
    spliceGraph(state, plan);
    OverlapSimulator simulator(options().backgroundCommChannel);
    simulator.scheduleGraphInto(state.graph, state.sched, state.scratch);
    fillScheduleReport(report, state.graph, state.sched);
}

void
EvalContext::spliceGraph(DeltaState &state, const ParallelPlan &plan) const
{
    const int num_layers = desc_->graph.numLayers();
    const bool backward = task_->needsBackward();
    const size_t pf = plan.fsdpPrefetch ? 1 : 0;

    // Resolve each present class's strategy table once, on its first
    // run — absent classes never build planner passes or arenas. This
    // is where the incremental reuse lives: a plan differing from the
    // previous one in K classes hits K possibly-cold table lookups
    // (template construction only for strategies this context has
    // never seen); every other layer's segment splices straight from
    // cache.
    const StrategyTable *tables[5] = {};
    auto tableFor = [&](LayerClass cls) -> const StrategyTable & {
        const StrategyTable *&t = tables[static_cast<size_t>(cls)];
        if (!t)
            t = &strategyTable(plan.strategyFor(cls));
        return *t;
    };

    // Maximal same-class layer runs, then one fused splice: every
    // run is a contiguous range of one strategy table's packed arena
    // (GPT-3's ~190-layer transformer stack is a single run per
    // pass), so the splice cost scales with class alternations, not
    // layer count. Backward sets are stored in emission order (layer
    // N-1..0), so a descending layer run maps to an ascending set
    // range starting at N-1-i.
    std::vector<SpliceRun> &runs = state.runs;
    runs.clear();
    for (int i = 0; i < num_layers;) {
        const LayerClass cls = costs_[static_cast<size_t>(i)].cls;
        int j = i + 1;
        while (j < num_layers &&
               costs_[static_cast<size_t>(j)].cls == cls)
            ++j;
        runs.push_back(SpliceRun{&tableFor(cls).fwdSegs[pf],
                                 static_cast<uint32_t>(i),
                                 static_cast<uint32_t>(j - i), false});
        i = j;
    }
    if (backward) {
        for (int i = num_layers - 1; i >= 0;) {
            const LayerClass cls = costs_[static_cast<size_t>(i)].cls;
            int j = i - 1;
            while (j >= 0 && costs_[static_cast<size_t>(j)].cls == cls)
                --j;
            runs.push_back(SpliceRun{
                &tableFor(cls).bwdSegs[pf],
                static_cast<uint32_t>(num_layers - 1 - i),
                static_cast<uint32_t>(i - j), true});
            i = j;
        }
    }
    spliceSegmentRuns(runs.data(), runs.size(), num_layers, backward,
                      state.graph, state.fwdOut, state.bwdOut,
                      state.computeIds);
}

PerfReport
EvalContext::evaluateDelta(DeltaState &state,
                           const ParallelPlan &plan) const
{
    // Retained timelines go through evaluate(), which materializes
    // them; the state's buffers are left untouched and the call
    // counts as a full evaluation (the EvalEngine's delta/full split
    // reads lastUsedDelta).
    if (options().keepTimeline) {
        state.lastUsedDelta = false;
        return evaluate(plan);
    }
    if (state.context != this) {
        // Structural change — another (model, task, cluster) triple,
        // including a different present-class set via another
        // ModelDesc: rebind and start from scratch.
        state.context = this;
        state.hasPlan = false;
    }

    PerfReport report = verdict(plan);
    if (!report.memory.fits() && !options().ignoreMemory) {
        // OOM verdict: no streams built, nothing advanced — exactly
        // evaluate()'s short-circuit.
        state.lastUsedDelta = false;
        return report;
    }

    spliceAndSchedule(state, plan, report);
    state.lastUsedDelta = state.hasPlan;
    state.hasPlan = true;
    return report;
}

} // namespace madmax
