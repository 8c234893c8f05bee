#include "serve/batch_dispatcher.hh"

#include <vector>

#include "engine/eval_engine.hh"

namespace madmax
{

PerfReport
BatchDispatcher::evaluate(const CachedRequest &request)
{
    PerfReport report;
    if (engine_.tryCached(request.engineKey, request.plan, report)) {
        ++memoFastPath_;
        return report;
    }
    ++requests_;
    PlanRequest point;
    point.model = &request.triple->perf;
    point.desc = &request.triple->model;
    point.task = &request.triple->task;
    point.plan = request.plan;
    return std::move(engine_.evaluateAll({std::move(point)}).front());
}

BatchDispatcherStats
BatchDispatcher::stats() const
{
    BatchDispatcherStats s;
    s.requests = requests_.load();
    s.windows = s.requests;
    s.memoFastPath = memoFastPath_.load();
    return s;
}

} // namespace madmax
