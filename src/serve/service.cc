#include "serve/service.hh"

#include <cmath>

#include "config/config_loader.hh"
#include "core/strategy_explorer.hh"
#include "dse/pareto_engine.hh"
#include "serve/errors.hh"
#include "util/fault_injection.hh"
#include "util/fingerprint.hh"
#include "util/logging.hh"

namespace madmax
{

namespace
{

/** Parse + shape-check a request body that must carry the config
 *  triple. @throws ConfigError (-> 400) on malformed input. */
JsonValue
parseTripleBody(const HttpRequest &request)
{
    JsonValue body = JsonValue::parse(request.body);
    if (!body.isObject())
        fatal("request body must be a JSON object with \"model\", "
              "\"system\", and \"task\" members");
    for (const char *key : {"model", "system", "task"})
        if (!body.has(key))
            fatal(std::string("request body missing \"") + key +
                  "\" member");
    return body;
}

/** An optional integer member: @p fallback when absent, else a whole
 *  number in [lo, hi] (@p range spells the bounds for the message).
 *  The !(in-range) form also rejects NaN, and the result always fits
 *  the caller's cast: an unchecked cast of an out-of-range double is
 *  undefined behavior. @throws ConfigError (-> 400). */
double
integerOr(const JsonValue &body, const char *key, double fallback,
          double lo, double hi, const char *range)
{
    double v = body.numberOr(key, fallback);
    if (!(v >= lo && v <= hi) || v != std::trunc(v))
        fatal(std::string("\"") + key + "\" must be an integer in " +
              range);
    return v;
}

HttpResponse
jsonResponse(const JsonValue &doc)
{
    HttpResponse resp;
    // dump(2) + "\n" is exactly what the CLI prints with
    // --format json; keeping the framing identical here is what makes
    // responses byte-comparable against `madmax_cli evaluate`.
    resp.body = doc.dump(2) + "\n";
    return resp;
}

/** One Prometheus metric family: HELP + TYPE + one sample line per
 *  (labels, value) pair appended by the caller. */
void
promHeader(std::string &out, const std::string &name,
           const std::string &help, const char *type)
{
    out += "# HELP " + name + " " + help + "\n";
    out += "# TYPE " + name + " " + std::string(type) + "\n";
}

void
promSample(std::string &out, const std::string &name,
           const std::string &labels, double value)
{
    out += name;
    if (!labels.empty())
        out += "{" + labels + "}";
    // Integral counters print without a fraction; measured quantities
    // keep full double precision.
    if (value == static_cast<double>(static_cast<long>(value)))
        out += " " + std::to_string(static_cast<long>(value)) + "\n";
    else
        out += " " + std::to_string(value) + "\n";
}

} // namespace

EvalService::EvalService(ServiceOptions options)
    : engine_([&options] {
          EvalEngineOptions eo;
          eo.jobs = options.jobs;
          eo.cacheCapacity = options.cacheCapacity;
          return eo;
      }()),
      configCache_(options.configCacheCapacity),
      dispatcher_(engine_),
      breaker_([&options] {
          CircuitBreakerOptions co;
          co.failureThreshold = options.breakerFailureThreshold;
          co.openMillis = options.breakerOpenMillis;
          return co;
      }()),
      start_(std::chrono::steady_clock::now())
{
    router_.add("POST", "/v1/evaluate", [this](const HttpRequest &r) {
        return handleEvaluate(r);
    });
    router_.add("POST", "/v1/explore", [this](const HttpRequest &r) {
        return handleExplore(r);
    });
    router_.add("POST", "/v1/pareto", [this](const HttpRequest &r) {
        return handlePareto(r);
    });
    router_.add("GET", "/v1/health", [this](const HttpRequest &r) {
        return handleHealth(r);
    });
    router_.add("GET", "/v1/stats", [this](const HttpRequest &r) {
        return handleStats(r);
    });
    router_.add("GET", "/v1/metrics", [this](const HttpRequest &r) {
        return handleMetrics(r);
    });
}

std::atomic<long> *
EvalService::latencySlot(const std::string &target)
{
    if (target == "/v1/evaluate")
        return &evaluateNanos_;
    if (target == "/v1/explore")
        return &exploreNanos_;
    if (target == "/v1/pareto")
        return &paretoNanos_;
    if (target == "/v1/health")
        return &healthNanos_;
    if (target == "/v1/stats")
        return &statsNanos_;
    if (target == "/v1/metrics")
        return &metricsNanos_;
    return nullptr;
}

HttpResponse
EvalService::handle(const HttpRequest &request)
{
    auto t0 = std::chrono::steady_clock::now();
    HttpResponse resp;
    try {
        resp = router_.route(request);
    } catch (...) {
        // One mapping for every exception type the stack can throw
        // (serve/errors.hh): ConfigError -> 400, CircuitOpenError ->
        // 503 + Retry-After, bad_alloc -> 503, anything else -> 500.
        resp = errorFromCurrentException();
    }
    if (resp.status >= 400)
        ++errorCount_;
    if (std::atomic<long> *slot = latencySlot(request.target))
        slot->fetch_add(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
    return resp;
}

RequestCost
EvalService::classify(const HttpRequest &request) const
{
    if (request.method == "GET")
        return RequestCost::Cheap;
    if (request.target == "/v1/evaluate") {
        std::string key;
        if (configCache_.peekKey(request.body, key) &&
            engine_.isCached(key))
            return RequestCost::Cached;
    }
    return RequestCost::Expensive;
}

HttpResponse
EvalService::handleEvaluate(const HttpRequest &request)
{
    ++evaluateCount_;
    // Parse (or reuse the parsed form of) the config triple, then
    // evaluate it on this worker. Engine memo hits return straight
    // from the dispatcher's fast path.
    CachedRequest parsed = configCache_.lookup(request.body);

    // The breaker key is the canonical triple — the same identity the
    // config cache dedups on — so every body spelling of a poisoned
    // config shares one breaker entry.
    uint64_t breakerKey = fnv1a(parsed.triple->canon);
    long retryAfter = 0;
    if (!breaker_.admit(breakerKey, &retryAfter))
        throw CircuitOpenError(retryAfter);

    PerfReport report;
    try {
        report = dispatcher_.evaluate(parsed);
    } catch (...) {
        breaker_.recordFailure(breakerKey);
        throw;
    }

    if (report.failed()) {
        ++evalFailures_;
        breaker_.recordFailure(breakerKey);
        switch (report.errorKind) {
        case EvalErrorKind::Config:
            return makeError(ServeError::BadRequest,
                             report.errorMessage);
        case EvalErrorKind::Resource:
            return makeError(ServeError::ResourceExhausted,
                             report.errorMessage);
        default:
            return makeError(ServeError::EvalFailed,
                             report.errorMessage);
        }
    }
    breaker_.recordSuccess(breakerKey);
    return jsonResponse(toJson(report));
}

HttpResponse
EvalService::handleExplore(const HttpRequest &request)
{
    ++exploreCount_;
    JsonValue body = parseTripleBody(request);
    ModelDesc model = loadModel(body.at("model"));
    ClusterSpec cluster = loadCluster(body.at("system"));
    TaskConfig task = loadTask(body.at("task"));

    size_t top = static_cast<size_t>(
        integerOr(body, "top", 5, 0, 0x1p30, "[0, 2^30]"));

    PerfModel perf(cluster);
    StrategyExplorer explorer(perf, &engine_);
    ExplorerOptions opts;
    opts.ignoreMemory = body.boolOr("no_memory_limit", false);
    Exploration exploration =
        explorer.explore(model, task.task, opts);

    // Mirrors madmax_cli's cmdExplore --format json output, including
    // the quirk that zero shown results serialize as null.
    JsonValue arr;
    size_t shown = 0;
    for (const ExplorationResult &r : exploration.results) {
        if (shown++ >= top)
            break;
        arr.append(toJson(r.report));
    }
    JsonValue out;
    out.set("results", std::move(arr));
    out.set("search", toJson(exploration.stats));
    return jsonResponse(out);
}

HttpResponse
EvalService::handlePareto(const HttpRequest &request)
{
    ++paretoCount_;
    // Concurrent byte-identical queries (a popular dashboard, a
    // retry storm) collapse to one search sharing its response.
    bool shared = false;
    HttpResponse resp = paretoFlight_.run(
        request.body, [&] { return runPareto(request); }, &shared);
    if (shared)
        ++paretoShared_;
    return resp;
}

HttpResponse
EvalService::runPareto(const HttpRequest &request)
{
    JsonValue body = JsonValue::parse(request.body);
    if (!body.isObject())
        fatal("request body must be a JSON object with \"model\" and "
              "\"task\" (or \"workload\") members");
    if (!body.has("model"))
        fatal("request body missing \"model\" member");

    // A "workload" member switches to the serving-placement search
    // (mirrors `madmax pareto --workload` byte-for-byte): phases are
    // derived from the workload, so the task-sweep knobs don't apply.
    if (body.has("workload")) {
        for (const char *other :
             {"task", "catalog", "nodes", "node_counts", "strategy",
              "budget", "seed", "include_baselines"}) {
            if (body.has(other)) {
                fatal(std::string("\"workload\" derives the serving "
                                  "phases itself and searches "
                                  "placements exhaustively; \"") +
                      other +
                      "\" does not apply (supported: \"model\", "
                      "\"system\", \"workload\")");
            }
        }
        if (!body.has("system"))
            fatal("\"workload\" requires \"system\" (the cluster the "
                  "placements are searched over)");
        ModelDesc model = loadModel(body.at("model"));
        ClusterSpec cluster = loadCluster(body.at("system"));
        InferenceWorkload workload = loadWorkload(body.at("workload"));
        InferencePlacementFrontier frontier = exploreInferencePlacements(
            model, workload, cluster, {}, &engine_);
        return jsonResponse(toJson(frontier));
    }

    if (!body.has("task"))
        fatal("request body missing \"task\" member");
    ModelDesc model = loadModel(body.at("model"));
    TaskConfig task = loadTask(body.at("task"));

    // The hardware axis mirrors `madmax pareto`: an inline "system"
    // document (optionally swept over "node_counts"), or a named
    // catalog ("catalog": "cloud" with "nodes" per instance type).
    std::vector<HardwarePoint> hw;
    if (body.has("system")) {
        if (body.has("catalog") || body.has("nodes"))
            fatal("\"system\" and \"catalog\"/\"nodes\" are mutually "
                  "exclusive");
        ClusterSpec cluster = loadCluster(body.at("system"));
        if (body.has("node_counts")) {
            const JsonValue &arr = body.at("node_counts");
            if (!arr.isArray() || arr.size() == 0)
                fatal("\"node_counts\" must be a non-empty array of "
                      "integers");
            std::vector<int> counts;
            for (size_t i = 0; i < arr.size(); ++i) {
                double n = arr.at(i).asDouble();
                if (!(n >= 1 && n <= 65536) ||
                    n != static_cast<long>(n))
                    fatal("\"node_counts\" entries must be integers "
                          "in [1, 65536]");
                counts.push_back(static_cast<int>(n));
            }
            hw = nodeCountSweep(cluster, counts);
        } else {
            hw = {makeHardwarePoint(cluster)};
        }
    } else {
        if (body.has("node_counts"))
            fatal("\"node_counts\" requires \"system\"");
        std::string catalog = body.stringOr("catalog", "cloud");
        if (catalog != "cloud")
            fatal("unknown catalog '" + catalog +
                  "' (supported: cloud)");
        hw = cloudHardwareCatalog(static_cast<int>(
            integerOr(body, "nodes", 16, 1, 4096, "[1, 4096]")));
    }

    ParetoOptions opts;
    opts.strategy = body.stringOr("strategy", "exhaustive");
    opts.search.maxEvaluations = static_cast<long>(
        integerOr(body, "budget", 0, 0, 0x1p30, "[0, 2^30]"));
    opts.search.seed = static_cast<uint64_t>(
        integerOr(body, "seed",
                  static_cast<double>(SearchOptions{}.seed), 0, 0x1p63,
                  "[0, 2^63]"));
    opts.includeBaselines = body.boolOr("include_baselines", true);

    ParetoEngine pareto(std::move(hw), &engine_);
    ParetoFrontier frontier = pareto.explore(model, task.task, opts);
    return jsonResponse(toJson(frontier, pareto.hardware()));
}

HttpResponse
EvalService::handleHealth(const HttpRequest &request)
{
    ++healthCount_;
    (void)request;
    JsonValue out;
    out.set("status", "ok");
    out.set("jobs", engine_.jobs());
    out.set("uptime_seconds",
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count());
    return jsonResponse(out);
}

HttpResponse
EvalService::handleStats(const HttpRequest &request)
{
    ++statsCount_;
    (void)request;
    EngineCounters c = engine_.counters();

    JsonValue cache;
    cache.set("capacity", static_cast<long>(c.cacheCapacity));
    cache.set("entries", static_cast<long>(c.cacheEntries));
    cache.set("insertions", c.cacheInsertions);
    cache.set("evictions", c.cacheEvictions);

    JsonValue engineBatches;
    engineBatches.set("calls", c.batches);
    engineBatches.set("requests", c.batchRequests);
    engineBatches.set("max_requests", c.maxBatchRequests);

    JsonValue eng;
    eng.set("jobs", engine_.jobs());
    eng.set("lifetime", toJson(c.lifetime));
    eng.set("cache", std::move(cache));
    eng.set("batches", std::move(engineBatches));

    ServiceStats s = stats();
    JsonValue requests;
    requests.set("evaluate", s.evaluate);
    requests.set("explore", s.explore);
    requests.set("pareto", s.pareto);
    requests.set("health", s.health);
    requests.set("stats", s.stats);
    requests.set("metrics", s.metrics);

    BatchDispatcherStats b = dispatcher_.stats();
    JsonValue batching;
    batching.set("windows", b.windows);
    batching.set("batched_requests", b.requests);
    batching.set("memo_fast_path", b.memoFastPath);

    ConfigCache::Stats cc = configCache_.stats();
    JsonValue configCache;
    configCache.set("capacity", static_cast<long>(cc.capacity));
    configCache.set("entries", static_cast<long>(cc.entries));
    configCache.set("hits", cc.hits);
    configCache.set("misses", cc.misses);
    configCache.set("evictions", cc.evictions);
    configCache.set("triple_shares", cc.tripleShares);

    CircuitBreakerStats br = breaker_.stats();
    JsonValue breaker;
    breaker.set("trips", br.trips);
    breaker.set("rejects", br.rejects);
    breaker.set("probes", br.probes);
    breaker.set("recoveries", br.recoveries);
    breaker.set("open_now", br.openNow);

    JsonValue server;
    server.set("requests", std::move(requests));
    server.set("requests_total", s.total());
    server.set("errors", s.errors);
    server.set("eval_failures", s.evalFailures);
    server.set("batching", std::move(batching));
    server.set("circuit_breaker", std::move(breaker));
    server.set("config_cache", std::move(configCache));
    server.set("pareto_coalesced", paretoShared_.load());

    // Fault-injection accounting: present only when points are armed,
    // so production scrapes of an uninstrumented server see no
    // "faults" member at all.
    std::vector<FaultPointStats> faults = FaultInjection::stats();
    if (!faults.empty()) {
        JsonValue arr;
        for (const FaultPointStats &f : faults) {
            JsonValue one;
            one.set("point", f.point);
            one.set("hits", f.hits);
            one.set("injected", f.injected);
            arr.append(std::move(one));
        }
        server.set("faults", std::move(arr));
    }

    JsonValue out;
    out.set("engine", std::move(eng));
    out.set("server", std::move(server));
    if (transportStats_) {
        HttpServerStats t = transportStats_();
        JsonValue transport;
        transport.set("accepted", t.accepted);
        transport.set("served", t.served);
        transport.set("rejected_queue_full", t.rejectedQueueFull);
        transport.set("bad_requests", t.badRequests);
        transport.set("keep_alive_reuses", t.keepAliveReuses);
        transport.set("pipelined_requests", t.pipelinedRequests);
        transport.set("shed_expensive", t.shedExpensive);
        transport.set("shed_cached", t.shedCached);
        transport.set("idle_closed", t.idleClosed);
        transport.set("deadline_closed", t.deadlineClosed);
        transport.set("partial_writes", t.partialWrites);
        transport.set("fd_exhausted", t.fdExhausted);
        transport.set("fd_rejects", t.fdRejects);
        out.set("transport", std::move(transport));
    }
    out.set("uptime_seconds",
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count());
    return jsonResponse(out);
}

HttpResponse
EvalService::handleMetrics(const HttpRequest &request)
{
    ++metricsCount_;
    (void)request;
    EngineCounters c = engine_.counters();
    BatchDispatcherStats b = dispatcher_.stats();
    ConfigCache::Stats cc = configCache_.stats();
    ServiceStats s = stats();

    std::string out;
    out.reserve(4096);

    promHeader(out, "madmax_uptime_seconds",
               "Seconds since service start.", "gauge");
    promSample(out, "madmax_uptime_seconds", "",
               std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
                   .count());

    promHeader(out, "madmax_requests_total",
               "Requests routed, by endpoint.", "counter");
    const struct
    {
        const char *name;
        long count;
        long nanos;
    } endpoints[] = {
        {"evaluate", s.evaluate, evaluateNanos_.load()},
        {"explore", s.explore, exploreNanos_.load()},
        {"pareto", s.pareto, paretoNanos_.load()},
        {"health", s.health, healthNanos_.load()},
        {"stats", s.stats, statsNanos_.load()},
        {"metrics", s.metrics, metricsNanos_.load()},
    };
    for (const auto &e : endpoints)
        promSample(out, "madmax_requests_total",
                   std::string("endpoint=\"") + e.name + "\"",
                   static_cast<double>(e.count));

    promHeader(out, "madmax_request_seconds_total",
               "Cumulative handler wall time, by endpoint.",
               "counter");
    for (const auto &e : endpoints)
        promSample(out, "madmax_request_seconds_total",
                   std::string("endpoint=\"") + e.name + "\"",
                   static_cast<double>(e.nanos) * 1e-9);

    promHeader(out, "madmax_errors_total",
               "Responses with status >= 400 (any endpoint).",
               "counter");
    promSample(out, "madmax_errors_total", "",
               static_cast<double>(s.errors));

    promHeader(out, "madmax_eval_failures_total",
               "Evaluate requests whose report came back failed.",
               "counter");
    promSample(out, "madmax_eval_failures_total", "",
               static_cast<double>(s.evalFailures));

    CircuitBreakerStats br = breaker_.stats();
    promHeader(out, "madmax_breaker_trips_total",
               "Circuit-breaker keys tripped open.", "counter");
    promSample(out, "madmax_breaker_trips_total", "",
               static_cast<double>(br.trips));
    promHeader(out, "madmax_breaker_rejects_total",
               "Requests fast-failed by an open breaker.", "counter");
    promSample(out, "madmax_breaker_rejects_total", "",
               static_cast<double>(br.rejects));
    promHeader(out, "madmax_breaker_probes_total",
               "Half-open probe requests admitted.", "counter");
    promSample(out, "madmax_breaker_probes_total", "",
               static_cast<double>(br.probes));
    promHeader(out, "madmax_breaker_recoveries_total",
               "Breaker keys recovered to closed.", "counter");
    promSample(out, "madmax_breaker_recoveries_total", "",
               static_cast<double>(br.recoveries));
    promHeader(out, "madmax_breaker_open",
               "Keys currently open or half-open.", "gauge");
    promSample(out, "madmax_breaker_open", "",
               static_cast<double>(br.openNow));

    // Fault-injection counters, one sample per armed point; families
    // are omitted entirely on an uninstrumented server.
    std::vector<FaultPointStats> faults = FaultInjection::stats();
    if (!faults.empty()) {
        promHeader(out, "madmax_fault_hits_total",
                   "Times an armed fault point was reached.",
                   "counter");
        for (const FaultPointStats &f : faults)
            promSample(out, "madmax_fault_hits_total",
                       "point=\"" + f.point + "\"",
                       static_cast<double>(f.hits));
        promHeader(out, "madmax_fault_injected_total",
                   "Times an armed fault point actually fired.",
                   "counter");
        for (const FaultPointStats &f : faults)
            promSample(out, "madmax_fault_injected_total",
                       "point=\"" + f.point + "\"",
                       static_cast<double>(f.injected));
    }

    promHeader(out, "madmax_engine_evaluations_total",
               "Fresh model evaluations executed.", "counter");
    promSample(out, "madmax_engine_evaluations_total", "",
               static_cast<double>(c.lifetime.evaluations));
    promHeader(out, "madmax_engine_cache_hits_total",
               "Evaluations served from the memo cache.", "counter");
    promSample(out, "madmax_engine_cache_hits_total", "",
               static_cast<double>(c.lifetime.cacheHits));
    promHeader(out, "madmax_engine_pruned_total",
               "OOM plans resolved by the memory pre-pass.",
               "counter");
    promSample(out, "madmax_engine_pruned_total", "",
               static_cast<double>(c.lifetime.pruned));
    promHeader(out, "madmax_engine_cache_entries",
               "Memo-cache occupancy.", "gauge");
    promSample(out, "madmax_engine_cache_entries", "",
               static_cast<double>(c.cacheEntries));
    promHeader(out, "madmax_engine_batch_calls_total",
               "evaluateAll batches submitted.", "counter");
    promSample(out, "madmax_engine_batch_calls_total", "",
               static_cast<double>(c.batches));
    promHeader(out, "madmax_engine_batch_requests_total",
               "Points submitted across all batches.", "counter");
    promSample(out, "madmax_engine_batch_requests_total", "",
               static_cast<double>(c.batchRequests));

    promHeader(out, "madmax_batch_windows_total",
               "Engine calls made for memo-missing evaluate requests.",
               "counter");
    promSample(out, "madmax_batch_windows_total", "",
               static_cast<double>(b.windows));
    promHeader(out, "madmax_batch_requests_total",
               "Evaluate requests that missed the memo cache.",
               "counter");
    promSample(out, "madmax_batch_requests_total", "",
               static_cast<double>(b.requests));
    promHeader(out, "madmax_batch_memo_fast_path_total",
               "Evaluate requests answered from the memo cache.",
               "counter");
    promSample(out, "madmax_batch_memo_fast_path_total", "",
               static_cast<double>(b.memoFastPath));

    promHeader(out, "madmax_config_cache_hits_total",
               "Request bodies whose parse was reused.", "counter");
    promSample(out, "madmax_config_cache_hits_total", "",
               static_cast<double>(cc.hits));
    promHeader(out, "madmax_config_cache_misses_total",
               "Request bodies parsed cold.", "counter");
    promSample(out, "madmax_config_cache_misses_total", "",
               static_cast<double>(cc.misses));
    promHeader(out, "madmax_config_cache_entries",
               "Parsed-config cache occupancy.", "gauge");
    promSample(out, "madmax_config_cache_entries", "",
               static_cast<double>(cc.entries));

    promHeader(out, "madmax_pareto_coalesced_total",
               "Pareto requests served by a shared in-flight search.",
               "counter");
    promSample(out, "madmax_pareto_coalesced_total", "",
               static_cast<double>(paretoShared_.load()));

    if (transportStats_) {
        HttpServerStats t = transportStats_();
        promHeader(out, "madmax_http_connections_accepted_total",
                   "TCP connections accepted.", "counter");
        promSample(out, "madmax_http_connections_accepted_total", "",
                   static_cast<double>(t.accepted));
        promHeader(out, "madmax_http_requests_served_total",
                   "Requests answered by the handler.", "counter");
        promSample(out, "madmax_http_requests_served_total", "",
                   static_cast<double>(t.served));
        promHeader(out, "madmax_http_keepalive_reuses_total",
                   "Requests beyond their connection's first.",
                   "counter");
        promSample(out, "madmax_http_keepalive_reuses_total", "",
                   static_cast<double>(t.keepAliveReuses));
        promHeader(out, "madmax_http_pipelined_requests_total",
                   "Requests parsed while a response was pending.",
                   "counter");
        promSample(out, "madmax_http_pipelined_requests_total", "",
                   static_cast<double>(t.pipelinedRequests));
        promHeader(out, "madmax_http_shed_total",
                   "Requests shed by tiered admission control.",
                   "counter");
        promSample(out, "madmax_http_shed_total", "tier=\"expensive\"",
                   static_cast<double>(t.shedExpensive));
        promSample(out, "madmax_http_shed_total", "tier=\"cached\"",
                   static_cast<double>(t.shedCached));
        promHeader(out, "madmax_http_bad_requests_total",
                   "Transport-level request rejections.", "counter");
        promSample(out, "madmax_http_bad_requests_total", "",
                   static_cast<double>(t.badRequests));
        promHeader(out, "madmax_http_idle_closed_total",
                   "Keep-alive connections evicted idle.", "counter");
        promSample(out, "madmax_http_idle_closed_total", "",
                   static_cast<double>(t.idleClosed));
        promHeader(out, "madmax_http_deadline_closed_total",
                   "Connections cut at the request deadline.",
                   "counter");
        promSample(out, "madmax_http_deadline_closed_total", "",
                   static_cast<double>(t.deadlineClosed));
        promHeader(out, "madmax_http_partial_writes_total",
                   "Responses resumed after a short write.",
                   "counter");
        promSample(out, "madmax_http_partial_writes_total", "",
                   static_cast<double>(t.partialWrites));
        promHeader(out, "madmax_http_fd_exhausted_total",
                   "accept() failures on EMFILE/ENFILE.", "counter");
        promSample(out, "madmax_http_fd_exhausted_total", "",
                   static_cast<double>(t.fdExhausted));
        promHeader(out, "madmax_http_fd_rejects_total",
                   "Clients answered 503 via the emergency fd.",
                   "counter");
        promSample(out, "madmax_http_fd_rejects_total", "",
                   static_cast<double>(t.fdRejects));
    }

    HttpResponse resp;
    resp.contentType = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = std::move(out);
    return resp;
}

ServiceStats
EvalService::stats() const
{
    ServiceStats s;
    s.evaluate = evaluateCount_.load();
    s.explore = exploreCount_.load();
    s.pareto = paretoCount_.load();
    s.health = healthCount_.load();
    s.stats = statsCount_.load();
    s.metrics = metricsCount_.load();
    s.errors = errorCount_.load();
    s.evalFailures = evalFailures_.load();
    return s;
}

} // namespace madmax
