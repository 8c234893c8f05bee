/**
 * @file
 * The MAD-Max evaluation service: the application logic behind
 * `madmax serve`. One EvalService owns one process-lifetime
 * EvalEngine, so the memo cache and thread pool are shared across
 * every request the server ever answers — repeat evaluations of a
 * popular (model, system, task) triple are cache hits instead of
 * full stream builds, which is what amortizes the >100x-over-
 * profiling speedup across many interactive users.
 *
 * Between the transport and the engine sit two serving-only layers
 * (both new with the epoll transport):
 *
 *  - a fingerprint-keyed parsed-config cache (serve/config_cache.hh):
 *    repeat bodies skip JSON parsing and config validation entirely,
 *    and bodies differing only in whitespace or plan share one
 *    ParsedTriple, whose pointer identity is the engine's context
 *    and memo-key identity;
 *  - the cold-evaluation path (serve/batch_dispatcher.hh): an engine
 *    memo hit answers at once; any other evaluation runs on the HTTP
 *    worker that received it, so a slow evaluation delays only its
 *    own request. Concurrent byte-identical /v1/pareto requests
 *    collapse to one search via single-flight deduplication.
 *
 * Endpoints (full reference with examples: docs/serving.md):
 *
 *   POST /v1/evaluate  body {"model": ..., "system": ..., "task": ...}
 *                      -> the exact JSON `madmax_cli evaluate
 *                      --format json` prints for the same triple,
 *                      byte for byte.
 *   POST /v1/explore   same body plus optional "top" (default 5) and
 *                      "no_memory_limit" -> the same schema as
 *                      `madmax_cli explore --format json` (not byte-
 *                      identical: search.wall_seconds is measured).
 *   POST /v1/pareto    body {"model": ..., "task": ...} plus a
 *                      hardware axis ("system" [+ "node_counts"] or
 *                      "catalog"/"nodes") and search knobs
 *                      ("strategy", "budget", "seed") -> the same
 *                      schema as `madmax_cli pareto --format json`:
 *                      the multi-objective frontier over the joint
 *                      (hardware x plan) space (docs/dse.md).
 *   GET  /v1/health    liveness: status, uptime, engine parallelism.
 *   GET  /v1/stats     engine lifetime counters + memo-cache
 *                      occupancy + evaluate-path/config-cache/
 *                      transport counters + per-endpoint request
 *                      counts.
 *   GET  /v1/metrics   the same counters in Prometheus text
 *                      exposition format (text/plain; version=0.0.4).
 *
 * Errors use the uniform {"error": {code, detail?, message}} shape
 * with the machine-readable codes of serve/errors.hh: 400 for
 * malformed JSON / missing fields / bad configs, 404/405 from the
 * router, 500 for internal failures, plus the graceful-degradation
 * responses (503 circuit_open / resource_exhausted / fd_exhausted)
 * — full table in docs/serving.md, semantics in docs/resilience.md.
 */

#ifndef MADMAX_SERVE_SERVICE_HH
#define MADMAX_SERVE_SERVICE_HH

#include <atomic>
#include <chrono>
#include <functional>

#include "engine/eval_engine.hh"
#include "serve/batch_dispatcher.hh"
#include "serve/circuit_breaker.hh"
#include "serve/config_cache.hh"
#include "serve/request_router.hh"

namespace madmax
{

/** Service construction knobs. */
struct ServiceOptions
{
    /** Engine worker threads; 0 = one per core (the serving default —
     *  unlike the CLI, a resident service wants the whole machine). */
    int jobs = 0;

    /** Memo-cache entry cap, forwarded to EvalEngineOptions. */
    size_t cacheCapacity = size_t{1} << 13;

    /** Parsed-config cache entry cap (serve/config_cache.hh). */
    size_t configCacheCapacity = 1024;

    /** Circuit breaker: consecutive eval failures per config
     *  fingerprint that trip it (serve/circuit_breaker.hh). */
    int breakerFailureThreshold = 5;

    /** Circuit breaker cool-down before the half-open probe. */
    long breakerOpenMillis = 1000;
};

/** Per-endpoint request accounting, reported by `GET /v1/stats`. */
struct ServiceStats
{
    long evaluate = 0;
    long explore = 0;
    long pareto = 0;
    long health = 0;
    long stats = 0;
    long metrics = 0;
    long errors = 0; ///< Responses with status >= 400 (any endpoint).
    long evalFailures = 0; ///< Evaluate requests whose report came
                           ///< back failed (engine isolation).

    long total() const
    {
        return evaluate + explore + pareto + health + stats + metrics;
    }
};

class EvalService
{
  public:
    explicit EvalService(ServiceOptions options = {});

    EvalService(const EvalService &) = delete;
    EvalService &operator=(const EvalService &) = delete;

    /**
     * Dispatch one request through the routing table. Never throws:
     * ConfigError becomes a 400 response, anything else a 500.
     * Thread-safe; this is the HttpHandler `madmax serve` installs.
     */
    HttpResponse handle(const HttpRequest &request);

    /**
     * Admission-tier classifier for the transport's tiered load
     * shedding (HttpServerOptions::classifier). GETs (health, stats,
     * metrics) are Cheap and never shed; an evaluate whose body is a
     * known parsed-config entry with a warm engine memo key is Cached
     * (shed last); everything else — cold evaluations, explore,
     * pareto — is Expensive (shed first). Fast: one hash + two map
     * probes, no parsing; safe to call on the event loop.
     */
    RequestCost classify(const HttpRequest &request) const;

    /** The shared process-lifetime engine (tests inspect its cache). */
    EvalEngine &engine() { return engine_; }

    /** The serving-side layers (tests inspect counters). */
    const BatchDispatcher &dispatcher() const { return dispatcher_; }
    const ConfigCache &configCache() const { return configCache_; }
    const CircuitBreaker &breaker() const { return breaker_; }

    ServiceStats stats() const;

    /**
     * Wire the transport's counters into `GET /v1/stats` (as the
     * response's "transport" object). Set after constructing the
     * HttpServer — the server wraps the service, so the service
     * cannot reach it at construction time. Transport rejections
     * (400/413/431/503) never reach handle(), so without this they
     * are invisible to the observability endpoint. Not thread-safe:
     * call before start().
     */
    void
    setTransportStatsProvider(std::function<HttpServerStats()> provider)
    {
        transportStats_ = std::move(provider);
    }

  private:
    HttpResponse handleEvaluate(const HttpRequest &request);
    HttpResponse handleExplore(const HttpRequest &request);
    HttpResponse handlePareto(const HttpRequest &request);
    HttpResponse runPareto(const HttpRequest &request);
    HttpResponse handleHealth(const HttpRequest &request);
    HttpResponse handleStats(const HttpRequest &request);
    HttpResponse handleMetrics(const HttpRequest &request);

    /** Cumulative handler-latency slot for a target ("/v1/..."), or
     *  null for unrouted targets. */
    std::atomic<long> *latencySlot(const std::string &target);

    EvalEngine engine_;
    ConfigCache configCache_;
    BatchDispatcher dispatcher_;
    CircuitBreaker breaker_;
    SingleFlight paretoFlight_;
    RequestRouter router_;
    std::function<HttpServerStats()> transportStats_;
    std::chrono::steady_clock::time_point start_;

    std::atomic<long> evaluateCount_{0};
    std::atomic<long> exploreCount_{0};
    std::atomic<long> paretoCount_{0};
    std::atomic<long> healthCount_{0};
    std::atomic<long> statsCount_{0};
    std::atomic<long> metricsCount_{0};
    std::atomic<long> errorCount_{0};
    std::atomic<long> evalFailures_{0}; ///< Failed reports mapped to
                                        ///< taxonomy errors.
    std::atomic<long> paretoShared_{0}; ///< Single-flight dedups.

    /// Cumulative handler nanoseconds per endpoint (same order as the
    /// count atomics; /v1/metrics divides by the counts for means).
    std::atomic<long> evaluateNanos_{0};
    std::atomic<long> exploreNanos_{0};
    std::atomic<long> paretoNanos_{0};
    std::atomic<long> healthNanos_{0};
    std::atomic<long> statsNanos_{0};
    std::atomic<long> metricsNanos_{0};
};

} // namespace madmax

#endif // MADMAX_SERVE_SERVICE_HH
