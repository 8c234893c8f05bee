/**
 * @file
 * The cold-evaluation path of /v1/evaluate, and response-level
 * deduplication for /v1/pareto.
 *
 * BatchDispatcher evaluates one resolved request on the calling HTTP
 * worker. A request already memoized in the engine returns from
 * EvalEngine::tryCached; any other request makes one
 * EvalEngine::evaluateAll call holding just its own point. No request
 * ever waits on another's evaluation, so a slow evaluation delays
 * only its own response, and cold requests run as parallel as the
 * HTTP worker pool. The class keeps its name and its four-field
 * stats for readers of the former micro-batching counters: each
 * engine call is one "window" of one request, and nothing coalesces.
 *
 * SingleFlight deduplicates concurrent *identical* requests at the
 * response level — used by /v1/pareto, where popular identical
 * queries (same body bytes) would otherwise each run the full
 * frontier sweep.
 */

#ifndef MADMAX_SERVE_BATCH_DISPATCHER_HH
#define MADMAX_SERVE_BATCH_DISPATCHER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/perf_model.hh"
#include "serve/config_cache.hh"
#include "serve/http_server.hh"
#include "util/fingerprint.hh"

namespace madmax
{

class EvalEngine;

struct BatchDispatcherStats
{
    long windows = 0;   ///< Engine evaluateAll calls (== requests).
    long requests = 0;  ///< Requests that missed the memo and were
                        ///< evaluated.
    long coalesced = 0; ///< Always 0: requests never share a call.
    long memoFastPath = 0; ///< Requests answered from the engine memo
                           ///< cache.
};

class BatchDispatcher
{
  public:
    explicit BatchDispatcher(EvalEngine &engine) : engine_(engine) {}

    BatchDispatcher(const BatchDispatcher &) = delete;
    BatchDispatcher &operator=(const BatchDispatcher &) = delete;

    /**
     * Evaluate one resolved request on the calling thread. Safe from
     * any number of threads.
     *
     * Per-request engine failures come back as failure reports
     * (PerfReport::failed() — see EvalEngine exception isolation);
     * only a catastrophic evaluateAll throw propagates.
     */
    PerfReport evaluate(const CachedRequest &request);

    BatchDispatcherStats stats() const;

  private:
    EvalEngine &engine_;
    std::atomic<long> requests_{0};
    std::atomic<long> memoFastPath_{0};
};

/**
 * Response-level request deduplication: concurrent requests with
 * byte-identical bodies run the handler once and share the response.
 * Purely in-flight — nothing is cached after the leader finishes, so
 * a repeat request a millisecond later runs fresh (persistent reuse
 * is the engine memo cache's job). Hash collisions degrade to
 * not-deduplicating, never to a wrong response.
 */
class SingleFlight
{
  public:
    /** Run @p fn (or wait for an in-flight identical body's run).
     *  @p wasShared, when given, is set true iff this call received
     *  a response computed by another request. Leader exceptions are
     *  rethrown to every sharer. */
    template <typename Fn>
    HttpResponse
    run(const std::string &body, Fn &&fn, bool *wasShared = nullptr)
    {
        uint64_t key = fnv1a(body);
        std::shared_ptr<Entry> entry;
        bool leader = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = inflight_.find(key);
            if (it != inflight_.end()) {
                if (it->second->body != body)
                    entry = nullptr; // Collision: run solo.
                else
                    entry = it->second;
            } else {
                entry = std::make_shared<Entry>();
                entry->body = body;
                inflight_.emplace(key, entry);
                leader = true;
            }
        }
        if (!entry)
            return fn();
        if (leader) {
            try {
                entry->response = fn();
            } catch (...) {
                entry->error = std::current_exception();
            }
            {
                std::lock_guard<std::mutex> lock(mutex_);
                inflight_.erase(key);
            }
            {
                std::lock_guard<std::mutex> lock(entry->mutex);
                entry->done = true;
            }
            entry->cv.notify_all();
            if (entry->error)
                std::rethrow_exception(entry->error);
            // Copy, not move: followers still read entry->response.
            return entry->response;
        }
        std::unique_lock<std::mutex> lock(entry->mutex);
        entry->cv.wait(lock, [&] { return entry->done; });
        if (wasShared)
            *wasShared = true;
        if (entry->error)
            std::rethrow_exception(entry->error);
        return entry->response;
    }

  private:
    struct Entry
    {
        std::string body;
        std::mutex mutex;
        std::condition_variable cv;
        bool done = false;
        HttpResponse response;
        std::exception_ptr error;
    };

    std::mutex mutex_;
    std::unordered_map<uint64_t, std::shared_ptr<Entry>> inflight_;
};

} // namespace madmax

#endif // MADMAX_SERVE_BATCH_DISPATCHER_HH
