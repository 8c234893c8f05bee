/**
 * @file
 * Evaluate-path + parsed-config-cache tests: concurrent evaluates of
 * one triple get byte-identical responses, repeat bodies skip
 * parsing via the config cache, whitespace-variant bodies share one
 * ParsedTriple, /v1/metrics speaks Prometheus, admission
 * classification tiers requests, SingleFlight deduplicates identical
 * in-flight work, and a wedged evaluation stalls only its own
 * request.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/batch_dispatcher.hh"
#include "serve/service.hh"
#include "serve_test_util.hh"
#include "util/fault_injection.hh"
#include "util/lru_cache.hh"

namespace madmax
{

using namespace serve_test;

namespace
{

HttpRequest
evaluateRequest(const std::string &body)
{
    HttpRequest req;
    req.method = "POST";
    req.target = "/v1/evaluate";
    req.body = body;
    return req;
}

ServiceOptions
testOptions()
{
    ServiceOptions opts;
    opts.jobs = 2;
    return opts;
}

} // namespace

TEST(Batching, ConcurrentSameTripleRequestsCoalesceByteIdentically)
{
    EvalService service(testOptions());
    const std::string body = shippedTripleBody();

    constexpr int kThreads = 8;
    std::vector<std::string> responses(kThreads);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            ++ready;
            while (ready.load() < kThreads)
                std::this_thread::yield();
            responses[i] = service.handle(evaluateRequest(body)).body;
        });
    }
    for (std::thread &t : threads)
        t.join();

    for (int i = 1; i < kThreads; ++i)
        EXPECT_EQ(responses[i], responses[0]) << "thread " << i;
    EXPECT_NE(responses[0].find("\"iteration_seconds\""),
              std::string::npos);

    // Every request is accounted exactly once: answered from the
    // memo (fast path or the engine's own lookup) or evaluated.
    EngineCounters c = service.engine().counters();
    EXPECT_GE(c.lifetime.evaluations, 1);
    EXPECT_EQ(c.lifetime.cacheHits + c.lifetime.evaluations, kThreads);

    BatchDispatcherStats b = service.dispatcher().stats();
    EXPECT_EQ(b.windows, b.requests);
    EXPECT_EQ(b.coalesced, 0);
    EXPECT_EQ(b.requests + b.memoFastPath, kThreads);
}

TEST(Batching, RepeatBodiesSkipParsingViaTheConfigCache)
{
    EvalService service(testOptions());
    const std::string body = shippedTripleBody();

    std::string first = service.handle(evaluateRequest(body)).body;
    std::string second = service.handle(evaluateRequest(body)).body;
    EXPECT_EQ(first, second);

    ConfigCache::Stats cc = service.configCache().stats();
    EXPECT_EQ(cc.misses, 1);
    EXPECT_EQ(cc.hits, 1);
    EXPECT_EQ(cc.entries, 1u);

    // The repeat was answered from the engine memo fast path.
    EXPECT_EQ(service.dispatcher().stats().memoFastPath, 1);
}

TEST(Batching, WhitespaceVariantBodiesShareOneParsedTriple)
{
    EvalService service(testOptions());
    const std::string compact =
        JsonValue::parse(shippedTripleBody()).dump(0);
    const std::string pretty =
        JsonValue::parse(shippedTripleBody()).dump(4);
    ASSERT_NE(compact, pretty);

    std::string a = service.handle(evaluateRequest(compact)).body;
    std::string b = service.handle(evaluateRequest(pretty)).body;
    EXPECT_EQ(a, b);

    ConfigCache::Stats cc = service.configCache().stats();
    EXPECT_EQ(cc.misses, 2);       // Two distinct bodies parsed...
    EXPECT_EQ(cc.tripleShares, 1); // ...one shared parsed triple.
    EXPECT_EQ(cc.tripleEntries, 1u);
    EXPECT_EQ(cc.entries, 2u);

    // Same canonical triple + plan -> same engine key -> the second
    // body was an engine memo hit despite its novel bytes.
    EXPECT_EQ(service.engine().counters().lifetime.evaluations, 1);
}

TEST(Batching, MetricsEndpointSpeaksPrometheus)
{
    EvalService service(testOptions());
    service.handle(evaluateRequest(shippedTripleBody()));

    HttpRequest req;
    req.method = "GET";
    req.target = "/v1/metrics";
    HttpResponse resp = service.handle(req);
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.contentType.rfind("text/plain", 0), 0u);

    for (const char *needle :
         {"# TYPE madmax_requests_total counter",
          "madmax_requests_total{endpoint=\"evaluate\"} 1",
          "# TYPE madmax_engine_evaluations_total counter",
          "madmax_engine_evaluations_total 1",
          "# TYPE madmax_batch_windows_total counter",
          "# TYPE madmax_config_cache_misses_total counter",
          "madmax_config_cache_misses_total 1",
          "# TYPE madmax_uptime_seconds gauge",
          "madmax_request_seconds_total{endpoint=\"evaluate\"}"})
        EXPECT_NE(resp.body.find(needle), std::string::npos)
            << "missing: " << needle;
}

TEST(Batching, StatsReportsBatchingAndConfigCacheSections)
{
    EvalService service(testOptions());
    service.handle(evaluateRequest(shippedTripleBody()));
    service.handle(evaluateRequest(shippedTripleBody()));

    HttpRequest req;
    req.method = "GET";
    req.target = "/v1/stats";
    JsonValue doc = JsonValue::parse(service.handle(req).body);
    const JsonValue &server = doc.at("server");
    EXPECT_EQ(server.at("batching").at("windows").asDouble(), 1);
    EXPECT_EQ(server.at("batching").at("memo_fast_path").asDouble(),
              1);
    EXPECT_EQ(server.at("config_cache").at("hits").asDouble(), 1);
    EXPECT_EQ(server.at("config_cache").at("misses").asDouble(), 1);
    const JsonValue &eng = doc.at("engine");
    EXPECT_EQ(eng.at("batches").at("calls").asDouble(), 1);
    EXPECT_EQ(eng.at("batches").at("requests").asDouble(), 1);
}

TEST(Batching, ClassifierTiersRequestsByExpectedCost)
{
    EvalService service(testOptions());
    const std::string body = shippedTripleBody();

    HttpRequest get;
    get.method = "GET";
    get.target = "/v1/health";
    EXPECT_EQ(service.classify(get), RequestCost::Cheap);

    // Cold evaluate: nothing cached, must be classified Expensive.
    HttpRequest post = evaluateRequest(body);
    EXPECT_EQ(service.classify(post), RequestCost::Expensive);

    // After serving once, the same body is a warm memo hit: Cached.
    service.handle(post);
    EXPECT_EQ(service.classify(post), RequestCost::Cached);

    HttpRequest pareto;
    pareto.method = "POST";
    pareto.target = "/v1/pareto";
    pareto.body = body;
    EXPECT_EQ(service.classify(pareto), RequestCost::Expensive);
}

TEST(Batching, SingleFlightDeduplicatesIdenticalInFlightWork)
{
    SingleFlight flight;
    std::atomic<int> runs{0};
    std::atomic<bool> leaderInFn{false};
    std::mutex gate;
    gate.lock();

    HttpResponse leaderResp;
    std::thread leader([&] {
        leaderResp = flight.run("body-bytes", [&] {
            ++runs;
            leaderInFn = true;
            std::lock_guard<std::mutex> hold(gate);
            HttpResponse r;
            r.body = "computed-once";
            return r;
        });
    });
    while (!leaderInFn.load())
        std::this_thread::yield();

    // The leader is parked inside fn, so this follower must attach
    // to the in-flight entry rather than run fn itself.
    HttpResponse followerResp;
    bool shared = false;
    std::thread follower([&] {
        followerResp = flight.run(
            "body-bytes",
            [&] {
                ++runs;
                return HttpResponse{};
            },
            &shared);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.unlock();
    leader.join();
    follower.join();

    EXPECT_EQ(runs.load(), 1);
    EXPECT_TRUE(shared);
    EXPECT_EQ(leaderResp.body, "computed-once");
    EXPECT_EQ(followerResp.body, "computed-once");

    // A different body is never deduplicated.
    bool sharedOther = false;
    HttpResponse other = flight.run(
        "other-bytes",
        [&] {
            HttpResponse r;
            r.body = "fresh";
            return r;
        },
        &sharedOther);
    EXPECT_FALSE(sharedOther);
    EXPECT_EQ(other.body, "fresh");
}

TEST(Batching, WedgedEvaluationStallsOnlyItsOwnRequest)
{
    // Thread A's evaluation wedges on an injected 600 ms delay. A
    // second request for the same cold triple, sent while A is stuck,
    // evaluates on its own worker and answers long before A does.
    EvalService service(testOptions());
    FaultScope scope("engine.eval=delay:600000@nth:1");

    std::atomic<bool> wedgedDone{false};
    HttpResponse wedgedResp;
    std::thread wedged([&] {
        wedgedResp =
            service.handle(evaluateRequest(shippedTripleBody()));
        wedgedDone = true;
    });
    // Let A reach the engine before sending the second request.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    auto t0 = std::chrono::steady_clock::now();
    HttpResponse second;
    std::thread other([&] {
        second = service.handle(evaluateRequest(shippedTripleBody()));
    });
    other.join();
    auto waited = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(second.status, 200);
    EXPECT_FALSE(wedgedDone.load())
        << "the second request waited for the wedged evaluation";
    EXPECT_LT(waited, std::chrono::milliseconds(300));

    wedged.join();
    EXPECT_EQ(wedgedResp.status, 200);
    EXPECT_EQ(wedgedResp.body, second.body);
    EXPECT_EQ(service.dispatcher().stats().requests, 2);
}

TEST(Batching, LruCacheEvictsLeastRecentlyUsed)
{
    LruCache<int, std::string> cache(2);
    EXPECT_EQ(cache.put(1, "one"), 0u);
    EXPECT_EQ(cache.put(2, "two"), 0u);
    ASSERT_NE(cache.get(1), nullptr); // Touch 1; 2 is now oldest.
    EXPECT_EQ(cache.put(3, "three"), 1u);
    EXPECT_EQ(cache.get(2), nullptr);
    ASSERT_NE(cache.peek(1), nullptr);
    EXPECT_EQ(*cache.peek(1), "one");
    ASSERT_NE(cache.get(3), nullptr);
    EXPECT_EQ(cache.size(), 2u);
}

} // namespace madmax
