/**
 * @file
 * The open-loop serve phase: an in-process EvalService + HttpServer
 * (shipped defaults except jobs 1 and 2 workers) driven by one
 * generator thread over 4 pipelined keep-alive connections. Arrivals
 * are seeded Poisson at 500 and then 2000 req/s; 80% of requests pick
 * one of 32 pre-warmed hot triples, 20% carry a never-seen system
 * document. Latency is timed from each request's due time, and every
 * 200 body is compared byte for byte with the library rendering of
 * the same triple after the phase.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <deque>
#include <random>

#include "config/config_loader.hh"
#include "core/strategy_explorer.hh"
#include "hw/hw_zoo.hh"
#include "phases.hh"
#include "serve/http_server.hh"
#include "serve/service.hh"

using namespace madmax;

namespace perfbench
{

namespace
{

constexpr int kConnections = 4;
constexpr int kWorkers = 2;
constexpr size_t kHotTriples = 32;
constexpr double kHotShare = 0.8;
constexpr double kLoRate = 500.0;
constexpr double kHiRate = 2000.0;
constexpr double kSloMs = 10.0;

/**
 * Latency percentiles are medians over consecutive windows of this
 * many requests (each window leaves 10 samples beyond its p99; cold
 * requests use a quarter of it). The machine's CPUs are shared, and a
 * window caught in a burst of stolen time measures the host, not the
 * program; the median over windows keeps such bursts out unless they
 * cover most of the phase.
 */
constexpr size_t kWindow = 1000;

/** Untimed lo-rate warm-up before the first slice. */
constexpr double kWarmSeconds = 0.25;

/** Request ids the traced handler can time. */
constexpr size_t kMaxRequests = size_t{1} << 18;

/** Requests the server answers per connection before closing it
 *  (HttpServerOptions::keepAliveMaxRequests default). The generator
 *  retires a connection after this many sends instead of having
 *  pipelined requests cut off behind the closing response. */
const long kPerConnection = HttpServerOptions{}.keepAliveMaxRequests;

const char *const kModels[] = {"DLRM-A",    "DLRM-A-Transformer",
                               "DLRM-A-MoE", "GPT-3",
                               "LLaMA2-70B", "LLM-MoE"};

const char *
classKey(LayerClass cls)
{
    switch (cls) {
      case LayerClass::SparseEmbedding: return "sparse_embedding";
      case LayerClass::DenseEmbedding: return "dense_embedding";
      case LayerClass::BaseDense: return "base_dense";
      case LayerClass::Transformer: return "transformer";
      case LayerClass::MoE: return "moe";
    }
    return "base_dense";
}

/** One parsed response, as the generator reads it off a socket. */
struct Response
{
    int status = 0;
    std::string body;
};

/** One scheduled request and what came back. */
struct Req
{
    int64_t due = 0; ///< Absolute ns (steady clock).
    int rate = 0;    ///< 0 warm-up, 1 lo, 2 hi.
    int hot = -1;    ///< Hot-set index, or -1 for cold.
    std::string body;  ///< Cold body (hot ones live in the hot set).
    std::string wire;  ///< Request bytes; freed once sent.
    int64_t sent = 0, recv = 0;
    Response resp;
};

/** A generator-side connection. */
struct Conn
{
    int fd = -1;
    std::string out;          ///< Bytes not yet written.
    std::string in;           ///< Bytes read, not yet parsed.
    std::deque<uint32_t> ids; ///< Requests awaiting a response, FIFO.
    long sent = 0;
    bool retiring = false;    ///< Sent its quota; close once drained.
};

int
connectLoopback(int port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0)
        return -1;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
            0 &&
        errno != EINPROGRESS) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Pop one complete response off @p buf; false if incomplete. */
bool
parseResponse(std::string &buf, Response &r)
{
    size_t hdrEnd = buf.find("\r\n\r\n");
    if (hdrEnd == std::string::npos)
        return false;
    size_t cl = buf.find("Content-Length:");
    if (cl == std::string::npos || cl > hdrEnd)
        cl = buf.find("content-length:");
    size_t len = (cl == std::string::npos || cl > hdrEnd)
                     ? 0
                     : std::strtoul(buf.c_str() + cl + 15, nullptr, 10);
    if (buf.size() < hdrEnd + 4 + len)
        return false;
    r.status = buf.size() > 12 ? std::atoi(buf.c_str() + 9) : 0;
    r.body.assign(buf, hdrEnd + 4, len);
    buf.erase(0, hdrEnd + 4 + len);
    return true;
}

/** Library rendering of an evaluate body: what /v1/evaluate must
 *  answer, byte for byte. */
std::string
libraryRendering(const std::string &body, Samples *parseUs,
                 Samples *renderUs)
{
    int64_t t0 = nowNs();
    ModelDesc model;
    ClusterSpec cluster;
    TaskConfig task;
    {
        Tracer::Scope scope("config.parse");
        JsonValue doc = JsonValue::parse(body);
        model = loadModel(doc.at("model"));
        cluster = loadCluster(doc.at("system"));
        task = loadTask(doc.at("task"));
    }
    if (parseUs)
        parseUs->add((nowNs() - t0) / 1e3);
    PerfReport report;
    {
        Tracer::Scope scope("core.evaluate");
        report = PerfModel(cluster).evaluate(model, task.task, task.plan);
    }
    int64_t r0 = nowNs();
    std::string out;
    {
        Tracer::Scope scope("core.render");
        out = toJson(report).dump(2) + "\n";
    }
    if (renderUs)
        renderUs->add((nowNs() - r0) / 1e3);
    return out;
}

} // namespace

struct ServePhase::Impl
{
    RunConfig cfg;
    std::mt19937_64 rng;
    EvalService service;
    std::unique_ptr<HttpServer> server;

    std::vector<std::string> hotBodies;
    std::vector<ClusterSpec> systems;
    long coldCount = 0;

    /// Handler time per request id (traced runs), ns. Fixed size:
    /// the server's workers read it concurrently.
    std::vector<std::atomic<int64_t>> handleNs;

    /// State kept across slices.
    std::vector<Req> reqs;
    std::vector<Conn> conns;
    std::vector<size_t> slot; ///< Active connection per slot.
    int rr = 0;
    Samples lagMs;
    ConfigCache::Stats cc0;
    BatchDispatcherStats bd0;
    HttpServerStats tr0;

    void slice(double loSeconds, double hiSeconds);
    void drive(size_t first);

    explicit Impl(const RunConfig &c)
        : cfg(c), rng(c.seed * 0x2545f4914f6cdd1dull + 7),
          service([] {
              ServiceOptions o;
              o.jobs = 1;
              return o;
          }()),
          handleNs(kMaxRequests + 1)
    {
        systems = {hw_zoo::dlrmTrainingSystem(), hw_zoo::h100System(16),
                   hw_zoo::llmTrainingSystem()};

        HttpServerOptions hopts;
        hopts.port = 0;
        hopts.workers = kWorkers;
        hopts.classifier = [this](const HttpRequest &r) {
            return service.classify(r);
        };
        HttpHandler handler;
        if (cfg.trace) {
            handler = [this](const HttpRequest &r) {
                auto it = r.headers.find("x-bench-id");
                uint32_t id = it == r.headers.end()
                                  ? 0
                                  : static_cast<uint32_t>(
                                        std::stoul(it->second));
                int64_t t0 = nowNs();
                HttpResponse resp;
                {
                    Tracer::Scope scope("serve.handle", id);
                    resp = service.handle(r);
                }
                if (id < handleNs.size())
                    handleNs[id].store(nowNs() - t0,
                                       std::memory_order_relaxed);
                return resp;
            };
        } else {
            handler = [this](const HttpRequest &r) {
                return service.handle(r);
            };
        }
        server = std::make_unique<HttpServer>(handler, hopts);
        server->start();
        service.setTransportStatsProvider(
            [this] { return server->stats(); });

        // Hot set: seeded valid triples, pre-warmed into the engine
        // memo and the config cache.
        std::vector<PerfModel> perf;
        for (const ClusterSpec &s : systems)
            perf.emplace_back(s);
        while (hotBodies.size() < kHotTriples) {
            size_t m = rng() % std::size(kModels);
            size_t s = rng() % systems.size();
            JsonValue mj;
            mj.set("type", "zoo");
            mj.set("name", kModels[m]);
            std::string body = makeBody(mj, toJson(systems[s]));
            JsonValue doc = JsonValue::parse(body);
            TaskConfig t = loadTask(doc.at("task"));
            if (!perf[s].verdict(loadModel(mj), t.task, t.plan).valid)
                continue;
            if (std::find(hotBodies.begin(), hotBodies.end(), body) ==
                hotBodies.end())
                hotBodies.push_back(body);
        }
        HttpRequest warm;
        warm.method = "POST";
        warm.target = "/v1/evaluate";
        for (const std::string &b : hotBodies) {
            warm.body = b;
            service.handle(warm);
        }

        for (int i = 0; i < kConnections; ++i) {
            conns.push_back(Conn{});
            conns.back().fd = connectLoopback(server->port());
            slot.push_back(conns.size() - 1);
        }
        cc0 = service.configCache().stats();
        bd0 = service.dispatcher().stats();
        tr0 = server->stats();
        slice(kWarmSeconds, 0.0); // untimed warm-up (rate 0)
    }

    ~Impl()
    {
        for (Conn &c : conns)
            if (c.fd >= 0)
                ::close(c.fd);
        server->stop();
    }

    /** A seeded task object: pre-training or inference with a random
     *  candidate strategy for every layer class. */
    std::string makeBody(const JsonValue &model, JsonValue system)
    {
        ModelDesc desc = loadModel(model);
        JsonValue strategies;
        for (LayerClass cls :
             {LayerClass::SparseEmbedding, LayerClass::DenseEmbedding,
              LayerClass::BaseDense, LayerClass::Transformer,
              LayerClass::MoE}) {
            if (!desc.graph.hasClass(cls))
                continue;
            std::vector<HierStrategy> c = StrategyExplorer::candidates(cls);
            strategies.set(classKey(cls), c[rng() % c.size()].toString());
        }
        JsonValue task;
        task.set("task", rng() % 2 ? "pre-training" : "inference");
        task.set("strategies", std::move(strategies));
        JsonValue body;
        body.set("model", model);
        body.set("system", std::move(system));
        body.set("task", std::move(task));
        return body.dump(2);
    }

    /** A never-seen triple: a DLRM-A-family model on a fresh system
     *  document (unique name, seeded node count). */
    std::string coldBody()
    {
        static const char *const cheap[] = {"DLRM-A", "DLRM-A-MoE"};
        JsonValue mj;
        mj.set("type", "zoo");
        mj.set("name", cheap[rng() % 2]);
        JsonValue sys = toJson(systems[0]);
        sys.set("name", "cold-" + std::to_string(cfg.seed) + "-" +
                            std::to_string(coldCount++));
        static const long nodes[] = {4, 8, 16};
        sys.set("num_nodes", nodes[rng() % 3]);
        return makeBody(mj, std::move(sys));
    }
};

void
ServePhase::Impl::slice(double loSeconds, double hiSeconds)
{
    // Warm-up slices (before any request was scheduled) are rate 0.
    const bool warmup = reqs.empty();
    const size_t first = reqs.size();
    std::uniform_real_distribution<double> u(0, 1);
    double t = 0;
    const double rates[] = {kLoRate, kHiRate};
    const double spans[] = {loSeconds, hiSeconds};
    for (int r = 0; r < 2; ++r) {
        std::exponential_distribution<double> gap(rates[r]);
        double end = t + spans[r];
        for (;;) {
            t += gap(rng);
            if (t >= end)
                break;
            Req q;
            q.due = static_cast<int64_t>(t * 1e9);
            q.rate = warmup ? 0 : r + 1;
            if (u(rng) < kHotShare)
                q.hot = static_cast<int>(rng() % hotBodies.size());
            else
                q.body = coldBody();
            reqs.push_back(std::move(q));
        }
        t = end;
    }
    for (size_t i = first; i < reqs.size(); ++i) {
        const std::string &b =
            reqs[i].hot >= 0 ? hotBodies[reqs[i].hot] : reqs[i].body;
        reqs[i].wire = "POST /v1/evaluate HTTP/1.1\r\nHost: localhost\r\n"
                       "Content-Type: application/json\r\nX-Bench-Id: " +
                       std::to_string(i + 1) +
                       "\r\nContent-Length: " + std::to_string(b.size()) +
                       "\r\n\r\n" + b;
    }
    const int64_t t0 = nowNs();
    for (size_t i = first; i < reqs.size(); ++i)
        reqs[i].due += t0;
    drive(first);
}

void
ServePhase::Impl::drive(size_t first)
{
    size_t next = first, done = first;
    int64_t lastProgress = nowNs();
    auto settled = [&] {
        while (done < reqs.size() && (reqs[done].recv || reqs[done].sent < 0))
            ++done;
        return done == reqs.size();
    };
    while (!settled()) {
        int64_t now = nowNs();
        while (next < reqs.size() && reqs[next].due <= now) {
            size_t ci = slot[rr];
            if (conns[ci].retiring || conns[ci].fd < 0) {
                conns.push_back(Conn{});
                conns.back().fd = connectLoopback(server->port());
                slot[rr] = ci = conns.size() - 1;
            }
            Conn &c = conns[ci];
            rr = (rr + 1) % kConnections;
            Req &q = reqs[next];
            c.out += q.wire;
            std::string().swap(q.wire);
            c.ids.push_back(static_cast<uint32_t>(next));
            q.sent = now;
            if (q.rate != 0)
                lagMs.add((now - q.due) / 1e6);
            if (++c.sent >= kPerConnection)
                c.retiring = true;
            ++next;
        }
        std::vector<pollfd> pfds;
        std::vector<size_t> which;
        for (size_t i = 0; i < conns.size(); ++i) {
            Conn &c = conns[i];
            if (c.fd < 0)
                continue;
            if (!c.out.empty()) {
                ssize_t n = ::send(c.fd, c.out.data(), c.out.size(),
                                   MSG_NOSIGNAL);
                if (n > 0)
                    c.out.erase(0, static_cast<size_t>(n));
            }
            short ev = POLLIN;
            if (!c.out.empty())
                ev |= POLLOUT;
            pfds.push_back(pollfd{c.fd, ev, 0});
            which.push_back(i);
        }
        now = nowNs();
        int64_t waitNs = next < reqs.size()
                             ? std::max<int64_t>(0, reqs[next].due - now)
                             : 1'000'000;
        timespec ts{static_cast<time_t>(waitNs / 1'000'000'000),
                    static_cast<long>(waitNs % 1'000'000'000)};
        int rc = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
        if (rc < 0 && errno != EINTR)
            break;
        for (size_t k = 0; rc > 0 && k < pfds.size(); ++k) {
            if (!(pfds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Conn &c = conns[which[k]];
            char buf[65536];
            bool closed = false;
            for (;;) {
                ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
                if (n > 0) {
                    c.in.append(buf, static_cast<size_t>(n));
                    continue;
                }
                if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK))
                    closed = true;
                break;
            }
            int64_t at = nowNs();
            Response r;
            while (!c.ids.empty() && parseResponse(c.in, r)) {
                Req &q = reqs[c.ids.front()];
                c.ids.pop_front();
                q.recv = at;
                q.resp = std::move(r);
                lastProgress = at;
            }
            if (closed || (c.retiring && c.ids.empty())) {
                for (uint32_t id : c.ids)
                    reqs[id].sent = -1; // Never answered: a failure.
                c.ids.clear();
                ::close(c.fd);
                c.fd = -1;
            }
        }
        if (next == reqs.size() && nowNs() - lastProgress > 10'000'000'000)
            break; // Stalled: whatever is still missing counts failed.
    }
}

ServePhase::ServePhase(const RunConfig &cfg)
    : impl_(std::make_unique<Impl>(cfg))
{
}

ServePhase::~ServePhase() = default;

void
ServePhase::slice(double loSeconds, double hiSeconds)
{
    impl_->slice(loSeconds, hiSeconds);
}

void
ServePhase::finish(Tally &tally, MetricSink &e2e, MetricSink &layer)
{
    Impl &im = *impl_;
    const auto cc1 = im.service.configCache().stats();
    const auto bd1 = im.service.dispatcher().stats();
    const auto tr1 = im.server->stats();
    std::vector<Req> &reqs = im.reqs;

    // Checks and metrics, outside the timed region.
    if (im.cfg.inject == "corrupt") {
        for (size_t i = 0; i < reqs.size(); i += 50)
            if (!reqs[i].resp.body.empty())
                reqs[i].resp.body[reqs[i].resp.body.size() / 2] ^= 1;
    }
    Samples parseUs, renderUs;
    std::vector<std::string> hotExpected;
    for (const std::string &b : im.hotBodies)
        hotExpected.push_back(libraryRendering(b, nullptr, &renderUs));

    Samples lat[2], coldHi, handleUs, wireUs;
    long hiSent = 0, hiWithinSlo = 0;
    for (size_t i = 0; i < reqs.size(); ++i) {
        Req &q = reqs[i];
        bool ok = q.recv != 0 && q.resp.status == 200;
        if (ok) {
            const std::string expected =
                q.hot >= 0 ? hotExpected[q.hot]
                           : libraryRendering(q.body, &parseUs, &renderUs);
            ok = q.resp.body == expected;
        }
        tally.record(ok, "request " + std::to_string(i) + " status " +
                             std::to_string(q.resp.status));
        if (q.rate == 0)
            continue;
        double ms = q.recv ? (q.recv - q.due) / 1e6 : 1e9;
        const bool hi = q.rate == 2;
        lat[hi].add(ms);
        if (hi) {
            ++hiSent;
            if (q.recv && q.resp.status == 200 && ms <= kSloMs)
                ++hiWithinSlo;
            if (q.hot < 0)
                coldHi.add(ms);
        }
        int64_t h = i < kMaxRequests
                        ? im.handleNs[i + 1].load(std::memory_order_relaxed)
                        : 0;
        if (im.cfg.trace && q.recv && h > 0) {
            handleUs.add(h / 1e3);
            wireUs.add((q.recv - q.sent - h) / 1e3);
            Tracer::get().record("client.request", q.sent, q.recv,
                                 static_cast<uint32_t>(i + 1),
                                 q.recv - q.sent - h);
        }
    }

    for (int hi = 0; hi < 2; ++hi) {
        const std::string name = hi ? "lat_ms.hi" : "lat_ms.lo";
        const long n = static_cast<long>(lat[hi].size());
        e2e.set(name + ".p50", lat[hi].windowedPct(0.5, kWindow), "ms", n);
        e2e.set(name + ".p99", lat[hi].windowedPct(0.99, kWindow), "ms", n);
    }
    e2e.set("cold_ms.hi.p50", coldHi.windowedPct(0.5, kWindow / 4), "ms",
            static_cast<long>(coldHi.size()));
    e2e.set("slo_frac.hi",
            hiSent ? static_cast<double>(hiWithinSlo) / hiSent : 0.0,
            "ratio", hiSent);

    auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const auto &cc0 = im.cc0;
    const auto &bd0 = im.bd0;
    long ccHits = cc1.hits - cc0.hits, ccMiss = cc1.misses - cc0.misses;
    long windows = bd1.windows - bd0.windows;
    long inWindows = bd1.requests - bd0.requests;
    long memoFast = bd1.memoFastPath - bd0.memoFastPath;
    layer.percentiles("config.parse_us", parseUs, "us", false);
    layer.set("config.cache_hit_frac", frac(ccHits, ccHits + ccMiss),
              "ratio", ccHits + ccMiss);
    layer.set("config.cache_evictions",
              static_cast<double>(cc1.evictions - cc0.evictions), "count",
              1);
    layer.percentiles("core.render_us", renderUs, "us", false);
    layer.percentiles("serve.handle_us", handleUs, "us");
    layer.percentiles("serve.wire_us", wireUs, "us", false);
    layer.set("serve.window_occupancy", frac(inWindows, windows), "count",
              windows);
    layer.set("serve.coalesced_frac",
              frac(bd1.coalesced - bd0.coalesced, inWindows), "ratio",
              inWindows);
    layer.set("serve.memo_fast_frac", frac(memoFast, memoFast + inWindows),
              "ratio", memoFast + inWindows);
    layer.set("serve.shed",
              static_cast<double>(tr1.rejectedQueueFull -
                                  im.tr0.rejectedQueueFull),
              "count", static_cast<long>(reqs.size()));
    layer.set("serve.gen_lag_ms.p99", im.lagMs.pct(0.99), "ms",
              static_cast<long>(im.lagMs.size()));
}

} // namespace perfbench
