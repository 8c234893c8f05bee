/**
 * @file
 * Shared pieces of the repository benchmark: the CPU warmer, sample
 * sets with nearest-rank percentiles, the metric sink every phase
 * reports into, the operation tally behind ok_frac, and the span
 * recorder of the traced run.
 *
 * Spans are recorded only here, around calls into each layer's public
 * functions; the library itself is never instrumented. A span's layer
 * is the part of its name before the first '.', so "core.eval" is
 * charged to `core`. Self time (a span's duration minus the part its
 * child spans cover) is accumulated online per layer, and the first
 * kMaxStoredSpans spans are kept in memory and written out at exit.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/**
 * Keeps every CPU busy with a spinning thread at the lowest scheduling
 * priority (SCHED_IDLE) while alive. Any runnable benchmark or library
 * thread preempts a spinner at once, so the spinners only fill time
 * the CPUs would otherwise spend halted. On a shared 4-core Xeon
 * virtual machine, waking a halted virtual CPU took up to
 * milliseconds, depending on the host's load; every cross-thread
 * hand-off (thread pool, event loop, workers, generator) paid it, and
 * it moved latency and pool-search medians by up to 2x from run to
 * run. The measured phases run with a warmer alive.
 */
class CpuWarmer
{
  public:
    CpuWarmer();
    ~CpuWarmer();

    CpuWarmer(const CpuWarmer &) = delete;
    CpuWarmer &operator=(const CpuWarmer &) = delete;

    /** CPU seconds the spinners have used, to subtract from process
     *  CPU time. */
    double cpuSeconds() const;

  private:
    std::atomic<bool> stop_{false};
    std::vector<std::thread> threads_;
};

/** A set of timing samples; percentiles are nearest-rank. */
class Samples
{
  public:
    void add(double v) { v_.push_back(v); }
    size_t size() const { return v_.size(); }
    bool empty() const { return v_.empty(); }

    /** Nearest-rank percentile, p in (0, 1]. */
    double pct(double p) const
    {
        if (v_.empty())
            return 0.0;
        std::vector<double> s = v_;
        std::sort(s.begin(), s.end());
        size_t rank = static_cast<size_t>(std::ceil(p * s.size()));
        return s[std::min(s.size(), std::max<size_t>(rank, 1)) - 1];
    }

    /**
     * Median, over consecutive windows of @p window samples in
     * insertion order, of each window's p-th percentile (a short
     * stall then inflates one window, not the result). A trailing
     * partial window is dropped unless it is the only one.
     */
    double windowedPct(double p, size_t window) const
    {
        Samples per;
        for (size_t i = 0; i + window <= v_.size(); i += window) {
            Samples w;
            w.v_.assign(v_.begin() + i, v_.begin() + i + window);
            per.add(w.pct(p));
        }
        return per.empty() ? pct(p) : per.pct(0.5);
    }

  private:
    std::vector<double> v_;
};

/** One reported metric: value, unit and the sample count behind it. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    long samples = 0;
};

/** Named metrics of one run, in insertion-independent (sorted) order. */
class MetricSink
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit, long samples)
    {
        m_[name] = Metric{value, unit, samples};
    }

    /** Median and p99 of @p s as NAME.p50 / NAME.p99. */
    void percentiles(const std::string &name, const Samples &s,
                     const std::string &unit, bool with_p99 = true)
    {
        set(name + ".p50", s.pct(0.50), unit, static_cast<long>(s.size()));
        if (with_p99)
            set(name + ".p99", s.pct(0.99), unit,
                static_cast<long>(s.size()));
    }

    const std::map<std::string, Metric> &all() const { return m_; }

  private:
    std::map<std::string, Metric> m_;
};

/** Operations attempted and operations that passed the output checks. */
struct Tally
{
    long attempted = 0;
    long passed = 0;
    std::vector<std::string> firstFailures; ///< A few, for the log.

    void record(bool ok, const std::string &why = {})
    {
        ++attempted;
        if (ok)
            ++passed;
        else if (firstFailures.size() < 5)
            firstFailures.push_back(why);
    }
};

/**
 * In-memory span recorder for the traced run. Disabled (the default)
 * it costs one branch per Scope. Thread-safe: each thread keeps its
 * own open-span stack; completed spans and per-layer totals go under
 * one mutex.
 */
class Tracer
{
  public:
    struct Span
    {
        uint32_t name = 0;    ///< Index into the interned names.
        int32_t parent = -1;  ///< Index of the enclosing stored span.
        uint32_t request = 0; ///< Request id (0 = none).
        uint32_t thread = 0;
        int64_t start = 0;    ///< ns, steady clock.
        int64_t end = 0;
    };

    static constexpr size_t kMaxStoredSpans = 400000;

    static Tracer &get()
    {
        static Tracer t;
        return t;
    }

    bool enabled() const { return enabled_; }
    void enable() { enabled_ = true; }

    /** RAII span. Nesting on one thread sets the parent. */
    class Scope
    {
      public:
        Scope(const char *name, uint32_t request = 0)
        {
            Tracer &t = Tracer::get();
            if (!t.enabled_)
                return;
            active_ = true;
            t.open(name, request);
        }
        ~Scope()
        {
            if (active_)
                Tracer::get().close();
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        bool active_ = false;
    };

    /**
     * Record an already-measured root span whose children ran on
     * other threads (a client request and the server's handling of
     * it), with its self time supplied by the caller.
     */
    void record(const char *name, int64_t start, int64_t end,
                uint32_t request, int64_t selfNs);

    /** Self time per layer, ns. */
    std::map<std::string, double> layerSelfNs() const;

    /** Write the stored spans as a Chrome trace (traceEvents). */
    bool write(const std::string &path) const;

    size_t spanCount() const { return total_; }

  private:
    struct Open
    {
        std::string layer;
        int64_t start = 0;
        int64_t childNs = 0;
        int32_t stored = -1; ///< Index in spans_, or -1 past the cap.
    };

    void open(const char *name, uint32_t request);
    void close();

    /** Store a span (under mutex_); returns its index or -1. */
    int32_t store(const char *name, uint32_t request, int32_t parent,
                  int64_t start);
    uint32_t threadId();

    static thread_local std::vector<Open> stack_; ///< Innermost last.
    static thread_local uint32_t thread_;

    bool enabled_ = false;
    mutable std::mutex mutex_;
    std::map<std::string, uint32_t> ids_;
    std::vector<std::string> names_;
    std::vector<Span> spans_;
    std::map<std::string, double> selfNs_;
    size_t total_ = 0;
    uint32_t nextThread_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
