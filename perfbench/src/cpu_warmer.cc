/**
 * @file
 * CpuWarmer (see bench.hh).
 */

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include "bench.hh"

namespace perfbench
{

CpuWarmer::CpuWarmer()
{
    unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < n; ++i) {
        threads_.emplace_back([this] {
            sched_param param{};
            pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
            while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
                __builtin_ia32_pause();
#endif
            }
        });
    }
}

double
CpuWarmer::cpuSeconds() const
{
    double total = 0;
    for (const std::thread &t : threads_) {
        clockid_t clock;
        timespec ts{};
        if (pthread_getcpuclockid(const_cast<std::thread &>(t).native_handle(),
                                  &clock) == 0 &&
            clock_gettime(clock, &ts) == 0)
            total += ts.tv_sec + ts.tv_nsec / 1e9;
    }
    return total;
}

CpuWarmer::~CpuWarmer()
{
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread &t : threads_)
        t.join();
}

} // namespace perfbench
