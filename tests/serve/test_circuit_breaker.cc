/**
 * @file
 * CircuitBreaker state-machine tests: trip after the failure
 * threshold, fast-fail while open, half-open single-probe admission
 * after the cool-down, recovery and re-open, per-key independence,
 * the lost-probe timeout, and counter accounting under concurrency
 * (this suite also runs under TSan).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "serve/circuit_breaker.hh"

namespace madmax
{

namespace
{

CircuitBreakerOptions
fastOptions(int threshold = 3, long openMillis = 30)
{
    CircuitBreakerOptions o;
    o.failureThreshold = threshold;
    o.openMillis = openMillis;
    return o;
}

void
failTimes(CircuitBreaker &cb, uint64_t key, int n)
{
    long retry = 0;
    for (int i = 0; i < n; ++i) {
        ASSERT_TRUE(cb.admit(key, &retry));
        cb.recordFailure(key);
    }
}

} // namespace

TEST(CircuitBreaker, ClosedAdmitsEverything)
{
    CircuitBreaker cb(fastOptions());
    long retry = 0;
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(cb.admit(7, &retry));
        cb.recordSuccess(7);
    }
    EXPECT_EQ(cb.stats().trips, 0);
    EXPECT_EQ(cb.stats().openNow, 0);
}

TEST(CircuitBreaker, TripsAfterConsecutiveFailures)
{
    CircuitBreaker cb(fastOptions(3));
    failTimes(cb, 7, 3);

    long retry = 0;
    EXPECT_FALSE(cb.admit(7, &retry));
    EXPECT_GE(retry, 1);
    CircuitBreakerStats s = cb.stats();
    EXPECT_EQ(s.trips, 1);
    EXPECT_EQ(s.rejects, 1);
    EXPECT_EQ(s.openNow, 1);
}

TEST(CircuitBreaker, SuccessResetsTheFailureStreak)
{
    CircuitBreaker cb(fastOptions(3));
    long retry = 0;
    failTimes(cb, 7, 2);
    ASSERT_TRUE(cb.admit(7, &retry));
    cb.recordSuccess(7); // streak back to 0
    failTimes(cb, 7, 2);
    EXPECT_TRUE(cb.admit(7, &retry)); // 2 + 2 never reaches 3
    EXPECT_EQ(cb.stats().trips, 0);
}

TEST(CircuitBreaker, HalfOpenAdmitsExactlyOneProbe)
{
    CircuitBreaker cb(fastOptions(2, 20));
    failTimes(cb, 7, 2);
    long retry = 0;
    ASSERT_FALSE(cb.admit(7, &retry));

    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    EXPECT_TRUE(cb.admit(7, &retry));  // the half-open probe
    EXPECT_FALSE(cb.admit(7, &retry)); // concurrent request: rejected
    EXPECT_EQ(cb.stats().probes, 1);
}

TEST(CircuitBreaker, ProbeSuccessClosesAndFailureReopens)
{
    CircuitBreaker cb(fastOptions(2, 20));
    long retry = 0;

    failTimes(cb, 7, 2);
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    ASSERT_TRUE(cb.admit(7, &retry));
    cb.recordFailure(7); // probe failed: straight back to open
    EXPECT_FALSE(cb.admit(7, &retry));
    EXPECT_EQ(cb.stats().trips, 2);

    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    ASSERT_TRUE(cb.admit(7, &retry));
    cb.recordSuccess(7); // probe succeeded: closed again
    EXPECT_TRUE(cb.admit(7, &retry));
    cb.recordSuccess(7);
    CircuitBreakerStats s = cb.stats();
    EXPECT_EQ(s.recoveries, 1);
    EXPECT_EQ(s.openNow, 0);
}

TEST(CircuitBreaker, LostProbeForfeitsItsSlotAfterOneCooldown)
{
    CircuitBreaker cb(fastOptions(2, 20));
    long retry = 0;
    failTimes(cb, 7, 2);
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    ASSERT_TRUE(cb.admit(7, &retry));
    // The probe never records an outcome (e.g. its evaluation
    // wedged). The key must not wedge rejected forever: after
    // another cool-down the next request becomes the new probe.
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    EXPECT_TRUE(cb.admit(7, &retry));
    cb.recordSuccess(7);
    EXPECT_EQ(cb.stats().openNow, 0);
}

TEST(CircuitBreaker, KeysAreIndependent)
{
    CircuitBreaker cb(fastOptions(2));
    long retry = 0;
    failTimes(cb, 7, 2);
    EXPECT_FALSE(cb.admit(7, &retry));
    EXPECT_TRUE(cb.admit(8, &retry)); // untouched key stays closed
    cb.recordSuccess(8);
    EXPECT_EQ(cb.stats().openNow, 1);
}

TEST(CircuitBreaker, LateSuccessOnOpenKeyDrainsOpenNow)
{
    // A request admitted before the trip can report success after it;
    // the accounting must not leak the openNow gauge.
    CircuitBreaker cb(fastOptions(2));
    long retry = 0;
    ASSERT_TRUE(cb.admit(7, &retry)); // in flight through the trip
    failTimes(cb, 7, 2);
    ASSERT_EQ(cb.stats().openNow, 1);
    cb.recordSuccess(7);
    EXPECT_EQ(cb.stats().openNow, 0);
}

TEST(CircuitBreaker, ConcurrentHammeringKeepsCountersConsistent)
{
    CircuitBreaker cb(fastOptions(5, 10));
    std::atomic<long> admitted{0}, rejected{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&cb, &admitted, &rejected, t] {
            for (int i = 0; i < 500; ++i) {
                uint64_t key = static_cast<uint64_t>(i % 3);
                long retry = 0;
                if (cb.admit(key, &retry)) {
                    ++admitted;
                    // Poison one key, heal the others.
                    if (key == 0 && t % 2 == 0)
                        cb.recordFailure(key);
                    else
                        cb.recordSuccess(key);
                } else {
                    ++rejected;
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    CircuitBreakerStats s = cb.stats();
    EXPECT_EQ(admitted.load() + rejected.load(), 4 * 500);
    EXPECT_EQ(s.rejects, rejected.load());
    EXPECT_GE(s.trips, 0);
    EXPECT_GE(s.openNow, 0);
    EXPECT_LE(s.openNow, 3);
}

} // namespace madmax
