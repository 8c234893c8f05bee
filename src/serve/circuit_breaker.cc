#include "serve/circuit_breaker.hh"

#include "util/logging.hh"

namespace madmax
{

namespace
{

/** Ceil a remaining cool-down to whole seconds, at least 1. */
long
retryAfterFor(std::chrono::steady_clock::duration remaining)
{
    auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                  remaining)
                  .count();
    if (ms <= 0)
        return 1;
    return (ms + 999) / 1000;
}

} // namespace

CircuitBreaker::CircuitBreaker(CircuitBreakerOptions options)
    : options_(options)
{
    if (options_.failureThreshold < 1)
        fatal("CircuitBreaker: failureThreshold must be >= 1");
    if (options_.openMillis < 1)
        fatal("CircuitBreaker: openMillis must be >= 1");
}

bool
CircuitBreaker::admit(uint64_t key, long *retryAfterSeconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end())
        return true; // Clean key: no bookkeeping, no gate.
    Entry &e = it->second;
    switch (e.state) {
    case State::Closed:
        return true;
    case State::Open: {
        auto elapsed = Clock::now() - e.openedAt;
        auto coolDown = std::chrono::milliseconds(options_.openMillis);
        if (elapsed < coolDown) {
            ++stats_.rejects;
            if (retryAfterSeconds)
                *retryAfterSeconds = retryAfterFor(coolDown - elapsed);
            return false;
        }
        e.state = State::HalfOpen;
        e.probeInFlight = true;
        e.probeStartedAt = Clock::now();
        ++stats_.probes;
        return true;
    }
    case State::HalfOpen:
        if (e.probeInFlight &&
            Clock::now() - e.probeStartedAt <
                std::chrono::milliseconds(options_.openMillis)) {
            // One probe at a time: everyone else keeps fast-failing
            // until the probe's verdict is in. A probe that never
            // reports (e.g. its evaluation wedged) forfeits its slot
            // after one cool-down period, so a lost probe cannot
            // wedge the key open forever.
            ++stats_.rejects;
            if (retryAfterSeconds)
                *retryAfterSeconds = 1;
            return false;
        }
        e.probeInFlight = true;
        e.probeStartedAt = Clock::now();
        ++stats_.probes;
        return true;
    }
    return true;
}

void
CircuitBreaker::recordSuccess(uint64_t key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end())
        return;
    Entry &e = it->second;
    if (e.state == State::HalfOpen)
        ++stats_.recoveries;
    if (e.state != State::Closed)
        --stats_.openNow;
    // Back to a clean Closed state: drop the bookkeeping so the table
    // only holds troubled keys.
    entries_.erase(it);
}

void
CircuitBreaker::recordFailure(uint64_t key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &e = entries_[key];
    switch (e.state) {
    case State::Closed:
        if (++e.consecutiveFailures >= options_.failureThreshold) {
            e.state = State::Open;
            e.openedAt = Clock::now();
            ++stats_.trips;
            ++stats_.openNow;
        }
        break;
    case State::HalfOpen:
        // The probe failed: restart the cool-down.
        e.state = State::Open;
        e.openedAt = Clock::now();
        e.probeInFlight = false;
        ++stats_.trips;
        break;
    case State::Open:
        // A request admitted before the trip finishing late; the
        // breaker is already open, just refresh nothing.
        break;
    }
}

CircuitBreakerStats
CircuitBreaker::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace madmax
