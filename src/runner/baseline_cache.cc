#include "runner/baseline_cache.hh"

#include <chrono>
#include <utility>

#include "runner/sweep_spec.hh"
#include "sim/simulator.hh"

namespace smt {

namespace {

double
simulateBaseline(const SimConfig &cfg, const std::string &bench,
                 std::uint64_t commits, std::uint64_t warmup,
                 Cycle maxCycles)
{
    // A baseline is the bench alone on the single-core machine,
    // whatever chip the sweep point simulates: the cache key leaves
    // cfg.soc out, so every chip shape must get the same number.
    SimConfig one = cfg;
    one.soc = SocParams();
    Simulator sim(one, {bench}, PolicyKind::Icount);
    const SimResult res = sim.run(commits, maxCycles, warmup);
    return res.threads[0].ipc;
}

} // anonymous namespace

BaselineCache::BaselineCache() : compute(simulateBaseline) {}

BaselineCache::BaselineCache(Compute compute_)
    : compute(std::move(compute_))
{
}

double
BaselineCache::ipc(const SimConfig &cfg, const std::string &bench,
                   std::uint64_t commits, std::uint64_t warmup,
                   Cycle maxCycles)
{
    // The baseline run is always single-threaded (a 1-core machine
    // sizes its contexts to the bench count), so configs differing
    // only in numThreads share one entry.
    SimConfig keyCfg = cfg;
    keyCfg.core.numThreads = 1;
    std::string key = configKey(keyCfg);
    key += '|';
    key += bench;
    key += '|';
    key += std::to_string(commits);
    key += '/';
    key += std::to_string(warmup);
    key += '/';
    key += std::to_string(maxCycles);

    std::promise<double> promise;
    std::shared_future<double> fut;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = entries.find(key);
        if (it == entries.end()) {
            fut = promise.get_future().share();
            entries.emplace(key, fut);
            owner = true;
        } else {
            fut = it->second;
        }
    }
    if (owner) {
        // Compute outside the lock: other keys stay serviceable and
        // waiters on this key block on the future, not the mutex.
        computes.fetch_add(1, std::memory_order_relaxed);
        try {
            promise.set_value(
                compute(cfg, bench, commits, warmup, maxCycles));
        } catch (...) {
            // Drop the entry BEFORE publishing the error: once
            // set_exception runs, waiters wake and may retry
            // immediately — if the poisoned entry were still in the
            // map they would join the dead future instead of
            // recomputing. Evict first, then propagate the real
            // error to the waiters already attached.
            {
                std::lock_guard<std::mutex> lock(mu);
                entries.erase(key);
            }
            promise.set_exception(std::current_exception());
        }
    } else if (hostTiming) {
        waits.fetch_add(1, std::memory_order_relaxed);
        // smtlint:allow(D1): --prof host timing; lands only in prof sidecars, never in deterministic output
        const auto t0 = std::chrono::steady_clock::now();
        fut.wait();
        waitNs.fetch_add(
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    // smtlint:allow(D1): --prof host timing, as above
                    std::chrono::steady_clock::now() - t0)
                    .count()),
            std::memory_order_relaxed);
    }
    return fut.get();
}

std::size_t
BaselineCache::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return entries.size();
}

} // namespace smt
