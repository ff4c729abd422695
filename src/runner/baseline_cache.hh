/**
 * @file
 * Concurrency-safe cache of single-thread baseline IPCs, the
 * denominators of the Hmean metric. Keyed by (hardware config,
 * benchmark, run budget) so one baseline is computed exactly once
 * per distinct configuration across a whole sweep, no matter how
 * many worker threads ask for it at the same time: the first caller
 * computes, concurrent callers block on a shared future.
 */

#ifndef DCRA_SMT_RUNNER_BASELINE_CACHE_HH
#define DCRA_SMT_RUNNER_BASELINE_CACHE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <string>

#include "common/types.hh"
#include "sim/sim_config.hh"

namespace smt {

class BaselineCache
{
  public:
    /**
     * Baseline producer: single-thread IPC of one benchmark under
     * one configuration and run budget. Replaceable for tests.
     */
    using Compute = std::function<double(
        const SimConfig &cfg, const std::string &bench,
        std::uint64_t commits, std::uint64_t warmup,
        Cycle maxCycles)>;

    /** Default producer: a single-thread ICOUNT simulation. */
    BaselineCache();

    /** Inject a producer (tests). */
    explicit BaselineCache(Compute compute);

    /**
     * Single-thread IPC of @p bench under @p cfg on the single-core
     * machine: cfg.soc is ignored and numThreads is normalised to 1
     * in the cache key, as a one-bench 1-core run sizes its
     * contexts to the bench count. Computes on first use,
     * returns the cached value afterwards; safe to call from any
     * number of threads concurrently.
     */
    double ipc(const SimConfig &cfg, const std::string &bench,
               std::uint64_t commits, std::uint64_t warmup,
               Cycle maxCycles = 50'000'000);

    /** Times the producer actually ran (tests: must be one/key). */
    std::uint64_t computeCount() const
    {
        return computes.load(std::memory_order_relaxed);
    }

    /** @name Host-profiling counters (--prof)
     * Opt in BEFORE any concurrent ipc() calls: with host timing on,
     * every non-owner ipc() call counts as a wait and the wall time
     * it spent blocked on another thread's compute is accumulated.
     * Off (the default), ipc() takes no clock readings at all. The
     * counters are host data — they never reach any deterministic
     * output.
     */
    /** @{ */
    void enableHostTiming(bool on) { hostTiming = on; }
    std::uint64_t waitCount() const
    {
        return waits.load(std::memory_order_relaxed);
    }
    std::uint64_t waitNanos() const
    {
        return waitNs.load(std::memory_order_relaxed);
    }
    /** @} */

    /** Distinct keys cached so far. */
    std::size_t size() const;

  private:
    Compute compute;
    mutable std::mutex mu;
    std::map<std::string, std::shared_future<double>> entries;
    std::atomic<std::uint64_t> computes{0};
    bool hostTiming = false;
    std::atomic<std::uint64_t> waits{0};
    std::atomic<std::uint64_t> waitNs{0};
};

} // namespace smt

#endif // DCRA_SMT_RUNNER_BASELINE_CACHE_HH
