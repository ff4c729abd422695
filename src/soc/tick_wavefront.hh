/**
 * @file
 * Synchronization core of the parallel chip tick ("wavefront"
 * execution): the N cores of a ChipSimulator tick concurrently on
 * worker threads in *quanta* of consecutive chip cycles, and
 * determinism at the shared-LLC boundary is preserved by ordering,
 * not buffering.
 *
 * Order. The serial chip ticks core 0..N-1 in cycle 1, then
 * 0..N-1 in cycle 2, and so on: its LLC accesses follow the
 * lexicographic order on (cycle, core) pairs. A core's first LLC
 * access in *its own* cycle T blocks until
 *   - every lower-id core k < i has finished cycle T, and
 *   - every higher-id core k > i has finished cycle T-1,
 * i.e. until every (cycle, core) pair that precedes (T, i) has
 * completed. Pairs that follow (T, i) cannot touch the LLC either:
 * a lower-id core's (T+1, k) waits for (T, i) by the second rule,
 * a higher-id core's (T, k) by the first. So LLC accesses are
 * mutually exclusive and happen in exactly the serial order. LLC
 * results (hit/ready) are consumed synchronously mid-tick by the
 * pipelines, cores share no other state, and the whole simulation
 * stays byte-identical to --chip-jobs 1 (pinned by the
 * parallel-vs-serial golden tests). Between LLC accesses a core
 * runs ahead of its peers freely, up to the quantum end.
 *
 * Deadlock freedom. Every worker ticks its cores cycle by cycle and,
 * within a cycle, in ascending id order, so it completes its pairs
 * in (cycle, core) order. Take the smallest pair (T, i) not yet
 * completed across the chip: its worker is working on it (all of
 * that worker's earlier pairs are done), and every pair it may wait
 * on is strictly smaller, hence completed. So the smallest pending
 * pair always makes progress and the quantum always finishes.
 *
 * Quanta. The main thread publishes a quantum end E (beginQuantum),
 * every worker ticks its cores through E and marks each
 * (cycle, core) pair done (coreDone), and the main thread waits for
 * all cores to reach E (awaitAll) before it touches any chip state.
 * A core's current cycle is its done cycle + 1 and lives in its
 * CoreSync line, so the gate needs no published per-cycle value.
 *
 * All waits spin briefly and then yield: a simulated cycle is
 * microseconds of host work, but the host may have fewer free CPUs
 * than workers, and a pure spin would burn the very scheduling
 * quantum the awaited worker needs.
 */

#ifndef DCRA_SMT_SOC_TICK_WAVEFRONT_HH
#define DCRA_SMT_SOC_TICK_WAVEFRONT_HH

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/shared_cache.hh"

namespace smt {

class HostProfiler;

class TickWavefront : public LlcAccessGate
{
  public:
    /** awaitQuantum() result meaning "shut down" (requestStop()). */
    static constexpr Cycle stopCycle = ~Cycle(0);

    /** @p startCycle: the chip cycle every core has finished. */
    explicit TickWavefront(int numCores, Cycle startCycle = 0);

    /** Publish quantum end @p end and release the workers. Main
     *  thread only, after awaitAll() of the previous quantum. */
    void beginQuantum(Cycle end);

    /** Block until a quantum end newer than @p last is published;
     *  returns it (stopCycle after requestStop()). Worker threads. */
    Cycle awaitQuantum(Cycle last) const;

    /** Mark @p core's tick for cycle @p t complete. */
    void coreDone(int core, Cycle t);

    /** Block until every core has completed cycle @p t. */
    void awaitAll(Cycle t) const;

    /** Publish the poison end: workers return stopCycle from
     *  awaitQuantum and exit. Main thread, after awaitAll(). */
    void requestStop();

    /**
     * LlcAccessGate: called by SharedCache::access on the worker
     * ticking @p core; the first call of a core's cycle T blocks
     * until lower-id cores finished T and higher-id cores finished
     * T-1, later calls in the same cycle return immediately.
     */
    void enter(int core) override;

    /**
     * @name Host contention accounting (--prof)
     *
     * Per-core gate-wait counters, mutated only by the worker that
     * owns the core (one plain store per *blocked* enter(), after
     * the wait resolves) and read only after the workers joined.
     * With no profiler attached enter() pays a single null test.
     */
    /** @{ */
    struct WaveStats
    {
        std::uint64_t gateWaits = 0; //!< enter() calls that blocked
        std::uint64_t spinIters = 0; //!< pause-loop iterations
        std::uint64_t yieldIters = 0; //!< iterations past the spin
                                      //!< budget (each one yielded)
        std::uint64_t yieldTransitions = 0; //!< waits that escalated
                                            //!< from spin to yield
        std::uint64_t waitNs = 0; //!< host wall time blocked
        std::vector<std::uint64_t> awaited; //!< waits first blocked
                                            //!< on core [k]
    };

    /** Attach the profiler; registers the wave.c<k>.gate scopes.
     *  Call before the workers start. */
    void setHostProfiler(HostProfiler *prof);

    /** Per-core wait totals; valid after the workers joined. */
    const WaveStats &waveStats(int core) const
    {
        return stats[static_cast<std::size_t>(core)];
    }
    /** @} */

  private:
    /** One cache line per core: its completion cycle (whose
     *  successor is the cycle the core is ticking) plus the owning
     *  worker's gate-grant cache, false-sharing-free. */
    struct alignas(64) CoreSync
    {
        std::atomic<Cycle> done{0}; //!< last fully ticked cycle
        Cycle granted = 0; //!< cycle enter() last granted (owning
                           //!< worker only; no concurrent access)
    };

    /** Spin for a few iterations, then yield the host CPU. */
    static void backoff(unsigned &spins);

    /** Has core @p k finished cycle @p t? */
    bool
    finished(int k, Cycle t) const
    {
        return cs[static_cast<std::size_t>(k)].done.load(
                   std::memory_order_acquire) >= t;
    }

    int nCores;
    std::vector<CoreSync> cs;
    std::atomic<Cycle> go; //!< quantum end the workers may tick to

    HostProfiler *hprof = nullptr;
    std::vector<WaveStats> stats;   //!< per core, owner-written
    std::vector<int> gateScope;     //!< wave.c<k>.gate scope ids
};

} // namespace smt

#endif // DCRA_SMT_SOC_TICK_WAVEFRONT_HH
