/**
 * @file
 * Synchronization core of a chip run ("wavefront" execution): the N
 * cores of a ChipSimulator tick in *quanta* of consecutive chip
 * cycles — concurrently on worker threads under --chip-jobs > 1 —
 * and reach the shared LLC through split transactions that this
 * class orders. It is the one LLC ordering mechanism of every
 * multi-core chip, whatever its worker count; determinism comes
 * from ordering, not buffering.
 *
 * Order. The serial chip ticks core 0..N-1 in cycle 1, then 0..N-1
 * in cycle 2, and so on: its LLC accesses follow the lexicographic
 * order on (cycle, core) pairs, then program order within a pair. A
 * core *posts* each private-L2 miss as a request (LlcPort::post) and
 * keeps ticking; requests are *resolved* — SharedCache::access
 * called with the posted arguments — one at a time, under a lock,
 * in (cycle, core, post) order. Request (T, i) is resolvable once
 * every earlier pair has completed:
 *   - every lower-id core k < i has finished cycle T, and
 *   - every higher-id core k > i has finished cycle T-1.
 * A completed pair has posted all its requests, so the resolver,
 * taking the smallest posted request whose pair passes that test,
 * never skips an earlier one: the LLC sees the serial access
 * sequence exactly, and the whole simulation stays byte-identical to
 * --chip-jobs 1 (pinned by the ParallelChip tests). With one worker
 * every request is resolvable the moment it is posted.
 *
 * Deadline. No outcome is consumed before its request's cycle plus
 * the lookahead, l1 + l2 + LLC latency (a hit's data cannot arrive
 * sooner): the owning core applies outcomes at the start of each of
 * its ticks (MemorySystem::tick) and blocks only when one is due —
 * its request's cycle + lookahead has come — and still unresolved.
 * Readers that need an outcome sooner resolve on demand: a policy
 * with onDataAccess, a telemetry hub (its LLC events must stay in
 * place) and a zero lookahead await each request at post;
 * pendingL2DLoads() awaits the pending loads it counts.
 *
 * Resolution runs at every post (so with one worker each request
 * resolves the moment it is made), inside every wait for an
 * outcome (a waiter resolves, whoever's requests come first, it
 * does not just spin), and at every quantum end before the main
 * thread's chip work — when every request is resolvable. A wait
 * blocks only while the awaited request is not yet resolvable, so
 * resolving on other occasions (say after every tick) could not
 * spare one; measured, it only added lock and LLC-line traffic
 * between the workers.
 *
 * Deadlock freedom. Every worker ticks its cores cycle by cycle and,
 * within a cycle, in ascending id order, so it completes its pairs
 * in (cycle, core) order. Take the smallest pair (T, i) not yet
 * completed across the chip: its worker is on it, and every pair
 * before it is complete. If core i is blocked, it waits for one of
 * its own requests (R, i) with R < T, which is resolvable — all of
 * its preceding pairs are complete — as is every request before it;
 * and the blocked core resolves them itself. So the smallest pending
 * pair always makes progress and the quantum always finishes.
 *
 * Quanta. The main thread publishes a quantum end E (beginQuantum),
 * every worker ticks its cores through E and marks each
 * (cycle, core) pair done (coreDone), and the main thread waits for
 * all cores to reach E (awaitAll), resolves what is left
 * (resolveAll) and has each core settle it before it touches any
 * chip state. A core's current cycle is its done cycle + 1 and lives
 * in its CoreSync line, so the order test needs no published
 * per-cycle value.
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

class TickWavefront : public LlcPort
{
  public:
    /** awaitQuantum() result meaning "shut down" (requestStop()). */
    static constexpr Cycle stopCycle = ~Cycle(0);

    /**
     * @param llc the shared LLC every request resolves against.
     * @param startCycle the chip cycle every core has finished.
     * @param maxOutstanding the most requests a core can have posted
     *        and not yet consumed (its MSHR count bounds it).
     */
    TickWavefront(SharedCache &llc, int numCores, Cycle startCycle,
                  int maxOutstanding);

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

    /** @name LlcPort */
    /** @{ */
    std::uint64_t post(int core, Cycle t, Addr addr,
                       Cycle now) override;
    std::uint64_t
    resolved(int core) const override
    {
        return cs[static_cast<std::size_t>(core)].resolved.load(
            std::memory_order_acquire);
    }
    LlcResult
    result(int core, std::uint64_t req) const override
    {
        return ring[static_cast<std::size_t>(core)]
                   [static_cast<std::size_t>(req & ringMask)]
                       .res;
    }
    void await(int core, std::uint64_t req, Trigger why) override;
    /** @} */

    /** Resolve every posted request. Main thread, after awaitAll(),
     *  when every request is resolvable. */
    void resolveAll();

    /**
     * @name Host contention accounting (--prof)
     *
     * Per-core blocked-wait counters, mutated only by the thread
     * ticking the core (one plain store per *blocked* await(), after
     * the wait resolves) and read only after the workers joined.
     * With no profiler attached await() pays a single null test.
     */
    /** @{ */
    struct WaveStats
    {
        std::uint64_t gateWaits = 0; //!< await() calls that blocked
        std::uint64_t spinIters = 0; //!< pause-loop iterations
        std::uint64_t yieldIters = 0; //!< iterations past the spin
                                      //!< budget (each one yielded)
        std::uint64_t yieldTransitions = 0; //!< waits that escalated
                                            //!< from spin to yield
        std::uint64_t waitNs = 0; //!< host wall time blocked
        std::vector<std::uint64_t> awaited; //!< waits first blocked
                                            //!< on core [k]
    };

    /** Attach the profiler; registers the wave.c<k>.gate scopes
     *  (blocked waits). Call before the workers start. */
    void setHostProfiler(HostProfiler *prof);

    /** Per-core wait totals; valid after the workers joined. */
    const WaveStats &waveStats(int core) const
    {
        return stats[static_cast<std::size_t>(core)];
    }

    /** Requests posted, all cores (valid after the workers
     *  joined). */
    std::uint64_t posted() const;

    /** Requests resolved under trigger @p why (same). */
    std::uint64_t
    resolvedBy(Trigger why) const
    {
        return nResolvedBy[why];
    }
    /** @} */

  private:
    /** One posted request and, once resolved, its outcome. */
    struct Request
    {
        Cycle t = 0;    //!< the posting core's cycle
        Addr addr = 0;
        Cycle now = 0;  //!< arrival at the LLC
        LlcResult res;
    };

    /** Two cache lines per core: what its ticking thread publishes
     *  (completion cycle, posted count) and what the resolver does
     *  (resolved count), false-sharing-free. */
    struct alignas(64) CoreSync
    {
        std::atomic<Cycle> done{0}; //!< last fully ticked cycle
        std::atomic<std::uint64_t> nPosted{0};
        alignas(64) std::atomic<std::uint64_t> resolved{0};
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

    /** First core whose unfinished pair precedes (t, core), or -1:
     *  (t, core) is resolvable when there is none. */
    int blockerOf(int core, Cycle t) const;

    /** Core with the smallest unresolved request (by cycle, then
     *  core), or -1 when none is posted. Resolver only. */
    int nextCore() const;

    /** Resolve in order until the next request is not resolvable.
     *  Caller holds the lock. */
    void resolveLocked(Trigger why);

    /** Resolve what is resolvable, unless another thread is at it. */
    void tryResolve(Trigger why);

    /** Does some posted request wait for resolution? */
    bool unresolved() const;

    SharedCache &llc;
    int nCores;
    std::vector<CoreSync> cs;
    std::atomic<Cycle> go; //!< quantum end the workers may tick to

    /** Per-core request rings, ringMask + 1 slots each. */
    std::vector<std::vector<Request>> ring;
    std::uint64_t ringMask = 0;

    /** Held while resolving; also orders successive resolvers'
     *  LLC accesses. */
    alignas(64) std::atomic<bool> resolving{false};
    std::uint64_t nResolvedBy[numTriggers] = {}; //!< under the lock

    HostProfiler *hprof = nullptr;
    std::vector<WaveStats> stats;   //!< per core, owner-written
    std::vector<int> gateScope;     //!< wave.c<k>.gate scope ids
};

} // namespace smt

#endif // DCRA_SMT_SOC_TICK_WAVEFRONT_HH
