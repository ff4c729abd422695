/**
 * @file
 * The full memory hierarchy the SMT core talks to: shared L1I / L1D /
 * L2 caches, per-thread I/D TLBs, MSHR files, and main memory
 * latency. All paper Table 2 parameters are configurable, including
 * the (memory latency, L2 latency) pairs swept in Figure 7 and the
 * perfect-L1D mode used by Figure 2.
 *
 * On a chip, private-L2 misses go to the shared LLC as split
 * transactions (LlcPort): the access returns at once, *pending*
 * when the LLC outcome is not known yet, and the outcome is settled
 * later but before anything could observe it (see PendingAccess).
 */

#ifndef DCRA_SMT_MEM_MEMORY_SYSTEM_HH
#define DCRA_SMT_MEM_MEMORY_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/mshr.hh"
#include "mem/shared_cache.hh"
#include "mem/tlb.hh"

namespace smt {

class TelemetryHub;

/** Hierarchy-wide configuration (paper Table 2 defaults). */
struct MemParams
{
    CacheParams l1i{"l1i", 64 * 1024, 2, 64, 8};
    CacheParams l1d{"l1d", 64 * 1024, 2, 64, 8};
    CacheParams l2{"l2", 512 * 1024, 8, 64, 8};
    TlbParams itlb{128, 4, 8 * 1024};
    TlbParams dtlb{1024, 4, 8 * 1024};
    Cycle l1Latency = 1;
    Cycle l2Latency = 20;
    Cycle memLatency = 300;
    Cycle tlbMissPenalty = 160;
    int l1dMshrs = 32;
    int l1iMshrs = 8;
    /** Figure 2 mode: every data access hits L1 in one cycle. */
    bool perfectDcache = false;
};

/** Outcome of a data-side access. */
struct MemAccessResult
{
    bool accepted = false;  //!< false: bank/MSHR conflict, retry
    Cycle ready = 0;        //!< cycle the data is available
    ServiceLevel level = ServiceLevel::L1;
    bool dtlbMiss = false;
    /** ready and level wait on a posted LLC request: the pending
     *  sink hears them (see MemorySystem::PendingAccess). */
    bool pending = false;
};

/** Outcome of an instruction fetch probe. */
struct FetchAccessResult
{
    bool accepted = false;  //!< false: I-MSHR full, retry next cycle
    bool hit = false;       //!< line present, fetch proceeds now
    Cycle ready = 0;        //!< on a miss: cycle the line arrives
    /** A miss whose ready waits on a posted LLC request; the
     *  pending sink hears it under @p ticket. */
    bool pending = false;
    std::uint32_t ticket = 0;
};

/**
 * Shared memory hierarchy for up to maxThreads contexts.
 */
class MemorySystem
{
  public:
    /**
     * An access whose outcome waits on a posted shared-LLC request:
     * a private-L2 miss (which allocated MSHR @p slot) or an access
     * that merged into such a miss while it was pending.
     *
     * The pending MSHR entry has ready = neverCycle, so it never
     * retires, and level L2: it counts toward pendingL1DLoads (the
     * DCRA slow test and the chip's slow-thread sample) exactly as
     * it will once settled, but not toward the Memory level until
     * then. The caller holds a pending result (a load not yet on the
     * completion wheel, a fetch blocked until further notice).
     *
     * Nothing reads the outcome before `due`, the request's cycle
     * plus the lookahead (l1 + l2 + LLC latency: LLC data never
     * arrives sooner), so settling it any time before the core ticks
     * `due` is exact. tick() settles every resolved access and blocks
     * on the LLC only for one that is due and still unresolved;
     * pendingL2DLoads() settles on demand; settleAll() at a chip
     * quantum end. Requests are never cancelled: a squash or a
     * migration leaves them in the serial access stream.
     */
    struct PendingAccess
    {
        std::uint64_t req = 0;    //!< LLC request (per-core number)
        std::uint64_t owner = 0;  //!< caller's tag (ownPending)
        Cycle posted = 0;  //!< cycle the access was made
        Cycle due = 0;     //!< its request's cycle + lookahead
        Cycle floor = 0;   //!< merges: the result is no earlier
        Cycle penalty = 0; //!< TLB miss penalty on top
        int slot = 0;      //!< MSHR slot allocated or merged into
        std::uint32_t ticket = 0; //!< this access's own number
        ThreadID tid = invalidThread;
        bool inst = false;  //!< I-side (mshrI)
        bool merge = false; //!< merged into a pending miss
        bool load = false;  //!< D-side load that allocated @p slot
    };

    /** Owner tag of an access nobody waits on (a store). */
    static constexpr std::uint64_t noOwner = ~std::uint64_t(0);

    /** Hears each pending access's final ready cycle and service
     *  level (the core's Pipeline). */
    using PendingSink = std::function<void(
        const PendingAccess &p, Cycle ready, ServiceLevel level)>;

    /**
     * @param params hierarchy configuration.
     * @param numThreads number of hardware contexts.
     */
    MemorySystem(const MemParams &params, int numThreads);

    /**
     * Perform a load or store data access.
     *
     * @param tid requesting thread.
     * @param addr effective byte address (thread-offset already
     *        applied by the caller).
     * @param isLoad true for loads; stores never retry and are
     *        counted separately.
     * @param now current cycle.
     */
    MemAccessResult dataAccess(ThreadID tid, Addr addr, bool isLoad,
                               Cycle now);

    /** Probe the I-side for the line containing pc. */
    FetchAccessResult instFetch(ThreadID tid, Addr pc, Cycle now);

    /** Settle pending accesses (see PendingAccess), then retire
     *  completed misses; call once per cycle, first. Inline: with
     *  nothing pending and the MSHR earliest-ready gate this is
     *  usually three compares. */
    void
    tick(Cycle now)
    {
        curCycle = now;
        if (!pend.empty())
            settleDue(now);
        mshrD.retire(now);
        mshrI.retire(now);
    }

    /** Tag the access that just returned pending; the sink gets the
     *  tag back in PendingAccess::owner. */
    void ownPending(std::uint64_t owner) { pend.back().owner = owner; }

    /** Settle every pending access now, after the tick of cycle
     *  @p now (whose sample the chip takes afterwards). Each one's
     *  request must be resolved (a chip quantum end resolves all of
     *  them first). */
    void settleAll(Cycle now);

    /**
     * Loads whose pending miss settled memory-level, as [first,
     * second) cycle ranges in which the per-cycle outstandingMemLoads()
     * still counted them at the L2 level; the chip adds one to those
     * cycles' samples, then clears the list.
     */
    const std::vector<std::pair<Cycle, Cycle>> &
    lateMemLoads() const
    {
        return lateMem;
    }
    void clearLateMemLoads() { lateMem.clear(); }

    /** Zero all statistics; cache/TLB contents are untouched. */
    void resetStats();

    /**
     * Register this hierarchy's time-series channels (per-thread
     * L1D/L2 miss-rate ratios, MSHR occupancy and outstanding-miss
     * gauges) under @p prefix. Telemetry-only path; readers are
     * sampled from the main thread between cycles.
     */
    void registerTelemetry(TelemetryHub &hub,
                           const std::string &prefix);

    /** Outstanding L1D *load* misses (any level) for a thread.
     *  Inline: polled per thread per cycle (DCRA phase test and the
     *  run loop's phase metrics). */
    int
    pendingL1DLoads(ThreadID tid) const
    {
        return mshrD.pendingLoads(tid, ServiceLevel::L2);
    }

    /** Outstanding memory-level (L2-missing) loads for a thread.
     *  Settles pending loads first: the count depends on their
     *  LLC outcome (logically const — the outcome is already
     *  determined, only not yet applied). */
    int
    pendingL2DLoads(ThreadID tid) const
    {
        if (pendLoads > 0)
            const_cast<MemorySystem *>(this)->settleNow(
                LlcPort::TrigL2Loads);
        return mshrD.outstandingLoads(tid, ServiceLevel::Memory);
    }

    /** Outstanding memory-level loads across all threads (MLP). */
    int
    outstandingMemLoads() const
    {
        return mshrD.outstandingLoads(ServiceLevel::Memory);
    }

    /** @name Per-thread data-side statistics */
    /** @{ */
    std::uint64_t l1dAccesses(ThreadID t) const { return sL1dAcc[t]; }
    std::uint64_t l1dMisses(ThreadID t) const { return sL1dMiss[t]; }
    std::uint64_t l2DataAccesses(ThreadID t) const
    {
        return sL2Acc[t];
    }
    std::uint64_t l2DataMisses(ThreadID t) const { return sL2Miss[t]; }
    std::uint64_t dtlbMisses(ThreadID t) const { return sDtlbMiss[t]; }
    /** @} */

    /** Underlying caches, exposed for tests and reporting. */
    Cache &l1i() { return *l1iCache; }
    Cache &l1d() { return *l1dCache; }
    Cache &l2() { return *l2Cache; }

    /** Per-thread TLBs, exposed for tests and pre-warming. */
    Tlb &itlb(ThreadID t) { return itlbs[t]; }
    Tlb &dtlb(ThreadID t) { return dtlbs[t]; }

    /** Configuration. */
    const MemParams &params() const { return p; }

    /**
     * Wire this core's private hierarchy onto a chip-shared LLC:
     * private-L2 misses (data and instruction side) are posted to
     * @p port as core @p coreId instead of being charged the flat
     * memLatency, and pending outcomes go to @p sink. An outcome is
     * due @p lookahead cycles after its access; with @p syncWhy
     * other than LlcPort::numTriggers every request is awaited at
     * post (a reader needs outcomes at once). Never called in
     * single-core configurations, so their timing is exactly the
     * pre-CMP model.
     */
    void attachLlc(LlcPort *port, int coreId, Cycle lookahead,
                   LlcPort::Trigger syncWhy, PendingSink sink);

  private:
    /** Post a private-L2 miss at cycle @p t. True with @p ready /
     *  @p level set when the outcome is known at once; false when
     *  it is pending on request postedReq. */
    bool postLlc(Addr addr, Cycle t, Cycle &ready, ServiceLevel &level);

    /** Record a pending miss on request postedReq that allocated
     *  MSHR @p slot; returns its ticket. */
    std::uint32_t pendAlloc(bool inst, int slot, ThreadID tid,
                            bool load, Cycle now, Cycle penalty);

    /** Record an access merged into pending MSHR @p slot; its ready
     *  is max(the miss's, @p floor) + @p penalty. Returns its
     *  ticket. */
    std::uint32_t pendMerge(bool inst, int slot, ThreadID tid,
                            Cycle now, Cycle floor, Cycle penalty);

    /** Queue @p a (ticketed, unowned); returns its ticket. */
    std::uint32_t addPending(PendingAccess a);

    /** tick(): settle what is resolved, block on what is due. */
    void settleDue(Cycle now);

    /** Await every pending load's request (reason @p why) and
     *  settle. */
    void settleNow(LlcPort::Trigger why);

    /** Settle every access whose request is resolved; cycles from
     *  @p seenFrom on are sampled after it. Rescans the rest for
     *  the next due one. */
    void applyResolved(Cycle seenFrom);

    MemParams p;
    int nThreads;

    /** @name Chip-shared next level (null in single-core
     *  configurations) and the pending-access state */
    /** @{ */
    LlcPort *llc = nullptr;
    int coreId = 0;
    Cycle lookahead = 0;
    LlcPort::Trigger syncWhy = LlcPort::numTriggers;
    PendingSink sink;
    /** Unsettled accesses, in the order they were made. */
    std::vector<PendingAccess> pend;
    std::uint32_t nextTicket = 0;
    std::uint64_t postedReq = 0;   //!< last request postLlc() posted
    std::uint64_t lastLoadReq = 0; //!< newest pending load's request
    int pendLoads = 0;             //!< pending D-side load allocs
    std::uint64_t seenResolved = 0; //!< resolved count last applied
    Cycle nextDue = neverCycle;     //!< earliest due among pend
    std::uint64_t dueReq = 0;       //!< request of that access
    Cycle curCycle = 0;             //!< cycle of the latest tick()
    std::vector<std::pair<Cycle, Cycle>> lateMem;
    /** @} */

    std::unique_ptr<Cache> l1iCache;
    std::unique_ptr<Cache> l1dCache;
    std::unique_ptr<Cache> l2Cache;
    MshrFile mshrD;
    MshrFile mshrI;
    std::vector<Tlb> itlbs;
    std::vector<Tlb> dtlbs;

    std::vector<std::uint64_t> sL1dAcc;
    std::vector<std::uint64_t> sL1dMiss;
    std::vector<std::uint64_t> sL2Acc;
    std::vector<std::uint64_t> sL2Miss;
    std::vector<std::uint64_t> sDtlbMiss;
};

} // namespace smt

#endif // DCRA_SMT_MEM_MEMORY_SYSTEM_HH
