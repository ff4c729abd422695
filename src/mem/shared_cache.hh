/**
 * @file
 * Chip-level shared last-level cache (LLC) for the CMP layer: one
 * tag array shared by every core, reached over a shared bus with a
 * fixed per-transaction occupancy, with per-core outstanding-miss
 * (MSHR) arbitration.
 *
 * The LLC sits *below* each core's private hierarchy: a core's
 * MemorySystem forwards its private-L2 misses here instead of
 * charging the flat memory latency (see MemorySystem::attachLlc).
 * Single-core configurations never instantiate this level, which is
 * what keeps `--cores 1` byte-identical to the single-core machine.
 *
 * Arbitration is delegated to the hierarchical allocation API
 * (alloc/): the SharedCache owns the chip-level ResourceDomain —
 * cores are the claimants; LLC MSHRs, bus slots per window and LLC
 * ways are the kinds — and consults a ResourceArbiter for each
 * core's current share:
 *
 *  - llc-mshr  a core at its MSHR share starts no new transaction
 *              until enough of its own misses retire (the original
 *              static quota under the "static" arbiter, a dynamic
 *              sharing-model entitlement under "chip-dcra");
 *  - llc-bus   transactions per busWindow-cycle accounting window; a
 *              core over its share waits for the next window
 *              (unlimited under "static");
 *  - llc-way   ways a core's fills may claim/evict, enforced on
 *              victim selection (unlimited under "static"; per-core
 *              masks under "way-equal"/"way-util").
 *
 * Shares recompute at arbitration-epoch boundaries (params.arbEpoch
 * cycles), advanced lazily on the access stream — which is
 * deterministic: access() is only ever called through the LlcPort
 * below, which replays the serial chip's (cycle, core) order for
 * every worker count, so the whole chip simulation stays
 * bit-reproducible.
 */

#ifndef DCRA_SMT_MEM_SHARED_CACHE_HH
#define DCRA_SMT_MEM_SHARED_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alloc/arbiter.hh"
#include "alloc/chip_arbiters.hh"
#include "alloc/resource_domain.hh"
#include "common/types.hh"
#include "mem/cache.hh"

namespace smt {

class HostProfiler;

/** Geometry and timing of the shared LLC + bus. */
struct SharedCacheParams
{
    CacheParams tags{"llc", 8 * 1024 * 1024, 16, 64, 8};
    Cycle latency = 30;     //!< LLC tag+data access beyond the L2
    Cycle busLatency = 4;   //!< bus occupancy per transaction
    Cycle memLatency = 300; //!< main memory beyond the LLC
    int mshrsPerCore = 16;  //!< static per-core outstanding-miss quota
    int mshrsTotal = 64;    //!< shared pool dynamic arbiters deal from
    Cycle busWindow = 64;   //!< bus-slot accounting window (cycles)
    Cycle arbEpoch = 4000;  //!< share-recompute interval (0 = never)
};

/**
 * Validate the LLC parameters against a core count. Returns an
 * empty string when acceptable, otherwise a description of the
 * problem (the constructor turns it into a fatal()). Split out so
 * tests can exercise the rejection logic without dying.
 */
std::string validateSharedCacheParams(const SharedCacheParams &p,
                                      int numCores);

/** Outcome of one LLC access. */
struct LlcResult
{
    bool hit = false; //!< line was present in the LLC
    Cycle ready = 0;  //!< absolute cycle the data reaches the core
};

/**
 * The split-transaction front of the shared LLC, as a core's
 * MemorySystem sees it (implemented by soc/TickWavefront for every
 * multi-core chip, whatever its worker count).
 *
 * A private-L2 miss is *posted* as a request (core, its cycle T,
 * address, arrival time now = T + l1 + l2) and the core keeps
 * ticking. Requests are *resolved* — SharedCache::access called with
 * the posted arguments — one at a time and in the serial chip's
 * order: by (cycle, core), then post order. So the LLC sees exactly
 * the access sequence of a serial tick, whichever host thread
 * happens to resolve a request. A core's requests resolve in post
 * order, so "resolved" is a prefix of its posts.
 *
 * No outcome is used before T + l1 + l2 + llc.latency (the
 * lookahead): LLC data never reaches the core sooner. The owning
 * core applies each outcome before it ticks that cycle, and blocks
 * only if the request is still unresolved then (see
 * MemorySystem::PendingAccess for the pending state in between).
 */
class LlcPort
{
  public:
    /** Why a request was resolved or awaited (counted per trigger
     *  in --prof's wave-config record). */
    enum Trigger
    {
        TrigPost,          //!< at some core's post
        TrigDeadline,      //!< a core reached the cycle it was due
        TrigDataAccess,    //!< demand: policy.onDataAccess needs it
        TrigL2Loads,       //!< demand: pendingL2DLoads() read
        TrigTelemetry,     //!< demand: a hub orders LLC events
        TrigZeroLookahead, //!< demand: due the cycle it was made
        TrigQuantumEnd,    //!< the main thread, between quanta
        numTriggers
    };

    /** Stable names of the triggers (profile records). */
    static const char *triggerName(Trigger t);

    virtual ~LlcPort() = default;

    /**
     * Post @p core's private-L2 miss made in its cycle @p t and
     * arriving at the LLC at @p now. Returns the request's per-core
     * sequence number; it is resolved at once when nothing precedes
     * it (always, in a serial tick).
     */
    virtual std::uint64_t post(int core, Cycle t, Addr addr,
                               Cycle now) = 0;

    /** How many of @p core's requests are resolved. */
    virtual std::uint64_t resolved(int core) const = 0;

    /** Outcome of @p core's resolved request @p req. */
    virtual LlcResult result(int core, std::uint64_t req) const = 0;

    /** Block until @p core's request @p req is resolved, resolving
     *  requests (anyone's, in order) meanwhile. */
    virtual void await(int core, std::uint64_t req, Trigger why) = 0;
};

class SharedCache
{
  public:
    /** Static-quota arbitration (the historical behaviour). */
    SharedCache(const SharedCacheParams &params, int numCores);

    /** Arbitration by an injected arbiter (see makeLlcArbiter). */
    SharedCache(const SharedCacheParams &params, int numCores,
                std::unique_ptr<ResourceArbiter> arbiter);

    /**
     * One private-L2 miss from @p core arriving at @p now. Applies
     * MSHR-share backpressure (a core at its share waits for its
     * earliest outstanding misses to retire), bus-slot arbitration
     * (fixed occupancy per transaction, optional per-window share),
     * then the tag lookup; fills obey the core's way mask.
     */
    LlcResult access(int core, Addr addr, Cycle now);

    /** Pre-warm: allocate the line without stats or arbitration. */
    void fill(Addr addr) { llc.fill(addr); }

    /** Zero statistics; tags and arbitration state are untouched. */
    void resetStats();

    /** Verify arbitration bookkeeping (domain conservation
     *  included); panics on violation. */
    void auditInvariants() const;

    /** @name Per-core statistics */
    /** @{ */
    std::uint64_t accesses(int core) const { return sAcc[core]; }
    std::uint64_t misses(int core) const { return sMiss[core]; }
    std::uint64_t totalAccesses() const;
    std::uint64_t totalMisses() const;
    /** Cycles requests spent waiting for the bus or an MSHR slot. */
    std::uint64_t
    arbWaitCycles() const
    {
        std::uint64_t s = 0;
        for (const std::uint64_t v : sArbWait)
            s += v;
        return s;
    }
    /** Same, for one core (telemetry's per-core bus-wait channel). */
    std::uint64_t arbWaitCycles(int core) const
    {
        return sArbWait[static_cast<std::size_t>(core)];
    }
    /** LLC lines currently owned (filled) by a core. */
    std::uint64_t linesOwned(int core) const { return sOwned[core]; }
    /** @} */

    /** @name Arbitration introspection */
    /** @{ */
    const ResourceArbiter &arbiter() const { return *arb; }
    const ResourceDomain &domain() const { return dom; }
    /** Epochs at which the arbiter changed at least one share. */
    std::uint64_t shareReassignments() const
    {
        return arb->reassignments();
    }
    /** Current MSHR share of a core; -1 when unlimited. */
    int
    mshrShareOf(int core) const
    {
        const int s = arb->shareOf(core, ChipMshr);
        return s == shareUnlimited ? -1 : s;
    }
    /** Ways assigned to a core; 0 when the LLC is unpartitioned. */
    int wayCountOf(int core) const { return wayCnt[core]; }
    /** Fill mask of a core (Cache::allWays when unpartitioned). */
    std::uint32_t fillMaskOf(int core) const { return wayMask[core]; }
    /** @} */

    /**
     * Opt into telemetry: per-core access/miss/miss-rate/bus-wait
     * channels, deterministic gate-order events (core c's first LLC
     * access of a chip cycle arriving after lower cores already
     * touched the LLC that cycle — a fact of the serial access
     * order, identical for every --chip-jobs value), and the
     * arbiter's own event stream. Emissions happen inside access(),
     * whose total order across cores the LlcPort reproduces
     * exactly.
     */
    void attachTelemetry(TelemetryHub &hub);

    /**
     * Attach the host wall-clock profiler (--prof): times access()
     * bodies (llc.access; waiting for a request to become
     * resolvable is accounted to the wavefront, not the LLC) and the
     * arbitration-epoch boundary work (llc.arbEpoch). Accumulation
     * is thread-safe (worker threads resolve requests); registration
     * must happen before the run starts. Null detaches.
     */
    void setHostProfiler(HostProfiler *prof);

    /** Gate-order events recorded for a core (telemetry tests). */
    std::uint64_t
    gateFollows(int core) const
    {
        return sGateFollow.empty()
            ? 0
            : sGateFollow[static_cast<std::size_t>(core)];
    }

    /** Underlying tag array, for tests. */
    Cache &tags() { return llc; }

    /** Configuration. */
    const SharedCacheParams &params() const { return p; }

  private:
    /** @p p, once validateSharedCacheParams accepts it (else
     *  fatal()). */
    static const SharedCacheParams &validated(
        const SharedCacheParams &p, int numCores);

    /** The chip-level domain's resource kinds. */
    static std::vector<ResourceKind> llcKinds(
        const SharedCacheParams &p, int numCores);

    /** Advance arbitration epochs that elapsed by @p now. */
    void advanceEpochs(Cycle now);

    /** Re-derive per-core way masks/counts from the arbiter. */
    void syncWayMasks(Cycle now);

    /** Release @p n of a core's MSHR domain entries. */
    void releaseMshrs(int core, std::size_t n);

    /** Start a new bus accounting window for @p core. */
    void rollBusWindow(int core, std::uint64_t window);

    /** Transfer ownership of a filled line slot to @p core. */
    void ownLine(int core, int slot);

    SharedCacheParams p;
    int nCores;
    int busSlotsPerWindow;

    Cache llc;
    Cycle busFreeAt = 0;

    ResourceDomain dom;
    std::unique_ptr<ResourceArbiter> arb;
    unsigned arbEvents = 0; //!< cached arbEventMask()

    /** Retire times of each core's outstanding LLC misses. */
    std::vector<std::vector<Cycle>> outstanding;

    /** @name Arbitration epoch state */
    /** @{ */
    std::uint64_t epochIdx = 0;
    Cycle nextEpochAt = 0;
    /** @} */

    /** @name Bus-slot windows */
    /** @{ */
    std::vector<std::uint64_t> busWin; //!< current window per core
    std::vector<int> busUsed;          //!< transactions this window
    /** @} */

    /** @name Way partitioning */
    /** @{ */
    std::vector<std::uint32_t> wayMask; //!< fill mask per core
    std::vector<int> wayCnt;            //!< ways per core (0 = none)
    /** @} */

    /** Owner core of each LLC line slot (-1 = prewarm/unowned). */
    std::vector<int> lineOwner;

    std::vector<std::uint64_t> sAcc;
    std::vector<std::uint64_t> sMiss;
    std::vector<std::uint64_t> sOwned;
    std::vector<std::uint64_t> sArbWait;

    /** @name Telemetry (null/empty unless attachTelemetry ran).
     * Gate-order detection keys on access timestamps: every core's
     * accesses in one chip cycle carry the same `now` (tick cycle
     * plus the fixed private-hierarchy offset) and the stream visits
     * cycle-T accesses in core-id order before any cycle-T+1 access,
     * so "first access at a timestamp someone already opened" is
     * exactly a fact of the serial (cycle, core) order.
     */
    /** @{ */
    TelemetryHub *tlm = nullptr;
    int tlmTrack = 0;
    std::vector<Cycle> lastAccCycleT;     //!< last timestamp per core
    Cycle gateCycle = ~static_cast<Cycle>(0); //!< open timestamp
    int gateEntrants = 0;                 //!< cores seen this stamp
    std::vector<std::uint64_t> sGateFollow;
    /** @} */

    /** @name Host profiling (null unless --prof) */
    /** @{ */
    HostProfiler *hprof = nullptr;
    int hsAccess = 0;   //!< llc.access scope
    int hsArbEpoch = 0; //!< llc.arbEpoch scope
    /** @} */
};

} // namespace smt

#endif // DCRA_SMT_MEM_SHARED_CACHE_HH
