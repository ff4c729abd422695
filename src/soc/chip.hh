/**
 * @file
 * Chip-level simulation driver (CMP): N independent SMT cores —
 * each a full Pipeline with its own policy instance, private
 * L1s/L2, TLBs and branch predictor — in front of a shared
 * last-level cache and bus, plus a ThreadToCoreAllocator that
 * decides which software threads share a core and periodically
 * reallocates them via a drain-squash-migrate handoff.
 *
 * Determinism: cores tick in core-id order inside every chip cycle,
 * migrations execute between ticks in thread-id order, and every
 * allocator breaks ties deterministically, so a chip run is
 * bit-reproducible (and independent of any host parallelism in the
 * sweep runner, which runs whole chips per job).
 *
 * A 1-core chip is the paper's single-core machine (Simulator is
 * an alias of this class): the context count follows the workload,
 * no LLC is interposed, the allocator never runs, and telemetry
 * channels and profiler scopes carry no "c<N>." prefix. The
 * single-core goldens (test_golden_stats, test_issue_wakeup) pin
 * its numbers.
 */

#ifndef DCRA_SMT_SOC_CHIP_HH
#define DCRA_SMT_SOC_CHIP_HH

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bpred/predictor.hh"
#include "core/pipeline.hh"
#include "mem/memory_system.hh"
#include "mem/shared_cache.hh"
#include "policy/factory.hh"
#include "sim/sim_config.hh"
#include "soc/allocator.hh"
#include "soc/tick_wavefront.hh"
#include "trace/generator.hh"

namespace smt {

/**
 * One chip-level simulation instance. Construct, run once, read the
 * result.
 */
class ChipSimulator
{
  public:
    /**
     * @param cfg full configuration; cfg.soc shapes the chip. With
     *        numCores == 1 the context count is the workload size
     *        and no LLC is interposed.
     * @param benches one profile name per software thread; at most
     *        numCores x contextsPerCore.
     * @param policyKind intra-core policy, instantiated per core.
     */
    ChipSimulator(const SimConfig &cfg,
                  const std::vector<std::string> &benches,
                  PolicyKind policyKind);

    /** Same, but with an injected allocator (tests). */
    ChipSimulator(const SimConfig &cfg,
                  const std::vector<std::string> &benches,
                  PolicyKind policyKind,
                  std::unique_ptr<ThreadToCoreAllocator> allocator);

    /**
     * A 1-core machine driven by a user-provided policy instance
     * (see examples/custom_policy.cpp); cfg.soc.numCores must be 1,
     * since one instance cannot arbitrate several cores.
     */
    ChipSimulator(const SimConfig &cfg,
                  const std::vector<std::string> &benches,
                  std::unique_ptr<Policy> customPolicy);

    ~ChipSimulator();

    /**
     * Run until the first software thread commits commitLimit
     * instructions or maxCycles elapse.
     *
     * @param warmupCommits commits (first thread) executed before
     *        statistics collection starts; caches, predictors and
     *        policy state stay warm across the reset.
     */
    SimResult run(std::uint64_t commitLimit,
                  Cycle maxCycles = 50'000'000,
                  std::uint64_t warmupCommits = 0);

    /** Audit every core's pipeline plus the chip-level placement
     *  bookkeeping and LLC arbitration; panics on violation. */
    void auditInvariants() const;

    /**
     * Attach a telemetry hub (nullptr detaches). Registers every
     * core's pipeline channels under "c<N>.", chip-level per-thread
     * IPC (migration-proof: reads committedOf), the shared LLC's
     * channels and the arbiter's event stream; run() then samples
     * every interval and records allocator epochs, migrations and
     * phase transitions as events. All emissions happen on the main
     * thread between cycles, or inside the LLC access stream whose
     * total order the wavefront gate reproduces, so the files are
     * byte-identical for every --chip-jobs value. A 1-core chip
     * registers its pipeline's channels unprefixed and only the
     * "core0" event track (no "alloc" track, no chip-level IPC).
     * Call before run().
     */
    void setTelemetry(TelemetryHub *hub);

    /**
     * Attach the host wall-clock profiler (--prof; nullptr
     * detaches). Registers per-core tick scopes ("c<N>.tick"),
     * every pipeline's stage scopes ("c<N>.stage.*"), the LLC
     * access/epoch scopes and the chip epoch/migration scopes; a
     * parallel run adds the wavefront gate scopes, per-worker idle
     * scopes and the main thread's await scope, and stopTickWorkers
     * harvests the per-core gate-wait records. Core ticks are timed
     * on 1 in prof->sampleEvery() chip cycles (all cores sample the
     * same cycles). Host times never touch SimResult. A 1-core
     * chip registers only its pipeline's unprefixed stage scopes
     * ("stage.fetch", ...). Call before run().
     */
    void setHostProfiler(HostProfiler *prof);

    /** @name Introspection for tests */
    /** @{ */
    int numCores() const { return nCores; }
    int contextsPerCore() const { return nCtx; }
    Pipeline &pipeline(int core = 0) { return *cores[core].pipe; }
    MemorySystem &memory(int core = 0) { return *cores[core].mem; }
    Policy &policy(int core = 0) { return *cores[core].pol; }
    SharedCache *llcOrNull() { return llc.get(); }
    /** Core each software thread currently runs on. */
    const std::vector<int> &placement() const { return coreOf; }
    /** Completed drain-squash-migrate handoffs (threads moved). */
    std::uint64_t migrations() const { return nMigrations; }
    /** Allocator epochs actually run (= allocator invocations after
     *  the cold start; zero-length intervals consume none). */
    std::uint64_t epochsRun() const { return epoch; }
    /** Invoke the epoch machinery immediately (tests): exactly what
     *  run() does at an epoch boundary, including the zero-length
     *  interval guard. */
    void runEpochNow() { runEpoch(); }
    /** Audit every auditEvery cycles during run() (0 = off). */
    void setAuditInterval(Cycle auditEvery) { auditPeriod = auditEvery; }
    /** @} */

  private:
    struct Core
    {
        std::unique_ptr<MemorySystem> mem;
        std::unique_ptr<BranchPredictor> bpred;
        std::unique_ptr<Policy> pol;
        std::unique_ptr<Pipeline> pipe;
    };

    /** Cumulative per-(core,context) counters a software thread
     *  accrues between attach and detach. */
    struct CtxTotals
    {
        std::uint64_t committed = 0;
        std::uint64_t fetched = 0;
        std::uint64_t fetchedWrongPath = 0;
        std::uint64_t squashed = 0;
        std::uint64_t condBranches = 0;
        std::uint64_t mispredicts = 0;
        std::uint64_t flushes = 0;
        std::uint64_t l1dAccesses = 0;
        std::uint64_t l1dMisses = 0;
        std::uint64_t l2Accesses = 0;
        std::uint64_t l2Misses = 0;

        CtxTotals operator-(const CtxTotals &o) const;
        CtxTotals &operator+=(const CtxTotals &o);
    };

    /** Where a software thread lives and what it accrued. */
    struct ThreadHome
    {
        /** @name Run-loop probes (set by settleHome)
         * The run loop reads these for every thread every cycle, so
         * they sit first and need no lookup through cores[]. */
        /** @{ */
        const std::uint64_t *committedCtr = nullptr; //!< home ctx's
        /** accum.committed - attachAt.committed (mod 2^64). */
        std::uint64_t committedBias = 0;
        const MemorySystem *mem = nullptr;
        int core = 0;
        int ctx = 0;
        /** @} */
        CtxTotals accum;    //!< totals from previous homes
        CtxTotals attachAt; //!< current home's counters at attach
    };

    /** Private constructor behind the public ones; customPolicy,
     *  when set, replaces the policyKind instance (1 core only). */
    ChipSimulator(const SimConfig &cfg,
                  const std::vector<std::string> &benches,
                  PolicyKind policyKind,
                  std::unique_ptr<Policy> customPolicy,
                  std::unique_ptr<ThreadToCoreAllocator> allocator);

    void buildChip(const SimConfig &cfg, PolicyKind policyKind,
                   std::unique_ptr<Policy> customPolicy);
    /** Make (core, ctx) thread's home: point the run-loop probes at
     *  it and snapshot its counters as the attach baseline. */
    void settleHome(int thread, int core, int ctx);
    /** Pre-load the caches/TLBs (private ones and the LLC) with the
     *  hot regions of every thread's initial placement. */
    void prewarmChip();
    void prewarmCore(int core);
    /** Advance every core one cycle. The serial, unprofiled case
     *  is inline: it is the run loop's whole per-cycle tick. */
    void
    tickAllCores()
    {
        if (wavefront || hprof) {
            tickAllCoresTimedOrParallel();
            return;
        }
        ++cycle;
        for (Core &core : cores)
            core.pipe->tick();
    }
    void tickAllCoresTimedOrParallel();
    void resetAllStats();

    /** @name Parallel tick (cfg.soc.chipJobs > 1)
     * Worker w ticks cores {w, w + W, ...} in ascending order; the
     * main thread is worker 0 and runs everything between cycles
     * (migrations, epochs, sampling) alone. Determinism comes from
     * the TickWavefront gate in the SharedCache — see
     * soc/tick_wavefront.hh for the ordering argument.
     */
    /** @{ */
    void startTickWorkers();
    void stopTickWorkers();
    void workerLoop(int w);
    void tickCores(int w, Cycle t);
    /** @} */

    CtxTotals readCtx(int core, int ctx) const;
    CtxTotals totalsOf(int thread) const;

    /** Just the committed count — the run loop polls this for every
     *  thread every cycle, so it must not assemble all 11 counters
     *  the way totalsOf() does. */
    std::uint64_t
    committedOf(int thread) const
    {
        const ThreadHome &h = homes[thread];
        return *h.committedCtr + h.committedBias;
    }

    /**
     * Has some thread committed @p limit instructions? When not,
     * sets @p quiet to the number of following cycles in which none
     * can get there, so the run loop need not ask again sooner.
     */
    bool reached(std::uint64_t limit, Cycle &quiet) const;

    /** Collect interval metrics and consult the allocator; starts a
     *  migration (drain phase) when the placement changes. */
    void runEpoch();
    /** Detach every drained mover and attach it to its new home. */
    void completeMigration();

    /** @name What run() consults of the configuration
     * Construction consumes the rest (see buildChip). */
    /** @{ */
    SocParams soc;
    int commitWidth = 0;
    /** @} */
    std::vector<std::string> benchNames;
    int nThreads;
    int nCores;
    int nCtx;

    std::vector<std::unique_ptr<SyntheticTraceGenerator>> gens;
    std::unique_ptr<SharedCache> llc;
    std::vector<Core> cores;
    std::unique_ptr<ThreadToCoreAllocator> alloc;

    std::vector<int> coreOf;  //!< placement: thread -> core
    std::vector<int> ctxOf;   //!< thread -> context on its core
    std::vector<ThreadHome> homes;

    /** @name Epoch / migration state machine */
    /** @{ */
    std::uint64_t epoch = 0;
    Cycle nextEpochAt = 0;
    std::vector<CtxTotals> intervalBase; //!< totals at last epoch
    Cycle intervalStart = 0;
    bool migrating = false;
    Cycle drainDeadline = 0;
    std::vector<int> pendingPlacement;
    /** Debounce: a changed placement must be proposed in two
     *  consecutive epochs before the chip pays for the migration. */
    std::vector<int> lastProposal;
    std::uint64_t nMigrations = 0;
    /** @} */

    Cycle cycle = 0;
    Cycle auditPeriod = 0;

    /** @name Parallel-tick state (empty/null in serial runs) */
    /** @{ */
    int nTickWorkers = 1;
    std::unique_ptr<TickWavefront> wavefront;
    std::vector<std::thread> workers;
    /** @} */

    /** @name Telemetry (null/empty unless setTelemetry ran) */
    /** @{ */
    TelemetryHub *telem = nullptr;
    int allocTrack = 0;
    std::vector<int> coreTracks;
    std::vector<bool> telemSlow; //!< per-thread slow-phase latch
    /** @} */

    /** @name Host profiling (null/zero unless setHostProfiler ran) */
    /** @{ */
    HostProfiler *hprof = nullptr;
    std::uint64_t hprofEvery = 0;  //!< cached sampleEvery()
    std::uint64_t hprofTickN = 0;  //!< decimation counter
    /** This chip cycle is host-timed. Written by the main thread
     *  before beginCycle (whose release publishes it), read by the
     *  workers after their awaitCycle acquire. */
    bool hprofSample = false;
    std::vector<int> hsCoreTick;   //!< c<i>.tick scope ids
    int hsEpoch = 0;               //!< chip.epoch scope
    int hsMigrate = 0;             //!< chip.migrate scope
    int hsMainAwait = 0;           //!< wave.main.await scope
    std::vector<int> hsWorkerIdle; //!< wave.w<i>.idle (workers 1..)
    /** @} */
};

} // namespace smt

#endif // DCRA_SMT_SOC_CHIP_HH
