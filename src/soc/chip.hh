/**
 * @file
 * Chip-level simulation driver (CMP): N independent SMT cores —
 * each a full Pipeline with its own policy instance, private
 * L1s/L2, TLBs and branch predictor — in front of a shared
 * last-level cache and bus, plus a ThreadToCoreAllocator that
 * decides which software threads share a core and periodically
 * reallocates them via a drain-squash-migrate handoff.
 *
 * Determinism: cores tick in core-id order inside every chip cycle
 * (the LLC resolves their requests in that order for every worker
 * count, see soc/tick_wavefront.hh), migrations execute between
 * cycles in
 * thread-id order, and every allocator breaks ties
 * deterministically, so a chip run is bit-reproducible (and
 * independent of any host parallelism in the sweep runner, which
 * runs whole chips per job).
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
#include "common/stats.hh"
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
    /** The longest quantum run() ticks without a main-thread step
     *  (the capacity of its per-cycle sample buffer). */
    static constexpr Cycle maxQuantum = 1024;

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

    /** The shared LLC's parameters under @p cfg (cfg.soc.llc with
     *  the hierarchy's memory latency and any llcWays override). */
    static SharedCacheParams llcParams(const SimConfig &cfg);

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
     * total order the wavefront reproduces, so the files are
     * byte-identical for every --chip-jobs value. The hub samples
     * and latches phases every cycle, so while one is attached every
     * quantum is one cycle long and every LLC request is resolved
     * when it is posted. A 1-core chip
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
     * parallel run adds the wavefront's blocked-wait scopes
     * (wave.c<N>.gate), per-worker idle scopes and the main thread's
     * await scope, and stopTickWorkers harvests the per-core wait
     * records, the quantum statistics and the LLC request counts. Core ticks are timed on the chip cycles that are
     * multiples of prof->sampleEvery() (all cores sample the same
     * cycles). Host times never touch SimResult. A 1-core
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
    /** What one core contributes to a cycle's run statistics. */
    struct CycleSample
    {
        std::uint32_t slowThreads; //!< homed threads with an L1D
                                   //!< load miss outstanding
        std::uint32_t memLoads;    //!< outstandingMemLoads()
    };

    struct Core
    {
        std::unique_ptr<MemorySystem> mem;
        std::unique_ptr<BranchPredictor> bpred;
        std::unique_ptr<Policy> pol;
        std::unique_ptr<Pipeline> pipe;
        /** Bit k: context k holds a software thread (constant
         *  within a quantum). */
        std::uint32_t threadCtxMask = 0;
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
    void resetAllStats();

    /** @name Quantum ticking
     * The run loop advances the chip in quanta of q >= 1 cycles. q
     * comes from bounds already known when the quantum starts (see
     * nextQuantum), so the main thread's between-cycle work
     * (chipWork, sampling, the commit-limit check) is a no-op on
     * every cycle of a quantum but the last, and runs there only.
     * Each core records the per-cycle values the run statistics need
     * (CycleSample) as it ticks; the main thread folds them in cycle
     * order at the quantum end.
     *
     * With cfg.soc.chipJobs > 1, worker w ticks cores {w, w + W, ...}
     * cycle by cycle, ascending within a cycle; the main thread is
     * worker 0 and runs everything between quanta (migrations,
     * epochs, sampling) alone. Every multi-core run posts its LLC
     * requests to the TickWavefront, which resolves them in the
     * serial order — see soc/tick_wavefront.hh for the ordering and
     * deadline argument; with one worker each resolves at post. At
     * a quantum end every request is resolved and settled
     * (settleQuantum), so no outcome is pending across main-thread
     * work.
     */
    /** @{ */
    /** Why a quantum ended where it did: its smallest bound. */
    enum QuantumBound
    {
        BoundCommit,    //!< commit-limit lookahead (reached())
        BoundEpoch,     //!< next allocator epoch
        BoundDrain,     //!< migration drain in flight (q = 1)
        BoundCycleCap,  //!< maxCycles
        BoundAudit,     //!< next periodic invariant audit
        BoundTelemetry, //!< hub attached: it samples every cycle
        BoundBuffer,    //!< CycleSample buffer capacity
        numQuantumBounds
    };
    /** The measured phase's per-cycle statistics. */
    struct PhaseStats
    {
        std::vector<std::uint64_t> slowCycles; //!< by slow count
        Histogram mlp{64}; //!< outstanding memory loads, chip-wide
    };

    /** Tick quanta until some thread commits @p limit instructions
     *  or maxCycles; @p stats (when set) receives every cycle's
     *  samples. Returns whether the limit was reached. */
    bool runQuanta(std::uint64_t limit, Cycle maxCycles, Cycle &quiet,
                   PhaseStats *stats);
    /** Length of the next quantum (>= 1); counts its bound. */
    Cycle nextQuantum(Cycle maxCycles, Cycle quiet);
    /** Advance every core @p q cycles. */
    void tickQuantum(Cycle q);
    /** Tick worker @p w's cores through cycles [from, to]. */
    void tickCores(int w, Cycle from, Cycle to);
    /** Count core @p c's loads that settled memory-level after their
     *  cycles were sampled into those cycles' samples (the quantum
     *  started at @p from). */
    void addLateMemLoads(int c, Cycle from);
    /** Quantum end: resolve and settle every LLC request. */
    void settleQuantum(Cycle from);
    /** l1 + l2 + LLC latency: how long after a private-L2 miss its
     *  LLC outcome is first needed. Multi-core only. */
    Cycle llcLookahead() const;
    /** Main-thread work after a cycle: migration drain, epoch,
     *  audit (multi-core only). */
    void chipWork();
    /** Sample the current cycle from the chip state (the quantum's
     *  last cycle, after chipWork) and tick the telemetry hub. */
    void sampleCycle(PhaseStats &stats);
    /** Rebuild every core's threadCtxMask from the placement. */
    void indexThreadsByCore();

    /** Build the wavefront, wire every core's LLC port to it and,
     *  with cfg.soc.chipJobs > 1, start the tick workers. */
    void startWavefront();
    void stopTickWorkers();
    void workerLoop(int w, Cycle last);
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

    /** @name Wavefront state (null with one core; no workers in
     *  serial runs) */
    /** @{ */
    int nTickWorkers = 1;
    std::unique_ptr<TickWavefront> wavefront;
    std::vector<std::thread> workers;
    /** @} */

    /** @name Quantum statistics (reported in --prof's wave-config) */
    /** @{ */
    std::uint64_t nQuanta = 0;
    std::uint64_t quantumCycles = 0;
    std::uint64_t quantumEnds[numQuantumBounds] = {};
    /** The current quantum's CycleSamples, maxQuantum per core:
     *  [core * maxQuantum + i] is written by the core's worker, read
     *  by the main thread after awaitAll. Sized by run(). */
    std::vector<CycleSample> samples;
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
    /** Cached sampleEvery(): core ticks of the chip cycles that are
     *  multiples of it are host-timed. */
    std::uint64_t hprofEvery = 0;
    std::vector<int> hsCoreTick;   //!< c<i>.tick scope ids
    int hsEpoch = 0;               //!< chip.epoch scope
    int hsMigrate = 0;             //!< chip.migrate scope
    int hsMainAwait = 0;           //!< wave.main.await scope
    std::vector<int> hsWorkerIdle; //!< wave.w<i>.idle (workers 1..)
    /** @} */
};

} // namespace smt

#endif // DCRA_SMT_SOC_CHIP_HH
