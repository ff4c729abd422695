/**
 * @file
 * Tests for the chip-level (CMP) subsystem: thread-to-core
 * allocators (deterministic placement, symbiosis pairing, SYNPA
 * score balancing, placement canonicalization), the shared LLC's
 * bus/MSHR arbitration, the drain-squash-migrate handoff (invariant
 * audits under forced migrations), the 1-core-equals-single-core
 * golden equality, a checked-in 2-core golden (per-core
 * commit-stream hashes), and sweep-level determinism across --jobs
 * values.
 *
 * Regenerating the 2-core golden after an intentional change:
 *
 *     SMT_PRINT_GOLDEN=1 ./test_soc --gtest_filter='*PrintCurrent*'
 *
 * and paste the emitted values over twoCoreGolden() below.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "mem/shared_cache.hh"
#include "runner/result_sink.hh"
#include "runner/runner.hh"
#include "sim/simulator.hh"
#include "soc/allocator.hh"
#include "soc/chip.hh"

namespace {

using namespace smt;

// ---------------------------------------------------------------
// allocators
// ---------------------------------------------------------------

std::vector<ThreadPerfSample>
samples(std::initializer_list<double> ipcs,
        std::initializer_list<double> l1Rates = {},
        std::initializer_list<double> mpkis = {})
{
    std::vector<ThreadPerfSample> m(ipcs.size());
    std::size_t i = 0;
    for (const double v : ipcs)
        m[i++].ipc = v;
    i = 0;
    for (const double v : l1Rates)
        m[i++].l1MissRate = v;
    i = 0;
    for (const double v : mpkis)
        m[i++].l2Mpki = v;
    return m;
}

TEST(Allocator, ColdStartSpreadIsIdenticalAcrossAllocators)
{
    const ChipTopology topo{2, 2};
    const std::vector<ThreadPerfSample> zero(4);
    const std::vector<int> want = {0, 1, 0, 1};
    for (const AllocatorKind k :
         {AllocatorKind::RoundRobin, AllocatorKind::Symbiosis,
          AllocatorKind::Synpa}) {
        const auto alloc = makeAllocator(k);
        EXPECT_EQ(alloc->allocate(topo, zero, 0), want)
            << alloc->name();
    }
}

TEST(Allocator, RoundRobinNeverReallocates)
{
    const ChipTopology topo{3, 2};
    const auto alloc = makeAllocator(AllocatorKind::RoundRobin);
    const auto m =
        samples({2.0, 0.1, 1.5, 0.2, 0.9}, {0, 0.5, 0, 0.4, 0.1});
    const std::vector<int> want = {0, 1, 2, 0, 1};
    EXPECT_EQ(alloc->allocate(topo, m, 1), want);
    EXPECT_EQ(alloc->allocate(topo, m, 7), want);
}

TEST(Allocator, SymbiosisPairsHighIlpWithMemoryBound)
{
    // IPC ranking 0 > 1 > 2 > 3: the serpentine deal pairs the
    // fastest with the slowest (core 0) and the two middle threads
    // (core 1) — never two of a kind.
    const ChipTopology topo{2, 2};
    const auto alloc = makeAllocator(AllocatorKind::Symbiosis);
    const auto m = samples({2.0, 1.8, 0.3, 0.2});
    const std::vector<int> want = {0, 1, 1, 0};
    EXPECT_EQ(alloc->allocate(topo, m, 1), want);
    // Deterministic: same metrics, same answer.
    EXPECT_EQ(alloc->allocate(topo, m, 2), want);
}

TEST(Allocator, SynpaSeparatesMemoryHogs)
{
    // Threads 0 and 1 are the memory hogs (high MPKI); the score
    // balancer must not co-schedule them.
    const ChipTopology topo{2, 2};
    const auto alloc = makeAllocator(AllocatorKind::Synpa);
    const auto m = samples({0.2, 0.3, 2.0, 1.9}, {},
                           {50.0, 45.0, 1.0, 2.0});
    const std::vector<int> placement = alloc->allocate(topo, m, 1);
    EXPECT_NE(placement[0], placement[1]);
    // Capacity respected.
    int occ[2] = {0, 0};
    for (const int c : placement)
        ++occ[c];
    EXPECT_EQ(occ[0], 2);
    EXPECT_EQ(occ[1], 2);
}

TEST(Allocator, CanonicalizeKillsPureRelabelings)
{
    // Same partition, cores named the other way round: relabeling
    // must make it identical to the current placement (no spurious
    // migration).
    const std::vector<int> cur = {0, 1, 0, 1};
    const std::vector<int> relabeled = {1, 0, 1, 0};
    EXPECT_EQ(canonicalizePlacement(cur, relabeled, 2), cur);
}

TEST(Allocator, CanonicalizeKeepsRealChanges)
{
    // A genuinely different partition must stay different, with the
    // labels chosen to minimise moves: {0,3} stays on core 0 and
    // only threads 1 and 3 swap.
    const std::vector<int> cur = {0, 0, 1, 1};
    const std::vector<int> proposed = {0, 1, 1, 0};
    const std::vector<int> canon =
        canonicalizePlacement(cur, proposed, 2);
    EXPECT_NE(canon, cur);
    int moves = 0;
    for (std::size_t i = 0; i < cur.size(); ++i)
        moves += canon[i] != cur[i] ? 1 : 0;
    EXPECT_EQ(moves, 2);
}

// ---------------------------------------------------------------
// shared LLC
// ---------------------------------------------------------------

TEST(SharedCache, BusSerializesSameCycleRequests)
{
    SharedCacheParams p;
    p.latency = 30;
    p.busLatency = 4;
    p.memLatency = 300;
    SharedCache llc(p, 2);
    const Addr a = 0x1000, b = 0x8000;
    llc.fill(a);
    llc.fill(b);

    const LlcResult r0 = llc.access(0, a, 100);
    EXPECT_TRUE(r0.hit);
    EXPECT_EQ(r0.ready, 130u); // grant at 100
    const LlcResult r1 = llc.access(1, b, 100);
    EXPECT_TRUE(r1.hit);
    EXPECT_EQ(r1.ready, 134u); // bus grants at 104
    EXPECT_EQ(llc.arbWaitCycles(), 4u);
}

TEST(SharedCache, RejectsZeroMshrQuota)
{
    // A per-core quota of 0 could never admit a miss: the first
    // private-L2 miss would wait forever. Construction must refuse
    // it with a clear fatal(); the message logic is validated here
    // without dying.
    SharedCacheParams p;
    p.mshrsPerCore = 0;
    const std::string err = validateSharedCacheParams(p, 2);
    EXPECT_NE(err.find("at least 1"), std::string::npos) << err;
    EXPECT_NE(err.find("deadlock"), std::string::npos) << err;
}

TEST(SharedCache, RejectsQuotaExceedingThePool)
{
    // A quota above the shared pool would let one core over-admit
    // misses the pool cannot hold.
    SharedCacheParams p;
    p.mshrsTotal = 64;
    p.mshrsPerCore = 65;
    const std::string err = validateSharedCacheParams(p, 2);
    EXPECT_NE(err.find("exceeds the shared pool"), std::string::npos)
        << err;

    // The boundary itself is fine, as is the default configuration.
    p.mshrsPerCore = 64;
    EXPECT_TRUE(validateSharedCacheParams(p, 2).empty());
    EXPECT_TRUE(validateSharedCacheParams(SharedCacheParams{}, 4)
                    .empty());
}

TEST(SharedCache, PerCoreMshrQuotaBackpressures)
{
    SharedCacheParams p;
    p.latency = 30;
    p.busLatency = 4;
    p.memLatency = 300;
    p.mshrsPerCore = 1;
    SharedCache llc(p, 2);

    const LlcResult r0 = llc.access(0, 0x1000, 10);
    EXPECT_FALSE(r0.hit);
    EXPECT_EQ(r0.ready, 340u); // 10 + 30 + 300

    // Core 0 is at its quota: the next miss waits for the first to
    // retire (cycle 340) before it may even start.
    const LlcResult r1 = llc.access(0, 0x2000, 20);
    EXPECT_FALSE(r1.hit);
    EXPECT_EQ(r1.ready, 670u); // 340 + 30 + 300

    // Core 1 has its own quota, but bus slots are reserved in
    // request-arbitration order: core 0's stalled miss holds the bus
    // at its future grant (340..344), so core 1 is granted at 344.
    const LlcResult r2 = llc.access(1, 0x3000, 20);
    EXPECT_FALSE(r2.hit);
    EXPECT_EQ(r2.ready, 344 + 30 + 300u);
    llc.auditInvariants();
    EXPECT_EQ(llc.totalAccesses(), 3u);
    EXPECT_EQ(llc.totalMisses(), 3u);
}

// ---------------------------------------------------------------
// arbitration state across epoch flips / misbehaving arbiters
// ---------------------------------------------------------------

/**
 * Test arbiter that partitions the LLC ways 50/50 for its first
 * epoch and then stops partitioning: the transition a dynamic
 * way-partitioning arbiter makes when it decides sharing is better.
 * The SharedCache must undo the deal (full masks, zero way counts,
 * empty domain occupancy) rather than leave the cores restricted to
 * their stale masks.
 */
class FlipToUnpartitionedArbiter : public ResourceArbiter
{
  public:
    explicit FlipToUnpartitionedArbiter(int ways_) : ways(ways_) {}

    const char *name() const override { return "flip-unpart"; }
    bool gatesClaims() const override { return false; }
    unsigned arbEventMask() const override { return 0; }

    void
    beginEpoch(std::uint64_t epoch, Cycle now) override
    {
        (void)now;
        partitioned = epoch < 1;
    }

    int
    shareOf(int c, int kind) const override
    {
        if (kind == ChipWay && partitioned)
            return c == 0 ? ways / 2 : ways - ways / 2;
        return shareUnlimited;
    }

  private:
    int ways;
    bool partitioned = true;
};

TEST(SharedCache, UnpartitioningEpochReleasesStaleWayState)
{
    SharedCacheParams p;
    const int assoc = p.tags.assoc;
    SharedCache llc(
        p, 2, std::make_unique<FlipToUnpartitionedArbiter>(assoc));

    // Construction-time sync dealt the partition.
    EXPECT_EQ(llc.wayCountOf(0), assoc / 2);
    EXPECT_EQ(llc.wayCountOf(1), assoc - assoc / 2);
    EXPECT_NE(llc.fillMaskOf(0), Cache::allWays);
    EXPECT_NE(llc.fillMaskOf(1), Cache::allWays);
    EXPECT_EQ(llc.domain().occupancy(0, ChipWay), assoc / 2);

    // First access past the epoch boundary: the arbiter stops
    // partitioning; masks must open up and every dealt way must
    // return to the domain.
    (void)llc.access(0, 0x1000, p.arbEpoch);
    EXPECT_EQ(llc.wayCountOf(0), 0);
    EXPECT_EQ(llc.wayCountOf(1), 0);
    EXPECT_EQ(llc.fillMaskOf(0), Cache::allWays);
    EXPECT_EQ(llc.fillMaskOf(1), Cache::allWays);
    EXPECT_EQ(llc.domain().occupancy(0, ChipWay), 0);
    EXPECT_EQ(llc.domain().occupancy(1, ChipWay), 0);
    llc.auditInvariants();
}

/** Test arbiter returning a bogus (zero) finite share of @p kind. */
class ZeroShareArbiter : public ResourceArbiter
{
  public:
    explicit ZeroShareArbiter(int kind_) : kind(kind_) {}

    const char *name() const override { return "zero-share"; }
    bool gatesClaims() const override { return false; }
    unsigned arbEventMask() const override { return 0; }

    int
    shareOf(int c, int k) const override
    {
        (void)c;
        return k == kind ? 0 : shareUnlimited;
    }

  private:
    int kind;
};

/**
 * Run @p fn in a forked child (stderr silenced) and report whether
 * it died with SIGABRT — the gtest shim has no death-test support,
 * so panics are observed through the child's exit status.
 */
template <typename Fn>
bool
diesWithAbort(Fn fn)
{
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
        // smtlint:allow(D4): redirecting the forked child's stderr, not writing to it
        if (!std::freopen("/dev/null", "w", stderr))
            _exit(97);
        fn();
        _exit(0); // survived: the assertion did not fire
    }
    if (pid < 0)
        return false;
    int status = 0;
    if (waitpid(pid, &status, 0) != pid)
        return false;
    return WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT;
}

TEST(SharedCache, NonPositiveArbiterSharesAreFatal)
{
    // An arbiter handing out a zero MSHR or bus share is a bug in
    // the arbiter, not a share to round up: the old silent
    // std::max(1, share) clamp hid it. Both paths must now panic.
    EXPECT_TRUE(diesWithAbort([] {
        SharedCache llc(SharedCacheParams{}, 2,
                        std::make_unique<ZeroShareArbiter>(ChipMshr));
        (void)llc.access(0, 0x1000, 10);
    }));
    EXPECT_TRUE(diesWithAbort([] {
        SharedCache llc(SharedCacheParams{}, 2,
                        std::make_unique<ZeroShareArbiter>(ChipBus));
        (void)llc.access(0, 0x1000, 10);
    }));
    // A healthy share of 1 on the same paths stays alive.
    SharedCache llc(SharedCacheParams{}, 2);
    (void)llc.access(0, 0x1000, 10);
    llc.auditInvariants();
}

/** Test arbiter capping bus slots to one per accounting window. */
class OneBusSlotArbiter : public ResourceArbiter
{
  public:
    const char *name() const override { return "one-bus-slot"; }
    bool gatesClaims() const override { return false; }
    unsigned arbEventMask() const override { return 0; }

    int
    shareOf(int c, int kind) const override
    {
        (void)c;
        return kind == ChipBus ? 1 : shareUnlimited;
    }
};

TEST(SharedCache, BusWindowNeverRollsBackward)
{
    // Share exhaustion pushes a core's accounting window forward;
    // a subsequent request arriving at an *earlier* cycle must be
    // accounted in the already-reached window (and pushed past it),
    // never roll the window back and un-count the exhausted ones.
    SharedCacheParams p;
    p.latency = 30;
    p.busLatency = 4;
    p.memLatency = 300;
    p.busWindow = 64;
    SharedCache llc(p, 2,
                    std::make_unique<OneBusSlotArbiter>());
    llc.fill(0x1000);
    llc.fill(0x2000);
    llc.fill(0x3000);

    // Window 0's single slot.
    const LlcResult r0 = llc.access(0, 0x1000, 10);
    EXPECT_EQ(r0.ready, 10 + 30u);
    // Slot spent: pushed to window 1 (starts at 64).
    const LlcResult r1 = llc.access(0, 0x2000, 12);
    EXPECT_EQ(r1.ready, 64 + 30u);
    // Arrives at cycle 13 < 64: its natural window (0) is behind the
    // core's accounting window (1), whose slot is spent too, so it
    // lands in window 2 (starts at 128).
    const LlcResult r2 = llc.access(0, 0x3000, 13);
    EXPECT_EQ(r2.ready, 128 + 30u);
    llc.auditInvariants();
}

TEST(SharedCache, MshrBackpressureAtExactShareBoundary)
{
    // The retire-gated start when out.size() == share: with a share
    // of 2 and both slots full, the third miss starts exactly at the
    // earliest outstanding retire time (the k-th smallest with
    // k = size - share = 0).
    SharedCacheParams p;
    p.latency = 30;
    p.busLatency = 4;
    p.memLatency = 300;
    p.mshrsPerCore = 2;
    SharedCache llc(p, 2);

    const LlcResult r0 = llc.access(0, 0x1000, 0);
    EXPECT_FALSE(r0.hit);
    EXPECT_EQ(r0.ready, 0 + 330u); // grant 0
    const LlcResult r1 = llc.access(0, 0x2000, 1);
    EXPECT_FALSE(r1.hit);
    EXPECT_EQ(r1.ready, 4 + 330u); // bus busy until 4
    EXPECT_EQ(llc.domain().occupancy(0, ChipMshr), 2);

    // Both slots held: start is gated to the first retire (330).
    const LlcResult r2 = llc.access(0, 0x3000, 2);
    EXPECT_FALSE(r2.hit);
    EXPECT_EQ(r2.ready, 330 + 330u);
    // The retired miss left the domain; the new one took its place.
    EXPECT_EQ(llc.domain().occupancy(0, ChipMshr), 2);
    llc.auditInvariants();
}

// ---------------------------------------------------------------
// The 1-core chip is the single-core machine (Simulator); its
// numbers are pinned by test_golden_stats and test_issue_wakeup.
// ---------------------------------------------------------------

void
expectSameResult(const SimResult &a, const SimResult &b,
                 const char *what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    ASSERT_EQ(a.threads.size(), b.threads.size()) << what;
    for (std::size_t t = 0; t < a.threads.size(); ++t) {
        const ThreadResult &x = a.threads[t];
        const ThreadResult &y = b.threads[t];
        EXPECT_EQ(x.bench, y.bench) << what;
        EXPECT_EQ(x.committed, y.committed) << what;
        EXPECT_TRUE(x.ipc == y.ipc) << what; // bitwise
        EXPECT_EQ(x.fetched, y.fetched) << what;
        EXPECT_EQ(x.fetchedWrongPath, y.fetchedWrongPath) << what;
        EXPECT_EQ(x.squashed, y.squashed) << what;
        EXPECT_EQ(x.condBranches, y.condBranches) << what;
        EXPECT_EQ(x.mispredicts, y.mispredicts) << what;
        EXPECT_EQ(x.flushes, y.flushes) << what;
        EXPECT_EQ(x.l1dAccesses, y.l1dAccesses) << what;
        EXPECT_EQ(x.l1dMisses, y.l1dMisses) << what;
        EXPECT_EQ(x.l2Accesses, y.l2Accesses) << what;
        EXPECT_EQ(x.l2Misses, y.l2Misses) << what;
    }
    ASSERT_EQ(a.slowPhaseCycles.size(), b.slowPhaseCycles.size())
        << what;
    for (std::size_t n = 0; n < a.slowPhaseCycles.size(); ++n)
        EXPECT_EQ(a.slowPhaseCycles[n], b.slowPhaseCycles[n]) << what;
    EXPECT_TRUE(a.mlpBusyMean == b.mlpBusyMean) << what; // bitwise
}

TEST(OneCoreChip, CarriesNoChipExtras)
{
    const std::vector<std::string> benches = {"gzip", "mcf"};
    for (const PolicyKind pk :
         {PolicyKind::Icount, PolicyKind::Flush, PolicyKind::FlushPp,
          PolicyKind::Sra, PolicyKind::Dcra}) {
        SimConfig cfg; // paper baseline: numCores == 1
        Simulator sim(cfg, benches, pk);
        const SimResult r = sim.run(3000, 2'000'000, 500);
        EXPECT_EQ(sim.numCores(), 1);
        EXPECT_EQ(sim.contextsPerCore(), 2);
        EXPECT_EQ(sim.llcOrNull(), nullptr);
        // Single-core results carry no chip extras (the sweep JSON
        // for --cores 1 must keep its pre-CMP bytes).
        EXPECT_TRUE(r.coreCommitHashes.empty()) << policyKindName(pk);
        EXPECT_EQ(r.migrations, 0u);
        EXPECT_EQ(r.allocEpochs, 0u);
        EXPECT_TRUE(r.llcArbiter.empty());
        EXPECT_TRUE(r.llcPerCore.empty());
    }
}

// ---------------------------------------------------------------
// 2-core golden
// ---------------------------------------------------------------

/** The fixed 2-core scenario the golden pins. */
SimConfig
twoCoreConfig()
{
    SimConfig cfg;
    cfg.soc.numCores = 2;
    cfg.soc.contextsPerCore = 2;
    cfg.soc.allocator = AllocatorKind::Symbiosis;
    // Short epoch: the ~2.5k-cycle golden run must cross enough
    // epoch boundaries for a debounced migration to happen.
    cfg.soc.epochCycles = 700;
    cfg.soc.drainTimeout = 400;
    return cfg;
}

const std::vector<std::string> &
twoCoreBenches()
{
    // This order makes the cold spread pair the two memory hogs
    // (mcf+art on core 0) and the two high-ILP threads (gzip+crafty
    // on core 1) — the bad pairing the symbiosis allocator then
    // corrects at the first epoch, so the golden covers a real
    // drain-squash-migrate handoff.
    static const std::vector<std::string> b = {"mcf", "gzip", "art",
                                               "crafty"};
    return b;
}

struct TwoCoreGoldenRow
{
    Cycle cycles;
    std::uint64_t migrations;
    std::uint64_t coreHash[2];
};

/** Regenerate with SMT_PRINT_GOLDEN=1 (see file header). */
TwoCoreGoldenRow
twoCoreGolden()
{
    return {2039, 2, {0x3a1bcefa6e4e6731ull, 0xc7229c6a4d259259ull}};
}

SimResult
runTwoCore()
{
    ChipSimulator chip(twoCoreConfig(), twoCoreBenches(),
                       PolicyKind::Dcra);
    return chip.run(3000, 2'000'000);
}

TEST(TwoCoreChip, MatchesCheckedInGolden)
{
    const TwoCoreGoldenRow want = twoCoreGolden();
    const SimResult r = runTwoCore();
    EXPECT_EQ(r.cycles, want.cycles);
    EXPECT_EQ(r.migrations, want.migrations);
    ASSERT_EQ(r.coreCommitHashes.size(), 2u);
    EXPECT_EQ(r.coreCommitHashes[0], want.coreHash[0]);
    EXPECT_EQ(r.coreCommitHashes[1], want.coreHash[1]);
}

TEST(TwoCoreChip, BitDeterministicAcrossRuns)
{
    const SimResult a = runTwoCore();
    const SimResult b = runTwoCore();
    expectSameResult(a, b, "2-core DCRA");
    EXPECT_EQ(a.coreCommitHashes, b.coreCommitHashes);
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.llcAccesses, b.llcAccesses);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
}

TEST(TwoCoreChip, PrintCurrent)
{
    // smtlint:allow(D1): opt-in golden-regeneration gate, prints to a human terminal only
    if (std::getenv("SMT_PRINT_GOLDEN") == nullptr) {
        SUCCEED();
        return;
    }
    const SimResult r = runTwoCore();
    std::printf("    return {%llu, %llu, {0x%016llxull, "
                "0x%016llxull}};\n",
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.migrations),
                static_cast<unsigned long long>(
                    r.coreCommitHashes[0]),
                static_cast<unsigned long long>(
                    r.coreCommitHashes[1]));
}

// ---------------------------------------------------------------
// epoch accounting
// ---------------------------------------------------------------

/**
 * Round-robin allocator that records every epoch number the chip
 * hands it (beyond the cold start), so tests can check the chip's
 * epoch counter against actual allocator invocations.
 */
class EpochRecordingAllocator : public ThreadToCoreAllocator
{
  public:
    explicit EpochRecordingAllocator(std::vector<std::uint64_t> *log)
        : log(log)
    {
    }

    const char *name() const override { return "epoch-recording"; }

    std::vector<int>
    allocate(const ChipTopology &topo,
             const std::vector<ThreadPerfSample> &metrics,
             std::uint64_t epoch) override
    {
        if (epoch > 0)
            log->push_back(epoch);
        std::vector<int> coreOf(metrics.size());
        for (std::size_t i = 0; i < metrics.size(); ++i)
            coreOf[i] = static_cast<int>(i) % topo.numCores;
        return coreOf;
    }

  private:
    std::vector<std::uint64_t> *log;
};

TEST(TwoCoreChip, ZeroLengthIntervalConsumesNoEpoch)
{
    std::vector<std::uint64_t> epochs;
    ChipSimulator chip(
        twoCoreConfig(), twoCoreBenches(), PolicyKind::Dcra,
        std::make_unique<EpochRecordingAllocator>(&epochs));

    // Freshly built, no cycles have elapsed: the interval is
    // zero-length, so the epoch machinery must neither consult the
    // allocator nor consume an epoch number.
    chip.runEpochNow();
    chip.runEpochNow();
    EXPECT_EQ(chip.epochsRun(), 0u);
    EXPECT_TRUE(epochs.empty());

    // Real epochs then number contiguously from 1: the counter, the
    // allocator invocations and the reported result all agree.
    const SimResult r = chip.run(2500, 1'000'000);
    ASSERT_GT(epochs.size(), 0u);
    EXPECT_EQ(chip.epochsRun(), epochs.size());
    for (std::size_t i = 0; i < epochs.size(); ++i)
        EXPECT_EQ(epochs[i], i + 1) << "epoch index burnt at " << i;
    EXPECT_EQ(r.allocEpochs, chip.epochsRun());
}

// ---------------------------------------------------------------
// migration handoff
// ---------------------------------------------------------------

/**
 * Test allocator that alternates between a strided (i % C) and a
 * blocked (i / K) partition every two epochs. The two genuinely
 * partition the threads differently (a plain rotation would be a
 * pure core relabeling, which canonicalizePlacement correctly
 * suppresses), and holding each proposal for two epochs satisfies
 * the chip's migration debounce — so migrations are guaranteed
 * regardless of workload behaviour, which the invariant audits and
 * determinism checks below rely on.
 */
class AlternateAllocator : public ThreadToCoreAllocator
{
  public:
    const char *name() const override { return "alternate"; }

    std::vector<int>
    allocate(const ChipTopology &topo,
             const std::vector<ThreadPerfSample> &metrics,
             std::uint64_t epoch) override
    {
        std::vector<int> coreOf(metrics.size());
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            coreOf[i] = ((epoch >> 1) & 1)
                ? static_cast<int>(i) /
                    std::max(1, topo.contextsPerCore)
                : static_cast<int>(i) % topo.numCores;
        }
        return coreOf;
    }
};

TEST(Migration, ForcedRotationKeepsInvariants)
{
    SimConfig cfg = twoCoreConfig();
    cfg.soc.epochCycles = 400;
    ChipSimulator chip(cfg, twoCoreBenches(), PolicyKind::Dcra,
                       std::make_unique<AlternateAllocator>());
    chip.setAuditInterval(400); // audits mid-run and post-handoff
    const SimResult r = chip.run(2500, 1'000'000);
    chip.auditInvariants();
    EXPECT_GT(r.migrations, 0u);
    for (const ThreadResult &t : r.threads)
        EXPECT_GT(t.ipc, 0.0) << t.bench;
}

TEST(Migration, ForcedRotationIsDeterministic)
{
    SimConfig cfg = twoCoreConfig();
    cfg.soc.epochCycles = 400;
    auto once = [&cfg]() {
        ChipSimulator chip(cfg, twoCoreBenches(), PolicyKind::Dcra,
                           std::make_unique<AlternateAllocator>());
        return chip.run(2500, 1'000'000);
    };
    const SimResult a = once();
    const SimResult b = once();
    expectSameResult(a, b, "alternate");
    EXPECT_EQ(a.coreCommitHashes, b.coreCommitHashes);
    EXPECT_EQ(a.migrations, b.migrations);
}

TEST(Migration, CommittedStreamSurvivesMigration)
{
    // The architectural ground truth: per-thread committed counts
    // under forced rotation must equal a migration-free run of the
    // same chip at the same commit budget... they will differ in
    // *cycles*, but every thread must make progress and the commit
    // budget thread must reach it exactly.
    SimConfig cfg = twoCoreConfig();
    cfg.soc.epochCycles = 400;
    ChipSimulator chip(cfg, twoCoreBenches(), PolicyKind::Dcra,
                       std::make_unique<AlternateAllocator>());
    const SimResult r = chip.run(2000, 1'000'000);
    bool reached = false;
    for (const ThreadResult &t : r.threads) {
        EXPECT_GT(t.committed, 0u) << t.bench;
        reached = reached || t.committed >= 2000;
    }
    EXPECT_TRUE(reached);
}

// ---------------------------------------------------------------
// bigger chips
// ---------------------------------------------------------------

TEST(ChipScale, SixThreadsOnThreeCores)
{
    SimConfig cfg;
    cfg.soc.numCores = 3;
    cfg.soc.contextsPerCore = 2;
    cfg.soc.allocator = AllocatorKind::Synpa;
    cfg.soc.epochCycles = 1000;
    const std::vector<std::string> benches = {"gzip", "mcf",  "art",
                                              "twolf", "vpr", "eon"};
    ChipSimulator chip(cfg, benches, PolicyKind::Icount);
    const SimResult r = chip.run(1500, 1'000'000);
    chip.auditInvariants();
    ASSERT_EQ(r.threads.size(), 6u);
    for (const ThreadResult &t : r.threads)
        EXPECT_GT(t.committed, 0u) << t.bench;
    ASSERT_EQ(r.coreCommitHashes.size(), 3u);
}

// ---------------------------------------------------------------
// parallel chip execution (--chip-jobs)
// ---------------------------------------------------------------

void
expectSameChipResult(const SimResult &a, const SimResult &b,
                     const char *what)
{
    expectSameResult(a, b, what);
    EXPECT_EQ(a.coreCommitHashes, b.coreCommitHashes) << what;
    EXPECT_EQ(a.migrations, b.migrations) << what;
    EXPECT_EQ(a.allocEpochs, b.allocEpochs) << what;
    EXPECT_EQ(a.llcAccesses, b.llcAccesses) << what;
    EXPECT_EQ(a.llcMisses, b.llcMisses) << what;
    EXPECT_EQ(a.llcShareReassignments, b.llcShareReassignments)
        << what;
}

TEST(ParallelChip, TwoCoreByteIdenticalAcrossArbiters)
{
    // The determinism contract: --chip-jobs N reproduces the serial
    // tick byte for byte — stats, per-core commit-stream hashes and
    // every arbitration outcome — for every LLC arbiter, including
    // the dynamic ones whose shares depend on the exact global
    // order of LLC accesses.
    for (const char *arb : {"static", "chip-dcra", "way-util"}) {
        SimConfig base = twoCoreConfig();
        base.soc.llcArbiter = arb;
        auto runWith = [&base](int jobs) {
            SimConfig cfg = base;
            cfg.soc.chipJobs = jobs;
            ChipSimulator chip(cfg, twoCoreBenches(),
                               PolicyKind::Dcra);
            return chip.run(2500, 1'000'000);
        };
        const SimResult serial = runWith(1);
        const SimResult parallel = runWith(2);
        expectSameChipResult(serial, parallel, arb);
        ASSERT_EQ(serial.coreCommitHashes.size(), 2u) << arb;
    }
}

TEST(ParallelChip, FourCoreEightThreadsByteIdentical)
{
    SimConfig base;
    base.soc.numCores = 4;
    base.soc.contextsPerCore = 2;
    base.soc.allocator = AllocatorKind::Synpa;
    base.soc.epochCycles = 900;
    base.soc.drainTimeout = 400;
    base.soc.llcArbiter = "chip-dcra";
    const std::vector<std::string> benches = {
        "mcf", "gzip", "art", "crafty",
        "twolf", "vpr", "eon", "gcc"};
    auto runWith = [&](int jobs) {
        SimConfig cfg = base;
        cfg.soc.chipJobs = jobs;
        ChipSimulator chip(cfg, benches, PolicyKind::Icount);
        return chip.run(1500, 1'000'000);
    };
    const SimResult serial = runWith(1);
    // Workers == cores and workers < cores (unequal core
    // partitions) must both reproduce the serial bytes.
    expectSameChipResult(serial, runWith(4), "4C8T jobs=4");
    expectSameChipResult(serial, runWith(3), "4C8T jobs=3");
    ASSERT_EQ(serial.coreCommitHashes.size(), 4u);
}

TEST(ParallelChip, WarmupAndAuditsUnderParallelTick)
{
    // Warmup reset, forced migrations and periodic invariant audits
    // all run on the main thread between parallel cycles; none may
    // perturb the contract.
    SimConfig base = twoCoreConfig();
    base.soc.epochCycles = 400;
    auto runWith = [&base](int jobs) {
        SimConfig cfg = base;
        cfg.soc.chipJobs = jobs;
        ChipSimulator chip(cfg, twoCoreBenches(), PolicyKind::Dcra,
                           std::make_unique<AlternateAllocator>());
        chip.setAuditInterval(400);
        return chip.run(2000, 1'000'000, 500);
    };
    const SimResult serial = runWith(1);
    const SimResult parallel = runWith(2);
    expectSameChipResult(serial, parallel, "warmup+audit");
    EXPECT_GT(parallel.migrations, 0u);
}

// ---------------------------------------------------------------
// sweep-level determinism across --jobs
// ---------------------------------------------------------------

TEST(SweepChip, ParallelEqualsSerialByteForByte)
{
    auto runSweep = [](int jobs) {
        SweepSpec spec;
        spec.name = "soc-jobs";
        spec.commits = 2500;
        spec.warmup = 500;
        spec.base = twoCoreConfig();
        spec.workloads = {adHocWorkload(twoCoreBenches())};
        spec.policies = {PolicyKind::Icount, PolicyKind::Dcra};
        ConfigOverride rr;
        rr.label = "alloc=round-robin";
        rr.allocator = AllocatorKind::RoundRobin;
        ConfigOverride sy;
        sy.label = "alloc=symbiosis";
        sy.allocator = AllocatorKind::Symbiosis;
        spec.configs = {rr, sy};
        SweepRunner runner(std::move(spec), jobs);
        return JsonSink().render(runner.run());
    };
    const std::string serial = runSweep(1);
    const std::string parallel = runSweep(4);
    EXPECT_EQ(serial, parallel);
    // The document really carries the chip block.
    EXPECT_NE(serial.find("\"coreCommitHashes\""), std::string::npos);
}

} // anonymous namespace
