/**
 * @file
 * Unit tests for core building blocks (register files, ROB, issue
 * queue, instruction pool, config) and pipeline-level behaviour
 * driven through the Simulator or a bare Pipeline.
 */

#include <gtest/gtest.h>

#include <memory>

#include "bpred/predictor.hh"
#include "core/dyn_inst.hh"
#include "core/issue_queue.hh"
#include "core/pipeline.hh"
#include "core/regfile.hh"
#include "core/rob.hh"
#include "core/smt_config.hh"
#include "mem/memory_system.hh"
#include "policy/factory.hh"
#include "sim/simulator.hh"
#include "support/dies_with_abort.hh"
#include "trace/bench_profile.hh"
#include "trace/generator.hh"

namespace {

using namespace smt;

TEST(SmtConfig, RenameRegArithmeticMatchesPaper)
{
    SmtConfig c;
    c.physRegsPerFile = 320;
    c.numThreads = 4;
    // Paper section 4: 320 physical registers leave 160 rename
    // registers with 4 threads (40 architectural regs per context).
    EXPECT_EQ(c.renameRegsPerFile(), 160);
    c.numThreads = 3;
    EXPECT_EQ(c.renameRegsPerFile(), 200);
    c.numThreads = 2;
    EXPECT_EQ(c.renameRegsPerFile(), 240);
}

TEST(SmtConfig, ResourceTotals)
{
    SmtConfig c; // defaults: 80-entry queues, 352 regs, 4 threads
    EXPECT_EQ(c.resourceTotal(ResIqInt), 80);
    EXPECT_EQ(c.resourceTotal(ResIqFp), 80);
    EXPECT_EQ(c.resourceTotal(ResIqLs), 80);
    EXPECT_EQ(c.resourceTotal(ResRegInt), 352 - 4 * 40);
    EXPECT_EQ(c.resourceTotal(ResRegFp), 352 - 4 * 40);
}

TEST(SmtConfig, ProblemNamesWhatCannotBeBuilt)
{
    SmtConfig c; // paper baseline builds
    EXPECT_EQ(c.problem(), "");
    c.physRegsPerFile = 160; // 4 threads x 40 architectural: none left
    EXPECT_NE(c.problem().find("no rename registers"), std::string::npos);
    c = SmtConfig();
    c.iqSize[1] = 0;
    EXPECT_NE(c.problem().find("at least 1"), std::string::npos);
    c = SmtConfig();
    c.numThreads = maxThreads + 1;
    EXPECT_NE(c.problem().find("out of range"), std::string::npos);
}

TEST(Resources, QueueMapping)
{
    EXPECT_EQ(iqResource(QueueClass::IntQ), ResIqInt);
    EXPECT_EQ(iqResource(QueueClass::FpQ), ResIqFp);
    EXPECT_EQ(iqResource(QueueClass::LsQ), ResIqLs);
    EXPECT_EQ(regResource(false), ResRegInt);
    EXPECT_EQ(regResource(true), ResRegFp);
    EXPECT_TRUE(isFpResource(ResIqFp));
    EXPECT_TRUE(isFpResource(ResRegFp));
    EXPECT_FALSE(isFpResource(ResIqInt));
    EXPECT_FALSE(isFpResource(ResIqLs));
    EXPECT_FALSE(isFpResource(ResRegInt));
}

TEST(RegFiles, InitialMappingsReadyAndDistinct)
{
    RegFiles rf(352, 2);
    for (ThreadID t = 0; t < 2; ++t) {
        for (ArchRegId a = 0; a < numArchRegs; ++a) {
            const PhysRegId p = rf.mapping(t, a);
            ASSERT_GE(p, 0);
            EXPECT_TRUE(rf.ready(p, isFpReg(a)));
        }
    }
    EXPECT_NE(rf.mapping(0, 0), rf.mapping(1, 0));
}

TEST(RegFiles, FreeCountMatchesRenamePool)
{
    RegFiles rf(352, 4);
    EXPECT_EQ(rf.freeCount(false), 352 - 160);
    EXPECT_EQ(rf.freeCount(true), 352 - 160);
}

TEST(RegFiles, AllocateMarksNotReady)
{
    RegFiles rf(352, 1);
    const PhysRegId p = rf.allocate(false);
    EXPECT_FALSE(rf.ready(p, false));
    rf.setReady(p, false);
    EXPECT_TRUE(rf.ready(p, false));
    rf.release(p, false);
}

TEST(RegFiles, AllocateReleaseRoundTrip)
{
    RegFiles rf(352, 1);
    const int before = rf.freeCount(true);
    std::vector<PhysRegId> regs;
    for (int i = 0; i < 10; ++i)
        regs.push_back(rf.allocate(true));
    EXPECT_EQ(rf.freeCount(true), before - 10);
    for (PhysRegId r : regs)
        rf.release(r, true);
    EXPECT_EQ(rf.freeCount(true), before);
}

TEST(RegFiles, MappingUpdate)
{
    RegFiles rf(352, 1);
    const PhysRegId old = rf.mapping(0, 5);
    const PhysRegId fresh = rf.allocate(false);
    rf.setMapping(0, 5, fresh);
    EXPECT_EQ(rf.mapping(0, 5), fresh);
    rf.setMapping(0, 5, old);
    rf.release(fresh, false);
}

TEST(Rob, SharedCapacity)
{
    Rob rob(4, 2);
    rob.push(0, 1);
    rob.push(0, 2);
    rob.push(1, 3);
    rob.push(1, 4);
    EXPECT_TRUE(rob.full());
    EXPECT_EQ(rob.size(0), 2);
    EXPECT_EQ(rob.size(1), 2);
    rob.popHead(0);
    EXPECT_FALSE(rob.full());
    EXPECT_EQ(rob.head(0), 2u);
}

TEST(Rob, TailWalk)
{
    Rob rob(8, 1);
    rob.push(0, 10);
    rob.push(0, 11);
    rob.push(0, 12);
    EXPECT_EQ(rob.tail(0), 12u);
    rob.popTail(0);
    EXPECT_EQ(rob.tail(0), 11u);
    EXPECT_EQ(rob.size(), 2);
}

TEST(IssueQueue, CapacityAndSlotRemoval)
{
    IssueQueue q(3);
    const std::uint32_t s5 = q.insert(5);
    const std::uint32_t s6 = q.insert(6);
    const std::uint32_t s7 = q.insert(7);
    EXPECT_TRUE(q.full());
    EXPECT_EQ(s5, 0u);
    EXPECT_EQ(s6, 1u);
    EXPECT_EQ(s7, 2u);
    // Removing the head swaps the tail entry into the freed slot and
    // reports it so the caller can patch that entry's iqSlot.
    EXPECT_EQ(q.removeSlot(s5, 5), 7u);
    EXPECT_EQ(q.entries()[0], 7u);
    EXPECT_FALSE(q.full());
    // Removing the current tail moves nothing.
    EXPECT_EQ(q.removeSlot(s6, 6), invalidInst);
    EXPECT_EQ(q.size(), 1);
    EXPECT_EQ(q.removeSlot(0, 7), invalidInst);
    EXPECT_EQ(q.size(), 0);
}

TEST(InstPool, AllocFreeReuse)
{
    InstPool pool(4);
    const InstHandle a = pool.alloc();
    const InstHandle b = pool.alloc();
    EXPECT_NE(a, b);
    EXPECT_EQ(pool.live(), 2u);
    pool[a].seq = 42;
    pool[a].pendingOps = 2;
    pool[a].inIQ = true;
    pool[a].waitNext[0] = 7;
    pool[a].pdst = 3;
    pool.free(a);
    const InstHandle c = pool.alloc();
    EXPECT_EQ(c, a); // LIFO: most recently freed slot is reused
    // alloc resets all pipeline state (ti/snap are the fetch
    // stage's to assign; see DynInst::resetForFetch).
    EXPECT_EQ(pool[c].seq, 0u);
    EXPECT_EQ(pool[c].pendingOps, 0);
    EXPECT_FALSE(pool[c].inIQ);
    EXPECT_EQ(pool[c].waitNext[0], invalidWaitLink);
    EXPECT_EQ(pool[c].pdst, invalidPhysReg);
}

TEST(InstPool, BuildsSlotsInHandleOrderOnFirstUse)
{
    InstPool pool(3);
    EXPECT_EQ(pool.capacity(), 3u);
    EXPECT_EQ(pool.live(), 0u);
    // An empty free list hands out fresh slots 0, 1, 2, each in the
    // default (fully reset) state.
    for (InstHandle want = 0; want < 3; ++want) {
        const InstHandle h = pool.alloc();
        EXPECT_EQ(h, want);
        EXPECT_EQ(pool[h].seq, 0u);
        EXPECT_EQ(pool[h].pdst, invalidPhysReg);
        EXPECT_EQ(pool[h].waitPrev[1], invalidWaitLink);
        EXPECT_EQ(pool.live(), static_cast<std::size_t>(want) + 1);
    }
    EXPECT_EQ(pool.capacity(), 3u);

    // Freed slots come back LIFO, before any unbuilt one would.
    pool.free(0);
    pool.free(2);
    EXPECT_EQ(pool.live(), 1u);
    EXPECT_EQ(pool.alloc(), 2u);
    EXPECT_EQ(pool.alloc(), 0u);
    EXPECT_EQ(pool.live(), 3u);
}

TEST(InstPool, ReferencesSurviveLaterAllocations)
{
    // The slab is reserved up front, so building a slot never moves
    // the records already handed out.
    InstPool pool(64);
    const InstHandle first = pool.alloc();
    DynInst *const at = &pool[first];
    for (int i = 1; i < 64; ++i)
        (void)pool.alloc();
    EXPECT_EQ(&pool[first], at);
}

TEST(InstPool, ExhaustionAsserts)
{
    EXPECT_TRUE(diesWithAbort([] {
        InstPool pool(2);
        (void)pool.alloc();
        (void)pool.alloc();
        (void)pool.alloc();
    }));
    // Reuse after a free is not exhaustion.
    EXPECT_FALSE(diesWithAbort([] {
        InstPool pool(2);
        (void)pool.alloc();
        pool.free(pool.alloc());
        (void)pool.alloc();
    }));
}

// ---------------- pipeline-level behaviour ----------------

SimConfig
smallConfig()
{
    SimConfig cfg;
    cfg.seed = 99;
    return cfg;
}

TEST(Pipeline, SingleThreadMakesForwardProgress)
{
    Simulator sim(smallConfig(), {"eon"}, PolicyKind::Icount);
    const SimResult r = sim.run(5000, 1'000'000);
    EXPECT_GE(r.threads[0].committed, 5000u);
    EXPECT_GT(r.threads[0].ipc, 0.3);
}

TEST(Pipeline, AllThreadsProgressUnderIcount)
{
    Simulator sim(smallConfig(), {"gzip", "gcc", "bzip2", "eon"},
                  PolicyKind::Icount);
    const SimResult r = sim.run(3000, 2'000'000);
    for (const auto &t : r.threads)
        EXPECT_GT(t.committed, 500u) << t.bench;
}

TEST(Pipeline, DeterministicRuns)
{
    Simulator a(smallConfig(), {"gzip", "twolf"}, PolicyKind::Dcra);
    Simulator b(smallConfig(), {"gzip", "twolf"}, PolicyKind::Dcra);
    const SimResult ra = a.run(4000, 1'000'000);
    const SimResult rb = b.run(4000, 1'000'000);
    EXPECT_EQ(ra.cycles, rb.cycles);
    for (std::size_t i = 0; i < ra.threads.size(); ++i) {
        EXPECT_EQ(ra.threads[i].committed, rb.threads[i].committed);
        EXPECT_EQ(ra.threads[i].fetched, rb.threads[i].fetched);
        EXPECT_EQ(ra.threads[i].l1dMisses, rb.threads[i].l1dMisses);
    }
}

TEST(Pipeline, FlushRewindsFitTheTraceRingAtTheRobBound)
{
    // The largest ROB problem() accepts, with queues and registers
    // big enough to fill it behind a chased miss: FLUSH then rewinds
    // a thread by up to ~1660 records on this mix, more than half
    // the generator's replay window, and must stay inside it.
    SimConfig cfg = smallConfig();
    cfg.core.robSize = 2015;
    cfg.core.physRegsPerFile = 2200;
    for (int q = 0; q < numQueueClasses; ++q)
        cfg.core.iqSize[q] = 1024;
    ASSERT_EQ(Simulator::problem(cfg, {"mcf", "art"}), "");
    Simulator sim(cfg, {"mcf", "art"}, PolicyKind::Flush);
    const SimResult r = sim.run(4000, 2'000'000);
    for (const auto &t : r.threads)
        EXPECT_GT(t.committed, 0u) << t.bench;
    EXPECT_GT(r.threads[0].flushes, 0u);
}

TEST(Pipeline, MispredictsAreDetectedAndRecovered)
{
    Simulator sim(smallConfig(), {"gzip"}, PolicyKind::Icount);
    const SimResult r = sim.run(20000, 1'000'000);
    const ThreadResult &t = r.threads[0];
    EXPECT_GT(t.mispredicts, 50u);
    EXPECT_GT(t.fetchedWrongPath, t.mispredicts);
    // all wrong-path work must be squashed, never committed (a few
    // hundred may still be in flight when the run stops)
    EXPECT_GE(t.squashed + 700, t.fetchedWrongPath);
}

TEST(Pipeline, BranchPredictionIsReasonable)
{
    Simulator sim(smallConfig(), {"wupwise"}, PolicyKind::Icount);
    const SimResult r = sim.run(30000, 2'000'000, 5000);
    const ThreadResult &t = r.threads[0];
    ASSERT_GT(t.condBranches, 500u);
    const double rate = static_cast<double>(t.mispredicts) /
        static_cast<double>(t.condBranches);
    EXPECT_LT(rate, 0.15) << "fp code should predict well";
}

TEST(Pipeline, MemBenchmarkIsMemoryBound)
{
    Simulator ilp(smallConfig(), {"eon"}, PolicyKind::Icount);
    Simulator mem(smallConfig(), {"mcf"}, PolicyKind::Icount);
    const SimResult ri = ilp.run(10000, 2'000'000);
    const SimResult rm = mem.run(10000, 2'000'000);
    EXPECT_GT(ri.threads[0].ipc, 3.0 * rm.threads[0].ipc);
}

TEST(Pipeline, WarmupReducesColdStartEffects)
{
    Simulator cold(smallConfig(), {"gzip"}, PolicyKind::Icount);
    Simulator warm(smallConfig(), {"gzip"}, PolicyKind::Icount);
    const SimResult rc = cold.run(10000, 2'000'000, 0);
    const SimResult rw = warm.run(10000, 2'000'000, 10000);
    EXPECT_GE(rw.threads[0].ipc, rc.threads[0].ipc * 0.95);
}

TEST(Pipeline, StoreForwardingHappens)
{
    Simulator sim(smallConfig(), {"vortex"}, PolicyKind::Icount);
    sim.run(30000, 2'000'000);
    EXPECT_GT(sim.pipeline().stats().storeForwards[0], 0u);
}

TEST(Pipeline, ResourceCapLimitsOccupancy)
{
    SimConfig cfg = smallConfig();
    cfg.core.resourceCap[ResIqInt] = 10;
    Simulator sim(cfg, {"gzip"}, PolicyKind::Icount);
    Pipeline &pipe = sim.pipeline();
    for (int i = 0; i < 20000; ++i) {
        pipe.tick();
        ASSERT_LE(pipe.tracker().occupancy(ResIqInt, 0), 10);
    }
}

TEST(Pipeline, CappedResourceDegradesIpc)
{
    SimConfig cfg = smallConfig();
    Simulator full(cfg, {"gcc"}, PolicyKind::Icount);
    cfg.core.resourceCap[ResIqInt] = 4;
    cfg.core.resourceCap[ResRegInt] = 12;
    Simulator capped(cfg, {"gcc"}, PolicyKind::Icount);
    const double ipcFull = full.run(15000, 2'000'000).threads[0].ipc;
    const double ipcCap =
        capped.run(15000, 2'000'000).threads[0].ipc;
    EXPECT_LT(ipcCap, ipcFull * 0.9);
}

TEST(Pipeline, FpRegistersUntouchedByIntThread)
{
    Simulator sim(smallConfig(), {"gzip"}, PolicyKind::Icount);
    Pipeline &pipe = sim.pipeline();
    for (int i = 0; i < 5000; ++i)
        pipe.tick();
    EXPECT_EQ(pipe.tracker().occupancy(ResRegFp, 0), 0);
    EXPECT_EQ(pipe.tracker().occupancy(ResIqFp, 0), 0);
}

TEST(Pipeline, LongMemoryLatencyGrowsTheCompletionWheel)
{
    // A load finishing 2048 or more cycles out used to overflow the
    // fixed completion wheel and panic. Configured latencies cannot
    // bound it (bus and MSHR waits add to them), so the wheel grows.
    SimConfig cfg = smallConfig();
    cfg.mem.memLatency = 1900;
    Simulator sim(cfg, {"mcf", "gzip"}, PolicyKind::Icount);
    const SimResult r = sim.run(2000, 5'000'000);
    EXPECT_TRUE(r.threads[0].committed >= 2000u ||
                r.threads[1].committed >= 2000u);
    EXPECT_LT(r.cycles, 5'000'000u);
    sim.auditInvariants();
}

// ---------------- binding a thread to a context ----------------

SmtConfig
twoContexts(SmtConfig c)
{
    c.numThreads = 2;
    return c;
}

/** The parts a chip builds for one 2-context core, no thread on it. */
struct BareCore
{
    SimConfig cfg = smallConfig();
    MemorySystem mem{cfg.mem, 2};
    BranchPredictor bpred{cfg.bpred, 2};
    std::unique_ptr<Policy> pol =
        makePolicy(PolicyKind::Icount, cfg.policy);
    Pipeline pipe{twoContexts(cfg.core), mem, bpred, *pol};
};

TEST(Pipeline, ContextsStartIdleAndAttachBindsOne)
{
    BareCore core;
    Pipeline &pipe = core.pipe;
    for (int i = 0; i < 5; ++i)
        pipe.tick();
    for (ThreadID t = 0; t < 2; ++t) {
        EXPECT_FALSE(pipe.contextActive(t));
        EXPECT_EQ(pipe.stats().fetched[t], 0u);
    }
    pipe.auditInvariants();

    // The thread's first line is resident, so nothing but the
    // attach itself can hold its first fetch back.
    SyntheticTraceGenerator gen(benchProfile("gzip"), 5);
    const Addr base = threadAddrStride;
    const Addr pc = gen.peek().pc + base;
    core.mem.l1i().fill(pc);
    core.mem.itlb(1).access(pc);

    pipe.attachThread(1, gen, base);
    EXPECT_FALSE(pipe.contextActive(0));
    EXPECT_TRUE(pipe.contextActive(1));
    pipe.auditInvariants();

    pipe.tick();
    EXPECT_GT(pipe.stats().fetched[1], 0u);
    EXPECT_EQ(pipe.stats().fetched[0], 0u);
    EXPECT_GT(gen.nextIndex(), 0u);

    for (int i = 0; i < 3000; ++i)
        pipe.tick();
    EXPECT_GT(pipe.stats().committed[1], 0u);
    EXPECT_EQ(pipe.stats().fetched[0], 0u);
    pipe.auditInvariants();
}

TEST(Pipeline, AttachAndDetachGuardTheirContext)
{
    EXPECT_TRUE(diesWithAbort([] {
        BareCore core;
        SyntheticTraceGenerator a(benchProfile("gzip"), 1);
        SyntheticTraceGenerator b(benchProfile("mcf"), 2);
        core.pipe.attachThread(0, a, 0);
        core.pipe.attachThread(0, b, threadAddrStride);
    }));
    EXPECT_TRUE(diesWithAbort([] {
        BareCore core;
        SyntheticTraceGenerator a(benchProfile("gzip"), 1);
        core.pipe.attachThread(0, a, 0);
        core.pipe.tick();
        core.pipe.detachThread(0);
    }));
    EXPECT_TRUE(diesWithAbort([] {
        BareCore core;
        core.pipe.detachThread(1);
    }));

    // Drained and detached, the context takes a thread again.
    BareCore core;
    SyntheticTraceGenerator a(benchProfile("gzip"), 1);
    SyntheticTraceGenerator b(benchProfile("mcf"), 2);
    core.pipe.attachThread(0, a, 0);
    for (int i = 0; i < 500; ++i)
        core.pipe.tick();
    core.pipe.beginDrain(0);
    core.pipe.tick();
    core.pipe.detachThread(0);
    EXPECT_FALSE(core.pipe.contextActive(0));
    core.pipe.auditInvariants();
    core.pipe.attachThread(0, b, threadAddrStride);
    for (int i = 0; i < 500; ++i)
        core.pipe.tick();
    EXPECT_TRUE(core.pipe.contextActive(0));
    core.pipe.auditInvariants();
}

} // anonymous namespace
