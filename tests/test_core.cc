/**
 * @file
 * Unit tests for core building blocks (register files, ROB, issue
 * queue, instruction pool, config) and pipeline-level behaviour
 * driven through the Simulator.
 */

#include <gtest/gtest.h>

#include "core/dyn_inst.hh"
#include "core/issue_queue.hh"
#include "core/regfile.hh"
#include "core/rob.hh"
#include "core/smt_config.hh"
#include "sim/simulator.hh"

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

} // anonymous namespace
