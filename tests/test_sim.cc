/**
 * @file
 * Unit tests for the simulation layer: workload tables (paper
 * Table 4), metrics (Hmean), experiment context caching and run
 * accounting.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/experiment.hh"
#include "sim/metrics.hh"
#include "sim/simulator.hh"
#include "sim/workload.hh"
#include "trace/bench_profile.hh"

namespace {

using namespace smt;

TEST(Workloads, ThirtySixTotal)
{
    EXPECT_EQ(allWorkloads().size(), 36u);
}

TEST(Workloads, FourGroupsPerCell)
{
    for (int n : {2, 3, 4}) {
        for (auto ty : {WorkloadType::ILP, WorkloadType::MIX,
                        WorkloadType::MEM}) {
            const auto cell = workloadsOf(n, ty);
            EXPECT_EQ(cell.size(), 4u)
                << n << " " << workloadTypeName(ty);
            for (const Workload &w : cell) {
                EXPECT_EQ(w.numThreads, n);
                EXPECT_EQ(static_cast<int>(w.benches.size()), n);
            }
        }
    }
}

TEST(Workloads, BenchNamesAllResolve)
{
    for (const Workload &w : allWorkloads()) {
        for (const auto &b : w.benches)
            EXPECT_NO_FATAL_FAILURE(benchProfile(b)) << w.id;
    }
}

TEST(Workloads, MemCellsContainOnlyMemBenches)
{
    for (const Workload &w : allWorkloads()) {
        if (w.type == WorkloadType::MEM) {
            for (const auto &b : w.benches)
                EXPECT_TRUE(isMemBench(b)) << w.id << " " << b;
        } else if (w.type == WorkloadType::ILP) {
            for (const auto &b : w.benches)
                EXPECT_FALSE(isMemBench(b)) << w.id << " " << b;
        }
    }
}

TEST(Workloads, MixCellsContainBothKinds)
{
    for (const Workload &w : allWorkloads()) {
        if (w.type != WorkloadType::MIX)
            continue;
        bool any_mem = false, any_ilp = false;
        for (const auto &b : w.benches) {
            any_mem |= isMemBench(b);
            any_ilp |= !isMemBench(b);
        }
        EXPECT_TRUE(any_mem) << w.id;
        EXPECT_TRUE(any_ilp) << w.id;
    }
}

TEST(Workloads, PaperTable4SpotChecks)
{
    const auto mem2 = workloadsOf(2, WorkloadType::MEM);
    EXPECT_EQ(mem2[0].benches,
              (std::vector<std::string>{"mcf", "twolf"}));
    EXPECT_EQ(mem2[3].benches,
              (std::vector<std::string>{"swim", "mcf"}));
    const auto ilp3 = workloadsOf(3, WorkloadType::ILP);
    EXPECT_EQ(ilp3[0].benches,
              (std::vector<std::string>{"gcc", "eon", "gap"}));
    const auto mix4 = workloadsOf(4, WorkloadType::MIX);
    EXPECT_EQ(mix4[0].benches,
              (std::vector<std::string>{"gzip", "twolf", "bzip2",
                                        "mcf"}));
}

TEST(Workloads, IdsAreUnique)
{
    std::set<std::string> ids;
    for (const Workload &w : allWorkloads())
        EXPECT_TRUE(ids.insert(w.id).second) << w.id;
}

TEST(Metrics, HmeanSpeedupBasics)
{
    // both threads at full single-thread speed -> 1.0
    EXPECT_DOUBLE_EQ(hmeanSpeedup({2.0, 1.0}, {2.0, 1.0}), 1.0);
    // both at half speed -> 0.5
    EXPECT_DOUBLE_EQ(hmeanSpeedup({1.0, 0.5}, {2.0, 1.0}), 0.5);
    // harmonic mean punishes imbalance
    const double balanced = hmeanSpeedup({1.0, 0.5}, {2.0, 1.0});
    const double skewed = hmeanSpeedup({1.9, 0.05}, {2.0, 1.0});
    EXPECT_GT(balanced, skewed);
}

TEST(Metrics, HmeanZeroWhenAThreadIsStarved)
{
    EXPECT_DOUBLE_EQ(hmeanSpeedup({2.0, 0.0}, {2.0, 1.0}), 0.0);
}

TEST(Metrics, ImprovementPct)
{
    EXPECT_NEAR(improvementPct(1.1, 1.0), 10.0, 1e-9);
    EXPECT_NEAR(improvementPct(0.9, 1.0), -10.0, 1e-9);
    EXPECT_DOUBLE_EQ(improvementPct(1.0, 0.0), 0.0);
}

TEST(Simulator, ThreadResultAccounting)
{
    SimConfig cfg;
    cfg.seed = 3;
    Simulator sim(cfg, {"gzip", "twolf"}, PolicyKind::Icount);
    const SimResult r = sim.run(5000, 1'000'000);
    ASSERT_EQ(r.threads.size(), 2u);
    EXPECT_EQ(r.threads[0].bench, "gzip");
    EXPECT_EQ(r.threads[1].bench, "twolf");
    EXPECT_GT(r.cycles, 0u);
    for (const auto &t : r.threads) {
        EXPECT_GT(t.fetched, t.committed);
        EXPECT_NEAR(t.ipc,
                    static_cast<double>(t.committed) /
                        static_cast<double>(r.cycles),
                    1e-12);
        EXPECT_LE(t.l1dMisses, t.l1dAccesses);
        EXPECT_LE(t.l2Misses, t.l2Accesses);
    }
    const double thr = r.threads[0].ipc + r.threads[1].ipc;
    EXPECT_NEAR(r.throughput(), thr, 1e-12);
}

TEST(Simulator, StopsAtFirstThreadReachingLimit)
{
    SimConfig cfg;
    cfg.seed = 3;
    Simulator sim(cfg, {"eon", "mcf"}, PolicyKind::Icount);
    const SimResult r = sim.run(4000, 5'000'000);
    // eon is much faster; it must be the one that hit the limit
    EXPECT_GE(r.threads[0].committed, 4000u);
    EXPECT_LT(r.threads[1].committed, 4000u);
}

TEST(Simulator, SlowPhaseCyclesSumToTotal)
{
    SimConfig cfg;
    cfg.seed = 4;
    Simulator sim(cfg, {"gzip", "art"}, PolicyKind::Icount);
    const SimResult r = sim.run(5000, 1'000'000);
    std::uint64_t sum = 0;
    for (const auto c : r.slowPhaseCycles)
        sum += c;
    EXPECT_EQ(sum, r.cycles);
}

TEST(Simulator, MemWorkloadSpendsMoreCyclesAllSlow)
{
    SimConfig cfg;
    cfg.seed = 4;
    Simulator ilp(cfg, {"gzip", "eon"}, PolicyKind::Icount);
    Simulator mem(cfg, {"mcf", "art"}, PolicyKind::Icount);
    const SimResult ri = ilp.run(8000, 2'000'000, 2000);
    const SimResult rm = mem.run(8000, 2'000'000, 2000);
    const double fracIlp =
        static_cast<double>(ri.slowPhaseCycles[2]) /
        static_cast<double>(ri.cycles);
    const double fracMem =
        static_cast<double>(rm.slowPhaseCycles[2]) /
        static_cast<double>(rm.cycles);
    EXPECT_GT(fracMem, fracIlp + 0.2);
}

TEST(Experiment, BaselineCacheIsStable)
{
    SimConfig cfg;
    cfg.seed = 8;
    ExperimentContext ctx(cfg, 5000);
    const double a = ctx.singleThreadIpc("gzip");
    const double b = ctx.singleThreadIpc("gzip");
    EXPECT_DOUBLE_EQ(a, b);
    EXPECT_GT(a, 0.5);
}

TEST(Experiment, RunWorkloadFillsSummary)
{
    SimConfig cfg;
    cfg.seed = 8;
    ExperimentContext ctx(cfg, 4000);
    const Workload w = workloadsOf(2, WorkloadType::MIX)[0];
    const RunSummary s = ctx.runWorkload(w, PolicyKind::Dcra);
    ASSERT_EQ(s.multiIpc.size(), 2u);
    ASSERT_EQ(s.singleIpc.size(), 2u);
    EXPECT_GT(s.throughput, 0.0);
    EXPECT_GT(s.hmean, 0.0);
    EXPECT_LE(s.hmean, 1.5);
    for (std::size_t i = 0; i < 2; ++i)
        EXPECT_LE(s.multiIpc[i], s.singleIpc[i] * 1.3);
}

TEST(Experiment, RunWorkloadIgnoresTheChipShape)
{
    // ExperimentContext is a single-core harness: a base config
    // asking for a 2-core chip still runs (and baselines) one core.
    SimConfig cfg;
    cfg.seed = 8;
    SimConfig chip = cfg;
    chip.soc.numCores = 2;
    chip.soc.contextsPerCore = 1;
    const Workload w = workloadsOf(2, WorkloadType::MIX)[0];
    const RunSummary a =
        ExperimentContext(cfg, 3000).runWorkload(w, PolicyKind::Dcra);
    const RunSummary b =
        ExperimentContext(chip, 3000).runWorkload(w, PolicyKind::Dcra);
    EXPECT_EQ(a.raw.cycles, b.raw.cycles);
    EXPECT_TRUE(a.throughput == b.throughput); // bitwise
    EXPECT_TRUE(a.hmean == b.hmean);
    EXPECT_TRUE(b.raw.coreCommitHashes.empty());
}

TEST(Experiment, CellAverageAveragesFourGroups)
{
    SimConfig cfg;
    cfg.seed = 8;
    ExperimentContext ctx(cfg, 2000);
    const auto avg =
        ctx.runCell(2, WorkloadType::ILP, PolicyKind::Icount);
    EXPECT_GT(avg.throughput, 0.0);
    EXPECT_GT(avg.hmean, 0.0);
}

} // anonymous namespace
