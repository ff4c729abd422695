/**
 * @file
 * Seeded configuration fuzzer for ChipSimulator::problem(): draws
 * configurations from the ranges smtsim's option table accepts and
 * requires each to be either rejected by problem() or buildable and
 * runnable (short capped runs with invariant audits on). A
 * multi-core draw must also give the same SimResult serially and
 * with two tick workers. A draw that crashes here is a defect in
 * problem() or in the simulator, never a reason to narrow a range.
 * A failed expectation names the draw and its equivalent smtsim
 * options.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "alloc/chip_arbiters.hh"
#include "common/random.hh"
#include "runner/sweep_spec.hh"
#include "sim/experiment.hh"
#include "soc/chip.hh"
#include "trace/bench_profile.hh"

namespace {

using namespace smt;

constexpr int kDraws = 64;
constexpr std::uint64_t kSeed = 0x5eedc0f1ull;

/** One drawn job, as smtsim would build it. */
struct Draw
{
    SimConfig cfg;
    std::vector<std::string> benches;
    PolicyKind policy = PolicyKind::Dcra;
    std::string text; //!< the equivalent smtsim options
};

/** Draw #@p index (independent of every other draw). */
Draw
drawConfig(int index)
{
    Rng rng(kSeed + static_cast<std::uint64_t>(index));
    const auto pick = [&](std::int64_t lo, std::int64_t hi) {
        return rng.between(lo, hi);
    };
    Draw d;
    ConfigOverride o;
    SimConfig base;
    // The option table's ranges: --cores 1..32, --contexts 1..8,
    // --regs and --iq 1..4096, --mem-latency 0..1000, --l2-latency
    // 0..500, --llc-ways 1..32 (--epoch is open-ended; short epochs
    // make migrations happen inside the short runs). Like options on
    // a command line, each is given or left at its default.
    const auto given = [&] { return rng.below(2) == 0; };
    if (given())
        o.numCores = static_cast<int>(pick(1, 32));
    if (given())
        base.soc.contextsPerCore = static_cast<int>(pick(1, maxThreads));
    if (given())
        o.physRegsPerFile = static_cast<int>(pick(1, 4096));
    if (given())
        o.iqSize = static_cast<int>(pick(1, 4096));
    if (given())
        o.memLatency = static_cast<Cycle>(pick(0, 1000));
    if (given())
        o.l2Latency = static_cast<Cycle>(pick(0, 500));
    if (given())
        o.llcWays = static_cast<int>(pick(1, 32));
    if (given())
        o.epochCycles = static_cast<Cycle>(pick(0, 2000));
    const std::vector<const char *> arbiters = llcArbiterNames();
    o.llcArbiter = arbiters[rng.below(arbiters.size())];
    const AllocatorKind allocs[] = {AllocatorKind::RoundRobin,
                                    AllocatorKind::Symbiosis,
                                    AllocatorKind::Synpa};
    o.allocator = allocs[rng.below(3)];
    const std::vector<const char *> policies = policyNames();
    d.policy = parsePolicyKind(policies[rng.below(policies.size())]);
    d.cfg = o.apply(base);

    // 1..capacity+1 threads: one past the capacity must be refused.
    const SocParams &soc = d.cfg.soc;
    const int capacity = soc.numCores == 1
        ? maxThreads
        : soc.numCores * soc.contextsPerCore;
    const std::vector<std::string> &names = allBenchNames();
    const int n = static_cast<int>(pick(1, capacity + 1));
    for (int t = 0; t < n; ++t)
        d.benches.push_back(names[rng.below(names.size())]);

    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "--cores %d --contexts %d --regs %d --iq %d "
                  "--mem-latency %llu --l2-latency %llu --llc-ways %d "
                  "--epoch %llu --llc-arbiter %s --allocator %s "
                  "--policy %s, %d threads",
                  soc.numCores, soc.contextsPerCore,
                  d.cfg.core.physRegsPerFile, d.cfg.core.iqSize[0],
                  static_cast<unsigned long long>(d.cfg.mem.memLatency),
                  static_cast<unsigned long long>(d.cfg.mem.l2Latency),
                  soc.llcWays,
                  static_cast<unsigned long long>(soc.epochCycles),
                  soc.llcArbiter.c_str(),
                  allocatorKindName(soc.allocator),
                  policyKindName(d.policy), n);
    d.text = buf;
    return d;
}

/** A short capped run with periodic invariant audits. */
SimResult
runShort(const Draw &d, int chipJobs)
{
    SimConfig cfg = d.cfg;
    cfg.soc.chipJobs = chipJobs;
    ChipSimulator chip(cfg, d.benches, d.policy);
    chip.setAuditInterval(97);
    return chip.run(300, 10'000, 100);
}

/** Every serialized field of @p r (bitwise doubles). */
std::string
resultBytes(const SimResult &r)
{
    RunSummary s;
    s.raw = r;
    return runSummaryToJson(s);
}

void
checkDraw(int index, int &accepted)
{
    const Draw d = drawConfig(index);
    if (!ChipSimulator::problem(d.cfg, d.benches).empty())
        return; // refused with a message: the CLI reports it
    ++accepted;
    const std::string where =
        "draw " + std::to_string(index) + ": " + d.text;
    const SimResult serial = runShort(d, 1);
    EXPECT_GT(serial.cycles, 0u) << where;
    EXPECT_EQ(serial.threads.size(), d.benches.size()) << where;
    if (d.cfg.soc.numCores > 1) {
        EXPECT_EQ(resultBytes(serial), resultBytes(runShort(d, 2)))
            << where;
    }
}

TEST(ConfigFuzz, EveryDrawIsRefusedOrRuns)
{
    int accepted = 0;
    for (int i = 0; i < kDraws; ++i)
        checkDraw(i, accepted);
    // The ranges must not be so hostile that nothing ever runs, nor
    // so tame that problem() never refuses anything.
    EXPECT_GT(accepted, kDraws / 4);
    EXPECT_LT(accepted, kDraws);
}

} // anonymous namespace
