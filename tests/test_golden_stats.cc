/**
 * @file
 * Golden-stat determinism tests (first new test layer of the build
 * bring-up): run a short end-to-end two-thread simulation under each
 * paper policy with a fixed seed and pin the key metrics (cycles,
 * committed instructions, fetch/squash volume, flush counts) to
 * checked-in golden values. Any behavioural change to the pipeline,
 * the memory system, the trace generator or a policy shows up here
 * as an exact-value diff.
 *
 * Regenerating after an intentional change:
 *
 *     SMT_PRINT_GOLDEN=1 ./test_golden_stats \
 *         --gtest_filter='*PrintCurrent*'
 *
 * and paste the emitted rows over the goldenRows() table below.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace {

using namespace smt;

/** The fixed scenario every golden row pins. */
constexpr std::uint64_t goldenCommits = 3000;
constexpr Cycle goldenMaxCycles = 2'000'000;

const std::vector<std::string> &
goldenBenches()
{
    static const std::vector<std::string> b = {"gzip", "mcf"};
    return b;
}

SimResult
runGolden(PolicyKind policy)
{
    SimConfig cfg; // paper-baseline defaults, default seed
    Simulator sim(cfg, goldenBenches(), policy);
    return sim.run(goldenCommits, goldenMaxCycles);
}

struct GoldenRow
{
    PolicyKind policy;
    Cycle cycles;
    std::uint64_t committed[2];
    std::uint64_t fetched[2];
    std::uint64_t squashed[2];
    std::uint64_t flushes[2];
};

/**
 * Golden values for the scenario above, regenerated with
 * SMT_PRINT_GOLDEN=1 (see file header). Covers the five headline
 * policies of the paper's evaluation.
 */
const std::vector<GoldenRow> &
goldenRows()
{
    static const std::vector<GoldenRow> rows = {
        {PolicyKind::Icount, 10898, {3000, 1264}, {5002, 4684},
         {1853, 3299}, {0, 0}},
        {PolicyKind::Flush, 11235, {3000, 1088}, {5917, 5201},
         {2828, 4037}, {19, 13}},
        {PolicyKind::FlushPp, 8311, {3000, 993}, {4792, 3635},
         {1710, 2333}, {0, 0}},
        {PolicyKind::Sra, 7320, {3000, 1018}, {5108, 3447},
         {2019, 2330}, {0, 0}},
        {PolicyKind::Dcra, 7115, {3000, 993}, {4985, 3152},
         {1896, 1942}, {0, 0}},
    };
    return rows;
}

TEST(GoldenStats, MatchesCheckedInValues)
{
    for (const GoldenRow &row : goldenRows()) {
        const SimResult r = runGolden(row.policy);
        const char *name = policyKindName(row.policy);
        EXPECT_EQ(r.cycles, row.cycles) << name;
        ASSERT_EQ(r.threads.size(), 2u) << name;
        for (int t = 0; t < 2; ++t) {
            EXPECT_EQ(r.threads[t].committed, row.committed[t])
                << name << " thread " << t;
            EXPECT_EQ(r.threads[t].fetched, row.fetched[t])
                << name << " thread " << t;
            EXPECT_EQ(r.threads[t].squashed, row.squashed[t])
                << name << " thread " << t;
            EXPECT_EQ(r.threads[t].flushes, row.flushes[t])
                << name << " thread " << t;
            // IPC is derived from the pinned integers, so it only
            // needs a consistency check, not its own golden.
            EXPECT_DOUBLE_EQ(
                r.threads[t].ipc,
                static_cast<double>(r.threads[t].committed) /
                    static_cast<double>(r.cycles))
                << name << " thread " << t;
        }
    }
}

TEST(GoldenStats, BitDeterministicAcrossRuns)
{
    for (const GoldenRow &row : goldenRows()) {
        const SimResult a = runGolden(row.policy);
        const SimResult b = runGolden(row.policy);
        const char *name = policyKindName(row.policy);
        EXPECT_EQ(a.cycles, b.cycles) << name;
        EXPECT_TRUE(a.mlpBusyMean == b.mlpBusyMean) << name;
        ASSERT_EQ(a.threads.size(), b.threads.size()) << name;
        for (std::size_t t = 0; t < a.threads.size(); ++t) {
            for (const ThreadCounterField &f : threadCounterFields) {
                EXPECT_EQ(a.threads[t].*f.member, b.threads[t].*f.member)
                    << name << " thread " << t << " " << f.key;
            }
            // Doubles must be bit-identical, not merely close.
            EXPECT_TRUE(a.threads[t].ipc == b.threads[t].ipc) << name;
        }
        ASSERT_EQ(a.slowPhaseCycles.size(), b.slowPhaseCycles.size());
        for (std::size_t n = 0; n < a.slowPhaseCycles.size(); ++n)
            EXPECT_EQ(a.slowPhaseCycles[n], b.slowPhaseCycles[n]);
    }
}

TEST(GoldenStats, PrintCurrent)
{
    // smtlint:allow(D1): opt-in golden-regeneration gate, prints to a human terminal only
    if (std::getenv("SMT_PRINT_GOLDEN") == nullptr) {
        SUCCEED();
        return;
    }
    for (const GoldenRow &row : goldenRows()) {
        const SimResult r = runGolden(row.policy);
        std::printf("        {PolicyKind::%s, %llu, {%llu, %llu}, "
                    "{%llu, %llu}, {%llu, %llu}, {%llu, %llu}},\n",
                    [](PolicyKind k) {
                        switch (k) {
                          case PolicyKind::Icount: return "Icount";
                          case PolicyKind::Flush: return "Flush";
                          case PolicyKind::FlushPp: return "FlushPp";
                          case PolicyKind::Sra: return "Sra";
                          case PolicyKind::Dcra: return "Dcra";
                          default: return "?";
                        }
                    }(row.policy),
                    static_cast<unsigned long long>(r.cycles),
                    static_cast<unsigned long long>(
                        r.threads[0].committed),
                    static_cast<unsigned long long>(
                        r.threads[1].committed),
                    static_cast<unsigned long long>(
                        r.threads[0].fetched),
                    static_cast<unsigned long long>(
                        r.threads[1].fetched),
                    static_cast<unsigned long long>(
                        r.threads[0].squashed),
                    static_cast<unsigned long long>(
                        r.threads[1].squashed),
                    static_cast<unsigned long long>(
                        r.threads[0].flushes),
                    static_cast<unsigned long long>(
                        r.threads[1].flushes));
    }
}

} // anonymous namespace
