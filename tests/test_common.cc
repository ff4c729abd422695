/**
 * @file
 * Unit tests for the common substrate: deterministic RNG,
 * statistics helpers, table formatting and the checked file writer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/file_io.hh"
#include "common/json.hh"
#include "common/random.hh"
#include "common/stats.hh"

namespace {

using namespace smt;

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowRespectsBound)
{
    Rng r(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(r.below(bound), bound);
    }
}

TEST(Rng, BelowCoversRange)
{
    Rng r(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 400; ++i)
        seen.insert(r.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, BetweenInclusive)
{
    Rng r(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.between(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(9);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, GeometricMeanMatches)
{
    Rng r(17);
    const double p = 0.25;
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(r.geometric(p));
    // mean of geometric (failures before success) = (1-p)/p = 3
    EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(RunningMean, Basics)
{
    RunningMean m;
    EXPECT_EQ(m.mean(), 0.0);
    m.sample(2.0);
    m.sample(4.0);
    EXPECT_DOUBLE_EQ(m.mean(), 3.0);
    EXPECT_EQ(m.count(), 2u);
    EXPECT_DOUBLE_EQ(m.total(), 6.0);
    m.reset();
    EXPECT_EQ(m.count(), 0u);
}

TEST(Histogram, ClampsToLastBucket)
{
    Histogram h(4);
    h.sample(0);
    h.sample(3);
    h.sample(99); // clamps to bucket 3
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(3), 2u);
    EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, MeanAndNonZeroMean)
{
    Histogram h(16);
    h.sample(0);
    h.sample(0);
    h.sample(4);
    h.sample(8);
    EXPECT_DOUBLE_EQ(h.mean(), 3.0);
    EXPECT_DOUBLE_EQ(h.meanNonZero(), 6.0);
}

TEST(Histogram, ResetClears)
{
    Histogram h(4);
    h.sample(1);
    h.sample(99);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.bucket(1), 0u);
    EXPECT_EQ(h.overflow(), 0u);
}

TEST(Histogram, CountsOverflowingSamples)
{
    Histogram h(4);
    h.sample(0);
    h.sample(3); // last bucket, in range: not overflow
    EXPECT_EQ(h.overflow(), 0u);
    h.sample(4);
    h.sample(99);
    EXPECT_EQ(h.overflow(), 2u);
    // Clamped samples still land in the last bucket and count.
    EXPECT_EQ(h.bucket(3), 3u);
    EXPECT_EQ(h.count(), 4u);
}

TEST(HarmonicMean, MatchesClosedForm)
{
    EXPECT_DOUBLE_EQ(harmonicMean({1.0, 1.0}), 1.0);
    EXPECT_NEAR(harmonicMean({1.0, 0.5}), 2.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(harmonicMean({}), 0.0);
}

TEST(HarmonicMean, ZeroSampleGivesZero)
{
    EXPECT_DOUBLE_EQ(harmonicMean({1.0, 0.0}), 0.0);
    EXPECT_DOUBLE_EQ(harmonicMean({1.0, -1.0}), 0.0);
}

/** The "%.*f" rendering appendDouble() must reproduce. */
std::string
printfFixed(double v, int prec)
{
    char buf[512];
    // smtlint:allow(D2): the reference formatter under test
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

TEST(JsonFormat, AppendDoubleMatchesPrintf)
{
    std::vector<double> vals = {
        0.0, -0.0, 1.0, -1.0, 0.5, 1.5, 2.5, -2.5, 0.125, 0.375,
        1.0000005, 2.0000005, 999999.5, 0.0000005, 1e-7, 1e300,
        -1e300, 5e-324, 2.2250738585072014e-308,
        1.7976931348623157e308, 123456789.987654321,
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()};
    Rng rng(2024);
    for (int i = 0; i < 20000; ++i) {
        // Arbitrary bit patterns (every exponent, NaN payloads) and
        // values of the magnitudes the sinks actually print.
        const std::uint64_t bits = rng.next();
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        vals.push_back(d);
        vals.push_back((rng.uniform() - 0.5) *
                       std::pow(10.0, static_cast<double>(i % 13 - 4)));
    }
    for (const double v : vals) {
        for (const int prec : {0, 1, 2, 3, 4, 6, 9, 17}) {
            std::string got = "x";
            appendDouble(got, v, prec);
            ASSERT_EQ(got, "x" + printfFixed(v, prec))
                << "prec " << prec;
        }
        ASSERT_EQ(fmtDouble(v), printfFixed(v, 6));
    }
}

TEST(TextTable, AlignsColumns)
{
    TextTable t;
    t.header({"a", "long-header"});
    t.row({"xxxx", "1"});
    const std::string s = t.str();
    EXPECT_NE(s.find("a"), std::string::npos);
    EXPECT_NE(s.find("long-header"), std::string::npos);
    EXPECT_NE(s.find("xxxx"), std::string::npos);
    // header separator line present
    EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(TextTable, FmtPrecision)
{
    EXPECT_EQ(TextTable::fmt(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::fmt(1.0, 0), "1");
}

TEST(WriteTextFile, WritesAndReportsFailure)
{
    const std::string path = "test_common_write_text_file.txt";
    ASSERT_TRUE(writeTextFile(path, "one\ntwo\n"));
    std::ifstream in(path);
    std::stringstream got;
    got << in.rdbuf();
    EXPECT_EQ(got.str(), "one\ntwo\n");
    std::remove(path.c_str());

    // /dev/full opens fine and fails at the flush in fclose.
    EXPECT_FALSE(writeTextFile("/dev/full", "lost\n"));
    EXPECT_FALSE(writeTextFile("/nonexistent-dir/x.txt", "lost\n"));
}

} // anonymous namespace
