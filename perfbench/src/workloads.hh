/**
 * @file
 * The benchmark's three workloads. Each one builds its simulator
 * inputs from the benchmark seed alone (the four-thread ones use the
 * simulator's defaults, the same for every seed), drives the
 * simulator through its public API for a fixed host-time budget,
 * checks that the simulated output is correct, and reports metrics by
 * name and unit.
 * Why each workload exists, and which layer metric should move which
 * end-to-end metric, is written down in perfbench/README.md.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hh"

namespace perfbench {

/** What one benchmark invocation was asked to do. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    /** false: timed end-to-end run; true: the separate traced run
     *  that yields the per-layer metrics. */
    bool trace = false;
    /** Host workers for --chip-jobs and the sweep: min(4, nproc). */
    int workers = 1;
    /** Where the traced run writes profiler sidecars and spans. */
    std::string outDir;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one workload measured and checked. */
struct Report
{
    std::vector<Metric> metrics;
    /** Simulation runs (or sweep jobs) attempted and failed; a
     *  failed output check counts as one failed run. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    /** Canonical text of the simulated output; its digest is
     *  compared against the one recorded for the default seed. */
    std::string digestText;
    /** The simulated output does not depend on the seed, so the
     *  recorded digest is checked on every seed. */
    bool seedFreeOutput = false;
    /** Provenance: host worker counts actually used. */
    std::string workersUsed;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    void
    fail(const std::string &why)
    {
        ++failed;
        errors.push_back(why);
    }
};

Report runCore4tMix(const Options &opt, SpanLog &log);
Report runChip4c8tMem(const Options &opt, SpanLog &log);
Report runSweepTable4(const Options &opt, SpanLog &log);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
