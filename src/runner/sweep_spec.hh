/**
 * @file
 * Declarative sweep specifications: a grid of workloads x policies x
 * configuration overrides that expands into a flat list of
 * independent simulation jobs. The expansion order is deterministic
 * (configs outermost, then policies, then workloads), so job index i
 * always names the same (config, policy, workload) triple and the
 * parallel runner can emit results in a stable order.
 */

#ifndef DCRA_SMT_RUNNER_SWEEP_SPEC_HH
#define DCRA_SMT_RUNNER_SWEEP_SPEC_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/resources.hh"
#include "policy/factory.hh"
#include "policy/sharing_model.hh"
#include "sim/sim_config.hh"
#include "sim/workload.hh"

namespace smt {

/**
 * One per-thread occupancy cap expressed as a fraction of the
 * machine total (Figure 2 style). A fraction >= 1.0 is a no-op, so
 * the uncapped point of a sensitivity sweep needs no special case.
 */
struct ResourceCapFrac
{
    ResourceType res = ResIqInt;
    double frac = 1.0;
};

/**
 * A named bundle of SimConfig deltas forming one point on a sweep's
 * configuration axis. Only the fields the experiments actually sweep
 * are exposed; everything else comes from the spec's base config.
 */
struct ConfigOverride
{
    std::string label;

    std::optional<Cycle> memLatency;
    std::optional<Cycle> l2Latency;
    std::optional<int> physRegsPerFile;
    std::optional<int> iqSize; //!< applied to all three queue classes
    std::optional<bool> perfectDcache;
    std::optional<SharingFactorMode> iqSharingMode;
    std::optional<SharingFactorMode> regSharingMode;
    std::optional<std::uint64_t> seed;

    /** @name Chip-level (CMP) axes
     * numCores > 1 makes the job a multi-core chip; the others
     * shape it. */
    /** @{ */
    std::optional<int> numCores;
    std::optional<int> contextsPerCore;
    std::optional<AllocatorKind> allocator;
    std::optional<Cycle> epochCycles;
    /** LLC arbiter name (alloc/chip_arbiters.hh registry). */
    std::optional<std::string> llcArbiter;
    /** LLC associativity override for way partitioning. */
    std::optional<int> llcWays;
    /** @} */

    /** Caps are applied after the scalar fields, so a fraction is
     * relative to the overridden resource totals. */
    std::vector<ResourceCapFrac> caps;

    /** Base config with this override applied. */
    SimConfig apply(SimConfig cfg) const;
};

/**
 * Telemetry request for a sweep (or a single run routed through a
 * one-job spec). Disabled — the default — means no hub is ever
 * constructed and the simulation and its outputs are byte-identical
 * to a build without the subsystem. Enabled, every job gets its own
 * TelemetryHub and writes time-series and/or trace sidecars with
 * deterministic job-order naming (`<prefix>.job<index>.ts.ndjson`,
 * `<prefix>.job<index>.trace.json`), so --jobs N never renames
 * anything.
 *
 * Two output prefixes, two CLI flags:
 *  - `--trace-out <prefix>` (tracePrefix) keeps its historical
 *    combined behaviour: the event trace AND the time series.
 *  - `--ts-out <prefix>` (tsPrefix) asks for the time series alone —
 *    no event tracer output, no trace.json.
 * Both at once write the time series to tsPrefix and the trace to
 * tracePrefix.
 */
struct TelemetrySpec
{
    Cycle statsInterval = 0;  //!< sample every N cycles (0 = off)
    std::string tracePrefix;  //!< trace (+ts) path prefix; "" = off
    std::string tsPrefix;     //!< time-series-only prefix; "" = off

    bool enabled() const
    {
        return !tracePrefix.empty() || !tsPrefix.empty();
    }
    /** The event-trace sidecar is wanted (--trace-out given). */
    bool traceEnabled() const { return !tracePrefix.empty(); }
    /** Where the time series goes: --ts-out wins, else the combined
     *  --trace-out prefix ("" when telemetry is off entirely). */
    const std::string &
    tsOutPrefix() const
    {
        return tsPrefix.empty() ? tracePrefix : tsPrefix;
    }
};

/**
 * Host-profiling request (--prof). Orthogonal to telemetry and —
 * unlike it — explicitly nondeterministic: everything it produces is
 * host wall-clock data, quarantined in its own sidecars
 * (`<prefix>.job<index>.prof.ndjson`, `<prefix>.runner.prof.ndjson`)
 * and the `hostProfile` block of the JSON sink. Disabled (the
 * default), no HostProfiler object exists anywhere and every
 * deterministic output is byte-identical to a build without the
 * subsystem. Never part of the journal spec key: a --prof run may
 * resume a plain journal and vice versa.
 */
struct ProfSpec
{
    std::string prefix;             //!< sidecar path prefix; "" = off
    std::uint64_t sampleEvery = 64; //!< time 1 in N ticks

    bool enabled() const { return !prefix.empty(); }
};

/**
 * Everything a sweep needs: the base hardware configuration, the
 * run budgets, and the three axes of the grid. An empty config axis
 * means "just the base config".
 */
struct SweepSpec
{
    std::string name = "sweep";

    SimConfig base;
    std::uint64_t commits = 60'000; //!< first-thread commit budget
    std::uint64_t warmup = 10'000;  //!< commits before measuring
    Cycle maxCycles = 50'000'000;   //!< hard per-run cycle bound

    /** Compute single-thread baselines (needed for Hmean). */
    bool computeHmean = true;

    /** Per-job time-series/trace capture (off by default). */
    TelemetrySpec telemetry;

    /** Host wall-clock profiling (off by default). */
    ProfSpec prof;

    std::vector<Workload> workloads;
    std::vector<PolicyKind> policies;
    std::vector<ConfigOverride> configs;

    /** Number of jobs the spec expands into. */
    std::size_t jobCount() const;
};

/** One fully resolved simulation job. */
struct SweepJob
{
    std::size_t index = 0; //!< position in the deterministic order
    std::size_t configIdx = 0;
    std::size_t policyIdx = 0;
    std::size_t workloadIdx = 0;
    Workload workload;
    PolicyKind policy = PolicyKind::Icount;
    std::string configLabel;
    SimConfig config; //!< base + override, ready for ChipSimulator
};

/**
 * Expand a spec into jobs. Order: configs outermost, then policies,
 * then workloads, i.e.
 *   index = (configIdx * nPolicies + policyIdx) * nWorkloads
 *           + workloadIdx.
 * Calls fatal() on an empty workload or policy axis.
 */
std::vector<SweepJob> expandSweep(const SweepSpec &spec);

/** A one-thread Workload wrapping a single benchmark. */
Workload singleBenchWorkload(const std::string &bench);

/**
 * An ad-hoc Workload from a bench list (e.g. a CLI request), typed
 * by the paper's rule: all memory-bounded members -> MEM, none ->
 * ILP, otherwise MIX.
 */
Workload adHocWorkload(const std::vector<std::string> &benches);

/**
 * Stable serialisation of every SimConfig field that can change a
 * simulation outcome, *excluding* the policy parameters (baseline
 * runs always use ICOUNT, which reads none of them) and the chip
 * (soc) parameters: baselines are single-thread single-core runs,
 * so sweep points differing only in cores/allocator correctly share
 * one baseline. Used as the BaselineCache key.
 */
std::string configKey(const SimConfig &cfg);

} // namespace smt

#endif // DCRA_SMT_RUNNER_SWEEP_SPEC_HH
