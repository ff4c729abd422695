/**
 * @file
 * Experiment plumbing shared by the bench binaries: runs workloads
 * under policies, caches single-thread baselines (needed for Hmean),
 * and averages the four groups of each workload cell the way the
 * paper does.
 */

#ifndef DCRA_SMT_SIM_EXPERIMENT_HH
#define DCRA_SMT_SIM_EXPERIMENT_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hh"
#include "policy/factory.hh"
#include "runner/baseline_cache.hh"
#include "sim/sim_config.hh"
#include "sim/workload.hh"

namespace smt {

/** Average throughput/Hmean over a family of runs (one workload
 * cell); shared by ExperimentContext::runCell and the runner's
 * cellAverage(). */
struct CellAverage
{
    double throughput = 0.0;
    double hmean = 0.0;
};

/** Condensed outcome of one multithreaded run. */
struct RunSummary
{
    double throughput = 0.0;  //!< sum of per-thread IPC
    double hmean = 0.0;       //!< Hmean of speedups vs single-thread
    std::vector<double> multiIpc;
    std::vector<double> singleIpc;
    SimResult raw;

    /** What the run's telemetry/--prof sidecar files hold, for the
     *  CLI's one-line notes. Host bookkeeping: never serialized, so
     *  a replayed or isolated job reports zeros. */
    struct Sidecars
    {
        std::size_t samples = 0; //!< telemetry samples
        std::size_t events = 0;  //!< telemetry events
        std::size_t scopes = 0;  //!< host-profiler scopes
        std::size_t records = 0; //!< host-profiler records
        std::size_t spans = 0;   //!< host-profiler spans
        bool written = true;     //!< every sidecar write succeeded
    } sidecars;
};

/**
 * @name RunSummary (de)serialization
 *
 * One-line JSON for the sweep journal and the isolated-job result
 * pipe. Doubles are written with fmtDoubleExact, so a serialize ->
 * parse round trip reproduces every field bit for bit and output
 * rendered from a replayed summary is byte-identical to output
 * rendered from the live run.
 */
/** @{ */

/** Serialize to a single-line JSON object (no trailing newline). */
std::string runSummaryToJson(const RunSummary &s);

/**
 * Rebuild a RunSummary from a parsed runSummaryToJson document.
 * Returns false (leaving @p out partially filled) on a document that
 * is not a summary object.
 */
bool runSummaryFromJson(const JsonValue &v, RunSummary &out);

/** @} */

/**
 * Shared context for a family of runs under one hardware
 * configuration. Single-thread baselines come from a concurrency-
 * safe BaselineCache, which may be shared with other contexts (or a
 * SweepRunner) so each (config, benchmark) baseline is simulated at
 * most once per process.
 */
class ExperimentContext
{
  public:
    /**
     * @param base hardware/policy configuration for all runs.
     * @param commitLimit per-run first-thread commit budget.
     * @param warmupCommits commits executed before measuring.
     * @param baselines shared baseline cache; nullptr = private one.
     */
    explicit ExperimentContext(
        const SimConfig &base, std::uint64_t commitLimit = 100'000,
        std::uint64_t warmupCommits = 0,
        std::shared_ptr<BaselineCache> baselines = nullptr);

    /** Single-thread IPC of a benchmark (cached). */
    double singleThreadIpc(const std::string &bench);

    /** Run one workload under one policy. */
    RunSummary runWorkload(const Workload &w, PolicyKind policy);

    /**
     * Average throughput and Hmean of the four groups of a workload
     * cell under one policy.
     */
    CellAverage runCell(int numThreads, WorkloadType type,
                        PolicyKind policy);

    /** Configuration in use. */
    const SimConfig &config() const { return base; }

    /** Commit budget per run. */
    std::uint64_t commitLimit() const { return limit; }

  private:
    SimConfig base;
    std::uint64_t limit;
    std::uint64_t warmup;
    std::shared_ptr<BaselineCache> baselines;
};

} // namespace smt

#endif // DCRA_SMT_SIM_EXPERIMENT_HH
