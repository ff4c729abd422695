/**
 * @file
 * What a run reports to the experiments: RunSummary condenses one
 * multithreaded run (throughput, Hmean against the single-thread
 * baselines, the raw SimResult) and serializes it for the sweep
 * journal and the isolated-job pipe; CellAverage is the paper's
 * four-group mean of a workload cell. The runner's executeJob is
 * the one place that runs a job and fills a RunSummary.
 */

#ifndef DCRA_SMT_SIM_EXPERIMENT_HH
#define DCRA_SMT_SIM_EXPERIMENT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/sim_config.hh"

namespace smt {

/** Average throughput/Hmean of the four groups of one workload cell
 * under one policy and config, as the runner's cellAverage() takes
 * it from a sweep. */
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

} // namespace smt

#endif // DCRA_SMT_SIM_EXPERIMENT_HH
