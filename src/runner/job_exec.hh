/**
 * @file
 * Fault-tolerant execution of one sweep job: the shared in-process
 * run path, optional subprocess isolation (fork + result pipe) with
 * a kill timeout and deterministic retry backoff, and a deterministic
 * fault-injection hook (SMT_FAULT_INJECT) so tests and CI can crash,
 * hang or fail a specific job on its first attempt and assert that
 * the sweep recovers.
 */

#ifndef DCRA_SMT_RUNNER_JOB_EXEC_HH
#define DCRA_SMT_RUNNER_JOB_EXEC_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "runner/baseline_cache.hh"
#include "runner/sweep_spec.hh"
#include "sim/experiment.hh"

namespace smt {

/** How a sweep executes (and re-executes) its jobs. */
struct ExecOptions
{
    /** Run each job in a forked child behind a result pipe. */
    bool isolate = false;
    /** Kill an isolated job after this many seconds; 0 = never. */
    int timeoutSec = 0;
    /** Extra attempts after a failed first one (isolated mode). */
    int retries = 0;
    /** Base of the deterministic backoff: attempt k (k >= 1) waits
     *  backoffMs << (k - 1) milliseconds before retrying. */
    int backoffMs = 50;
};

/**
 * What to do to a job when its index is named in the fault plan.
 * Injected faults fire on the job's FIRST attempt only, so a retry
 * (or a resumed sweep without the env var) observes recovery.
 */
enum class FaultKind { None, Crash, Hang, Exit1 };

/**
 * Deterministic fault-injection plan, parsed from
 * `SMT_FAULT_INJECT=<jobIndex>:<crash|hang|exit1>[,...]`. Compiled
 * in always; an unset variable costs one empty-map lookup per job.
 */
class FaultPlan
{
  public:
    /** Parse a plan string; false (and clears @p out) on junk. */
    static bool parse(const std::string &s, FaultPlan &out);

    /** The plan named by SMT_FAULT_INJECT (empty when unset);
     *  fatal() on a malformed value — a typo must not silently turn
     *  a fault-injection run into a clean one. */
    static FaultPlan fromEnv();

    /** Fault for this (job, attempt); None for attempt > 0. */
    FaultKind at(std::size_t jobIndex, int attempt) const;

    bool empty() const { return faults.empty(); }

  private:
    std::map<std::size_t, FaultKind> faults;
};

/** Outcome of executeJob: the summary, or why it failed. */
struct ExecOutcome
{
    bool ok = false;
    RunSummary summary;
    int attempts = 1;
    /** "crash" | "timeout" | "nonzero-exit" | "exception" |
     *  "interrupted"; empty on success. */
    std::string cause;
    int termSignal = 0; //!< signal that killed the child (crash)
    int exitCode = 0;   //!< child exit status (nonzero-exit)

    /** @name Isolation overhead (--prof with --isolate-jobs)
     * Host wall time spent forking the child and reaping it, summed
     * over every attempt. Measured only when spec.prof is enabled —
     * zero otherwise — and never part of any deterministic output.
     */
    /** @{ */
    std::uint64_t forkNs = 0;
    std::uint64_t reapNs = 0;
    /** @} */
};

/**
 * The plain run path: simulate the job's chip (one core or many),
 * telemetry and Hmean baselines included. This is what the runner
 * always executed; isolation forks around it.
 */
RunSummary runJobInProcess(const SweepSpec &spec, const SweepJob &job,
                           BaselineCache &cache);

/**
 * Run one job under @p opts. Without isolation this is
 * runJobInProcess plus the fault hook and an exception net; with it,
 * each attempt runs in a forked child that streams its serialized
 * RunSummary back over a pipe, over-budget children are SIGKILLed,
 * and failed attempts retry with deterministic backoff.
 *
 * @param stop optional cooperative stop flag (signal handling): when
 *        it becomes nonzero the in-flight child is killed and the
 *        outcome is a non-retried "interrupted" failure.
 */
ExecOutcome executeJob(const SweepSpec &spec, const SweepJob &job,
                       BaselineCache &cache, const ExecOptions &opts,
                       const FaultPlan &faults,
                       const std::atomic<int> *stop = nullptr);

} // namespace smt

#endif // DCRA_SMT_RUNNER_JOB_EXEC_HH
