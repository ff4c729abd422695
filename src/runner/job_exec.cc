#include "runner/job_exec.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>

#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "prof/host_profiler.hh"
#include "sim/metrics.hh"
#include "soc/chip.hh"
#include "telemetry/telemetry.hh"

namespace smt {

// ---------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------

bool
FaultPlan::parse(const std::string &s, FaultPlan &out)
{
    out.faults.clear();
    std::size_t start = 0;
    while (start < s.size()) {
        std::size_t end = s.find(',', start);
        if (end == std::string::npos)
            end = s.size();
        const std::string item = s.substr(start, end - start);
        const std::size_t colon = item.find(':');
        if (colon == std::string::npos || colon == 0)
            return false;
        const std::string idx = item.substr(0, colon);
        if (idx.find_first_not_of("0123456789") != std::string::npos)
            return false;
        const std::string kind = item.substr(colon + 1);
        FaultKind fk;
        if (kind == "crash")
            fk = FaultKind::Crash;
        else if (kind == "hang")
            fk = FaultKind::Hang;
        else if (kind == "exit1")
            fk = FaultKind::Exit1;
        else
            return false;
        out.faults[std::strtoull(idx.c_str(), nullptr, 10)] = fk;
        start = end + 1;
    }
    return true;
}

FaultPlan
FaultPlan::fromEnv()
{
    FaultPlan plan;
    const char *env = std::getenv("SMT_FAULT_INJECT");
    if (!env || !*env)
        return plan;
    if (!FaultPlan::parse(env, plan)) {
        fatal("bad SMT_FAULT_INJECT '%s' (want "
              "<jobIndex>:<crash|hang|exit1>[,...])",
              env);
    }
    return plan;
}

FaultKind
FaultPlan::at(std::size_t jobIndex, int attempt) const
{
    if (attempt > 0 || faults.empty())
        return FaultKind::None;
    const auto it = faults.find(jobIndex);
    return it == faults.end() ? FaultKind::None : it->second;
}

namespace {

/** Fire an injected fault. Crash and exit1 never return. */
void
applyFault(FaultKind kind)
{
    switch (kind) {
      case FaultKind::None:
        return;
      case FaultKind::Crash:
        std::abort();
      case FaultKind::Hang:
        // Burn no CPU: the parent's --job-timeout (or an external
        // SIGKILL) is the only way out, which is the point.
        for (;;)
            pause();
      case FaultKind::Exit1:
        // _exit, not exit: a forked child shares the parent's stdio
        // buffers and must not flush them a second time.
        _exit(1);
    }
}

} // anonymous namespace

// ---------------------------------------------------------------
// In-process run path
// ---------------------------------------------------------------

RunSummary
runJobInProcess(const SweepSpec &spec, const SweepJob &job,
                BaselineCache &cache)
{
    RunSummary s;
    // One private hub per job, written to a file named by the
    // deterministic job index: --jobs N changes neither content
    // nor names. No hub exists when telemetry is off.
    std::unique_ptr<TelemetryHub> hub;
    if (spec.telemetry.enabled()) {
        hub = std::make_unique<TelemetryHub>(
            spec.telemetry.statsInterval);
    }
    // Same ownership story for the host profiler: one private
    // instance per job, sidecar named by job index, no object at
    // all when --prof is off. Spans (for the Perfetto merge) only
    // record when there is a trace to merge them into.
    std::unique_ptr<HostProfiler> hprof;
    if (spec.prof.enabled()) {
        hprof = std::make_unique<HostProfiler>(spec.prof.sampleEvery);
        hprof->enableSpans(spec.telemetry.traceEnabled());
    }
    const std::uint64_t runT0 = hprof ? hprof->nowNs() : 0;
    {
        // The whole chip (one core or many) is one job, so host
        // parallelism never touches result determinism.
        ChipSimulator chip(job.config, job.workload.benches,
                           job.policy);
        if (hub)
            chip.setTelemetry(hub.get());
        if (hprof)
            chip.setHostProfiler(hprof.get());
        s.raw = chip.run(spec.commits, spec.maxCycles, spec.warmup);
    }
    if (hprof) {
        hprof->record("{\"type\": \"run\", \"wallNs\": " +
                      fmtU64(hprof->nowNs() - runT0) + "}");
        s.sidecars.written = writeHostProfile(
            *hprof, profFileBase(spec.prof.prefix, job.index),
            "job" + std::to_string(job.index));
        s.sidecars.scopes = hprof->scopeCount();
        s.sidecars.records = hprof->recordCount();
        s.sidecars.spans = hprof->spanCount();
    }
    if (hub) {
        const std::string &tsPrefix = spec.telemetry.tsOutPrefix();
        s.sidecars.samples = hub->sampleCount();
        s.sidecars.events = hub->eventCount();
        s.sidecars.written =
            writeTelemetryFiles(
                *hub,
                tsPrefix.empty()
                    ? std::string()
                    : telemetryFileBase(tsPrefix, job.index),
                spec.telemetry.traceEnabled()
                    ? telemetryFileBase(spec.telemetry.tracePrefix,
                                        job.index)
                    : std::string(),
                hprof ? hprof->chromeTraceEvents() : std::string()) &&
            s.sidecars.written;
    }
    for (std::size_t t = 0; t < job.workload.benches.size(); ++t) {
        s.multiIpc.push_back(s.raw.threads[t].ipc);
        if (spec.computeHmean) {
            s.singleIpc.push_back(
                cache.ipc(job.config, job.workload.benches[t],
                          spec.commits, spec.warmup,
                          spec.maxCycles));
        }
    }
    s.throughput = s.raw.throughput();
    if (spec.computeHmean)
        s.hmean = hmeanSpeedup(s.multiIpc, s.singleIpc);
    return s;
}

// ---------------------------------------------------------------
// Isolated (forked) attempts
// ---------------------------------------------------------------

namespace {

/** Write all of @p buf to @p fd, riding out EINTR/short writes. */
bool
writeAll(int fd, const char *buf, std::size_t len)
{
    while (len) {
        const ssize_t n = write(fd, buf, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        buf += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * One forked attempt. The child gets a FRESH BaselineCache: the
 * parent's cache mutex may be held by another worker thread at fork
 * time, so touching the inherited one could deadlock the child.
 */
ExecOutcome
runIsolatedAttempt(const SweepSpec &spec, const SweepJob &job,
                   const ExecOptions &opts, FaultKind fault,
                   const std::atomic<int> *stop)
{
    using SteadyClock = std::chrono::steady_clock;
    const bool timeOverhead = spec.prof.enabled();

    ExecOutcome out;
    int fds[2];
    if (pipe(fds) != 0) {
        out.cause = "exception";
        return out;
    }
    std::fflush(nullptr);
    const SteadyClock::time_point forkT0 =
        timeOverhead ? SteadyClock::now() : SteadyClock::time_point();
    const pid_t pid = fork();
    if (timeOverhead && pid >= 0) {
        out.forkNs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                SteadyClock::now() - forkT0)
                .count());
    }
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        out.cause = "exception";
        return out;
    }
    if (pid == 0) {
        // Child: run the job, stream the serialized summary back,
        // _exit without touching the parent's stdio buffers.
        close(fds[0]);
        applyFault(fault);
        int code = 0;
        try {
            BaselineCache childCache;
            const RunSummary s =
                runJobInProcess(spec, job, childCache);
            const std::string payload = runSummaryToJson(s);
            if (!writeAll(fds[1], payload.data(), payload.size()))
                code = 3;
        } catch (...) {
            code = 2;
        }
        close(fds[1]);
        _exit(code);
    }

    // Parent: read until EOF or deadline.
    close(fds[1]);
    std::string payload;
    bool timedOut = false;
    bool interrupted = false;
    const auto deadline = std::chrono::steady_clock::now() +
        std::chrono::seconds(opts.timeoutSec);
    for (;;) {
        if (stop && stop->load(std::memory_order_relaxed)) {
            interrupted = true;
            break;
        }
        if (opts.timeoutSec > 0 &&
            std::chrono::steady_clock::now() >= deadline) {
            timedOut = true;
            break;
        }
        struct pollfd pfd;
        pfd.fd = fds[0];
        pfd.events = POLLIN;
        const int pr = poll(&pfd, 1, 50);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            timedOut = true; // poll itself broke; reap the child
            break;
        }
        if (pr == 0)
            continue;
        char buf[4096];
        const ssize_t n = read(fds[0], buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (n == 0)
            break; // EOF: the child exited (or crashed)
        payload.append(buf, static_cast<std::size_t>(n));
    }
    close(fds[0]);
    if (timedOut || interrupted)
        kill(pid, SIGKILL);
    const SteadyClock::time_point reapT0 =
        timeOverhead ? SteadyClock::now() : SteadyClock::time_point();
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (timeOverhead) {
        out.reapNs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                SteadyClock::now() - reapT0)
                .count());
    }

    if (interrupted) {
        out.cause = "interrupted";
        return out;
    }
    if (timedOut) {
        out.cause = "timeout";
        out.termSignal = SIGKILL;
        return out;
    }
    if (WIFSIGNALED(status)) {
        out.cause = "crash";
        out.termSignal = WTERMSIG(status);
        return out;
    }
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    if (code != 0) {
        out.cause = "nonzero-exit";
        out.exitCode = code;
        return out;
    }
    JsonValue doc;
    if (!parseJson(payload, doc) ||
        !runSummaryFromJson(doc, out.summary)) {
        out.cause = "bad-result";
        return out;
    }
    out.ok = true;
    return out;
}

/** Deterministic backoff before attempt @p attempt (>= 1), cut
 *  short when the stop flag fires. */
void
backoff(const ExecOptions &opts, int attempt,
        const std::atomic<int> *stop)
{
    long ms = static_cast<long>(opts.backoffMs)
        << (attempt - 1 > 10 ? 10 : attempt - 1);
    while (ms > 0) {
        if (stop && stop->load(std::memory_order_relaxed))
            return;
        const long slice = ms < 20 ? ms : 20;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(slice));
        ms -= slice;
    }
}

} // anonymous namespace

ExecOutcome
executeJob(const SweepSpec &spec, const SweepJob &job,
           BaselineCache &cache, const ExecOptions &opts,
           const FaultPlan &faults, const std::atomic<int> *stop)
{
    ExecOutcome last;
    std::uint64_t forkNsTotal = 0;
    std::uint64_t reapNsTotal = 0;
    for (int attempt = 0; attempt <= opts.retries; ++attempt) {
        if (attempt > 0)
            backoff(opts, attempt, stop);
        if (stop && stop->load(std::memory_order_relaxed)) {
            last.cause = "interrupted";
            last.attempts = attempt + 1;
            last.forkNs = forkNsTotal;
            last.reapNs = reapNsTotal;
            return last;
        }
        const FaultKind fault = faults.at(job.index, attempt);
        if (opts.isolate) {
            last = runIsolatedAttempt(spec, job, opts, fault, stop);
            forkNsTotal += last.forkNs;
            reapNsTotal += last.reapNs;
        } else {
            // Unisolated: crash/hang/exit1 hit the whole sweep —
            // exactly what the journal + --resume path is for.
            applyFault(fault);
            last = ExecOutcome();
            try {
                last.summary = runJobInProcess(spec, job, cache);
                last.ok = true;
            } catch (...) {
                last.cause = "exception";
            }
        }
        last.attempts = attempt + 1;
        last.forkNs = forkNsTotal;
        last.reapNs = reapNsTotal;
        if (last.ok || last.cause == "interrupted")
            return last;
    }
    return last;
}

} // namespace smt
