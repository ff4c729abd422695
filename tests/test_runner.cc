/**
 * @file
 * Tests for the parallel experiment-runner subsystem (src/runner/):
 * SweepSpec expansion, config overrides, the JobScheduler, the
 * concurrency-safe BaselineCache, result aggregation, and the
 * headline guarantee that a parallel sweep is bit-identical to a
 * serial one across every output format.
 */

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "runner/baseline_cache.hh"
#include "runner/job_exec.hh"
#include "runner/job_scheduler.hh"
#include "runner/journal.hh"
#include "runner/result_sink.hh"
#include "runner/runner.hh"
#include "runner/sweep_spec.hh"
#include "sim/experiment.hh"

namespace {

using namespace smt;

// ---------------------------------------------------------------
// SweepSpec expansion
// ---------------------------------------------------------------

SweepSpec
tinySpec()
{
    SweepSpec spec;
    spec.name = "test";
    spec.commits = 1'500;
    spec.warmup = 0;
    spec.workloads = {adHocWorkload({"gzip", "mcf"}),
                      adHocWorkload({"gzip", "twolf"})};
    spec.policies = {PolicyKind::Icount, PolicyKind::Dcra};
    return spec;
}

TEST(SweepSpec, ExpansionOrderAndCount)
{
    SweepSpec spec = tinySpec();
    ConfigOverride a;
    a.label = "a";
    ConfigOverride b;
    b.label = "b";
    b.memLatency = 100;
    spec.configs = {a, b};

    const std::vector<SweepJob> jobs = expandSweep(spec);
    ASSERT_EQ(jobs.size(), spec.jobCount());
    ASSERT_EQ(jobs.size(), 2u * 2u * 2u);

    // index = (config * nPolicies + policy) * nWorkloads + workload
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(jobs[i].index, i);
        EXPECT_EQ(jobs[i].index,
                  (jobs[i].configIdx * spec.policies.size() +
                   jobs[i].policyIdx) *
                          spec.workloads.size() +
                      jobs[i].workloadIdx);
    }
    // workloads innermost, configs outermost
    EXPECT_EQ(jobs[0].workload.id, "gzip+mcf");
    EXPECT_EQ(jobs[1].workload.id, "gzip+twolf");
    EXPECT_TRUE(jobs[0].policy == PolicyKind::Icount);
    EXPECT_TRUE(jobs[2].policy == PolicyKind::Dcra);
    EXPECT_EQ(jobs[3].configIdx, 0u);
    EXPECT_EQ(jobs[4].configIdx, 1u);
    EXPECT_EQ(jobs[4].configLabel, "b");
    EXPECT_EQ(jobs[4].config.mem.memLatency, 100u);
    EXPECT_EQ(jobs[0].config.mem.memLatency,
              SimConfig().mem.memLatency);
}

TEST(SweepSpec, EmptyConfigAxisMeansIdentity)
{
    const SweepSpec spec = tinySpec();
    const std::vector<SweepJob> jobs = expandSweep(spec);
    ASSERT_EQ(jobs.size(), 4u);
    for (const SweepJob &j : jobs) {
        EXPECT_EQ(j.configIdx, 0u);
        EXPECT_EQ(j.configLabel, "");
        EXPECT_EQ(configKey(j.config), configKey(spec.base));
    }
}

TEST(SweepSpec, ConfigOverrideAppliesFields)
{
    ConfigOverride o;
    o.memLatency = 500;
    o.l2Latency = 25;
    o.physRegsPerFile = 320;
    o.iqSize = 32;
    o.perfectDcache = true;
    o.seed = 42;

    const SimConfig cfg = o.apply(SimConfig());
    EXPECT_EQ(cfg.mem.memLatency, 500u);
    EXPECT_EQ(cfg.mem.l2Latency, 25u);
    EXPECT_EQ(cfg.core.physRegsPerFile, 320);
    for (int q = 0; q < numQueueClasses; ++q)
        EXPECT_EQ(cfg.core.iqSize[q], 32);
    EXPECT_TRUE(cfg.mem.perfectDcache);
    EXPECT_EQ(cfg.seed, 42u);
}

TEST(SweepSpec, ResourceCapFractionMath)
{
    ConfigOverride o;
    o.iqSize = 32;
    o.caps.push_back({ResIqInt, 0.25});
    o.caps.push_back({ResIqFp, 1.0}); // no-op

    const SimConfig cfg = o.apply(SimConfig());
    // cap applies after the scalar overrides: 25% of 32, not of 80
    EXPECT_EQ(cfg.core.resourceCap[ResIqInt], 8);
    EXPECT_EQ(cfg.core.resourceCap[ResIqFp], -1);
    // a tiny fraction still grants at least one entry
    ConfigOverride tiny;
    tiny.caps.push_back({ResIqLs, 0.0001});
    EXPECT_EQ(tiny.apply(SimConfig()).core.resourceCap[ResIqLs], 1);
}

TEST(SweepSpec, AdHocWorkloadTyping)
{
    EXPECT_TRUE(adHocWorkload({"gzip", "bzip2"}).type ==
                WorkloadType::ILP);
    EXPECT_TRUE(adHocWorkload({"mcf", "twolf"}).type ==
                WorkloadType::MEM);
    EXPECT_TRUE(adHocWorkload({"gzip", "mcf"}).type ==
                WorkloadType::MIX);
    const Workload w = singleBenchWorkload("mcf");
    EXPECT_EQ(w.numThreads, 1);
    EXPECT_EQ(w.id, "mcf");
    ASSERT_EQ(w.benches.size(), 1u);
}

TEST(SweepSpec, ConfigKeySeparatesHardwareConfigs)
{
    const SimConfig base;
    SimConfig regs = base;
    regs.core.physRegsPerFile = 320;
    SimConfig lat = base;
    lat.mem.memLatency = 500;
    EXPECT_EQ(configKey(base), configKey(SimConfig()));
    EXPECT_NE(configKey(base), configKey(regs));
    EXPECT_NE(configKey(base), configKey(lat));
    EXPECT_NE(configKey(regs), configKey(lat));
}

// ---------------------------------------------------------------
// JobScheduler
// ---------------------------------------------------------------

TEST(JobScheduler, RunsEveryIndexExactlyOnce)
{
    for (const int jobs : {1, 2, 8}) {
        const JobScheduler sched(jobs);
        constexpr std::size_t n = 100;
        std::vector<std::atomic<int>> hits(n);
        for (auto &h : hits)
            h.store(0);
        sched.run(n, [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1);
    }
}

TEST(JobScheduler, HandlesZeroAndFewerJobsThanWorkers)
{
    const JobScheduler sched(8);
    sched.run(0, [](std::size_t) { FAIL(); });
    std::atomic<int> count{0};
    sched.run(2, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 2);
    EXPECT_GE(JobScheduler::hostJobs(), 1);
    EXPECT_EQ(JobScheduler(0).jobs(), JobScheduler::hostJobs());
}

// ---------------------------------------------------------------
// BaselineCache
// ---------------------------------------------------------------

TEST(BaselineCache, ComputesOncePerKeyUnderContention)
{
    std::atomic<int> calls{0};
    BaselineCache cache([&](const SimConfig &, const std::string &,
                            std::uint64_t, std::uint64_t, Cycle) {
        calls.fetch_add(1);
        // widen the race window so losers really do hit the
        // in-flight future path
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return 1.25;
    });

    const SimConfig cfg;
    std::vector<std::thread> threads;
    std::atomic<int> wrong{0};
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&]() {
            const double v = cache.ipc(cfg, "gzip", 1000, 0);
            if (v != 1.25)
                wrong.fetch_add(1);
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(wrong.load(), 0);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.computeCount(), 1u);
}

TEST(BaselineCache, DistinctKeysPerBenchConfigAndBudget)
{
    std::atomic<int> calls{0};
    BaselineCache cache([&](const SimConfig &, const std::string &,
                            std::uint64_t, std::uint64_t, Cycle) {
        return static_cast<double>(calls.fetch_add(1));
    });
    const SimConfig cfg;
    SimConfig other = cfg;
    other.core.physRegsPerFile = 320;

    cache.ipc(cfg, "gzip", 1000, 0);
    cache.ipc(cfg, "gzip", 1000, 0);   // hit
    cache.ipc(cfg, "mcf", 1000, 0);    // new bench
    cache.ipc(other, "gzip", 1000, 0); // new config
    cache.ipc(cfg, "gzip", 2000, 0);   // new budget
    EXPECT_EQ(cache.computeCount(), 4u);
    EXPECT_EQ(cache.size(), 4u);
}

TEST(BaselineCache, NumThreadsDoesNotSplitTheKey)
{
    std::atomic<int> calls{0};
    BaselineCache cache([&](const SimConfig &, const std::string &,
                            std::uint64_t, std::uint64_t, Cycle) {
        calls.fetch_add(1);
        return 2.0;
    });
    SimConfig two;
    two.core.numThreads = 2;
    SimConfig four;
    four.core.numThreads = 4;
    // A baseline run is single-threaded either way, so these share
    // one cache entry.
    cache.ipc(two, "gzip", 1000, 0);
    cache.ipc(four, "gzip", 1000, 0);
    EXPECT_EQ(cache.computeCount(), 1u);
}

TEST(BaselineCache, ChipShapeDoesNotChangeTheBaseline)
{
    // The key leaves cfg.soc out, so the baseline must be the bench
    // alone on the single-core machine whatever chip the sweep point
    // simulates: two unshared caches, one fed a 2-core config, must
    // agree bit for bit.
    SimConfig one;
    SimConfig two;
    two.soc.numCores = 2;
    two.soc.contextsPerCore = 2;
    BaselineCache a;
    BaselineCache b;
    const double ipc1 = a.ipc(one, "mcf", 2000, 500);
    EXPECT_GT(ipc1, 0.0);
    EXPECT_TRUE(ipc1 == b.ipc(two, "mcf", 2000, 500)); // bitwise
}

TEST(BaselineCache, FailedComputeIsRetriedNotPoisoned)
{
    std::atomic<int> calls{0};
    BaselineCache cache([&](const SimConfig &, const std::string &,
                            std::uint64_t, std::uint64_t, Cycle) {
        if (calls.fetch_add(1) == 0)
            throw std::runtime_error("transient");
        return 3.5;
    });
    const SimConfig cfg;
    bool threw = false;
    try {
        cache.ipc(cfg, "gzip", 1000, 0);
    } catch (const std::runtime_error &) {
        threw = true;
    }
    EXPECT_TRUE(threw);
    // the failed entry must not stay cached: the next call retries
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.ipc(cfg, "gzip", 1000, 0), 3.5);
    EXPECT_EQ(cache.computeCount(), 2u);
}

TEST(BaselineCache, SharedBetweenRunnerAndExperimentContext)
{
    auto cache = std::make_shared<BaselineCache>();
    SweepSpec spec = tinySpec();
    spec.workloads = {adHocWorkload({"gzip", "mcf"})};
    spec.policies = {PolicyKind::Icount};

    SweepRunner runner(spec, 2, cache);
    runner.run();
    const std::uint64_t afterSweep = cache->computeCount();
    EXPECT_EQ(afterSweep, 2u); // gzip + mcf baselines

    // Same config and budgets: the context reuses the sweep's
    // baselines instead of simulating them again.
    ExperimentContext ctx(spec.base, spec.commits, spec.warmup,
                          cache);
    ctx.singleThreadIpc("gzip");
    ctx.singleThreadIpc("mcf");
    EXPECT_EQ(cache->computeCount(), afterSweep);
}

// ---------------------------------------------------------------
// Parallel == serial, across every output format
// ---------------------------------------------------------------

TEST(SweepRunner, ParallelMatchesSerialByteForByte)
{
    const SweepSpec spec = tinySpec();

    SweepRunner serial(spec, 1);
    const SweepResults a = serial.run();
    SweepRunner parallel(spec, 4);
    const SweepResults b = parallel.run();

    ASSERT_EQ(a.results.size(), 4u);
    ASSERT_EQ(b.results.size(), a.results.size());

    EXPECT_EQ(JsonSink().render(a), JsonSink().render(b));
    EXPECT_EQ(CsvSink().render(a), CsvSink().render(b));
    EXPECT_EQ(TableSink().render(a), TableSink().render(b));

    // and re-running serially is reproducible
    SweepRunner again(spec, 1);
    EXPECT_EQ(JsonSink().render(again.run()),
              JsonSink().render(a));
}

TEST(SweepRunner, MatchesExperimentContext)
{
    SweepSpec spec = tinySpec();
    spec.workloads = {spec.workloads[0]};
    spec.policies = {PolicyKind::Dcra};
    SweepRunner runner(spec, 2);
    const SweepResults res = runner.run();

    ExperimentContext ctx(spec.base, spec.commits, spec.warmup);
    const RunSummary expect =
        ctx.runWorkload(spec.workloads[0], PolicyKind::Dcra);

    const RunSummary &got = res.results[0].summary;
    EXPECT_EQ(got.raw.cycles, expect.raw.cycles);
    EXPECT_EQ(got.throughput, expect.throughput);
    EXPECT_EQ(got.hmean, expect.hmean);
    ASSERT_EQ(got.multiIpc.size(), expect.multiIpc.size());
    for (std::size_t i = 0; i < got.multiIpc.size(); ++i) {
        EXPECT_EQ(got.multiIpc[i], expect.multiIpc[i]);
        EXPECT_EQ(got.singleIpc[i], expect.singleIpc[i]);
    }
}

TEST(SweepRunner, CellAverageMatchesManualMean)
{
    SweepSpec spec = tinySpec();
    spec.workloads = workloadsOf(2, WorkloadType::MIX);
    spec.policies = {PolicyKind::Icount};
    spec.computeHmean = false;
    SweepRunner runner(spec, 0);
    const SweepResults res = runner.run();

    double thr = 0.0;
    for (const JobResult &r : res.results)
        thr += r.summary.throughput;
    thr /= static_cast<double>(res.results.size());

    const CellAverage avg = cellAverage(res, 2, WorkloadType::MIX,
                                        PolicyKind::Icount);
    EXPECT_DOUBLE_EQ(avg.throughput, thr);
}

// ---------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------

TEST(ResultSink, FormatsAndFactory)
{
    ASSERT_TRUE(makeSink("table") != nullptr);
    ASSERT_TRUE(makeSink("csv") != nullptr);
    ASSERT_TRUE(makeSink("json") != nullptr);
    EXPECT_TRUE(makeSink("yaml") == nullptr);
    EXPECT_STREQ(makeSink("json")->name(), "json");

    SweepSpec spec = tinySpec();
    spec.workloads = {spec.workloads[0]};
    spec.policies = {PolicyKind::Icount};
    SweepRunner runner(spec, 1);
    const SweepResults res = runner.run();

    const std::string json = JsonSink().render(res);
    EXPECT_NE(json.find("\"schema\": \"smtsim-sweep-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"workload\": \"gzip+mcf\""),
              std::string::npos);
    EXPECT_NE(json.find("\"policy\": \"ICOUNT\""),
              std::string::npos);
    EXPECT_NE(json.find("\"singleIpc\""), std::string::npos);

    const std::string csv = CsvSink().render(res);
    // header + one row per thread
    std::size_t lines = 0;
    for (const char c : csv)
        lines += c == '\n';
    EXPECT_EQ(lines, 1u + 2u);
    EXPECT_EQ(csv.rfind("workload,type,group,policy,config,", 0),
              0u);
}

// ---------------------------------------------------------------
// Fault tolerance: fault plans, result round-trip, journal, resume
// ---------------------------------------------------------------

TEST(FaultPlan, ParsesAndRejects)
{
    FaultPlan p;
    ASSERT_TRUE(FaultPlan::parse("0:crash,3:hang,7:exit1", p));
    EXPECT_TRUE(p.at(0, 0) == FaultKind::Crash);
    EXPECT_TRUE(p.at(3, 0) == FaultKind::Hang);
    EXPECT_TRUE(p.at(7, 0) == FaultKind::Exit1);
    EXPECT_TRUE(p.at(1, 0) == FaultKind::None);
    // faults fire on the first attempt only: a retry must recover
    EXPECT_TRUE(p.at(0, 1) == FaultKind::None);

    EXPECT_FALSE(FaultPlan::parse("nonsense", p));
    EXPECT_FALSE(FaultPlan::parse("0:burn", p));
    EXPECT_FALSE(FaultPlan::parse(":crash", p));
    EXPECT_FALSE(FaultPlan::parse("x:crash", p));
    ASSERT_TRUE(FaultPlan::parse("", p));
    EXPECT_TRUE(p.empty());
}

TEST(RunSummaryJson, RoundTripIsExact)
{
    // A real chip run covers every serialized field with values that
    // stress the double format (%.17g) and the u64 hash range.
    SweepSpec spec = tinySpec();
    spec.workloads = {adHocWorkload({"mcf", "gzip", "art",
                                     "crafty"})};
    spec.policies = {PolicyKind::Dcra};
    ConfigOverride o;
    o.label = "chip";
    o.numCores = 2;
    o.contextsPerCore = 2;
    spec.configs = {o};

    SweepRunner runner(spec, 1);
    const SweepResults res = runner.run();
    const RunSummary &s = res.results[0].summary;
    ASSERT_FALSE(s.raw.coreCommitHashes.empty());

    JsonValue doc;
    ASSERT_TRUE(parseJson(runSummaryToJson(s), doc));
    RunSummary back;
    ASSERT_TRUE(runSummaryFromJson(doc, back));

    EXPECT_EQ(back.throughput, s.throughput);
    EXPECT_EQ(back.hmean, s.hmean);
    EXPECT_EQ(back.multiIpc, s.multiIpc);
    EXPECT_EQ(back.singleIpc, s.singleIpc);
    EXPECT_EQ(back.raw.cycles, s.raw.cycles);
    EXPECT_EQ(back.raw.slowPhaseCycles, s.raw.slowPhaseCycles);
    EXPECT_EQ(back.raw.mlpBusyMean, s.raw.mlpBusyMean);
    EXPECT_EQ(back.raw.coreCommitHashes, s.raw.coreCommitHashes);
    EXPECT_EQ(back.raw.migrations, s.raw.migrations);
    EXPECT_EQ(back.raw.llcAccesses, s.raw.llcAccesses);
    EXPECT_EQ(back.raw.llcMisses, s.raw.llcMisses);
    EXPECT_EQ(back.raw.llcArbiter, s.raw.llcArbiter);
    EXPECT_EQ(back.raw.llcShareReassignments,
              s.raw.llcShareReassignments);
    ASSERT_EQ(back.raw.threads.size(), s.raw.threads.size());
    for (std::size_t t = 0; t < s.raw.threads.size(); ++t) {
        EXPECT_EQ(back.raw.threads[t].bench, s.raw.threads[t].bench);
        EXPECT_EQ(back.raw.threads[t].ipc, s.raw.threads[t].ipc);
        EXPECT_EQ(back.raw.threads[t].committed,
                  s.raw.threads[t].committed);
        EXPECT_EQ(back.raw.threads[t].l2Misses,
                  s.raw.threads[t].l2Misses);
    }
    ASSERT_EQ(back.raw.llcPerCore.size(), s.raw.llcPerCore.size());
    for (std::size_t c = 0; c < s.raw.llcPerCore.size(); ++c) {
        EXPECT_EQ(back.raw.llcPerCore[c].accesses,
                  s.raw.llcPerCore[c].accesses);
        EXPECT_EQ(back.raw.llcPerCore[c].mshrShare,
                  s.raw.llcPerCore[c].mshrShare);
        EXPECT_EQ(back.raw.llcPerCore[c].ways,
                  s.raw.llcPerCore[c].ways);
        EXPECT_EQ(back.raw.llcPerCore[c].linesOwned,
                  s.raw.llcPerCore[c].linesOwned);
    }
    // the defining property: the replayed summary re-renders the
    // exact same record bytes
    EXPECT_EQ(runSummaryToJson(back), runSummaryToJson(s));
}

TEST(Journal, WriteReadRoundTripAndTornTail)
{
    const std::string path = "test_runner_journal_rt.ndjson";
    std::remove(path.c_str());
    const SweepSpec spec = tinySpec();
    const std::vector<SweepJob> jobs = expandSweep(spec);
    const std::string key = sweepSpecKey(spec, jobs);

    RunSummary s;
    s.throughput = 1.0 / 3.0; // needs all 17 digits
    s.hmean = 0.1;
    s.raw.cycles = 12345;
    s.raw.llcArbiter = "static";
    {
        JournalWriter w;
        w.open(path, key, jobs.size(), true);
        ASSERT_TRUE(w.isOpen());
        w.append(2, sweepJobKey(jobs[2]), s);
    }
    // simulate a crash mid-append: a torn trailing record
    {
        std::FILE *f = std::fopen(path.c_str(), "a");
        ASSERT_TRUE(f != nullptr);
        std::fputs("{\"job\":3,\"key\":\"gz", f);
        std::fclose(f);
    }
    JournalReplay replay;
    bool exists = false;
    std::string err;
    ASSERT_TRUE(readJournal(path, replay, exists, err)) << err;
    EXPECT_TRUE(exists);
    EXPECT_EQ(replay.specKey, key);
    EXPECT_EQ(replay.jobCount, jobs.size());
    ASSERT_EQ(replay.summaries.size(), 1u); // torn record dropped
    EXPECT_EQ(replay.summaries[2].throughput, s.throughput);
    EXPECT_EQ(replay.summaries[2].raw.cycles, 12345u);
    EXPECT_EQ(replay.keys[2], sweepJobKey(jobs[2]));

    // a missing file is fine (first run of an unconditional --resume)
    std::remove(path.c_str());
    ASSERT_TRUE(readJournal(path, replay, exists, err));
    EXPECT_FALSE(exists);
}

TEST(Journal, SpecKeyTracksOutcomeChangingState)
{
    const SweepSpec spec = tinySpec();
    const std::vector<SweepJob> jobs = expandSweep(spec);
    const std::string base = sweepSpecKey(spec, jobs);

    SweepSpec more = spec;
    more.commits = 9'999;
    EXPECT_NE(sweepSpecKey(more, expandSweep(more)), base);

    SweepSpec chip = spec;
    ConfigOverride o;
    o.label = "chip";
    o.numCores = 2;
    o.contextsPerCore = 2;
    chip.configs = {o};
    EXPECT_NE(sweepSpecKey(chip, expandSweep(chip)), base);

    // same spec, same key — resume across processes depends on it
    EXPECT_EQ(sweepSpecKey(tinySpec(), expandSweep(tinySpec())),
              base);
    EXPECT_EQ(sweepJobKey(jobs[2]), "gzip+mcf|DCRA|");
}

namespace {

/** Render every sink of one SweepResults into a single string. */
std::string
allSinks(const SweepResults &res)
{
    return TableSink().render(res) + "\x1e" +
        CsvSink().render(res) + "\x1e" + JsonSink().render(res);
}

/**
 * Run fn in a forked child and report how it died. The crash-resume
 * tests use this to lose a sweep mid-flight without losing the test
 * process.
 */
int
runInChild(const std::function<void()> &fn, int &termSignal)
{
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
        // smtlint:allow(D4): redirecting the forked child's stderr, not writing to it
        if (!std::freopen("/dev/null", "w", stderr))
            _exit(97);
        fn();
        _exit(0);
    }
    termSignal = 0;
    if (pid < 0)
        return -1;
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (WIFSIGNALED(status)) {
        termSignal = WTERMSIG(status);
        return -2;
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

} // namespace

TEST(SweepResume, CrashResumeIsByteIdenticalAcrossJobCounts)
{
    const SweepSpec spec = tinySpec();
    SweepRunner ref(spec, 1);
    const std::string expect = allSinks(ref.run());

    for (const int jobs : {1, 4}) {
        const std::string path = "test_runner_crash_resume_" +
            std::to_string(jobs) + ".ndjson";
        std::remove(path.c_str());

        // First leg: job 2 aborts the whole (non-isolated) process.
        RunnerOptions crashOpts;
        crashOpts.journalPath = path;
        ASSERT_TRUE(
            FaultPlan::parse("2:crash", crashOpts.faults));
        int sig = 0;
        const int rc = runInChild(
            [&]() {
                SweepRunner r(spec, jobs, nullptr, crashOpts);
                r.run();
            },
            sig);
        ASSERT_EQ(rc, -2);
        ASSERT_EQ(sig, SIGABRT);

        // Second leg: resume replays the journaled jobs and re-runs
        // the rest; the merged output must be byte-identical.
        RunnerOptions resumeOpts;
        resumeOpts.journalPath = path;
        resumeOpts.resume = true;
        SweepRunner r(spec, jobs, nullptr, resumeOpts);
        const SweepResults res = r.run();
        EXPECT_TRUE(res.failures.empty());
        EXPECT_EQ(allSinks(res), expect);
        std::remove(path.c_str());
    }
}

TEST(SweepResume, ReplaySkipsCompletedJobs)
{
    const SweepSpec spec = tinySpec();
    const std::string path = "test_runner_replay_skip.ndjson";
    std::remove(path.c_str());

    RunnerOptions first;
    first.journalPath = path;
    SweepRunner a(spec, 2, nullptr, first);
    const std::string expect = allSinks(a.run());

    // Resume with a fault plan that would abort EVERY job: finishing
    // at all proves each one was replayed, never re-executed.
    RunnerOptions opts;
    opts.journalPath = path;
    opts.resume = true;
    ASSERT_TRUE(FaultPlan::parse("0:crash,1:crash,2:crash,3:crash",
                                 opts.faults));
    SweepRunner b(spec, 2, nullptr, opts);
    const SweepResults res = b.run();
    EXPECT_TRUE(res.failures.empty());
    EXPECT_EQ(allSinks(res), expect);
    for (const JobResult &r : res.results)
        EXPECT_EQ(r.attempts, 1);
    std::remove(path.c_str());
}

TEST(SweepResume, RejectsJournalFromDifferentSweep)
{
    const std::string path = "test_runner_wrong_journal.ndjson";
    std::remove(path.c_str());
    RunnerOptions w;
    w.journalPath = path;
    SweepRunner a(tinySpec(), 1, nullptr, w);
    a.run();

    SweepSpec other = tinySpec();
    other.commits = 999; // different outcome → different spec key
    RunnerOptions opts;
    opts.journalPath = path;
    opts.resume = true;
    int sig = 0;
    const int rc = runInChild(
        [&]() {
            SweepRunner r(other, 1, nullptr, opts);
            r.run();
        },
        sig);
    EXPECT_EQ(rc, 1); // fatal() exits 1
    std::remove(path.c_str());
}

TEST(SweepIsolation, CleanRunMatchesInProcessBytes)
{
    // Include a 2-core chip job so the forked-result pipe carries
    // the full soc block, not just the single-core fields.
    SweepSpec spec = tinySpec();
    spec.workloads = {adHocWorkload({"gzip", "mcf"}),
                      adHocWorkload({"mcf", "gzip", "art",
                                     "crafty"})};
    ConfigOverride chip;
    chip.label = "chip";
    chip.numCores = 2;
    chip.contextsPerCore = 2;
    spec.configs = {ConfigOverride{}, chip};
    spec.configs[0].label = "base";

    SweepRunner plain(spec, 2);
    const std::string expect = allSinks(plain.run());

    RunnerOptions opts;
    opts.exec.isolate = true;
    SweepRunner iso(spec, 2, nullptr, opts);
    const SweepResults res = iso.run();
    EXPECT_TRUE(res.failures.empty());
    EXPECT_EQ(allSinks(res), expect);
}

TEST(SweepIsolation, HungJobIsReapedAndRetried)
{
    SweepSpec spec = tinySpec();
    spec.workloads = {spec.workloads[0]};
    spec.policies = {PolicyKind::Icount, PolicyKind::Dcra};

    SweepRunner ref(spec, 1);
    const SweepResults expect = ref.run();

    RunnerOptions opts;
    opts.exec.isolate = true;
    opts.exec.timeoutSec = 1;
    opts.exec.retries = 1;
    opts.exec.backoffMs = 1;
    ASSERT_TRUE(FaultPlan::parse("1:hang", opts.faults));
    SweepRunner r(spec, 2, nullptr, opts);
    const SweepResults res = r.run();

    EXPECT_TRUE(res.failures.empty());
    ASSERT_EQ(res.results.size(), 2u);
    EXPECT_EQ(res.results[0].attempts, 1);
    EXPECT_EQ(res.results[1].attempts, 2); // timed out, then passed
    // table/CSV are attempt-agnostic; JSON adds only the retried
    // block on top of the reference bytes
    EXPECT_EQ(TableSink().render(res), TableSink().render(expect));
    EXPECT_EQ(CsvSink().render(res), CsvSink().render(expect));
    const std::string json = JsonSink().render(res);
    EXPECT_NE(json.find("\"retried\": [\n    {\"job\": 1, "
                        "\"attempts\": 2}"),
              std::string::npos);
}

TEST(SweepIsolation, ExhaustedRetriesLandInFailures)
{
    SweepSpec spec = tinySpec();
    spec.workloads = {spec.workloads[0]};

    RunnerOptions opts;
    opts.exec.isolate = true;
    opts.exec.retries = 1;
    opts.exec.backoffMs = 1;
    // both attempts crash: at() only suppresses faults for attempt
    // > 0, so pin the crash to every attempt via a fresh plan below
    ASSERT_TRUE(FaultPlan::parse("0:exit1", opts.faults));
    SweepRunner r(spec, 1, nullptr, opts);
    SweepResults res = r.run();
    // exit1 fires on attempt 0 only; attempt 1 succeeds
    EXPECT_TRUE(res.failures.empty());
    EXPECT_EQ(res.results[0].attempts, 2);

    // retries = 0: the single faulted attempt is final
    RunnerOptions hard;
    hard.exec.isolate = true;
    ASSERT_TRUE(FaultPlan::parse("0:crash,1:exit1", hard.faults));
    SweepRunner r2(spec, 1, nullptr, hard);
    res = r2.run();
    ASSERT_EQ(res.failures.size(), 2u);
    EXPECT_EQ(res.failures[0].index, 0u);
    EXPECT_EQ(res.failures[0].cause, "crash");
    EXPECT_EQ(res.failures[0].attempts, 1);
    EXPECT_EQ(res.failures[0].termSignal, SIGABRT);
    EXPECT_EQ(res.failures[1].cause, "nonzero-exit");
    EXPECT_EQ(res.failures[1].exitCode, 1);
    EXPECT_TRUE(res.results[0].failed);
    EXPECT_TRUE(res.results[1].failed);

    const std::string json = JsonSink().render(res);
    EXPECT_NE(json.find("\"failures\": ["), std::string::npos);
    EXPECT_NE(json.find("\"cause\": \"crash\""), std::string::npos);
    EXPECT_NE(json.find("\"failed\": true"), std::string::npos);
    const std::string table = TableSink().render(res);
    EXPECT_NE(table.find("FAILED"), std::string::npos);
    EXPECT_NE(table.find("2 failed job(s)"), std::string::npos);
    // failed jobs have no thread rows, so the CSV is header-only
    const std::string csv = CsvSink().render(res);
    EXPECT_EQ(csv.find('\n'), csv.size() - 1);
}

TEST(BaselineCache, ConcurrentFailureEvictsBeforeWaking)
{
    // One failing compute with many concurrent waiters: every thread
    // must either see the propagated error or a good retried value —
    // never a poisoned entry that deadlocks/fails forever.
    std::atomic<int> calls{0};
    BaselineCache cache([&](const SimConfig &, const std::string &,
                            std::uint64_t, std::uint64_t, Cycle) {
        if (calls.fetch_add(1) == 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
            throw std::runtime_error("transient");
        }
        return 3.5;
    });
    const SimConfig cfg;
    std::atomic<int> succeeded{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&]() {
            for (int attempt = 0; attempt < 16; ++attempt) {
                try {
                    if (cache.ipc(cfg, "gzip", 1000, 0) == 3.5) {
                        succeeded.fetch_add(1);
                        return;
                    }
                    return; // wrong value: fail via the count below
                } catch (const std::runtime_error &) {
                    // evicted entry: retry recomputes
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(succeeded.load(), 8);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(Journal, UnwritablePathIsFatal)
{
    int sig = 0;
    const int rc = runInChild(
        [] {
            JournalWriter w;
            w.open("/nonexistent-dir/j.ndjson", "0xdead", 1, true);
        },
        sig);
    EXPECT_EQ(rc, 1); // fatal() exits 1
}

TEST(ResultSink, CsvQuotesConfigLabelsWithCommas)
{
    SweepSpec spec = tinySpec();
    spec.workloads = {singleBenchWorkload("gzip")};
    spec.policies = {PolicyKind::Icount};
    spec.computeHmean = false;
    ConfigOverride o;
    o.label = "mem=100,l2=20"; // what sweepMain builds for 2 axes
    o.memLatency = 100;
    o.l2Latency = 20;
    spec.configs = {o};

    SweepRunner runner(std::move(spec), 1);
    const std::string csv = CsvSink().render(runner.run());
    // the comma-bearing label must arrive quoted, keeping the
    // column count intact
    EXPECT_NE(csv.find("\"mem=100,l2=20\""), std::string::npos);
    const std::string firstRow =
        csv.substr(csv.find('\n') + 1,
                   csv.find('\n', csv.find('\n') + 1) -
                       csv.find('\n') - 1);
    std::size_t commas = 0;
    bool quoted = false;
    for (const char c : firstRow) {
        if (c == '"')
            quoted = !quoted;
        else if (c == ',' && !quoted)
            ++commas;
    }
    std::size_t headerCommas = 0;
    for (std::size_t i = 0; i < csv.find('\n'); ++i)
        headerCommas += csv[i] == ',';
    EXPECT_EQ(commas, headerCommas);
}

} // anonymous namespace
