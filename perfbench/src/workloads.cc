#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <utility>

#include "bpred/predictor.hh"
#include "common/json.hh"
#include "prof/host_profiler.hh"
#include "runner/journal.hh"
#include "runner/result_sink.hh"
#include "runner/runner.hh"
#include "sim/simulator.hh"
#include "soc/chip.hh"
#include "trace/bench_profile.hh"
#include "trace/generator.hh"

namespace perfbench {

namespace {

using namespace smt;

// Run budgets. Each is sized so one repetition takes well under a
// second, which leaves a run of BENCHMARK.json's run_seconds enough
// repetitions for steady medians.
/** core4t_mix: first-thread commits per policy run. */
constexpr std::uint64_t kCoreCommits = 60'000;
/** chip4c8t_mem: first-thread commits per chip run. */
constexpr std::uint64_t kChipCommits = 200'000;
/** sweep_table4: per-job budget; short on purpose, so job
 *  construction, prewarm and runner overhead are a large share. */
constexpr std::uint64_t kSweepCommits = 8'000;
constexpr std::uint64_t kSweepWarmup = 2'000;
/**
 * Cycle cap per budgeted commit. A healthy run needs under 5 cycles
 * per first-thread commit on every workload here; a run that reaches
 * the cap has stopped committing, and counts as a failed run.
 */
constexpr Cycle kCapCyclesPerCommit = 50;
/** Correct-path instructions per program for the trace/bpred probe. */
constexpr std::uint64_t kProbeInsts = 300'000;
/**
 * Trace instantiations per run. On chip4c8t_mem the benchmark seed
 * derives this many simulator seeds, and repetition r simulates
 * instantiation r mod kInstances. Host time per simulated
 * instruction depends on how predictable a seed's synthetic programs
 * are, so one instantiation would make a run's figures a sample of
 * one; the average over several keeps them steady from seed to seed.
 * The four-thread workloads simulate fourThreadConfig() in every
 * instantiation, so there the instantiations only group repetitions.
 */
constexpr int kInstances = 4;

const std::vector<PolicyKind> kPolicies = {
    PolicyKind::Icount, PolicyKind::Flush, PolicyKind::FlushPp,
    PolicyKind::Sra, PolicyKind::Dcra};

/** Policy name as a metric-name component ("FLUSH++" -> "FLUSHPP"). */
std::string
metricPolicyName(PolicyKind k)
{
    std::string s = policyKindName(k);
    std::replace(s.begin(), s.end(), '+', 'P');
    return s;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, q in (0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(std::max<std::size_t>(rank, 1), v.size()) - 1];
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/**
 * Did some thread of @p r reach the commit budget? A run that ends at
 * its cycle cap instead has stopped making progress.
 */
bool
reachedBudget(const SimResult &r, std::uint64_t commits)
{
    for (const ThreadResult &t : r.threads) {
        if (t.committed >= commits)
            return true;
    }
    return false;
}

/** Configuration of instantiation @p k of benchmark seed @p seed:
 *  the defaults, with a simulator seed derived by splitmix64. */
SimConfig
baseConfig(std::uint64_t seed, int k)
{
    std::uint64_t z = seed * kInstances + static_cast<std::uint64_t>(k) +
        0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    SimConfig cfg;
    cfg.seed = z ^ (z >> 31);
    return cfg;
}

/**
 * Configuration of the workloads that run four threads on one core
 * (core4t_mix, and sweep_table4 with its ILP4/MIX4/MEM4 cells): the
 * defaults, simulator seed included, for every benchmark seed and
 * instantiation. These are the programs BENCH_perf.json's 4-thread
 * cell times. Seed-derived programs are not used here because of a
 * simulator defect (README.md, "Known defect"): on about one trace
 * seed in twenty a four-thread run stops committing, and a workload
 * must not fail on correct use. The cycle-cap check still runs.
 */
SimConfig
fourThreadConfig()
{
    return SimConfig();
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/**
 * Hands out repetition indices until the measurement budget is
 * spent. A timed run gets at least one measured repetition per
 * instantiation after its warm-up repetition.
 */
class RepBudget
{
  public:
    RepBudget(const SpanLog &log, int seconds, bool trace)
        : log(log),
          deadlineNs(log.nowNs() +
                     static_cast<std::uint64_t>(seconds) * 1'000'000'000ull),
          minReps(trace ? 1 : kInstances + 1)
    {
    }

    /** The next repetition's index, or -1 when the budget is spent. */
    int
    next()
    {
        if (reps < minReps || log.nowNs() < deadlineNs)
            return reps++;
        return -1;
    }

  private:
    const SpanLog &log;
    std::uint64_t deadlineNs;
    int minReps;
    int reps = 0;
};

/**
 * Host-profiler scope totals with core and worker ids folded out of
 * the names ("c2.stage.fetch" -> "stage.fetch", "wave.w1.idle" ->
 * "wave.idle"), summed over every profiler added.
 */
class ScopeSums
{
  public:
    void
    add(const HostProfiler &p)
    {
        for (std::size_t i = 0; i < p.scopeCount(); ++i) {
            const int id = static_cast<int>(i);
            Sum &s = sums[fold(p.scopeName(id))];
            s.ns += p.scopeNs(id);
            s.hits += p.scopeHits(id);
        }
    }

    double ns(const std::string &name) const { return get(name).ns; }
    double hits(const std::string &name) const { return get(name).hits; }
    double nsPerHit(const std::string &name) const
    {
        return ratio(ns(name), hits(name));
    }

  private:
    struct Sum
    {
        double ns = 0.0;
        double hits = 0.0;
    };

    static std::string
    fold(const std::string &name)
    {
        std::string out;
        std::size_t pos = 0;
        while (pos <= name.size()) {
            std::size_t dot = name.find('.', pos);
            if (dot == std::string::npos)
                dot = name.size();
            const std::string part = name.substr(pos, dot - pos);
            const bool isId = part.size() > 1 &&
                (part[0] == 'c' || part[0] == 'w') &&
                part.find_first_not_of("0123456789", 1) ==
                    std::string::npos;
            if (!isId)
                out += (out.empty() ? "" : ".") + part;
            pos = dot + 1;
        }
        return out;
    }

    Sum
    get(const std::string &name) const
    {
        const auto it = sums.find(name);
        return it == sums.end() ? Sum() : it->second;
    }

    std::map<std::string, Sum> sums;
};

/** Pipeline and private-memory counters summed over contexts. */
struct CoreCounts
{
    double cycles = 0, fetched = 0, wrongPath = 0, issued = 0;
    double committed = 0, policyStalls = 0, flushes = 0;
    double condBranches = 0, mispredicts = 0;
    double l1dAcc = 0, l1dMiss = 0, l2Acc = 0, l2Miss = 0;

    void
    add(const Pipeline &pipe, const MemorySystem &mem, int contexts)
    {
        const PipelineStats &ps = pipe.stats();
        cycles += static_cast<double>(ps.cycles);
        for (int t = 0; t < contexts; ++t) {
            fetched += static_cast<double>(ps.fetched[t]);
            wrongPath += static_cast<double>(ps.fetchedWrongPath[t]);
            issued += static_cast<double>(ps.issued[t]);
            committed += static_cast<double>(ps.committed[t]);
            policyStalls += static_cast<double>(ps.policyFetchStalls[t]);
            flushes += static_cast<double>(ps.flushes[t]);
            condBranches += static_cast<double>(ps.condBranches[t]);
            mispredicts += static_cast<double>(ps.mispredicts[t]);
            l1dAcc += static_cast<double>(mem.l1dAccesses(t));
            l1dMiss += static_cast<double>(mem.l1dMisses(t));
            l2Acc += static_cast<double>(mem.l2DataAccesses(t));
            l2Miss += static_cast<double>(mem.l2DataMisses(t));
        }
    }
};

/** The core, policy, bpred-outcome and private-memory metrics. */
void
addCoreLayerMetrics(Report &rep, const ScopeSums &s, const CoreCounts &c)
{
    for (const char *st :
         {"fetch", "rename", "issue", "writeback", "commit", "flush"}) {
        rep.add(std::string("core.") + st + "_ns_per_cycle",
                s.nsPerHit(std::string("stage.") + st), "ns");
    }
    rep.add("core.fetched_per_cycle", ratio(c.fetched, c.cycles),
            "inst/cycle");
    rep.add("core.issued_per_cycle", ratio(c.issued, c.cycles),
            "inst/cycle");
    rep.add("core.commit_per_fetch", ratio(c.committed, c.fetched),
            "ratio");
    rep.add("core.wrong_path_share", ratio(c.wrongPath, c.fetched),
            "ratio");
    rep.add("bpred.mispredict_rate",
            ratio(c.mispredicts, c.condBranches), "ratio");
    rep.add("policy.ns_per_cycle", s.nsPerHit("stage.policy"), "ns");
    rep.add("policy.fetch_stalls_per_kcycle",
            1e3 * ratio(c.policyStalls, c.cycles), "1/kcycle");
    rep.add("policy.flushes_per_kcommit",
            1e3 * ratio(c.flushes, c.committed), "1/kinst");
    rep.add("mem.ns_per_cycle", s.nsPerHit("stage.mem"), "ns");
    rep.add("mem.l1d_accesses_per_cycle", ratio(c.l1dAcc, c.cycles),
            "1/cycle");
    rep.add("mem.l1d_miss_rate", ratio(c.l1dMiss, c.l1dAcc), "ratio");
    rep.add("mem.l2_miss_rate", ratio(c.l2Miss, c.l2Acc), "ratio");
}

/**
 * Trace generation and branch prediction measured from outside the
 * pipeline: the public SyntheticTraceGenerator::peek/consume and
 * BranchPredictor::predict/update over the workload's programs, with
 * the per-thread seeds and single-core address bases the simulator
 * itself uses.
 */
void
addFrontendProbe(Report &rep, const SimConfig &cfg,
                 const std::vector<std::string> &benches, SpanLog &log)
{
    const int n = static_cast<int>(benches.size());
    auto generator = [&](int t) {
        return SyntheticTraceGenerator(
            benchProfile(benches[static_cast<std::size_t>(t)]),
            cfg.seed + 7919ull * static_cast<std::uint64_t>(t));
    };

    double genS = 0.0;
    for (int t = 0; t < n; ++t) {
        SyntheticTraceGenerator gen = generator(t);
        genS += log.timed("SyntheticTraceGenerator::peek/consume", [&] {
            for (std::uint64_t i = 0; i < kProbeInsts; ++i) {
                gen.peek();
                gen.consume();
            }
        });
    }

    // The same streams again, untimed, keeping only the branches,
    // interleaved across threads the way fetch interleaves them.
    std::vector<std::vector<TraceInst>> perThread(
        static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t) {
        SyntheticTraceGenerator gen = generator(t);
        const Addr base = static_cast<Addr>(t) * threadAddrStride;
        for (std::uint64_t i = 0; i < kProbeInsts; ++i) {
            TraceInst ti = gen.peek();
            gen.consume();
            if (!isBranch(ti.op))
                continue;
            ti.pc += base;
            ti.target += base;
            perThread[static_cast<std::size_t>(t)].push_back(ti);
        }
    }
    std::vector<std::pair<ThreadID, TraceInst>> branches;
    for (std::size_t i = 0;; ++i) {
        bool any = false;
        for (int t = 0; t < n; ++t) {
            const auto &v = perThread[static_cast<std::size_t>(t)];
            if (i < v.size()) {
                branches.emplace_back(static_cast<ThreadID>(t), v[i]);
                any = true;
            }
        }
        if (!any)
            break;
    }

    BranchPredictor bp(cfg.bpred, n);
    const double bpS = log.timed("BranchPredictor::predict/update", [&] {
        for (const auto &b : branches) {
            const BranchPrediction p = bp.predict(b.first, b.second);
            const bool miss = p.taken != b.second.taken ||
                (p.taken && p.target != b.second.target);
            bp.update(b.first, b.second, p.snap.history);
            if (miss) {
                bp.repair(b.first, p.snap);
                bp.reapply(b.first, b.second);
            }
        }
    });
    rep.add("trace.ns_per_inst",
            1e9 * genS / static_cast<double>(kProbeInsts * n), "ns");
    rep.add("bpred.ns_per_branch",
            1e9 * ratio(bpS, static_cast<double>(branches.size())),
            "ns");
}

void
addOverhead(Report &rep, double plainS, double tracedS)
{
    rep.add("prof.overhead_share", 1.0 - ratio(plainS, tracedS), "ratio");
}

void
addPolicyRunTimes(Report &rep, const std::map<PolicyKind, double> &runS,
                  int reps)
{
    for (const PolicyKind k : kPolicies) {
        const auto it = runS.find(k);
        rep.add("policy." + metricPolicyName(k) + ".run_s",
                it == runS.end() ? 0.0 : it->second / reps, "s");
    }
}

/** Set-ups measured at the start of a timed run. */
constexpr int kSetups = 9;

/**
 * The end-to-end samples of a timed run. Set-up is measured first,
 * kSetups times in a row, as a user's run starts: from a fresh
 * process heap, not after a repetition's run has churned it. Rates
 * are the median over each instantiation's repetitions, averaged over
 * instantiations. Repetition 0 warms the process (allocator arenas,
 * page faults, thread stacks) and is not a sample; neither is a
 * repetition whose output failed a check. Both are still checked.
 */
class EndToEnd
{
  public:
    /** Time @p build(k), which constructs instantiation k's
     *  simulators (or sweep runner), kSetups times. */
    template <class Build>
    void
    measureSetups(SpanLog &log, Build build)
    {
        for (int i = 0; i < kSetups; ++i) {
            decltype(build(0)) built;
            setup.push_back(
                log.timed("setup", [&] { built = build(i % kInstances); }));
        }
    }

    /** Repetition @p r, whose checks passed when @p ok:
     *  @p insts instructions and @p cycles cycles simulated by
     *  @p runs runs (or sweep jobs) in @p runS timed seconds. */
    void
    add(int r, bool ok, double insts, double cycles, double runs,
        double runS)
    {
        if (r == 0 || !ok)
            return;
        const int k = r % kInstances;
        mips[k].push_back(insts / runS / 1e6);
        mcycles[k].push_back(cycles / runS / 1e6);
        jobs[k].push_back(runs / runS);
    }

    void
    report(Report &rep) const
    {
        rep.add("sim_mips", meanOfMedians(mips), "MIPS");
        rep.add("sim_mcycles_per_s", meanOfMedians(mcycles), "Mcycles/s");
        rep.add("sweep_jobs_per_s", meanOfMedians(jobs), "1/s");
        rep.add("setup_s", median(setup), "s");
        rep.add("peak_rss_mb", peakRssMb(), "MB");
    }

  private:
    /** Instantiations with no passing repetition are left out. */
    static double
    meanOfMedians(const std::vector<double> (&v)[kInstances])
    {
        double sum = 0.0;
        int n = 0;
        for (const std::vector<double> &x : v) {
            if (!x.empty()) {
                sum += median(x);
                ++n;
            }
        }
        return ratio(sum, n);
    }

    std::vector<double> mips[kInstances], mcycles[kInstances],
        jobs[kInstances];
    std::vector<double> setup;
};

/**
 * Output of each instantiation's first repetition; its later
 * repetitions must reproduce it byte for byte. Instantiation 0's
 * output is what the recorded digest covers.
 */
class SameAsFirst
{
  public:
    void
    check(Report &rep, int k, const std::string &text, const char *what)
    {
        std::string &first = firsts[k];
        if (first.empty()) {
            first = text;
            if (k == 0)
                rep.digestText = text;
        } else if (text != first) {
            rep.fail(std::string(what) +
                     ": output differs from an earlier repetition");
        }
    }

  private:
    std::string firsts[kInstances];
};

// ---------------------------------------------------------------
// core4t_mix
// ---------------------------------------------------------------

const std::vector<std::string> kCoreBenches = {"gzip", "mcf", "art",
                                               "crafty"};

/** One repetition: five simulators built, then run in turn. */
struct PolicyRep
{
    std::uint64_t seed = 0; //!< simulator seed
    std::vector<std::unique_ptr<Simulator>> sims;
    std::vector<std::unique_ptr<HostProfiler>> profs;
    std::vector<SimResult> res;
    std::vector<double> constructS;
    std::vector<double> runS;
};

PolicyRep
runPolicies(const SimConfig &cfg, bool profiled, SpanLog &log)
{
    PolicyRep pr;
    pr.seed = cfg.seed;
    const int rep = log.open(profiled ? "rep.traced" : "rep");
    for (const PolicyKind k : kPolicies) {
        pr.constructS.push_back(log.timed("Simulator::Simulator", [&] {
            pr.sims.push_back(
                std::make_unique<Simulator>(cfg, kCoreBenches, k));
        }));
        if (profiled) {
            pr.profs.push_back(std::make_unique<HostProfiler>(1));
            pr.sims.back()->setHostProfiler(pr.profs.back().get());
        }
    }
    for (auto &sim : pr.sims) {
        pr.res.emplace_back();
        pr.runS.push_back(log.timed("Simulator::run", [&] {
            pr.res.back() =
                sim->run(kCoreCommits, kCapCyclesPerCommit * kCoreCommits);
        }));
    }
    log.close(rep);
    return pr;
}

/**
 * Output checks for one repetition: every thread's commit-milestone
 * prefixes agree across the five policies (the committed stream is
 * policy-independent), and the outputs equal those of the
 * instantiation's first repetition.
 */
void
checkPolicyRep(Report &rep, int k, const PolicyRep &pr, SameAsFirst &same)
{
    rep.attempted += pr.sims.size();
    std::string text;
    for (std::size_t p = 0; p < pr.sims.size(); ++p) {
        const PipelineStats &ps = pr.sims[p]->pipeline().stats();
        const PipelineStats &ref = pr.sims[0]->pipeline().stats();
        if (!reachedBudget(pr.res[p], kCoreCommits)) {
            rep.fail(std::string("core4t_mix: ") +
                     policyKindName(kPolicies[p]) + " run of seed " +
                     fmtU64(pr.seed) + " stopped committing (cycle cap " +
                     fmtU64(pr.res[p].cycles) + " reached)");
        }
        text += std::string(policyKindName(kPolicies[p])) + " cycles=" +
            fmtU64(pr.res[p].cycles);
        for (std::size_t t = 0; t < kCoreBenches.size(); ++t) {
            const auto &m = ps.commitMilestones[t];
            const auto &r = ref.commitMilestones[t];
            const std::size_t n = std::min(m.size(), r.size());
            if (!std::equal(m.begin(), m.begin() + n, r.begin())) {
                rep.fail(std::string("core4t_mix: ") +
                         policyKindName(kPolicies[p]) + " thread " +
                         std::to_string(t) +
                         " committed a different instruction stream");
            }
            text += " t" + std::to_string(t) + "=" +
                fmtU64(ps.committed[t]) + ":" + hexU64(ps.commitHash[t]);
        }
        text += "\n";
    }
    same.check(rep, k, text, "core4t_mix");
}

} // anonymous namespace

Report
runCore4tMix(const Options &opt, SpanLog &log)
{
    Report rep;
    rep.seedFreeOutput = true;
    rep.workersUsed = "\"simThreads\": 1";
    SameAsFirst same;

    if (!opt.trace) {
        EndToEnd e2e;
        e2e.measureSetups(log, [&](int) {
            std::vector<std::unique_ptr<Simulator>> sims;
            for (const PolicyKind p : kPolicies) {
                sims.push_back(std::make_unique<Simulator>(
                    fourThreadConfig(), kCoreBenches, p));
            }
            return sims;
        });
        RepBudget budget(log, opt.seconds, opt.trace);
        for (int r; (r = budget.next()) >= 0;) {
            const int k = r % kInstances;
            const PolicyRep pr = runPolicies(fourThreadConfig(), false, log);
            const std::uint64_t failedBefore = rep.failed;
            checkPolicyRep(rep, k, pr, same);
            double runS = 0.0, insts = 0.0, cycles = 0.0;
            for (std::size_t p = 0; p < pr.res.size(); ++p) {
                runS += pr.runS[p];
                cycles += static_cast<double>(pr.res[p].cycles);
                for (const ThreadResult &t : pr.res[p].threads)
                    insts += static_cast<double>(t.committed);
            }
            e2e.add(r, rep.failed == failedBefore, insts, cycles,
                    static_cast<double>(pr.res.size()), runS);
        }
        e2e.report(rep);
        return rep;
    }

    RepBudget budget(log, opt.seconds, opt.trace);

    // Traced run: each repetition runs the five policies plain, then
    // again with the host profiler timing every cycle.
    ScopeSums sums;
    CoreCounts counts;
    std::map<PolicyKind, double> tracedRunS;
    std::vector<double> constructMs;
    double plainS = 0.0, tracedS = 0.0;
    int reps = 0;
    for (int r; (r = budget.next()) >= 0; ++reps) {
        const int k = r % kInstances;
        const SimConfig cfg = fourThreadConfig();
        const PolicyRep plain = runPolicies(cfg, false, log);
        checkPolicyRep(rep, k, plain, same);
        const PolicyRep traced = runPolicies(cfg, true, log);
        checkPolicyRep(rep, k, traced, same);
        for (std::size_t p = 0; p < kPolicies.size(); ++p) {
            plainS += plain.runS[p];
            tracedS += traced.runS[p];
            tracedRunS[kPolicies[p]] += traced.runS[p];
            constructMs.push_back(1e3 * traced.constructS[p]);
            sums.add(*traced.profs[p]);
            Simulator &sim = *traced.sims[p];
            counts.add(sim.pipeline(), sim.memory(),
                       static_cast<int>(kCoreBenches.size()));
        }
    }
    addCoreLayerMetrics(rep, sums, counts);
    addFrontendProbe(rep, fourThreadConfig(), kCoreBenches, log);
    addPolicyRunTimes(rep, tracedRunS, reps);
    rep.add("sim.construct_ms", median(constructMs), "ms");
    addOverhead(rep, plainS, tracedS);
    return rep;
}

// ---------------------------------------------------------------
// chip4c8t_mem
// ---------------------------------------------------------------

namespace {

const std::vector<std::string> kChipBenches = {
    "mcf", "art", "swim", "equake", "lucas", "twolf", "vpr", "parser"};

SimConfig
chipConfig(std::uint64_t seed, int k, int chipJobs)
{
    SimConfig cfg = baseConfig(seed, k);
    cfg.soc.numCores = 4;
    cfg.soc.contextsPerCore = 2;
    cfg.soc.allocator = AllocatorKind::Synpa;
    cfg.soc.epochCycles = 5'000;
    cfg.soc.llcArbiter = "chip-dcra";
    cfg.soc.chipJobs = chipJobs;
    return cfg;
}

std::string
chipText(const SimResult &r)
{
    std::string s = "cycles=" + fmtU64(r.cycles) + " hashes=";
    for (const std::uint64_t h : r.coreCommitHashes)
        s += hexU64(h) + ",";
    s += " migrations=" + fmtU64(r.migrations) +
        " epochs=" + fmtU64(r.allocEpochs) +
        " llc=" + fmtU64(r.llcAccesses) + "/" + fmtU64(r.llcMisses) +
        " reassign=" + fmtU64(r.llcShareReassignments) + "\n";
    return s;
}

struct ChipRun
{
    std::unique_ptr<ChipSimulator> chip;
    std::unique_ptr<HostProfiler> prof;
    SimResult res;
    double constructS = 0.0;
    double runS = 0.0;
};

ChipRun
runChip(const SimConfig &cfg, bool profiled, SpanLog &log)
{
    ChipRun cr;
    const int rep = log.open(profiled ? "rep.traced" : "rep");
    cr.constructS = log.timed("ChipSimulator::ChipSimulator", [&] {
        cr.chip = std::make_unique<ChipSimulator>(cfg, kChipBenches,
                                                  PolicyKind::Dcra);
    });
    if (profiled) {
        cr.prof = std::make_unique<HostProfiler>(1);
        cr.chip->setHostProfiler(cr.prof.get());
    }
    cr.runS = log.timed("ChipSimulator::run", [&] {
        cr.res =
            cr.chip->run(kChipCommits, kCapCyclesPerCommit * kChipCommits);
    });
    log.close(rep);
    return cr;
}

} // anonymous namespace

Report
runChip4c8tMem(const Options &opt, SpanLog &log)
{
    Report rep;
    const int workers = std::min(opt.workers, 4);
    rep.workersUsed = "\"chipJobs\": " + std::to_string(workers);

    // Serial runs are the reference every parallel run must equal:
    // commit hashes and cycles are identical for any --chip-jobs.
    // A traced run needs only the instantiations it reaches.
    std::string want[kInstances];
    bool wantOk[kInstances] = {};
    auto reference = [&](int k) {
        if (!want[k].empty())
            return;
        ++rep.attempted;
        const SimConfig cfg = chipConfig(opt.seed, k, 1);
        const SimResult res = runChip(cfg, false, log).res;
        wantOk[k] = reachedBudget(res, kChipCommits);
        if (!wantOk[k]) {
            rep.fail("chip4c8t_mem: run of seed " + fmtU64(cfg.seed) +
                     " stopped committing (cycle cap " + fmtU64(res.cycles) +
                     " reached)");
        }
        want[k] = chipText(res);
        if (k == 0)
            rep.digestText = want[k];
    };
    /** Is @p cr a correct run? It must equal the serial one. */
    auto check = [&](int k, const ChipRun &cr) {
        ++rep.attempted;
        if (chipText(cr.res) != want[k]) {
            rep.fail("chip4c8t_mem: --chip-jobs " +
                     std::to_string(workers) +
                     " output differs from the serial run");
            return false;
        }
        return wantOk[k];
    };

    if (!opt.trace) {
        EndToEnd e2e;
        e2e.measureSetups(log, [&](int k) {
            return std::make_unique<ChipSimulator>(
                chipConfig(opt.seed, k, workers), kChipBenches,
                PolicyKind::Dcra);
        });
        for (int k = 0; k < kInstances; ++k)
            reference(k);
        RepBudget budget(log, opt.seconds, opt.trace);
        for (int r; (r = budget.next()) >= 0;) {
            const int k = r % kInstances;
            const ChipRun cr =
                runChip(chipConfig(opt.seed, k, workers), false, log);
            const bool ok = check(k, cr);
            double insts = 0.0;
            for (const ThreadResult &t : cr.res.threads)
                insts += static_cast<double>(t.committed);
            e2e.add(r, ok, insts, static_cast<double>(cr.res.cycles), 1.0,
                    cr.runS);
        }
        e2e.report(rep);
        return rep;
    }

    RepBudget budget(log, opt.seconds, opt.trace);
    ScopeSums sums;
    CoreCounts counts;
    std::vector<double> constructMs;
    double plainS = 0.0, tracedS = 0.0, chipCycles = 0.0;
    double llcAcc = 0.0, llcMiss = 0.0, arbWait = 0.0, reassign = 0.0;
    double migrations = 0.0, epochs = 0.0;
    int reps = 0;
    for (int r; (r = budget.next()) >= 0; ++reps) {
        const int k = r % kInstances;
        reference(k);
        const SimConfig cfg = chipConfig(opt.seed, k, workers);
        const ChipRun plain = runChip(cfg, false, log);
        check(k, plain);
        ChipRun traced = runChip(cfg, true, log);
        check(k, traced);
        plainS += plain.runS;
        tracedS += traced.runS;
        constructMs.push_back(1e3 * traced.constructS);
        sums.add(*traced.prof);
        ChipSimulator &chip = *traced.chip;
        for (int c = 0; c < chip.numCores(); ++c)
            counts.add(chip.pipeline(c), chip.memory(c),
                       chip.contextsPerCore());
        const SimResult &res = traced.res;
        chipCycles += static_cast<double>(res.cycles);
        llcAcc += static_cast<double>(res.llcAccesses);
        llcMiss += static_cast<double>(res.llcMisses);
        arbWait += static_cast<double>(chip.llcOrNull()->arbWaitCycles());
        reassign += static_cast<double>(res.llcShareReassignments);
        migrations += static_cast<double>(res.migrations);
        epochs += static_cast<double>(res.allocEpochs);
    }
    addCoreLayerMetrics(rep, sums, counts);
    addFrontendProbe(rep, baseConfig(opt.seed, 0), kChipBenches, log);
    addPolicyRunTimes(rep, {{PolicyKind::Dcra, tracedS}}, reps);
    rep.add("llc.access_ns", sums.nsPerHit("llc.access"), "ns");
    rep.add("llc.accesses_per_kcycle", 1e3 * ratio(llcAcc, chipCycles),
            "1/kcycle");
    rep.add("llc.miss_rate", ratio(llcMiss, llcAcc), "ratio");
    rep.add("llc.arb_wait_cycles_per_access", ratio(arbWait, llcAcc),
            "cycle");
    rep.add("llc.share_reassignments", reassign / reps, "count");
    rep.add("chip.tick_ns_per_core_cycle", sums.nsPerHit("tick"), "ns");
    rep.add("chip.epoch_ms", sums.nsPerHit("chip.epoch") / 1e6, "ms");
    rep.add("chip.migrations", migrations / reps, "count");
    rep.add("chip.alloc_epochs", epochs / reps, "count");
    // Worker time is workers x traced wall; the main thread counts
    // as worker 0 (its barrier wait is wave.main.await).
    const double workerNs = 1e9 * tracedS * workers;
    rep.add("wave.barrier_idle_share",
            ratio(sums.ns("wave.idle") + sums.ns("wave.main.await"),
                  workerNs),
            "ratio");
    rep.add("wave.gate_wait_share", ratio(sums.ns("wave.gate"), workerNs),
            "ratio");
    rep.add("wave.gate_waits_per_kcycle",
            1e3 * ratio(sums.hits("wave.gate"), chipCycles), "1/kcycle");
    rep.add("sim.construct_ms", median(constructMs), "ms");
    addOverhead(rep, plainS, tracedS);
    return rep;
}

// ---------------------------------------------------------------
// sweep_table4
// ---------------------------------------------------------------

namespace {

/** The paper's Table-4 cells ILP2..MEM4 x the five policies. */
SweepSpec
table4Spec()
{
    SweepSpec spec;
    spec.name = "table4";
    spec.base = fourThreadConfig();
    spec.commits = kSweepCommits;
    spec.warmup = kSweepWarmup;
    spec.maxCycles = kCapCyclesPerCommit * (kSweepCommits + kSweepWarmup);
    spec.computeHmean = true;
    for (const int n : {2, 4}) {
        for (const WorkloadType t :
             {WorkloadType::ILP, WorkloadType::MIX, WorkloadType::MEM}) {
            for (const Workload &w : workloadsOf(n, t))
                spec.workloads.push_back(w);
        }
    }
    spec.policies = kPolicies;
    return spec;
}

/** The JSON sink's bytes without the host-profile block. */
std::string
renderDeterministic(SweepResults res)
{
    res.spec.prof = ProfSpec();
    return JsonSink().render(res);
}

std::unique_ptr<SweepRunner>
table4Runner(int workers, const ProfSpec &prof)
{
    SweepSpec spec = table4Spec();
    spec.prof = prof;
    return std::make_unique<SweepRunner>(std::move(spec), workers);
}

struct SweepRun
{
    SweepResults res;
    double runS = 0.0;
};

SweepRun
runSweep(int workers, const ProfSpec &prof, SpanLog &log)
{
    SweepRun sr;
    const int rep = log.open(prof.enabled() ? "rep.traced" : "rep");
    std::unique_ptr<SweepRunner> runner;
    log.timed("SweepRunner::SweepRunner", [&] {
        runner = table4Runner(workers, prof);
    });
    sr.runS = log.timed("SweepRunner::run", [&] { sr.res = runner->run(); });
    log.close(rep);
    return sr;
}

/** Count failed jobs and compare the sink bytes with the first run. */
void
checkSweep(Report &rep, int k, const SweepRun &sr, SameAsFirst &same,
           SpanLog &log)
{
    rep.attempted += sr.res.results.size();
    for (const JobFailure &f : sr.res.failures)
        rep.fail("sweep_table4: job " + f.key + " failed (" + f.cause + ")");
    if (sr.res.interrupted)
        rep.fail("sweep_table4: sweep was interrupted");
    for (const JobResult &r : sr.res.results) {
        if (!r.failed && !reachedBudget(r.summary.raw, sr.res.spec.commits)) {
            rep.fail("sweep_table4: job " + sweepJobKey(r.job) + " of seed " +
                     fmtU64(sr.res.spec.base.seed) +
                     " stopped committing (cycle cap " +
                     fmtU64(r.summary.raw.cycles) + " reached)");
        }
    }
    std::string bytes;
    log.timed("JsonSink::render", [&] {
        bytes = renderDeterministic(sr.res);
    });
    same.check(rep, k, bytes, "sweep_table4");
}

/**
 * Journal every job of @p sr, then resume a fresh runner from that
 * journal: all 120 jobs replay and the sink bytes must not change.
 * Returns the replay's host seconds.
 */
double
checkJournalReplay(Report &rep, const SweepRun &sr, int workers,
                   const std::string &path, SpanLog &log)
{
    SweepSpec spec = sr.res.spec;
    spec.prof = ProfSpec();
    log.timed("JournalWriter::append", [&] {
        JournalWriter jw;
        jw.open(path, sweepSpecKey(spec, expandSweep(spec)),
                sr.res.results.size(), /*truncate=*/true);
        for (const JobResult &r : sr.res.results)
            jw.append(r.job.index, sweepJobKey(r.job), r.summary);
    });
    RunnerOptions ro;
    ro.journalPath = path;
    ro.resume = true;
    SweepResults replayed;
    const double s = log.timed("SweepRunner::run.resume", [&] {
        replayed = SweepRunner(spec, workers, nullptr, ro).run();
    });
    std::remove(path.c_str());
    ++rep.attempted;
    if (renderDeterministic(replayed) != renderDeterministic(sr.res))
        rep.fail("sweep_table4: journal replay changed the sink bytes");
    return s;
}

/** Host timing of the traced sweeps, from the runner sidecars. */
struct RunnerProfile
{
    std::vector<double> wallMs, queueMs;
    std::map<PolicyKind, double> policyS;
    double computes = 0.0, waitMs = 0.0;
};

/**
 * Add the runner sidecar of one traced sweep to @p rp; returns the
 * summed job wall time in seconds, or a negative value when the
 * sidecar is missing or malformed.
 */
double
readRunnerProfile(const std::string &path, const SweepResults &res,
                  RunnerProfile &rp)
{
    std::ifstream in(path);
    std::string line;
    double busyS = 0.0;
    std::size_t jobs = 0;
    while (std::getline(in, line)) {
        JsonValue v;
        if (!parseJson(line, v))
            return -1.0;
        const JsonValue *type = v.find("type");
        if (type && type->str == "job") {
            const std::size_t idx = v.find("job")->asU64();
            if (idx >= res.results.size())
                return -1.0;
            const double wallS = v.find("wallNs")->asDouble() / 1e9;
            rp.wallMs.push_back(1e3 * wallS);
            rp.queueMs.push_back(v.find("queueNs")->asDouble() / 1e6);
            rp.policyS[res.results[idx].job.policy] += wallS;
            busyS += wallS;
            ++jobs;
        } else if (type && type->str == "baseline") {
            rp.computes += v.find("computes")->asDouble();
            rp.waitMs += v.find("waitNs")->asDouble() / 1e6;
        }
    }
    return jobs == res.results.size() ? busyS : -1.0;
}

} // anonymous namespace

Report
runSweepTable4(const Options &opt, SpanLog &log)
{
    Report rep;
    rep.seedFreeOutput = true;
    rep.workersUsed = "\"sweepJobs\": " + std::to_string(opt.workers);
    SameAsFirst same;
    const std::string base = opt.outDir + "/table4.seed" + fmtU64(opt.seed);
    const std::string journal = base + ".journal";

    if (!opt.trace) {
        EndToEnd e2e;
        e2e.measureSetups(log, [&](int) {
            return table4Runner(opt.workers, ProfSpec());
        });
        RepBudget budget(log, opt.seconds, opt.trace);
        SweepRun last;
        for (int r; (r = budget.next()) >= 0;) {
            const int k = r % kInstances;
            last = runSweep(opt.workers, ProfSpec(), log);
            const std::uint64_t failedBefore = rep.failed;
            checkSweep(rep, k, last, same, log);
            double insts = 0.0, cycles = 0.0;
            for (const JobResult &j : last.res.results) {
                cycles += static_cast<double>(j.summary.raw.cycles);
                for (const ThreadResult &t : j.summary.raw.threads)
                    insts += static_cast<double>(t.committed);
            }
            e2e.add(r, rep.failed == failedBefore, insts, cycles,
                    static_cast<double>(last.res.results.size()),
                    last.runS);
        }
        checkJournalReplay(rep, last, opt.workers, journal, log);
        e2e.report(rep);
        return rep;
    }

    RepBudget budget(log, opt.seconds, opt.trace);
    ProfSpec prof;
    prof.prefix = base;
    prof.sampleEvery = 1;
    RunnerProfile rp;
    std::vector<double> renderMs, util;
    double plainS = 0.0, tracedS = 0.0;
    SweepRun traced;
    int reps = 0;
    for (int r; (r = budget.next()) >= 0; ++reps) {
        const int k = r % kInstances;
        const SweepRun plain = runSweep(opt.workers, ProfSpec(), log);
        checkSweep(rep, k, plain, same, log);
        traced = runSweep(opt.workers, prof, log);
        checkSweep(rep, k, traced, same, log);
        plainS += plain.runS;
        tracedS += traced.runS;
        renderMs.push_back(1e3 * log.timed("JsonSink::render.traced", [&] {
            JsonSink().render(traced.res);
        }));
        const double busyS = readRunnerProfile(
            prof.prefix + ".runner.prof.ndjson", traced.res, rp);
        if (busyS < 0.0)
            rep.fail("sweep_table4: unreadable runner profile");
        util.push_back(busyS / (traced.runS * opt.workers));
    }

    // Construction cost of the sweep's simulators, measured through
    // the public constructor outside the runner: one per workload.
    std::vector<double> constructMs;
    for (const Workload &w : traced.res.spec.workloads) {
        constructMs.push_back(1e3 * log.timed("Simulator::Simulator", [&] {
            const Simulator sim(traced.res.spec.base, w.benches,
                                PolicyKind::Dcra);
        }));
    }
    const double replayS = checkJournalReplay(rep, traced, opt.workers,
                                              journal, log);

    rep.add("runner.job_wall_p50_ms", percentile(rp.wallMs, 0.5), "ms");
    rep.add("runner.job_wall_p90_ms", percentile(rp.wallMs, 0.9), "ms");
    rep.add("runner.job_queue_p50_ms", percentile(rp.queueMs, 0.5), "ms");
    rep.add("runner.worker_util", median(util), "ratio");
    rep.add("runner.baseline_computes", rp.computes / reps, "count");
    rep.add("runner.baseline_wait_ms", rp.waitMs / reps, "ms");
    rep.add("runner.sink_render_ms", median(renderMs), "ms");
    rep.add("runner.resume_replay_ms", 1e3 * replayS, "ms");
    rep.add("sim.construct_ms", median(constructMs), "ms");
    addPolicyRunTimes(rep, rp.policyS, reps);
    addOverhead(rep, plainS, tracedS);
    return rep;
}

} // namespace perfbench
