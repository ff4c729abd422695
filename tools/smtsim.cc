/**
 * @file
 * smtsim: command-line driver for the simulator.
 *
 * Three modes, one option table (kOptions below: name, value kind,
 * range, modes, help text and the SweepSpec field each option sets;
 * --help and every value check are generated from it):
 *
 *  - single run (default): one workload under one policy with the
 *    paper's baseline configuration (overridable); prints a full
 *    per-thread report, or the sweep JSON schema with --json.
 *  - `smtsim sweep`: a declarative grid of workloads x policies x
 *    config axes executed in parallel across host cores by the
 *    runner subsystem (src/runner/), emitted as a table, CSV or
 *    JSON. Parallel output is bit-identical to --jobs 1.
 *  - `smtsim prof-report`: aggregate --prof sidecar files.
 *
 * A single run is a one-job sweep: both modes fill one SweepSpec,
 * pass the same boundary checks (every job of the grid is checked
 * before the first one starts) and execute through SweepRunner; the
 * run mode then renders its report from the job's SimResult.
 *
 * Examples:
 *   smtsim --workload gzip,mcf --policy DCRA
 *   smtsim --workload mcf,twolf,vpr,parser --policy FLUSH++ \
 *          --mem-latency 500 --l2-latency 25 --commits 200000
 *   smtsim --workload gzip,mcf --policy DCRA --json
 *   smtsim sweep --cells ILP2,MEM2 --policies ICOUNT,DCRA \
 *          --jobs 8 --format csv
 *   smtsim sweep --benches gzip+mcf,gzip+twolf --policies DCRA \
 *          --mem-latency 100,300,500 --format json
 *   smtsim --list-benchmarks
 */

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "alloc/chip_arbiters.hh"
#include "alloc/resource_domain.hh"
#include "common/bits.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "prof/host_profiler.hh"
#include "prof/prof_report.hh"
#include "runner/result_sink.hh"
#include "runner/runner.hh"
#include "sim/simulator.hh"
#include "sim/workload.hh"
#include "telemetry/telemetry.hh"
#include "trace/bench_profile.hh"

namespace {

using namespace smt;

// ---------------------------------------------------------------
// The option table
// ---------------------------------------------------------------

/** Which command an option belongs to (a bit set). */
enum Mode : unsigned {
    Run = 1,    //!< `smtsim [options]`
    Sweep = 2,  //!< `smtsim sweep [options]`
    Report = 4, //!< `smtsim prof-report [options] FILE...`
    Both = Run | Sweep
};

/** What an option's value looks like. */
enum class Kind {
    Flag, //!< no value
    Num,  //!< plain decimal integer within [lo, hi]
    Text  //!< non-empty string, checked by the setter
};

/**
 * The config axes a sweep multiplies out, outermost first: sweep
 * configs and their labels follow this order.
 */
enum Axis { AxCores, AxAlloc, AxLlcArb, AxLlcWays, AxMem, AxL2,
            AxRegs, AxIq, NumAxes };

/** One point on a config axis: its label part and what it sets. */
struct AxisPoint
{
    std::string label; //!< e.g. "mem=300"
    std::function<void(ConfigOverride &)> set;
};

/** Everything the command line asks for. */
struct Cli
{
    Mode mode = Run;
    SweepSpec spec;
    RunnerOptions ropts;
    std::vector<AxisPoint> axes[NumAxes];
    std::vector<std::string> workload = {"gzip", "twolf"}; //!< run
    PolicyKind policy = PolicyKind::Dcra;                   //!< run
    std::uint64_t statsInterval = 0; //!< 0 = not given
    bool json = false;
    std::string format = "table";
    std::string outPath;
    int jobs = 0;
    int (*action)() = nullptr; //!< --help, --list-*, --selftest
    ProfReportOptions report;
    std::vector<std::string> files; //!< prof-report inputs
};

/** One parsed value: the text (canonical decimal for Kind::Num)
 *  and the number. */
struct Value
{
    std::string text;
    std::uint64_t num = 0;
};

/** A command-line option. */
struct Option
{
    const char *name;
    const char *metavar; //!< nullptr for flags
    unsigned modes;
    Kind kind;
    /** In a sweep the value is a comma list and set() runs once per
     *  element; a single run takes exactly one element. */
    bool list;
    std::uint64_t lo, hi; //!< Kind::Num range
    const char *help;
    /** Apply one checked value; false after reporting an error. */
    bool (*set)(Cli &, const Value &);
};

constexpr std::uint64_t kMax = ~0ull;
constexpr std::uint64_t kIntMax = INT_MAX;

int usage();
int selftest();
int listBenchmarks();
int listWorkloads();
int listPolicies();
int listArbiters();

std::vector<std::string> splitOn(const std::string &s, char sep);

/** Add the point "key=value" to config axis @p a: it sets the
 *  override field @p field to @p x. */
template <typename T, typename X>
void
addPoint(Cli &c, Axis a, const char *key, const std::string &value,
         std::optional<T> ConfigOverride::*field, X x)
{
    c.axes[a].push_back(
        {std::string(key) + "=" + value,
         [field, x](ConfigOverride &o) { o.*field = x; }});
}

/**
 * An ad-hoc workload still to be checked: validateJobs reports bad
 * names and sizes before adHocWorkload (which calls fatal() on an
 * unknown name) types it.
 */
Workload
rawWorkload(const std::vector<std::string> &benches)
{
    Workload w{};
    w.benches = benches;
    return w;
}

/** Append the four groups of a Table 4 cell such as "MEM2". */
bool
addCell(Cli &c, const Value &v)
{
    static const struct
    {
        const char *prefix;
        WorkloadType type;
    } kinds[] = {{"ILP", WorkloadType::ILP},
                 {"MIX", WorkloadType::MIX},
                 {"MEM", WorkloadType::MEM}};
    const std::string &cell = v.text;
    const std::string digits = cell.size() > 3 ? cell.substr(3) : "";
    for (const auto &k : kinds) {
        if (cell.compare(0, 3, k.prefix) != 0 || digits.size() != 1 ||
            digits[0] < '1' || digits[0] > '9')
            continue;
        const std::vector<Workload> group =
            workloadsOf(digits[0] - '0', k.type);
        if (group.empty())
            break;
        c.spec.workloads.insert(c.spec.workloads.end(), group.begin(),
                                group.end());
        return true;
    }
    std::fprintf(stderr,
                 "error: bad cell '%s' (want ILP, MIX or MEM and a "
                 "thread count with workloads, e.g. ILP2, MIX3, "
                 "MEM4)\n",
                 cell.c_str());
    return false;
}

bool
addTable4Workload(Cli &c, const Value &v)
{
    const std::vector<Workload> &all = allWorkloads();
    const auto it =
        std::find_if(all.begin(), all.end(),
                     [&](const Workload &w) { return w.id == v.text; });
    if (it == all.end()) {
        std::fprintf(stderr,
                     "error: unknown workload id '%s' (run 'smtsim "
                     "--list-workloads')\n",
                     v.text.c_str());
        return false;
    }
    c.spec.workloads.push_back(*it);
    return true;
}

bool
addAllocator(Cli &c, const Value &v)
{
    const AllocatorKind k = parseAllocatorKind(v.text);
    addPoint(c, AxAlloc, "alloc", allocatorKindName(k),
             &ConfigOverride::allocator, k);
    return true;
}

bool
addLlcArbiter(Cli &c, const Value &v)
{
    if (!isLlcArbiterName(v.text)) {
        std::fprintf(stderr,
                     "error: unknown LLC arbiter '%s' (run 'smtsim "
                     "--list-arbiters')\n",
                     v.text.c_str());
        return false;
    }
    addPoint(c, AxLlcArb, "llcarb", v.text, &ConfigOverride::llcArbiter,
             v.text);
    return true;
}

bool
addLlcWays(Cli &c, const Value &v)
{
    if (!isPow2(v.num)) {
        std::fprintf(stderr,
                     "error: --llc-ways wants a power of two in 1..32 "
                     "(got %llu); the LLC's set count must stay a "
                     "power of two\n",
                     static_cast<unsigned long long>(v.num));
        return false;
    }
    addPoint(c, AxLlcWays, "llcways", v.text, &ConfigOverride::llcWays,
             static_cast<int>(v.num));
    return true;
}

/** A setter that assigns and cannot fail. */
#define SMT_SET(stmt)                                                 \
    [](Cli &c, const Value &v) {                                      \
        (void)v;                                                      \
        stmt;                                                         \
        return true;                                                  \
    }

// clang-format off
const Option kOptions[] = {
    // What to simulate.
    {"--workload", "a,b,c", Run, Kind::Text, false, 0, 0,
     "benchmarks, one per hardware context (default gzip,twolf)",
     SMT_SET(c.workload = splitOn(v.text, ','))},
    {"--policy", "NAME", Run, Kind::Text, false, 0, 0,
     "fetch/allocation policy (default DCRA; see --list-policies)",
     SMT_SET(c.policy = parsePolicyKind(v.text))},
    {"--benches", "a+b,c+d", Sweep, Kind::Text, true, 0, 0,
     "ad-hoc workloads; '+' joins the threads of one workload",
     SMT_SET(c.spec.workloads.push_back(rawWorkload(splitOn(v.text, '+'))))},
    {"--workloads", "ID,..", Sweep, Kind::Text, true, 0, 0,
     "paper Table 4 workload ids, e.g. MEM2.g1 (see --list-workloads)",
     addTable4Workload},
    {"--cells", "MEM2,..", Sweep, Kind::Text, true, 0, 0,
     "all four groups of a Table 4 workload cell", addCell},
    {"--policies", "A,B", Sweep, Kind::Text, true, 0, 0,
     "policies to sweep (default ICOUNT,DCRA)",
     SMT_SET(c.spec.policies.push_back(parsePolicyKind(v.text)))},
    // Run budget.
    {"--commits", "N", Both, Kind::Num, false, 0, kMax,
     "first-thread commit budget (default 100000; sweep 60000)",
     SMT_SET(c.spec.commits = v.num)},
    {"--warmup", "N", Both, Kind::Num, false, 0, kMax,
     "commits executed before measuring (default 10000)",
     SMT_SET(c.spec.warmup = v.num)},
    {"--seed", "N", Both, Kind::Num, false, 0, kMax,
     "workload generation seed", SMT_SET(c.spec.base.seed = v.num)},
    // The core and its memory hierarchy; the sweep's config axes.
    {"--mem-latency", "N", Both, Kind::Num, true, 0, 1000,
     "main-memory latency in cycles",
     SMT_SET(addPoint(c, AxMem, "mem", v.text, &ConfigOverride::memLatency,
                      v.num))},
    {"--l2-latency", "N", Both, Kind::Num, true, 0, 500,
     "L2 access latency in cycles",
     SMT_SET(addPoint(c, AxL2, "l2", v.text, &ConfigOverride::l2Latency,
                      v.num))},
    {"--regs", "N", Both, Kind::Num, true, 1, 4096,
     "physical registers per file (more than 40 per context)",
     SMT_SET(addPoint(c, AxRegs, "regs", v.text,
                      &ConfigOverride::physRegsPerFile,
                      static_cast<int>(v.num)))},
    {"--iq", "N", Both, Kind::Num, true, 1, 4096,
     "entries per issue queue",
     SMT_SET(addPoint(c, AxIq, "iq", v.text, &ConfigOverride::iqSize,
                      static_cast<int>(v.num)))},
    {"--perfect-dcache", nullptr, Both, Kind::Flag, false, 0, 0,
     "all data accesses hit L1",
     SMT_SET(c.spec.base.mem.perfectDcache = true)},
    // The chip.
    {"--cores", "N", Both, Kind::Num, true, 1,
     ResourceDomain::maxDomainClaimants,
     "SMT cores on the chip (default 1 = the paper's machine)",
     SMT_SET(addPoint(c, AxCores, "cores", v.text, &ConfigOverride::numCores,
                      static_cast<int>(v.num)))},
    {"--contexts", "N", Both, Kind::Num, false, 1, maxThreads,
     "hardware contexts per core when cores > 1 (default 4)",
     SMT_SET(c.spec.base.soc.contextsPerCore = static_cast<int>(v.num))},
    {"--allocator", "NAME", Both, Kind::Text, true, 0, 0,
     "thread-to-core allocator: round-robin symbiosis synpa",
     addAllocator},
    {"--epoch", "N", Both, Kind::Num, false, 0, kMax,
     "cycles between reallocations (0 disables; default 20000)",
     SMT_SET(c.spec.base.soc.epochCycles = v.num)},
    {"--llc-arbiter", "NAME", Both, Kind::Text, true, 0, 0,
     "shared-LLC arbiter: static chip-dcra way-equal way-util",
     addLlcArbiter},
    {"--llc-ways", "N", Both, Kind::Num, true, 1, 32,
     "LLC associativity, a power of two (way partitioning)",
     addLlcWays},
    {"--chip-jobs", "N", Both, Kind::Num, false, 0, 1024,
     "host threads ticking one chip's cores (1 = serial, 0 = one per "
     "host thread); results are byte-identical for every value",
     SMT_SET(c.spec.base.soc.chipJobs = static_cast<int>(v.num))},
    // Outputs.
    {"--json", nullptr, Run, Kind::Flag, false, 0, 0,
     "emit the sweep JSON schema instead of the report",
     SMT_SET(c.json = true)},
    {"--format", "F", Sweep, Kind::Text, false, 0, 0,
     "table | csv | json (default table)", SMT_SET(c.format = v.text)},
    {"--output", "FILE", Sweep, Kind::Text, false, 0, 0,
     "write to FILE instead of stdout", SMT_SET(c.outPath = v.text)},
    {"--trace-out", "PREFIX", Both, Kind::Text, false, 0, 0,
     "record telemetry: PREFIX.job<i>.ts.ndjson (time series) and "
     "PREFIX.job<i>.trace.json (Chrome trace, loadable in Perfetto); "
     "a sweep's JSON becomes smtsim-sweep-v2",
     SMT_SET(c.spec.telemetry.tracePrefix = v.text)},
    {"--ts-out", "PREFIX", Both, Kind::Text, false, 0, 0,
     "record the time series alone: PREFIX.job<i>.ts.ndjson",
     SMT_SET(c.spec.telemetry.tsPrefix = v.text)},
    {"--stats-interval", "N", Both, Kind::Num, false, 1, kMax,
     "cycles between telemetry samples (default 10000; needs "
     "--trace-out or --ts-out)", SMT_SET(c.statsInterval = v.num)},
    {"--prof", "PREFIX", Both, Kind::Text, false, 0, 0,
     "host wall-clock profiling: PREFIX.job<i>.prof.ndjson per job "
     "plus PREFIX.runner.prof.ndjson (host data, nondeterministic; "
     "simulation output is unchanged); with --trace-out, host spans "
     "are merged into the Perfetto trace",
     SMT_SET(c.spec.prof.prefix = v.text)},
    {"--prof-every", "N", Both, Kind::Num, false, 1, kMax,
     "host-time 1 in N ticks (default 64)",
     SMT_SET(c.spec.prof.sampleEvery = v.num)},
    // Sweep execution.
    {"--no-hmean", nullptr, Sweep, Kind::Flag, false, 0, 0,
     "skip the single-thread baselines",
     SMT_SET(c.spec.computeHmean = false)},
    {"--jobs", "N", Sweep, Kind::Num, false, 1, 1024,
     "worker threads (default: all host cores); results are "
     "identical for every N", SMT_SET(c.jobs = static_cast<int>(v.num))},
    {"--journal", "FILE", Sweep, Kind::Text, false, 0, 0,
     "append one durable NDJSON record per completed job (fsync'd); "
     "a fresh sweep truncates FILE first",
     SMT_SET(c.ropts.journalPath = v.text)},
    {"--resume", nullptr, Sweep, Kind::Flag, false, 0, 0,
     "replay completed jobs from --journal and run only the rest; "
     "the merged output is byte-identical to an uninterrupted run",
     SMT_SET(c.ropts.resume = true)},
    {"--isolate-jobs", nullptr, Sweep, Kind::Flag, false, 0, 0,
     "fork each job into a child process so a crash loses one job, "
     "not the sweep", SMT_SET(c.ropts.exec.isolate = true)},
    {"--job-timeout", "SEC", Sweep, Kind::Num, false, 1, kIntMax,
     "kill an isolated job after SEC seconds (needs --isolate-jobs)",
     SMT_SET(c.ropts.exec.timeoutSec = static_cast<int>(v.num))},
    {"--job-retries", "N", Sweep, Kind::Num, false, 0, 1000,
     "re-run a failed job up to N extra times",
     SMT_SET(c.ropts.exec.retries = static_cast<int>(v.num))},
    {"--job-backoff", "MS", Sweep, Kind::Num, false, 0, kIntMax,
     "base retry backoff: attempt k waits MS << (k-1) milliseconds "
     "(default 50)",
     SMT_SET(c.ropts.exec.backoffMs = static_cast<int>(v.num))},
    // prof-report.
    {"--top", "N", Report, Kind::Num, false, 1, kIntMax,
     "rows in the top-scopes table (default 20)",
     SMT_SET(c.report.topScopes = static_cast<int>(v.num))},
    // Actions: run instead of a simulation.
    {"--list-benchmarks", nullptr, Run, Kind::Flag, false, 0, 0,
     "show the available benchmarks", SMT_SET(c.action = listBenchmarks)},
    {"--list-workloads", nullptr, Run, Kind::Flag, false, 0, 0,
     "show the paper's Table 4 workloads",
     SMT_SET(c.action = listWorkloads)},
    {"--list-policies", nullptr, Run, Kind::Flag, false, 0, 0,
     "show the registered fetch/allocation policies",
     SMT_SET(c.action = listPolicies)},
    {"--list-arbiters", nullptr, Run, Kind::Flag, false, 0, 0,
     "show the registered LLC arbiters", SMT_SET(c.action = listArbiters)},
    {"--selftest", nullptr, Run, Kind::Flag, false, 0, 0,
     "10k-cycle 2-thread DCRA smoke run plus a 2-core chip smoke; "
     "exits nonzero on NaN/zero IPC or nondeterminism",
     SMT_SET(c.action = selftest)},
    {"--help", nullptr, Both | Report, Kind::Flag, false, 0, 0,
     "print this text (also -h)", SMT_SET(c.action = usage)},
};
// clang-format on

#undef SMT_SET

const char *
modeName(unsigned modes)
{
    return modes & Run ? "single-run" : modes & Sweep ? "sweep"
                                                      : "prof-report";
}

/** Strict unsigned decimal: digits only, no sign, no overflow. */
bool
parseDecimal(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s.size() > 20 ||
        s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    out = std::strtoull(s.c_str(), nullptr, 10);
    return errno != ERANGE;
}

/** Check and apply one option value; false after an error. */
bool
applyValue(Cli &c, const Option &o, const std::string &tok)
{
    Value v;
    v.text = tok;
    if (o.kind == Kind::Num &&
        (!parseDecimal(tok, v.num) || v.num < o.lo || v.num > o.hi)) {
        if (o.hi == kMax) {
            std::fprintf(stderr,
                         "error: %s wants an integer >= %llu, got "
                         "'%s'\n",
                         o.name, static_cast<unsigned long long>(o.lo),
                         tok.c_str());
        } else {
            std::fprintf(stderr,
                         "error: %s wants an integer in %llu..%llu, got "
                         "'%s'\n",
                         o.name, static_cast<unsigned long long>(o.lo),
                         static_cast<unsigned long long>(o.hi),
                         tok.c_str());
        }
        return false;
    }
    if (o.kind == Kind::Num)
        v.text = std::to_string(v.num); // canonical: "007" -> "7"
    if (o.kind == Kind::Text && tok.empty()) {
        std::fprintf(stderr, "error: %s wants a non-empty value\n",
                     o.name);
        return false;
    }
    return o.set(c, v);
}

/** Parse argv (mode word already stripped) into @p c. */
bool
parseArgs(Cli &c, int argc, char **argv)
{
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        if (c.mode == Report && (arg.empty() || arg[0] != '-')) {
            c.files.push_back(arg);
            continue;
        }
        if (arg == "-h")
            arg = "--help";
        const Option *o = nullptr;
        for (const Option &cand : kOptions) {
            if (arg == cand.name)
                o = &cand;
        }
        if (!o) {
            std::fprintf(stderr,
                         "error: unknown option '%s' (see 'smtsim "
                         "--help')\n",
                         arg.c_str());
            return false;
        }
        if (!(o->modes & c.mode)) {
            std::fprintf(stderr,
                         "error: %s is a %s option, not a %s one (see "
                         "'smtsim --help')\n",
                         o->name, modeName(o->modes), modeName(c.mode));
            return false;
        }
        if (o->kind != Kind::Flag && i + 1 >= argc) {
            std::fprintf(stderr, "error: missing value for %s\n",
                         o->name);
            return false;
        }
        const std::string value = o->kind == Kind::Flag ? "" : argv[++i];
        const std::vector<std::string> toks =
            o->list && c.mode == Sweep ? splitOn(value, ',')
                                       : std::vector<std::string>{value};
        for (const std::string &tok : toks) {
            if (!applyValue(c, *o, tok))
                return false;
        }
    }
    return true;
}

/** Print @p text wrapped to the help column. */
void
printWrapped(std::string text, std::size_t col)
{
    const std::size_t width = 78 - col;
    bool first = true;
    while (!text.empty()) {
        std::size_t n = text.size();
        if (n > width) {
            n = text.rfind(' ', width);
            if (n == std::string::npos || n == 0)
                n = width;
        }
        std::printf("%*s%s\n", first ? 0 : static_cast<int>(col), "",
                    text.substr(0, n).c_str());
        text.erase(0, n);
        if (!text.empty() && text[0] == ' ')
            text.erase(0, 1);
        first = false;
    }
}

/** --help: generated from kOptions. */
int
usage()
{
    std::printf(
        "usage: smtsim [options]\n"
        "       smtsim sweep [options]\n"
        "       smtsim prof-report [--top N] FILE.prof.ndjson...\n");
    static const struct
    {
        unsigned modes;
        const char *title;
    } sections[] = {
        {Both, "single-run and sweep options (in a sweep, a value "
               "marked [list] takes a comma list: one config axis; the "
               "grid is workloads x policies x every axis given)"},
        {Run, "single-run options"},
        {Sweep, "sweep options"},
        {Report, "prof-report options (aggregate .prof.ndjson "
                 "sidecars into top scopes, wavefront gate waits, job "
                 "wall-time percentiles and baseline-cache contention)"},
        {Both | Report, "everywhere"},
    };
    constexpr std::size_t col = 24;
    for (const auto &sec : sections) {
        std::printf("\n");
        printWrapped(std::string(sec.title) + ":", 0);
        for (const Option &o : kOptions) {
            if (o.modes != sec.modes)
                continue;
            std::string left = std::string("  ") + o.name;
            if (o.metavar)
                left += std::string(" ") + o.metavar;
            std::string help = o.help;
            if (o.kind == Kind::Num && (o.lo > 0 || o.hi != kMax)) {
                help += o.hi == kMax
                    ? " [>= " + std::to_string(o.lo) + "]"
                    : " [" + std::to_string(o.lo) + ".." +
                        std::to_string(o.hi) + "]";
            }
            if (o.list && (o.modes & Run))
                help += " [list]";
            if (left.size() + 1 > col) {
                std::printf("%s\n%*s", left.c_str(),
                            static_cast<int>(col), "");
            } else {
                std::printf("%-*s", static_cast<int>(col), left.c_str());
            }
            printWrapped(help, col);
        }
    }
    std::printf(
        "\nIntegers are plain decimal within the range shown; anything "
        "else\nis rejected with exit 1 before any simulation starts.\n"
        "\nsweep exit codes: 0 success, 1 usage/config error, 3 sweep\n"
        "completed but jobs failed (see the JSON failures block), 130\n"
        "interrupted by SIGINT/SIGTERM (journal stays resumable; see\n"
        "README 'Fault tolerance').\n");
    return 0;
}

int
listBenchmarks()
{
    for (const auto &b : allBenchNames()) {
        const BenchProfile &p = benchProfile(b);
        // smtlint:allow(D2): human-facing table; C locale is pinned (D1 bans setlocale)
        std::printf("%-8s %s  %s  (paper L2 miss %.1f%%)\n", b.c_str(),
                    p.isFp ? "FP " : "INT",
                    isMemBench(b) ? "MEM" : "ILP", p.paperL2MissRate);
    }
    return 0;
}

int
listWorkloads()
{
    for (const Workload &w : allWorkloads()) {
        std::printf("%-8s", w.id.c_str());
        for (const auto &b : w.benches)
            std::printf(" %s", b.c_str());
        std::printf("\n");
    }
    return 0;
}

int
listPolicies()
{
    for (const char *n : policyNames())
        std::printf("%s\n", n);
    return 0;
}

int
listArbiters()
{
    for (const char *n : llcArbiterNames())
        std::printf("%s\n", n);
    return 0;
}

// ---------------------------------------------------------------
// Checks, running, reporting
// ---------------------------------------------------------------

/**
 * Smoke mode wired into CTest: run a short 2-thread DCRA simulation
 * and sanity-check the results. Returns the process exit code.
 */
int
selftest()
{
    SimConfig cfg;
    cfg.seed = 0x5e1f;
    Simulator sim(cfg, {"gzip", "mcf"}, PolicyKind::Dcra);
    Pipeline &pipe = sim.pipeline();
    for (int i = 0; i < 10'000; ++i)
        pipe.tick();
    pipe.auditInvariants();

    const PipelineStats &ps = pipe.stats();
    bool ok = true;
    double throughput = 0.0;
    for (ThreadID t = 0; t < 2; ++t) {
        const double ipc = ps.ipc(t);
        if (std::isnan(ipc) || ipc <= 0.0) {
            std::fprintf(stderr,
                         // smtlint:allow(D2): diagnostic for a human; C locale is pinned (D1 bans setlocale)
                         "selftest: thread %d IPC %.4f is NaN/zero\n",
                         t, ipc);
            ok = false;
        }
        throughput += ipc;
    }
    if (ps.cycles != 10'000) {
        std::fprintf(stderr, "selftest: expected 10000 cycles, got "
                     "%llu\n",
                     static_cast<unsigned long long>(ps.cycles));
        ok = false;
    }

    // Second leg: a 2-core chip with an active allocator, so the
    // smoke mode covers the CMP layer (migrations included). Run it
    // twice: the chip must be bit-deterministic.
    SimConfig ccfg; // default seed: the migration-rich scenario
    ccfg.soc.numCores = 2;
    ccfg.soc.contextsPerCore = 2;
    ccfg.soc.allocator = AllocatorKind::Symbiosis;
    ccfg.soc.epochCycles = 700; // short: the smoke run must migrate
    ccfg.soc.drainTimeout = 200;
    // This order cold-spreads the two memory hogs onto one core
    // (mcf+art), which the symbiosis allocator then corrects — the
    // smoke run covers a real migration.
    const std::vector<std::string> chipMix = {"mcf", "gzip", "art",
                                              "crafty"};
    auto chipRun = [&]() {
        ChipSimulator chip(ccfg, chipMix, PolicyKind::Dcra);
        const SimResult r = chip.run(8'000, 200'000);
        chip.auditInvariants();
        return r;
    };
    const SimResult c1 = chipRun();
    const SimResult c2 = chipRun();
    // Third pass on two worker threads: the parallel tick path must
    // reproduce the serial bytes (this is also the TSan smoke).
    ccfg.soc.chipJobs = 2;
    const SimResult c3 = chipRun();
    ccfg.soc.chipJobs = 1;
    double chipTp = 0.0;
    for (const ThreadResult &t : c1.threads) {
        if (std::isnan(t.ipc) || t.ipc <= 0.0) {
            std::fprintf(stderr,
                         // smtlint:allow(D2): diagnostic for a human; C locale is pinned (D1 bans setlocale)
                         "selftest: chip thread %s IPC %.4f is "
                         "NaN/zero\n", t.bench.c_str(), t.ipc);
            ok = false;
        }
        chipTp += t.ipc;
    }
    if (c1.cycles != c2.cycles ||
        c1.coreCommitHashes != c2.coreCommitHashes ||
        c1.migrations != c2.migrations) {
        std::fprintf(stderr, "selftest: 2-core chip run is not "
                     "deterministic\n");
        ok = false;
    }
    if (c1.cycles != c3.cycles ||
        c1.coreCommitHashes != c3.coreCommitHashes ||
        c1.migrations != c3.migrations ||
        c1.llcAccesses != c3.llcAccesses) {
        std::fprintf(stderr, "selftest: --chip-jobs 2 diverged from "
                     "the serial 2-core run\n");
        ok = false;
    }
    if (c1.migrations == 0) {
        std::fprintf(stderr, "selftest: 2-core chip never "
                     "migrated a thread\n");
        ok = false;
    }
    // smtlint:allow(D2): human-facing selftest summary; C locale is pinned (D1 bans setlocale)
    std::printf("selftest: %s (throughput %.3f over %llu cycles; "
                "2-core chip %.3f over %llu cycles, %llu " // smtlint:allow(D2): same summary line
                "migrations)\n",
                ok ? "PASS" : "FAIL", throughput,
                static_cast<unsigned long long>(ps.cycles), chipTp,
                static_cast<unsigned long long>(c1.cycles),
                static_cast<unsigned long long>(c1.migrations));
    return ok ? 0 : 1;
}

std::vector<std::string>
splitOn(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const std::size_t pos = s.find(sep, start);
        if (pos == std::string::npos) {
            out.push_back(s.substr(start));
            break;
        }
        out.push_back(s.substr(start, pos - start));
        start = pos + 1;
    }
    return out;
}

/** How many software threads a chip shape can hold. */
struct ChipShape
{
    int cores = 1;
    int contexts = maxThreads; //!< per core

    int capacity() const { return cores * contexts; }
};

/**
 * Check a workload's benchmark list: nonempty, within the chip's
 * thread capacity (cores x contexts; a single core offers the
 * model's maxThreads contexts), every name known. Reports to stderr
 * and returns false on any problem, so callers can exit nonzero
 * instead of hitting fatal() (or undefined behaviour) deep inside
 * the simulator.
 */
bool
validateBenches(const std::vector<std::string> &benches,
                const ChipShape &shape)
{
    if (benches.empty() ||
        (benches.size() == 1 && benches[0].empty())) {
        std::fprintf(stderr, "error: empty workload\n");
        return false;
    }
    if (static_cast<int>(benches.size()) > shape.capacity()) {
        if (shape.cores > 1) {
            std::fprintf(stderr,
                         "error: workload has %zu benchmarks, "
                         "exceeding the chip's %d cores x %d "
                         "contexts = %d threads\n",
                         benches.size(), shape.cores, shape.contexts,
                         shape.capacity());
        } else {
            std::fprintf(stderr,
                         "error: workload has %zu benchmarks; the "
                         "model supports at most %d hardware "
                         "contexts (use --cores for more)\n",
                         benches.size(), shape.capacity());
        }
        return false;
    }
    const std::vector<std::string> &known = allBenchNames();
    for (const std::string &b : benches) {
        if (std::find(known.begin(), known.end(), b) == known.end()) {
            std::fprintf(stderr,
                         "error: unknown benchmark '%s' (run "
                         "'smtsim --list-benchmarks' for the list)\n",
                         b.c_str());
            return false;
        }
    }
    return true;
}

/**
 * Fail fast on an unwritable output path: probe with fopen(path,
 * "a") before the (possibly hours-long) sweep starts, removing the
 * probe file again when it did not exist before. Reports to stderr
 * and returns false on an unwritable path.
 */
bool
probeWritable(const std::string &path, const char *flag)
{
    if (path.empty())
        return true;
    struct stat st;
    const bool existed = ::stat(path.c_str(), &st) == 0;
    std::FILE *f = std::fopen(path.c_str(), "a");
    if (!f) {
        std::fprintf(stderr,
                     "error: %s path '%s' is not writable: %s\n",
                     flag, path.c_str(), std::strerror(errno));
        return false;
    }
    std::fclose(f);
    if (!existed)
        std::remove(path.c_str());
    return true;
}

/** Emit to --output FILE or stdout. */
int
emitOutput(const std::string &text, const std::string &path)
{
    if (path.empty()) {
        std::fputs(text.c_str(), stdout);
        return 0;
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                     path.c_str());
        return 1;
    }
    const bool wrote = std::fputs(text.c_str(), f) >= 0;
    // fclose flushes the buffered tail; a full disk surfaces here.
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed) {
        std::fprintf(stderr, "error: failed writing '%s'\n",
                     path.c_str());
        return 1;
    }
    return 0;
}

/**
 * Check every job of the grid the way the simulator would, before
 * the first one starts: workloads against their chip's thread
 * capacity, a multi-core chip's LLC against its core count, and the
 * core configuration against its context count.
 * A bad point must fail the whole command with exit 1, not abort
 * the process halfway through a sweep.
 */
bool
validateJobs(const SweepSpec &spec)
{
    for (const SweepJob &job : expandSweep(spec)) {
        const SocParams &soc = job.config.soc;
        const std::vector<std::string> &benches = job.workload.benches;
        ChipShape shape; // one core: the single-core default shape
        if (soc.numCores > 1) {
            shape.cores = soc.numCores;
            shape.contexts = soc.contextsPerCore;
        }
        if (!validateBenches(benches, shape))
            return false;
        const std::string llcWhy = soc.numCores > 1
            ? validateSharedCacheParams(
                  ChipSimulator::llcParams(job.config), soc.numCores)
            : std::string();
        if (!llcWhy.empty()) {
            std::fprintf(stderr, "error: %s%s%s%s\n", llcWhy.c_str(),
                         job.configLabel.empty() ? "" : " (config '",
                         job.configLabel.c_str(),
                         job.configLabel.empty() ? "" : "')");
            return false;
        }
        SmtConfig core = job.config.core;
        core.numThreads = soc.numCores > 1
            ? soc.contextsPerCore
            : static_cast<int>(benches.size());
        const std::string why = core.problem();
        if (!why.empty()) {
            std::fprintf(stderr, "error: %s%s%s%s\n", why.c_str(),
                         job.configLabel.empty() ? "" : " (config '",
                         job.configLabel.c_str(),
                         job.configLabel.empty() ? "" : "')");
            return false;
        }
    }
    return true;
}

/**
 * Turn the parsed command line into the spec to run; false after
 * reporting an error. A single run applies its one value per axis
 * to the base config; a sweep multiplies the axes out.
 */
bool
buildSpec(Cli &c)
{
    SweepSpec &spec = c.spec;
    if (c.ropts.resume && c.ropts.journalPath.empty()) {
        std::fprintf(stderr, "error: --resume needs --journal (the "
                     "file to replay)\n");
        return false;
    }
    if (c.ropts.exec.timeoutSec > 0 && !c.ropts.exec.isolate) {
        std::fprintf(stderr, "error: --job-timeout needs "
                     "--isolate-jobs (only a child process can be "
                     "killed without losing the sweep)\n");
        return false;
    }
    if (c.statsInterval > 0 && !spec.telemetry.enabled()) {
        std::fprintf(stderr, "error: --stats-interval needs "
                     "--trace-out or --ts-out (nowhere to write "
                     "samples)\n");
        return false;
    }
    if (spec.telemetry.enabled())
        spec.telemetry.statsInterval =
            c.statsInterval ? c.statsInterval : 10'000;

    if (c.mode == Run) {
        // Fill the base config first so --json reports it without a
        // config label, exactly as a one-point grid would.
        ConfigOverride o;
        for (const std::vector<AxisPoint> &axis : c.axes) {
            for (const AxisPoint &pt : axis)
                pt.set(o);
        }
        spec.base = o.apply(spec.base);
        spec.workloads = {rawWorkload(c.workload)};
        spec.policies = {c.policy};
    } else {
        if (spec.workloads.empty()) {
            std::fprintf(stderr,
                         "error: no workloads; give --benches, "
                         "--workloads and/or --cells\n");
            return false;
        }
        if (spec.policies.empty())
            spec.policies = {PolicyKind::Icount, PolicyKind::Dcra};
        // Cross product of the axes given, outermost first; an axis
        // left out contributes no label and no override.
        std::vector<ConfigOverride> configs(1);
        for (const std::vector<AxisPoint> &axis : c.axes) {
            if (axis.empty())
                continue;
            std::vector<ConfigOverride> next;
            for (const ConfigOverride &outer : configs) {
                for (const AxisPoint &pt : axis) {
                    ConfigOverride o = outer;
                    o.label += (o.label.empty() ? "" : ",") + pt.label;
                    pt.set(o);
                    next.push_back(std::move(o));
                }
            }
            configs = std::move(next);
        }
        if (!configs[0].label.empty())
            spec.configs = std::move(configs);
    }
    if (!validateJobs(spec))
        return false;
    for (Workload &w : spec.workloads) {
        if (w.id.empty())
            w = adHocWorkload(w.benches);
    }

    // Fail fast on unwritable destinations before hours of
    // simulation, not after.
    if (!probeWritable(c.outPath, "--output") ||
        !probeWritable(c.ropts.journalPath, "--journal"))
        return false;
    if (spec.telemetry.enabled() &&
        !probeWritable(
            telemetryFileBase(spec.telemetry.tsOutPrefix(), 0) +
                ".ts.ndjson",
            spec.telemetry.tsPrefix.empty() ? "--trace-out"
                                            : "--ts-out"))
        return false;
    return !spec.prof.enabled() ||
        probeWritable(profFileBase(spec.prof.prefix, 0) +
                          ".prof.ndjson",
                      "--prof");
}

/** The single run's human report, from its one JobResult. */
int
printRunReport(const SweepResults &res)
{
    const SweepSpec &spec = res.spec;
    const JobResult &job = res.results[0];
    const SimResult &r = job.summary.raw;
    const RunSummary::Sidecars &files = job.summary.sidecars;
    if (!files.written)
        return 1; // the writer reported the failure
    if (spec.prof.enabled()) {
        std::printf("prof: %zu scopes, %zu records, %zu spans -> "
                    "%s.job0.prof.ndjson (host wall-clock; "
                    "nondeterministic)\n",
                    files.scopes, files.records, files.spans,
                    spec.prof.prefix.c_str());
    }
    const std::string &traceOut = spec.telemetry.tracePrefix;
    const std::string &tsOut = spec.telemetry.tsPrefix;
    if (traceOut.empty() && !tsOut.empty()) {
        std::printf("telemetry: %zu samples -> %s.job0.ts.ndjson\n",
                    files.samples, tsOut.c_str());
    } else if (tsOut.empty() && !traceOut.empty()) {
        std::printf("telemetry: %zu samples, %zu events -> "
                    "%s.job0.{ts.ndjson,trace.json}\n",
                    files.samples, files.events, traceOut.c_str());
    } else if (!traceOut.empty()) {
        std::printf("telemetry: %zu samples, %zu events -> "
                    "%s.job0.ts.ndjson, %s.job0.trace.json\n",
                    files.samples, files.events, tsOut.c_str(),
                    traceOut.c_str());
    }

    // smtlint:allow(D2): width-padded human report; C locale is pinned (D1 bans setlocale)
    std::printf("policy=%s cycles=%llu throughput=%.3f mlp=%.2f\n",
                policyKindName(job.job.policy),
                static_cast<unsigned long long>(r.cycles),
                r.throughput(), r.mlpBusyMean);
    const SocParams &soc = job.job.config.soc;
    if (soc.numCores > 1) {
        const double llcMissPct = r.llcAccesses
            ? 100.0 * static_cast<double>(r.llcMisses) /
                static_cast<double>(r.llcAccesses)
            : 0.0;
        std::printf("chip: cores=%d contexts=%d allocator=%s "
                    "epoch=%llu migrations=%llu llc-acc=%llu "
                    // smtlint:allow(D2): width-padded human report; C locale is pinned (D1 bans setlocale)
                    "llc-miss=%.2f%% llc-arbiter=%s "
                    "share-reassignments=%llu\n",
                    soc.numCores, soc.contextsPerCore,
                    allocatorKindName(soc.allocator),
                    static_cast<unsigned long long>(soc.epochCycles),
                    static_cast<unsigned long long>(r.migrations),
                    static_cast<unsigned long long>(r.llcAccesses),
                    llcMissPct, r.llcArbiter.c_str(),
                    static_cast<unsigned long long>(
                        r.llcShareReassignments));
        for (std::size_t c = 0; c < r.llcPerCore.size(); ++c) {
            const LlcCoreStats &cs = r.llcPerCore[c];
            std::printf("  llc core %zu: acc=%llu miss=%llu "
                        "mshr-share=%d ways=%d lines=%llu\n",
                        c,
                        static_cast<unsigned long long>(cs.accesses),
                        static_cast<unsigned long long>(cs.misses),
                        cs.mshrShare, cs.ways,
                        static_cast<unsigned long long>(
                            cs.linesOwned));
        }
    }
    std::printf("%-8s %10s %7s %9s %9s %8s %8s %8s %8s\n", "thread",
                "commits", "IPC", "fetched", "squashed", "misp%",
                "L1D%", "L2%", "flushes");
    for (const ThreadResult &t : r.threads) {
        const double mispPct = t.condBranches
            ? 100.0 * static_cast<double>(t.mispredicts) /
                static_cast<double>(t.condBranches)
            : 0.0;
        const double l1Pct = t.l1dAccesses
            ? 100.0 * static_cast<double>(t.l1dMisses) /
                static_cast<double>(t.l1dAccesses)
            : 0.0;
        // smtlint:allow(D2): width-padded human report; C locale is pinned (D1 bans setlocale)
        std::printf("%-8s %10llu %7.3f %9llu %9llu %7.2f%% %7.2f%% "
                    "%7.2f%% %8llu\n", // smtlint:allow(D2): same report row
                    t.bench.c_str(),
                    static_cast<unsigned long long>(t.committed),
                    t.ipc,
                    static_cast<unsigned long long>(t.fetched),
                    static_cast<unsigned long long>(t.squashed),
                    mispPct, l1Pct, t.l2MissRatePct(),
                    static_cast<unsigned long long>(t.flushes));
    }
    std::printf("phase mix (cycles with n slow threads):");
    for (std::size_t n = 0; n < r.slowPhaseCycles.size(); ++n) {
        // smtlint:allow(D2): width-padded human report; C locale is pinned (D1 bans setlocale)
        std::printf(" %zu-slow=%.1f%%", n,
                    100.0 *
                        static_cast<double>(r.slowPhaseCycles[n]) /
                        static_cast<double>(r.cycles));
    }
    std::printf("\n");
    return 0;
}

/** Run the spec built from the command line and emit its output. */
int
simulate(Cli &c)
{
    const std::unique_ptr<ResultSink> sink =
        makeSink(c.mode == Run && c.json ? "json" : c.format);
    if (!sink) {
        std::fprintf(stderr,
                     "error: unknown format '%s' (table, csv, "
                     "json)\n",
                     c.format.c_str());
        return 1;
    }
    if (!buildSpec(c))
        return 1;

    SweepRunner runner(std::move(c.spec), c.mode == Run ? 1 : c.jobs,
                       nullptr, std::move(c.ropts));
    const SweepResults results = runner.run();
    if (results.interrupted) {
        std::fprintf(stderr,
                     "sweep interrupted; completed jobs are in the "
                     "journal — re-run with --resume to finish\n");
        return 130;
    }
    if (c.mode == Run && !c.json) {
        if (results.results[0].failed) {
            std::fprintf(stderr, "error: the run failed (%s)\n",
                         results.failures[0].cause.c_str());
            return 1;
        }
        return printRunReport(results);
    }
    const int rc = emitOutput(sink->render(results), c.outPath);
    if (rc)
        return rc;
    if (c.mode == Sweep && !results.failures.empty()) {
        std::fprintf(stderr,
                     "sweep completed with %zu failed job(s); see "
                     "the failures block (--format json)\n",
                     results.failures.size());
        return 3;
    }
    return 0;
}

/** `smtsim prof-report FILE...`: aggregate --prof sidecars. */
int
profReport(const Cli &c)
{
    if (c.files.empty()) {
        std::fprintf(stderr,
                     "error: prof-report wants at least one "
                     ".prof.ndjson file (from --prof)\n");
        return 1;
    }
    std::string out;
    std::string err;
    if (!renderProfReport(c.files, c.report, out, err)) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 1;
    }
    std::fputs(out.c_str(), stdout);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Cli c;
    int first = 1;
    if (argc > 1 && std::strcmp(argv[1], "sweep") == 0) {
        c.mode = Sweep;
        c.spec.name = "cli-sweep";
        c.spec.commits = 60'000;
        c.ropts.faults = FaultPlan::fromEnv();
        first = 2;
    } else if (argc > 1 && std::strcmp(argv[1], "prof-report") == 0) {
        c.mode = Report;
        first = 2;
    } else {
        c.spec.name = "cli-run";
        c.spec.commits = 100'000;
        c.spec.maxCycles = 100'000'000;
        c.spec.computeHmean = false;
    }
    c.spec.warmup = 10'000;

    if (!parseArgs(c, argc - first, argv + first))
        return 1;
    if (c.action)
        return c.action();
    return c.mode == Report ? profReport(c) : simulate(c);
}
