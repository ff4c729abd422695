/**
 * @file
 * perfbench: host performance of the simulator, end to end and layer
 * by layer, with its simulated output checked on every run.
 *
 *   perfbench --workload core4t_mix|chip4c8t_mem|sweep_table4
 *             [--seed N] [--seconds N] [--trace 0|1]
 *             [--digests FILE] [--out-dir DIR]
 *
 * --trace 0 measures the end-to-end metrics with no profiler
 * attached; --trace 1 is the separate traced run that attaches the
 * HostProfiler at sample-every-1 and reports the per-layer metrics.
 * Output: one "metric <name> <value> <unit>" line per metric, the
 * provenance and digest lines, and last a JSON object with the keys
 * correct, attempted, failed and metrics. The exit code is 0 only
 * when every output check passed. perfbench/run.py builds this
 * program and is the command to run.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/version.hh"
#include "prof/host_info.hh"
#include "spans.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

/** The seed whose output digests are recorded in the digest file. */
constexpr std::uint64_t kDefaultSeed = 1;

int
usage()
{
    smt::warn("usage: perfbench --workload core4t_mix|chip4c8t_mem|"
              "sweep_table4 [--seed N] [--seconds N] [--trace 0|1] "
              "[--digests FILE] [--out-dir DIR]");
    return 2;
}

/** The digest recorded for @p workload at the default seed, or "".
 *  The file holds "<workload> <digest>" lines and # comments. */
std::string
recordedDigest(const std::string &path, const std::string &workload)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name, digest;
        if (fields >> name >> digest && name == workload)
            return digest;
    }
    return "";
}

std::string
fnvHex(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return smt::hexU64(h);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string digestsPath = "perfbench/digests.txt";
    opt.outDir = ".bench_build/perfbench-out";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = val;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            opt.seconds = static_cast<int>(std::strtol(val.c_str(), &end, 10));
            if (opt.seconds < 1 || opt.seconds > 3600)
                return usage();
        } else if (arg == "--trace") {
            opt.trace = std::strtol(val.c_str(), &end, 10) != 0;
        } else if (arg == "--digests") {
            digestsPath = val;
        } else if (arg == "--out-dir") {
            opt.outDir = val;
        } else {
            return usage();
        }
        if (end && *end != '\0')
            return usage();
    }

    Report (*run)(const Options &, SpanLog &) = nullptr;
    if (opt.workload == "core4t_mix")
        run = runCore4tMix;
    else if (opt.workload == "chip4c8t_mem")
        run = runChip4c8tMem;
    else if (opt.workload == "sweep_table4")
        run = runSweepTable4;
    else
        return usage();

    // Host numbers from a non-optimised build would be meaningless.
    if (std::string(SMT_BUILD_TYPE) != "Release") {
        smt::warn("perfbench: refusing a '%s' build; rebuild with "
                  "-DCMAKE_BUILD_TYPE=Release",
                  SMT_BUILD_TYPE);
        return 2;
    }

    // Host facts are read before any work: the load average at start
    // is what qualifies the numbers.
    const smt::HostInfo host = smt::readHostInfo();
    opt.workers = std::min(4, std::max(1, host.cpus));
    std::error_code ec;
    std::filesystem::create_directories(opt.outDir, ec);
    if (ec) {
        smt::warn("perfbench: cannot create '%s'", opt.outDir.c_str());
        return 2;
    }

    SpanLog log;
    const int root = log.open(opt.workload);
    Report rep = run(opt, log);
    log.close(root);

    const std::string digest = fnvHex(rep.digestText);
    if (opt.seed == kDefaultSeed || rep.seedFreeOutput) {
        ++rep.attempted;
        const std::string want = recordedDigest(digestsPath, opt.workload);
        if (want != digest) {
            rep.fail("output digest " + digest + " differs from the " +
                     "recorded " + (want.empty() ? "(none)" : want) +
                     " in " + digestsPath);
        }
    }
    for (const Metric &m : rep.metrics) {
        if (!std::isfinite(m.value))
            rep.fail("metric " + m.name + " is not a finite number");
    }

    const std::string provenance = "{\"workload\": \"" + opt.workload +
        "\", \"seed\": " + smt::fmtU64(opt.seed) +
        ", \"trace\": " + (opt.trace ? "1" : "0") +
        ", \"seconds\": " + std::to_string(opt.seconds) +
        ", \"host\": " + smt::hostInfoJson(host, /*withLoadavg=*/true) +
        ", \"buildType\": \"" + SMT_BUILD_TYPE +
        "\", \"gitDescribe\": \"" + smt::jsonEscape(SMT_GIT_DESCRIBE) +
        "\", " + rep.workersUsed + "}";

    const std::string spansPath = opt.outDir + "/" + opt.workload + ".seed" +
        smt::fmtU64(opt.seed) + ".trace" + (opt.trace ? "1" : "0") +
        ".spans.ndjson";
    std::ofstream spans(spansPath);
    spans << provenance << "\n" << log.ndjson();
    if (!spans)
        rep.fail("cannot write spans to " + spansPath);
    if (opt.trace) {
        for (const auto &kv : log.selfByName()) {
            std::printf("self %s %s ms\n", kv.first.c_str(),
                        smt::fmtDouble(static_cast<double>(kv.second) / 1e6,
                                       3)
                            .c_str());
        }
    }
    std::printf("spans %s\n", spansPath.c_str());
    for (const std::string &e : rep.errors)
        smt::warn("perfbench: FAIL %s", e.c_str());

    std::string metrics;
    for (const Metric &m : rep.metrics) {
        const std::string v = smt::fmtDoubleExact(
            std::isfinite(m.value) ? m.value : 0.0);
        std::printf("metric %s %s %s\n", m.name.c_str(), v.c_str(),
                    m.unit.c_str());
        metrics += std::string(metrics.empty() ? "" : ", ") + "\"" +
            m.name + "\": {\"value\": " + v + ", \"unit\": \"" + m.unit +
            "\"}";
    }
    const double failShare = static_cast<double>(rep.failed) /
        static_cast<double>(std::max<std::uint64_t>(rep.attempted, 1));
    std::printf("fail_share %s (%llu of %llu)\n",
                smt::fmtDoubleExact(failShare).c_str(),
                static_cast<unsigned long long>(rep.failed),
                static_cast<unsigned long long>(rep.attempted));
    std::printf("digest %s %s\n", opt.workload.c_str(), digest.c_str());
    std::printf("accuracy unvalidated: no reference hardware data, so no "
                "simulator error figure\n");
    std::printf("provenance %s\n", provenance.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                rep.failed ? "false" : "true",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed),
                metrics.c_str());
    return rep.failed ? 1 : 0;
}
