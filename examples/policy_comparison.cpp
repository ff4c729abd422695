/**
 * @file
 * Compare every implemented policy on one workload. Demonstrates the
 * library's run path: a SweepSpec names the workload and policies,
 * a SweepRunner runs them in parallel and computes the single-thread
 * baselines once, and each run's RunSummary reports both raw
 * throughput and the Hmean throughput/fairness balance.
 *
 * Usage: policy_comparison [bench1 bench2 ...]
 * Default workload: gzip + twolf (the paper's MIX2 group 1).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "runner/runner.hh"

int
main(int argc, char **argv)
{
    using namespace smt;

    std::vector<std::string> benches;
    for (int i = 1; i < argc; ++i)
        benches.emplace_back(argv[i]);
    if (benches.empty())
        benches = {"gzip", "twolf"};

    SweepSpec spec; // paper Table 2 baseline
    spec.name = "policy-comparison";
    spec.commits = 60'000;
    spec.warmup = 10'000;
    spec.workloads = {adHocWorkload(benches)};
    spec.policies = {
        PolicyKind::RoundRobin, PolicyKind::Icount,
        PolicyKind::Stall, PolicyKind::Flush, PolicyKind::FlushPp,
        PolicyKind::DataGating, PolicyKind::Pdg, PolicyKind::Sra,
        PolicyKind::Dcra,
    };
    const SweepResults res = SweepRunner(spec).run();

    std::printf("workload:");
    for (const auto &b : benches)
        std::printf(" %s", b.c_str());
    std::printf("\n\n%-12s %10s %8s  per-thread IPC\n", "policy",
                "throughput", "hmean");

    for (const JobResult &r : res.results) {
        const RunSummary &s = r.summary;
        std::printf("%-12s %10.3f %8.3f ", policyKindName(r.job.policy),
                    s.throughput, s.hmean);
        for (std::size_t i = 0; i < benches.size(); ++i)
            std::printf(" %s=%.3f", benches[i].c_str(),
                        s.multiIpc[i]);
        std::printf("\n");
    }

    std::printf("\nsingle-thread baselines:");
    for (std::size_t i = 0; i < benches.size(); ++i) {
        std::printf(" %s=%.3f", benches[i].c_str(),
                    res.results[0].summary.singleIpc[i]);
    }
    std::printf("\n");
    return 0;
}
