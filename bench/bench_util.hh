/**
 * @file
 * Shared plumbing for the experiment binaries: run-length scaling,
 * paper-style table printing and the standard policy sets.
 *
 * Every binary honours three environment variables:
 *   SMT_BENCH_COMMITS  per-run first-thread commit budget
 *                      (default 60000)
 *   SMT_BENCH_WARMUP   warmup commits before measuring
 *                      (default 10000)
 *   SMT_BENCH_JOBS     sweep-runner worker threads
 *                      (default 0 = one per host core)
 */

#ifndef DCRA_SMT_BENCH_BENCH_UTIL_HH
#define DCRA_SMT_BENCH_BENCH_UTIL_HH

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <string>

#include "common/logging.hh"
#include "common/stats.hh"
#include "runner/runner.hh"

namespace smtbench {

/**
 * Environment setting @p name as a plain decimal in 0..@p hi, or
 * @p dflt when unset or empty; fatal() on anything else (a sign,
 * junk, overflow), so a typo cannot silently run a 0-commit figure.
 */
inline std::uint64_t
envDecimal(const char *name, std::uint64_t dflt, std::uint64_t hi)
{
    const char *s = std::getenv(name);
    if (!s || !*s)
        return dflt;
    const std::string text = s;
    errno = 0;
    const std::uint64_t v = std::strtoull(s, nullptr, 10);
    if (text.size() > 20 ||
        text.find_first_not_of("0123456789") != std::string::npos ||
        errno == ERANGE || v > hi) {
        smt::fatal("bad %s '%s' (want a plain decimal integer%s)", name,
                   s,
                   hi == ~0ull ? ""
                               : (" <= " + std::to_string(hi)).c_str());
    }
    return v;
}

/** Per-run commit budget (SMT_BENCH_COMMITS). */
inline std::uint64_t
commitBudget()
{
    return envDecimal("SMT_BENCH_COMMITS", 60'000, ~0ull);
}

/** Warmup commits (SMT_BENCH_WARMUP). */
inline std::uint64_t
warmupBudget()
{
    return envDecimal("SMT_BENCH_WARMUP", 10'000, ~0ull);
}

/** Sweep-runner workers (SMT_BENCH_JOBS; 0 = all host cores). */
inline int
benchJobs()
{
    return static_cast<int>(envDecimal("SMT_BENCH_JOBS", 0, 1024));
}

/** Print a named section header. */
inline void
banner(const char *id, const char *what)
{
    std::printf("==============================================\n");
    std::printf("%s: %s\n", id, what);
    std::printf("(commits/run=%llu warmup=%llu)\n",
                static_cast<unsigned long long>(commitBudget()),
                static_cast<unsigned long long>(warmupBudget()));
    std::printf("==============================================\n");
}

/** The (threads, type) grid of paper figures 4 and 5. */
struct Cell
{
    int threads;
    smt::WorkloadType type;
};

inline const Cell *
allCells(int &count)
{
    static const Cell cells[] = {
        {2, smt::WorkloadType::ILP}, {2, smt::WorkloadType::MIX},
        {2, smt::WorkloadType::MEM}, {3, smt::WorkloadType::ILP},
        {3, smt::WorkloadType::MIX}, {3, smt::WorkloadType::MEM},
        {4, smt::WorkloadType::ILP}, {4, smt::WorkloadType::MIX},
        {4, smt::WorkloadType::MEM},
    };
    count = 9;
    return cells;
}

/** "ILP2", "MIX4", ... */
inline std::string
cellName(const Cell &c)
{
    return std::string(smt::workloadTypeName(c.type)) +
        std::to_string(c.threads);
}

} // namespace smtbench

#endif // DCRA_SMT_BENCH_BENCH_UTIL_HH
