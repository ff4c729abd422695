/**
 * @file
 * What one simulation run takes and gives back: the full
 * configuration (core, memory, predictor, policy, chip shape, seed)
 * and the per-thread and chip-level results ChipSimulator::run
 * reports.
 */

#ifndef DCRA_SMT_SIM_SIM_CONFIG_HH
#define DCRA_SMT_SIM_SIM_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bpred/predictor.hh"
#include "common/types.hh"
#include "core/smt_config.hh"
#include "mem/memory_system.hh"
#include "policy/factory.hh"
#include "soc/soc_params.hh"

namespace smt {

/** Everything configurable about one run. */
struct SimConfig
{
    SmtConfig core;
    MemParams mem;
    BpredParams bpred;
    PolicyParams policy;
    /** Chip-level (CMP) shape; numCores == 1 (the default) is the
     *  paper's single-core machine and ignores the other fields. */
    SocParams soc;
    std::uint64_t seed = 0x5eed;
};

/**
 * A software thread's cumulative pipeline and private-cache counters.
 * threadCounterFields below is the one list of them: the journal,
 * the JSON sink and the chip's interval arithmetic walk it, so a new
 * counter is a member here plus a row there.
 */
struct ThreadCounters
{
    std::uint64_t committed = 0;
    std::uint64_t fetched = 0;
    std::uint64_t fetchedWrongPath = 0;
    std::uint64_t squashed = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t flushes = 0;
    std::uint64_t l1dAccesses = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;

    ThreadCounters operator-(const ThreadCounters &o) const;
    ThreadCounters &operator+=(const ThreadCounters &o);
};

/** One ThreadCounters member and its JSON key. */
struct ThreadCounterField
{
    const char *key;
    std::uint64_t ThreadCounters::*member;
};

/** Every ThreadCounters member, in the JSON sink's order. */
inline constexpr ThreadCounterField threadCounterFields[] = {
    {"committed", &ThreadCounters::committed},
    {"fetched", &ThreadCounters::fetched},
    {"fetchedWrongPath", &ThreadCounters::fetchedWrongPath},
    {"squashed", &ThreadCounters::squashed},
    {"condBranches", &ThreadCounters::condBranches},
    {"mispredicts", &ThreadCounters::mispredicts},
    {"flushes", &ThreadCounters::flushes},
    {"l1dAccesses", &ThreadCounters::l1dAccesses},
    {"l1dMisses", &ThreadCounters::l1dMisses},
    {"l2Accesses", &ThreadCounters::l2Accesses},
    {"l2Misses", &ThreadCounters::l2Misses},
};
static_assert(sizeof(threadCounterFields) /
                      sizeof(threadCounterFields[0]) *
                      sizeof(std::uint64_t) ==
                  sizeof(ThreadCounters),
              "threadCounterFields must list every ThreadCounters "
              "member");

inline ThreadCounters &
ThreadCounters::operator+=(const ThreadCounters &o)
{
    for (const ThreadCounterField &f : threadCounterFields)
        this->*f.member += o.*f.member;
    return *this;
}

inline ThreadCounters
ThreadCounters::operator-(const ThreadCounters &o) const
{
    ThreadCounters r = *this;
    for (const ThreadCounterField &f : threadCounterFields)
        r.*f.member -= o.*f.member;
    return r;
}

/** Per-thread outcome of a run. */
struct ThreadResult : ThreadCounters
{
    std::string bench;
    double ipc = 0.0;

    /** Data-side L2 miss rate in percent (paper Table 3 metric). */
    double
    l2MissRatePct() const
    {
        return l2Accesses ? 100.0 * static_cast<double>(l2Misses) /
                static_cast<double>(l2Accesses)
                          : 0.0;
    }
};

/** Per-core shared-LLC outcome of a multi-core run. */
struct LlcCoreStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    /** MSHR share at end of run; -1 = unlimited (ungated core). */
    int mshrShare = -1;
    /** Ways assigned to the core; 0 = LLC not way-partitioned. */
    int ways = 0;
    /** LLC lines the core currently owns (occupancy). */
    std::uint64_t linesOwned = 0;
};

/** Whole-run outcome. */
struct SimResult
{
    Cycle cycles = 0;
    std::vector<ThreadResult> threads;

    /** cycles in which exactly n threads were in a slow phase. */
    std::vector<std::uint64_t> slowPhaseCycles;

    /** Mean outstanding memory-level loads over busy cycles (MLP). */
    double mlpBusyMean = 0.0;

    /** @name Chip-level extras (multi-core runs only)
     * Empty/zero for single-core runs so the single-core result is
     * unchanged byte for byte. coreCommitHashes folds each core's
     * per-context commit-stream hashes into one word per core — the
     * committed streams are the chip's architectural ground truth,
     * so these are what the 2-core golden test pins.
     */
    /** @{ */
    std::vector<std::uint64_t> coreCommitHashes;
    std::uint64_t migrations = 0;     //!< threads moved between cores
    std::uint64_t allocEpochs = 0;    //!< allocator epochs run
    std::uint64_t llcAccesses = 0;    //!< shared-LLC accesses
    std::uint64_t llcMisses = 0;      //!< shared-LLC misses
    std::string llcArbiter;           //!< arbiter name; "" = 1 core
    /** Epochs at which the LLC arbiter changed at least one share. */
    std::uint64_t llcShareReassignments = 0;
    std::vector<LlcCoreStats> llcPerCore; //!< per-core LLC outcome
    /** @} */

    /** IPC throughput (sum over threads). */
    double
    throughput() const
    {
        double s = 0.0;
        for (const auto &t : threads)
            s += t.ipc;
        return s;
    }

    /** Total fetched instructions including wrong path. */
    std::uint64_t
    totalFetched() const
    {
        std::uint64_t s = 0;
        for (const auto &t : threads)
            s += t.fetched;
        return s;
    }
};

} // namespace smt

#endif // DCRA_SMT_SIM_SIM_CONFIG_HH
