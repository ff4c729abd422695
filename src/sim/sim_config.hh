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

/** Per-thread outcome of a run. */
struct ThreadResult
{
    std::string bench;
    std::uint64_t committed = 0;
    double ipc = 0.0;
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
