/**
 * @file
 * Static configuration of the SMT core (paper Table 2 defaults).
 */

#ifndef DCRA_SMT_CORE_SMT_CONFIG_HH
#define DCRA_SMT_CORE_SMT_CONFIG_HH

#include <string>

#include "common/logging.hh"
#include "common/types.hh"
#include "core/resources.hh"
#include "trace/trace_inst.hh"

namespace smt {

/**
 * Core geometry and latencies. The defaults reproduce the paper's
 * baseline: 8-wide, 12-stage, 80-entry queues, 352 physical
 * registers per file, 512-entry ROB.
 */
struct SmtConfig
{
    /** Hardware contexts (the paper evaluates 2..4). */
    int numThreads = 4;

    /** @name Pipeline widths */
    /** @{ */
    int fetchWidth = 8;           //!< instructions fetched per cycle
    int fetchThreadsPerCycle = 2; //!< ICOUNT.2.8-style fetch
    int renameWidth = 8;
    int issueWidth = 8;
    int commitWidth = 8;
    /** @} */

    /**
     * Cycles between fetch and earliest rename; models the front
     * portion of the 12-stage pipe and sets the refill component of
     * the misprediction penalty.
     */
    int frontEndLatency = 6;

    /** Per-thread fetch buffer capacity. */
    int fetchQueueSize = 32;

    /** Issue queue sizes, indexed by QueueClass (int, fp, ls). */
    int iqSize[numQueueClasses] = {80, 80, 80};

    /** Functional units per class (paper: 6 int, 3 fp, 4 ld/st). */
    int fuCount[numQueueClasses] = {6, 3, 4};

    /** Physical registers per file (int and fp files separately). */
    int physRegsPerFile = 352;

    /** Shared reorder buffer capacity. */
    int robSize = 512;

    /** @name Execution latencies */
    /** @{ */
    int intMulLatency = 3;
    int fpAluLatency = 4;
    int fpMulLatency = 6;
    int branchResolveLatency = 3; //!< issue to redirect
    int loadExtraLatency = 2;     //!< address calc + access pipe
    /** @} */

    /**
     * Optional hard occupancy cap per resource applied to every
     * thread at rename; -1 disables. Used by the Figure 2 resource
     * sensitivity experiment.
     */
    int resourceCap[NumResourceTypes] = {-1, -1, -1, -1, -1};

    /** Rename (non-architectural) registers available in one file. */
    int
    renameRegsPerFile() const
    {
        return physRegsPerFile - numThreads * numIntArchRegs;
    }

    /** Total machine entries of a shared resource. */
    int
    resourceTotal(ResourceType r) const
    {
        switch (r) {
          case ResIqInt:
          case ResIqFp:
          case ResIqLs:
            return iqSize[static_cast<int>(r)];
          case ResRegInt:
          case ResRegFp:
            return renameRegsPerFile();
          default:
            panic("bad resource %d", static_cast<int>(r));
        }
    }

    /** Why a core cannot be built from this configuration; empty
     *  when it can. */
    std::string
    problem() const
    {
        if (numThreads < 1 || numThreads > maxThreads)
            return "numThreads " + std::to_string(numThreads) +
                " out of range";
        if (renameRegsPerFile() <= 0)
            return "no rename registers: " +
                std::to_string(physRegsPerFile) + " phys regs, " +
                std::to_string(numThreads) + " threads (need more "
                "than " + std::to_string(numThreads * numIntArchRegs) +
                " per file)";
        if (fetchWidth < 1 || renameWidth < 1 || issueWidth < 1 ||
            commitWidth < 1)
            return "pipeline widths must be positive";
        for (int q = 0; q < numQueueClasses; ++q) {
            if (iqSize[q] < 1)
                return "issue queue " + std::to_string(q) + " has " +
                    std::to_string(iqSize[q]) +
                    " entries; needs at least 1";
        }
        return "";
    }

    /** Sanity-check the configuration; fatal() on user error. */
    void
    validate() const
    {
        const std::string why = problem();
        if (!why.empty())
            fatal("%s", why.c_str());
    }
};

} // namespace smt

#endif // DCRA_SMT_CORE_SMT_CONFIG_HH
