/**
 * @file
 * Miss status holding registers: the bounded pool of outstanding
 * cache misses. Requests to a line that is already in flight merge
 * into the existing entry (they inherit its ready cycle and add no
 * new downstream traffic). The pool size bounds the achievable
 * memory-level parallelism, which is the quantity DCRA tries to
 * raise for slow threads.
 *
 * An entry may be *pending*: allocated for a chip core's private-L2
 * miss whose shared-LLC outcome is not known yet (see
 * MemorySystem::PendingAccess). Its ready cycle is neverCycle, so it
 * never retires, and it counts as an L2-level miss until settle()
 * gives it the real ready cycle and level.
 */

#ifndef DCRA_SMT_MEM_MSHR_HH
#define DCRA_SMT_MEM_MSHR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace smt {

/** Service level of a miss. */
enum class ServiceLevel : std::uint8_t {
    L1 = 1,   //!< hit in L1 (never allocates an MSHR)
    L2 = 2,   //!< L1 miss serviced by L2
    Memory = 3 //!< L1 and L2 miss serviced by main memory
};

/**
 * Fixed-size MSHR file for one cache.
 */
class MshrFile
{
  public:
    /** One in-flight miss. */
    struct Entry
    {
        Addr line = 0;
        Cycle ready = 0;
        ThreadID tid = invalidThread;
        ServiceLevel level = ServiceLevel::L2;
        bool isLoad = false;
        bool valid = false;
    };

    /** @param nEntries pool size. */
    explicit MshrFile(int nEntries);

    /** Entry holding this line, or nullptr. */
    const Entry *find(Addr line) const;

    /** True when no entry is free. */
    bool full() const { return liveCount == entries.size(); }

    /**
     * Allocate an entry; returns its slot. A @p ready of neverCycle
     * makes it pending (level must then be L2).
     * @pre !full() and no entry for this line exists.
     */
    int alloc(Addr line, Cycle ready, ThreadID tid, ServiceLevel level,
              bool isLoad);

    /** Give pending entry @p slot its outcome. */
    void settle(int slot, Cycle ready, ServiceLevel level);

    /** The entry in @p slot. */
    const Entry &
    entry(int slot) const
    {
        return entries[static_cast<std::size_t>(slot)];
    }

    /** Slot of an entry find() returned. */
    int
    slotOf(const Entry *e) const
    {
        return static_cast<int>(e - entries.data());
    }

    /**
     * Release all entries whose fill has arrived.
     * @return how many were released.
     */
    int retire(Cycle now);

    /** Outstanding load misses of a thread at a given level or
     *  worse. Inline: polled every cycle by policies and metrics. */
    int
    pendingLoads(ThreadID tid, ServiceLevel atLeast) const
    {
        int n = 0;
        for (int lvl = static_cast<int>(atLeast); lvl <= 3; ++lvl)
            n += loadCount[tid][lvl];
        return n;
    }

    /** Outstanding load misses at exactly the given level, all threads. */
    int outstandingLoads(ServiceLevel level) const;

    /** Outstanding load misses at the given level for one thread. */
    int
    outstandingLoads(ThreadID tid, ServiceLevel level) const
    {
        return loadCount[tid][static_cast<int>(level)];
    }

    /** Current number of live entries. */
    int live() const { return static_cast<int>(liveCount); }

    /** Pool capacity. */
    int capacity() const { return static_cast<int>(entries.size()); }

  private:
    std::vector<Entry> entries;
    std::size_t liveCount = 0;

    /**
     * Earliest ready cycle among live entries (neverCycle when
     * empty): the per-cycle retire() is a single compare in the
     * common nothing-arrives-this-cycle case instead of a scan of
     * the whole file. Recomputed only on the cycles a fill lands.
     */
    Cycle nextReady = neverCycle;

    /** Incremental counts: loadCount[tid][level] (levels 2 and 3). */
    int loadCount[maxThreads][4] = {};
    int memLoadTotal = 0;
};

} // namespace smt

#endif // DCRA_SMT_MEM_MSHR_HH
