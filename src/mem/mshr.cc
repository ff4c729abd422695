#include "mem/mshr.hh"

#include "common/logging.hh"

namespace smt {

MshrFile::MshrFile(int nEntries)
    : entries(static_cast<std::size_t>(nEntries))
{
    SMT_ASSERT(nEntries > 0, "MSHR file needs at least one entry");
}

const MshrFile::Entry *
MshrFile::find(Addr line) const
{
    if (liveCount == 0)
        return nullptr;
    for (const auto &e : entries) {
        if (e.valid && e.line == line)
            return &e;
    }
    return nullptr;
}

int
MshrFile::alloc(Addr line, Cycle ready, ThreadID tid,
                ServiceLevel level, bool isLoad)
{
    SMT_ASSERT(!full(), "MSHR alloc on full file");
    SMT_ASSERT(ready != neverCycle || level == ServiceLevel::L2,
               "a pending MSHR entry counts as an L2 miss");
    for (auto &e : entries) {
        if (!e.valid) {
            e = Entry{line, ready, tid, level, isLoad, true};
            ++liveCount;
            if (ready < nextReady)
                nextReady = ready;
            if (isLoad) {
                ++loadCount[tid][static_cast<int>(level)];
                if (level == ServiceLevel::Memory)
                    ++memLoadTotal;
            }
            return slotOf(&e);
        }
    }
    panic("MSHR file inconsistent: full() false but no free entry");
}

void
MshrFile::settle(int slot, Cycle ready, ServiceLevel level)
{
    Entry &e = entries[static_cast<std::size_t>(slot)];
    SMT_ASSERT(e.valid && e.ready == neverCycle,
               "settling MSHR slot %d, which is not pending", slot);
    e.ready = ready;
    if (ready < nextReady)
        nextReady = ready;
    if (level == e.level)
        return;
    if (e.isLoad) {
        --loadCount[e.tid][static_cast<int>(e.level)];
        ++loadCount[e.tid][static_cast<int>(level)];
        if (level == ServiceLevel::Memory)
            ++memLoadTotal;
    }
    e.level = level;
}

int
MshrFile::retire(Cycle now)
{
    if (now < nextReady)
        return 0; // nothing can arrive yet: skip the scan
    int released = 0;
    Cycle soonest = neverCycle;
    for (auto &e : entries) {
        if (!e.valid)
            continue;
        if (e.ready <= now) {
            e.valid = false;
            --liveCount;
            ++released;
            if (e.isLoad) {
                --loadCount[e.tid][static_cast<int>(e.level)];
                if (e.level == ServiceLevel::Memory)
                    --memLoadTotal;
            }
        } else if (e.ready < soonest) {
            soonest = e.ready;
        }
    }
    nextReady = soonest;
    return released;
}

int
MshrFile::outstandingLoads(ServiceLevel level) const
{
    if (level == ServiceLevel::Memory)
        return memLoadTotal;
    int n = 0;
    for (const auto &e : entries) {
        if (e.valid && e.isLoad && e.level == level)
            ++n;
    }
    return n;
}

} // namespace smt
