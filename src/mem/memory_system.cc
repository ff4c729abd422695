#include "mem/memory_system.hh"

#include <algorithm>
#include <memory>

#include "common/logging.hh"
#include "telemetry/telemetry.hh"

namespace smt {

MemorySystem::MemorySystem(const MemParams &params, int numThreads)
    : p(params),
      nThreads(numThreads),
      l1iCache(std::make_unique<Cache>(p.l1i)),
      l1dCache(std::make_unique<Cache>(p.l1d)),
      l2Cache(std::make_unique<Cache>(p.l2)),
      mshrD(p.l1dMshrs),
      mshrI(p.l1iMshrs)
{
    SMT_ASSERT(numThreads >= 1 && numThreads <= maxThreads,
               "bad thread count %d", numThreads);
    for (int t = 0; t < numThreads; ++t) {
        itlbs.emplace_back(p.itlb);
        dtlbs.emplace_back(p.dtlb);
    }
    sL1dAcc.assign(numThreads, 0);
    sL1dMiss.assign(numThreads, 0);
    sL2Acc.assign(numThreads, 0);
    sL2Miss.assign(numThreads, 0);
    sDtlbMiss.assign(numThreads, 0);
}

MemAccessResult
MemorySystem::dataAccess(ThreadID tid, Addr addr, bool isLoad,
                         Cycle now)
{
    SMT_ASSERT(tid >= 0 && tid < nThreads, "bad tid %d", tid);

    if (p.perfectDcache) {
        ++sL1dAcc[tid];
        return {true, now + p.l1Latency, ServiceLevel::L1, false};
    }

    const Addr line = l1dCache->lineAddr(addr);

    // Admission control first so rejected accesses leave no trace in
    // the statistics and can retry without inflating counts. The
    // LRU-free probe is only needed when a miss could be refused
    // (MSHRs full); otherwise the later access() is the single tag
    // walk.
    const MshrFile::Entry *merged = mshrD.find(line);
    bool wouldHit = false;
    bool probed = false;
    if (!merged && mshrD.full()) {
        wouldHit = l1dCache->probe(addr);
        probed = true;
        if (!wouldHit)
            return {};
    }
    if (!l1dCache->reserveBank(addr, now))
        return {};

    // Committed to perform the access.
    const bool dtlbMiss = !dtlbs[tid].access(addr);
    const Cycle penalty = dtlbMiss ? p.tlbMissPenalty : 0;
    if (dtlbMiss)
        ++sDtlbMiss[tid];
    ++sL1dAcc[tid];

    if (merged) {
        // Same-line miss already in flight: inherit its fill time.
        ++sL1dMiss[tid];
        if (merged->ready == neverCycle) {
            // ...which is not known yet: so is ours.
            pendMerge(false, mshrD.slotOf(merged), tid, now,
                      now + p.l1Latency, penalty);
            return {true, neverCycle, ServiceLevel::L2, dtlbMiss, true};
        }
        const Cycle ready =
            std::max(merged->ready, now + p.l1Latency) + penalty;
        return {true, ready, merged->level, dtlbMiss};
    }

    const bool hit = l1dCache->access(addr);
    SMT_ASSERT(!probed || hit == wouldHit, "probe/access disagree");
    if (hit)
        return {true, now + p.l1Latency + penalty, ServiceLevel::L1,
                dtlbMiss};

    ++sL1dMiss[tid];
    ++sL2Acc[tid];
    ServiceLevel level = ServiceLevel::L2;
    Cycle ready = now + p.l1Latency + p.l2Latency;
    bool known = true;
    if (!l2Cache->access(addr)) {
        ++sL2Miss[tid];
        if (llc) {
            // CMP mode: the private-L2 miss goes to the shared LLC.
            // An LLC hit stays on chip (ServiceLevel::L2 — serviced
            // below L1 but short of memory); only a true LLC miss is
            // a memory-level access for MLP/phase classification.
            known = postLlc(addr, now, ready, level);
        } else {
            level = ServiceLevel::Memory;
            ready += p.memLatency;
        }
        l2Cache->fill(addr);
    }
    l1dCache->fill(addr);
    if (!known) {
        pendAlloc(false, mshrD.alloc(line, neverCycle, tid,
                                     ServiceLevel::L2, isLoad),
                  tid, isLoad, now, penalty);
        return {true, neverCycle, ServiceLevel::L2, dtlbMiss, true};
    }
    ready += penalty;
    mshrD.alloc(line, ready, tid, level, isLoad);
    return {true, ready, level, dtlbMiss};
}

FetchAccessResult
MemorySystem::instFetch(ThreadID tid, Addr pc, Cycle now)
{
    SMT_ASSERT(tid >= 0 && tid < nThreads, "bad tid %d", tid);

    const Addr line = l1iCache->lineAddr(pc);
    const bool itlbMiss = !itlbs[tid].access(pc);
    const Cycle penalty = itlbMiss ? p.tlbMissPenalty : 0;

    if (const MshrFile::Entry *m = mshrI.find(line)) {
        if (m->ready != neverCycle)
            return {true, false, m->ready + penalty};
        return {true, false, neverCycle, true,
                pendMerge(true, mshrI.slotOf(m), tid, now, 0, penalty)};
    }

    if (l1iCache->access(pc)) {
        if (penalty)
            return {true, false, now + penalty};
        return {true, true, now};
    }

    if (mshrI.full())
        return {};

    ServiceLevel level = ServiceLevel::L2;
    Cycle ready = now + p.l1Latency + p.l2Latency;
    bool known = true;
    if (!l2Cache->access(pc)) {
        if (llc) {
            known = postLlc(pc, now, ready, level);
        } else {
            level = ServiceLevel::Memory;
            ready += p.memLatency;
        }
        l2Cache->fill(pc);
    }
    l1iCache->fill(pc);
    if (!known) {
        const int slot =
            mshrI.alloc(line, neverCycle, tid, ServiceLevel::L2, false);
        return {true, false, neverCycle, true,
                pendAlloc(true, slot, tid, false, now, penalty)};
    }
    ready += penalty;
    mshrI.alloc(line, ready, tid, level, false);
    return {true, false, ready};
}

void
MemorySystem::attachLlc(LlcPort *port, int coreId_, Cycle lookahead_,
                        LlcPort::Trigger syncWhy_, PendingSink sink_)
{
    llc = port;
    coreId = coreId_;
    lookahead = lookahead_;
    syncWhy = syncWhy_;
    sink = std::move(sink_);
    // Sized here, when a run starts, not at construction (see
    // ChipSimulator::buildChip on the heap pattern). Every pending
    // alloc holds an MSHR; merges onto them are rare beyond that.
    pend.reserve(static_cast<std::size_t>(2 * (p.l1dMshrs + p.l1iMshrs)));
    lateMem.reserve(static_cast<std::size_t>(p.l1dMshrs));
}

bool
MemorySystem::postLlc(Addr addr, Cycle t, Cycle &ready,
                      ServiceLevel &level)
{
    postedReq = llc->post(coreId, t, addr, ready);
    if (syncWhy != LlcPort::numTriggers)
        llc->await(coreId, postedReq, syncWhy);
    if (postedReq >= llc->resolved(coreId))
        return false;
    const LlcResult lr = llc->result(coreId, postedReq);
    level = lr.hit ? ServiceLevel::L2 : ServiceLevel::Memory;
    ready = lr.ready;
    return true;
}

std::uint32_t
MemorySystem::pendAlloc(bool inst, int slot, ThreadID tid, bool load,
                        Cycle now, Cycle penalty)
{
    PendingAccess a;
    a.req = postedReq;
    a.posted = now;
    a.due = now + lookahead;
    a.penalty = penalty;
    a.slot = slot;
    a.tid = tid;
    a.inst = inst;
    a.load = load;
    if (load) {
        ++pendLoads;
        lastLoadReq = a.req;
    }
    if (a.due < nextDue) {
        nextDue = a.due;
        dueReq = a.req;
    }
    return addPending(a);
}

std::uint32_t
MemorySystem::pendMerge(bool inst, int slot, ThreadID tid, Cycle now,
                        Cycle floor, Cycle penalty)
{
    // The merge shares the request (and due cycle) of the pending
    // alloc that holds the slot.
    for (const PendingAccess &alloc : pend) {
        if (alloc.inst != inst || alloc.merge || alloc.slot != slot)
            continue;
        PendingAccess a = alloc;
        a.posted = now;
        a.floor = floor;
        a.penalty = penalty;
        a.tid = tid;
        a.merge = true;
        a.load = false;
        return addPending(a);
    }
    panic("pending MSHR slot %d has no pending access", slot);
}

std::uint32_t
MemorySystem::addPending(PendingAccess a)
{
    a.ticket = nextTicket++;
    a.owner = noOwner;
    pend.push_back(a);
    return a.ticket;
}

void
MemorySystem::settleDue(Cycle now)
{
    if (llc->resolved(coreId) != seenResolved)
        applyResolved(now);
    while (nextDue <= now) {
        // Its outcome is needed this cycle: resolve it (and every
        // request before it) here, waiting for the cores it needs.
        llc->await(coreId, dueReq, LlcPort::TrigDeadline);
        applyResolved(now);
    }
}

void
MemorySystem::settleNow(LlcPort::Trigger why)
{
    llc->await(coreId, lastLoadReq, why);
    applyResolved(curCycle);
}

void
MemorySystem::settleAll(Cycle now)
{
    if (pend.empty())
        return;
    applyResolved(now);
    SMT_ASSERT(pend.empty(), "core %d: %zu pending accesses unresolved",
               coreId, pend.size());
}

void
MemorySystem::applyResolved(Cycle seenFrom)
{
    const std::uint64_t done = llc->resolved(coreId);
    seenResolved = done;
    nextDue = neverCycle;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < pend.size(); ++i) {
        const PendingAccess a = pend[i];
        if (a.req >= done) {
            if (a.due < nextDue) {
                nextDue = a.due;
                dueReq = a.req;
            }
            pend[keep++] = a;
            continue;
        }
        // A merge follows the alloc it joined (same request), so the
        // MSHR entry is settled by the time the merge reads it.
        MshrFile &mshr = a.inst ? mshrI : mshrD;
        Cycle ready;
        ServiceLevel level;
        if (a.merge) {
            const MshrFile::Entry &e = mshr.entry(a.slot);
            ready = std::max(e.ready, a.floor) + a.penalty;
            level = e.level;
        } else {
            const LlcResult lr = llc->result(coreId, a.req);
            level = lr.hit ? ServiceLevel::L2 : ServiceLevel::Memory;
            ready = lr.ready + a.penalty;
            mshr.settle(a.slot, ready, level);
            if (a.load) {
                --pendLoads;
                if (level == ServiceLevel::Memory && a.posted < seenFrom)
                    lateMem.emplace_back(a.posted, seenFrom);
            }
        }
        sink(a, ready, level);
    }
    pend.resize(keep);
}

void
MemorySystem::registerTelemetry(TelemetryHub &hub,
                                const std::string &prefix)
{
    for (int t = 0; t < nThreads; ++t) {
        const std::string pre =
            prefix + "t" + std::to_string(t) + ".";
        hub.ratio(
            pre + "l1dMissRate",
            [this, t] { return sL1dMiss[t]; },
            [this, t] { return sL1dAcc[t]; });
        hub.ratio(
            pre + "l2MissRate",
            [this, t] { return sL2Miss[t]; },
            [this, t] { return sL2Acc[t]; });
    }
    hub.gauge(prefix + "mem.mshrD", [this] {
        return static_cast<double>(mshrD.live());
    });
    hub.gauge(prefix + "mem.mshrI", [this] {
        return static_cast<double>(mshrI.live());
    });
    hub.gauge(prefix + "mem.outstanding", [this] {
        return static_cast<double>(outstandingMemLoads());
    });
}

void
MemorySystem::resetStats()
{
    l1iCache->resetStats();
    l1dCache->resetStats();
    l2Cache->resetStats();
    std::fill(sL1dAcc.begin(), sL1dAcc.end(), 0);
    std::fill(sL1dMiss.begin(), sL1dMiss.end(), 0);
    std::fill(sL2Acc.begin(), sL2Acc.end(), 0);
    std::fill(sL2Miss.begin(), sL2Miss.end(), 0);
    std::fill(sDtlbMiss.begin(), sDtlbMiss.end(), 0);
}

} // namespace smt
