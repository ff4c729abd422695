#include "mem/shared_cache.hh"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/logging.hh"
#include "prof/host_profiler.hh"
#include "telemetry/telemetry.hh"

namespace smt {

const char *
LlcPort::triggerName(Trigger t)
{
    static const char *const names[numTriggers] = {
        "post", "deadline", "demand-data-access", "demand-l2-loads",
        "demand-telemetry", "demand-zero-lookahead", "quantum-end"};
    return names[t];
}

std::string
validateSharedCacheParams(const SharedCacheParams &p, int numCores)
{
    char buf[256];
    if (numCores < 1) {
        std::snprintf(buf, sizeof(buf),
                      "LLC needs at least one core (got %d)",
                      numCores);
        return buf;
    }
    if (numCores > ResourceDomain::maxDomainClaimants) {
        std::snprintf(buf, sizeof(buf),
                      "LLC arbitration supports at most %d cores "
                      "(got %d)",
                      ResourceDomain::maxDomainClaimants, numCores);
        return buf;
    }
    if (p.mshrsPerCore < 1) {
        std::snprintf(buf, sizeof(buf),
                      "per-core LLC MSHR quota must be at least 1 "
                      "(got %d): a zero quota can never admit a "
                      "miss and deadlocks the first private-L2 miss",
                      p.mshrsPerCore);
        return buf;
    }
    if (p.mshrsTotal < 1) {
        std::snprintf(buf, sizeof(buf),
                      "LLC MSHR pool must be at least 1 (got %d)",
                      p.mshrsTotal);
        return buf;
    }
    if (p.mshrsPerCore > p.mshrsTotal) {
        std::snprintf(buf, sizeof(buf),
                      "per-core LLC MSHR quota %d exceeds the "
                      "shared pool of %d: a single core could "
                      "over-admit misses the pool cannot hold",
                      p.mshrsPerCore, p.mshrsTotal);
        return buf;
    }
    if (p.busLatency < 1) {
        std::snprintf(buf, sizeof(buf),
                      "LLC bus latency must be at least 1 cycle "
                      "(got %llu)",
                      static_cast<unsigned long long>(p.busLatency));
        return buf;
    }
    if (p.busWindow < p.busLatency) {
        std::snprintf(buf, sizeof(buf),
                      "LLC bus window (%llu cycles) is shorter than "
                      "one bus transaction (%llu cycles)",
                      static_cast<unsigned long long>(p.busWindow),
                      static_cast<unsigned long long>(p.busLatency));
        return buf;
    }
    return {};
}

const SharedCacheParams &
SharedCache::validated(const SharedCacheParams &p, int numCores)
{
    // Runs first in the member-init list: a bad core count must be a
    // fatal() here, not an assert in the ResourceDomain built below.
    const std::string err = validateSharedCacheParams(p, numCores);
    if (!err.empty())
        fatal("%s", err.c_str());
    return p;
}

std::vector<ResourceKind>
SharedCache::llcKinds(const SharedCacheParams &p, int numCores)
{
    (void)numCores;
    // MSHR and bus shares are *soft* entitlements, like core-level
    // DCRA's E_slow: they backpressure a claimant's own next
    // request but never hard-cap the pool (ungated cores hold
    // shareUnlimited), so neither kind declares a capacity for the
    // audit to enforce. mshrsTotal is the dealing basis for the
    // dynamic arbiters, not an admission limit. Ways are a hard
    // deal: every way belongs to exactly one core when partitioned.
    return {
        {"llc-mshr", 0},
        {"llc-bus", 0},
        {"llc-way", p.tags.assoc},
    };
}

SharedCache::SharedCache(const SharedCacheParams &params,
                         int numCores)
    : SharedCache(params, numCores,
                  makeLlcArbiter("static", [&] {
                      LlcArbiterConfig c;
                      c.numCores = numCores;
                      c.mshrsPerCore = params.mshrsPerCore;
                      c.mshrsTotal = params.mshrsTotal;
                      c.ways = params.tags.assoc;
                      return c;
                  }()))
{
}

SharedCache::SharedCache(const SharedCacheParams &params,
                         int numCores,
                         std::unique_ptr<ResourceArbiter> arbiter)
    : p(validated(params, numCores)), nCores(numCores),
      busSlotsPerWindow(
          static_cast<int>(p.busWindow / std::max<Cycle>(
              1, p.busLatency))),
      llc(p.tags), dom("llc", numCores, llcKinds(params, numCores)),
      arb(std::move(arbiter))
{
    SMT_ASSERT(arb != nullptr, "null LLC arbiter");

    arb->bindDomain({&dom});
    arbEvents = arb->arbEventMask();

    outstanding.resize(static_cast<std::size_t>(numCores));
    for (auto &v : outstanding)
        v.reserve(static_cast<std::size_t>(p.mshrsPerCore));
    busWin.assign(static_cast<std::size_t>(numCores), 0);
    busUsed.assign(static_cast<std::size_t>(numCores), 0);
    wayMask.assign(static_cast<std::size_t>(numCores),
                   Cache::allWays);
    wayCnt.assign(static_cast<std::size_t>(numCores), 0);
    lineOwner.assign(static_cast<std::size_t>(llc.numSets()) *
                         static_cast<std::size_t>(p.tags.assoc),
                     -1);
    sAcc.assign(static_cast<std::size_t>(numCores), 0);
    sMiss.assign(static_cast<std::size_t>(numCores), 0);
    sOwned.assign(static_cast<std::size_t>(numCores), 0);
    sArbWait.assign(static_cast<std::size_t>(numCores), 0);

    nextEpochAt = p.arbEpoch;
    syncWayMasks(0);
}

void
SharedCache::syncWayMasks(Cycle now)
{
    bool partitioned = false;
    std::vector<int> want(static_cast<std::size_t>(nCores), 0);
    for (int c = 0; c < nCores; ++c) {
        const int s = arb->shareOf(c, ChipWay);
        if (s != shareUnlimited) {
            partitioned = true;
            want[static_cast<std::size_t>(c)] = s;
        }
    }

    if (!partitioned) {
        // Unpartitioned LLC: full masks, no way accounting. A
        // dynamic arbiter may stop partitioning at any epoch, so the
        // previous deal (if any) must be undone here — restore full
        // fill masks and hand every dealt way back to the domain,
        // or cores stay restricted to their stale masks forever.
        for (int c = 0; c < nCores; ++c) {
            const std::size_t i = static_cast<std::size_t>(c);
            wayMask[i] = Cache::allWays;
            while (wayCnt[i] > 0) {
                dom.release(c, ChipWay);
                --wayCnt[i];
            }
        }
        return;
    }

    SMT_ASSERT(p.tags.assoc <= 32,
               "way partitioning supports at most 32 LLC ways "
               "(have %d)", p.tags.assoc);
    int total = 0;
    for (const int w : want) {
        SMT_ASSERT(w >= 1, "way-partitioning arbiter '%s' assigned "
                   "an empty way share", arb->name());
        total += w;
    }
    SMT_ASSERT(total == p.tags.assoc,
               "way-partitioning arbiter '%s' dealt %d of %d ways",
               arb->name(), total, p.tags.assoc);

    // Contiguous masks in core order, and the domain mirrors the
    // deal so conservation audits see it.
    int off = 0;
    for (int c = 0; c < nCores; ++c) {
        const std::size_t i = static_cast<std::size_t>(c);
        const int n = want[i];
        wayMask[i] = n >= 32 ? Cache::allWays
                             : ((1u << n) - 1u) << off;
        off += n;
        while (wayCnt[i] < n) {
            dom.acquire(c, ChipWay, now);
            ++wayCnt[i];
        }
        while (wayCnt[i] > n) {
            dom.release(c, ChipWay);
            --wayCnt[i];
        }
    }
}

void
SharedCache::advanceEpochs(Cycle now)
{
    if (p.arbEpoch == 0 || now < nextEpochAt)
        return;
    ProfScope ps(hprof, hsArbEpoch);
    while (now >= nextEpochAt)
        nextEpochAt += p.arbEpoch;
    arb->beginEpoch(++epochIdx, now);
    syncWayMasks(now);
}

void
SharedCache::setHostProfiler(HostProfiler *prof)
{
    hprof = prof;
    if (!prof)
        return;
    hsAccess = prof->scope("llc.access");
    hsArbEpoch = prof->scope("llc.arbEpoch");
}

void
SharedCache::releaseMshrs(int core, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        dom.release(core, ChipMshr);
        if (arbEvents & ArbEvRelease)
            arb->onRelease(core, ChipMshr);
    }
}

void
SharedCache::rollBusWindow(int core, std::uint64_t window)
{
    // The previous window's transactions leave the domain; the
    // counter starts over for the new window.
    for (int i = 0; i < busUsed[core]; ++i) {
        dom.release(core, ChipBus);
        if (arbEvents & ArbEvRelease)
            arb->onRelease(core, ChipBus);
    }
    busUsed[core] = 0;
    busWin[static_cast<std::size_t>(core)] = window;
}

void
SharedCache::ownLine(int core, int slot)
{
    const int prev = lineOwner[static_cast<std::size_t>(slot)];
    if (prev == core)
        return;
    if (prev >= 0)
        --sOwned[static_cast<std::size_t>(prev)];
    ++sOwned[static_cast<std::size_t>(core)];
    lineOwner[static_cast<std::size_t>(slot)] = core;
}

LlcResult
SharedCache::access(int core, Addr addr, Cycle now)
{
    SMT_ASSERT(core >= 0 && core < nCores, "bad core %d", core);
    ProfScope hps(hprof, hsAccess);
    advanceEpochs(now);
    ++sAcc[core];

    if (tlm && lastAccCycleT[static_cast<std::size_t>(core)] != now) {
        // First access of this core at timestamp `now`. Accesses of
        // one chip cycle all carry the same timestamp and arrive in
        // core-id order (the LlcPort resolves them in the serial
        // order), so finding the timestamp already opened by another
        // core means lower cores touched the LLC first this cycle —
        // a serial-order fact, identical for every --chip-jobs
        // value.
        lastAccCycleT[static_cast<std::size_t>(core)] = now;
        if (gateCycle == now) {
            ++sGateFollow[static_cast<std::size_t>(core)];
            char buf[64];
            std::snprintf(buf, sizeof(buf),
                          "{\"core\": %d, \"pos\": %d}", core,
                          gateEntrants);
            tlm->event(tlmTrack, now, "llc-gate", buf);
        } else {
            gateCycle = now;
            gateEntrants = 0;
        }
        ++gateEntrants;
    }

    // Retire this core's misses that completed by now; the vector is
    // bounded by the share, so the scan is a handful of compares.
    std::vector<Cycle> &out = outstanding[core];
    const std::size_t live0 = out.size();
    out.erase(std::remove_if(out.begin(), out.end(),
                             [now](Cycle r) { return r <= now; }),
              out.end());
    releaseMshrs(core, live0 - out.size());

    // MSHR-share backpressure: a core at its share starts no new
    // transaction until enough of its own misses retire. The start
    // time is the k-th smallest retire time, where k is how many
    // retirements free the first slot.
    Cycle start = now;
    const int mshrShareRaw = arb->shareOf(core, ChipMshr);
    SMT_ASSERT(mshrShareRaw == shareUnlimited || mshrShareRaw >= 1,
               "arbiter '%s' assigned core %d a non-positive LLC "
               "MSHR share (%d)", arb->name(), core, mshrShareRaw);
    const int mshrShare = mshrShareRaw == shareUnlimited
        ? std::numeric_limits<int>::max()
        : mshrShareRaw;
    if (static_cast<int>(out.size()) >= mshrShare) {
        std::vector<Cycle> sorted = out;
        std::sort(sorted.begin(), sorted.end());
        const std::size_t need =
            sorted.size() - static_cast<std::size_t>(mshrShare);
        start = std::max(start, sorted[need]);
        const std::size_t live1 = out.size();
        out.erase(std::remove_if(
                      out.begin(), out.end(),
                      [start](Cycle r) { return r <= start; }),
                  out.end());
        releaseMshrs(core, live1 - out.size());
    }

    // Bus-slot accounting: transactions per busWindow-cycle window,
    // enforced only when the arbiter caps the core (the "static"
    // arbiter never does, keeping its timing identical to the
    // pre-arbiter model). A core's accounting window only ever
    // advances: when share exhaustion pushed it into a later
    // window, a subsequent earlier-cycle request must not roll it
    // back and un-count the exhausted windows.
    std::uint64_t win = start / p.busWindow;
    if (win > busWin[static_cast<std::size_t>(core)])
        rollBusWindow(core, win);
    else
        win = busWin[static_cast<std::size_t>(core)];
    const int busShareRaw = arb->shareOf(core, ChipBus);
    if (busShareRaw != shareUnlimited) {
        SMT_ASSERT(busShareRaw >= 1,
                   "arbiter '%s' assigned core %d a non-positive "
                   "LLC bus share (%d)", arb->name(), core,
                   busShareRaw);
        const int busShare = std::min(busShareRaw,
                                      busSlotsPerWindow);
        // A gated core cannot start a transaction before the window
        // it is accounted in (its earlier windows' slots are spent).
        start = std::max(start,
                         static_cast<Cycle>(win) * p.busWindow);
        while (busUsed[core] >= busShare) {
            win = busWin[static_cast<std::size_t>(core)] + 1;
            start = std::max(start,
                             static_cast<Cycle>(win) * p.busWindow);
            rollBusWindow(core, win);
        }
    }
    ++busUsed[core];
    dom.acquire(core, ChipBus, start);
    if (arbEvents & ArbEvClaim)
        arb->onClaim(core, ChipBus, start);

    // Shared bus: one transaction at a time, fixed occupancy.
    const Cycle grant = std::max(start, busFreeAt);
    busFreeAt = grant + p.busLatency;
    sArbWait[static_cast<std::size_t>(core)] += grant - now;

    LlcResult res;
    res.hit = llc.access(addr);
    if (res.hit) {
        res.ready = grant + p.latency;
        return res;
    }
    ++sMiss[core];
    res.ready = grant + p.latency + p.memLatency;
    ownLine(core,
            llc.fillWays(addr,
                         wayMask[static_cast<std::size_t>(core)]));
    out.push_back(res.ready);
    dom.acquire(core, ChipMshr, now);
    if (arbEvents & ArbEvClaim)
        arb->onClaim(core, ChipMshr, now);
    if (arbEvents & ArbEvMiss)
        arb->onMiss(core, now);
    return res;
}

void
SharedCache::resetStats()
{
    llc.resetStats();
    std::fill(sAcc.begin(), sAcc.end(), 0);
    std::fill(sMiss.begin(), sMiss.end(), 0);
    std::fill(sArbWait.begin(), sArbWait.end(), 0);
    std::fill(sGateFollow.begin(), sGateFollow.end(), 0);
}

void
SharedCache::attachTelemetry(TelemetryHub &hub)
{
    tlm = &hub;
    tlmTrack = hub.track("llc");
    lastAccCycleT.assign(static_cast<std::size_t>(nCores),
                         ~static_cast<Cycle>(0));
    sGateFollow.assign(static_cast<std::size_t>(nCores), 0);
    for (int c = 0; c < nCores; ++c) {
        const std::string pre =
            "llc.c" + std::to_string(c) + ".";
        hub.rate(pre + "accesses", [this, c] { return sAcc[c]; });
        hub.rate(pre + "misses", [this, c] { return sMiss[c]; });
        hub.ratio(pre + "missRate", [this, c] { return sMiss[c]; },
                  [this, c] { return sAcc[c]; });
        hub.rate(pre + "busWait", [this, c] {
            return sArbWait[static_cast<std::size_t>(c)];
        });
        hub.counter(pre + "gateFollows", [this, c] {
            return sGateFollow[static_cast<std::size_t>(c)];
        });
    }
    arb->attachTelemetry(
        &hub, hub.track(std::string("arb:") + arb->name()));
}

void
SharedCache::auditInvariants() const
{
    dom.auditDomain();
    std::uint64_t owned = 0;
    for (int c = 0; c < nCores; ++c) {
        SMT_ASSERT(static_cast<int>(outstanding[c].size()) ==
                   dom.occupancy(c, ChipMshr),
                   "core %d: %zu outstanding misses but the domain "
                   "counts %d", c, outstanding[c].size(),
                   dom.occupancy(c, ChipMshr));
        const int share = arb->shareOf(c, ChipMshr);
        if (share != shareUnlimited) {
            SMT_ASSERT(share >= 1,
                       "arbiter '%s' holds a non-positive LLC MSHR "
                       "share (%d) for core %d", arb->name(), share,
                       c);
            SMT_ASSERT(static_cast<int>(outstanding[c].size()) <=
                       share,
                       "core %d exceeds its LLC MSHR share", c);
        }
        SMT_ASSERT(busUsed[c] == dom.occupancy(c, ChipBus),
                   "core %d: bus window count out of sync", c);
        owned += sOwned[c];
    }
    SMT_ASSERT(owned <= lineOwner.size(),
               "more owned LLC lines than line slots");
}

std::uint64_t
SharedCache::totalAccesses() const
{
    std::uint64_t s = 0;
    for (const std::uint64_t v : sAcc)
        s += v;
    return s;
}

std::uint64_t
SharedCache::totalMisses() const
{
    std::uint64_t s = 0;
    for (const std::uint64_t v : sMiss)
        s += v;
    return s;
}

} // namespace smt
