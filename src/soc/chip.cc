#include "soc/chip.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "prof/host_profiler.hh"
#include "telemetry/telemetry.hh"
#include "trace/bench_profile.hh"

namespace smt {

ChipSimulator::CtxTotals
ChipSimulator::CtxTotals::operator-(const CtxTotals &o) const
{
    CtxTotals r;
    r.committed = committed - o.committed;
    r.fetched = fetched - o.fetched;
    r.fetchedWrongPath = fetchedWrongPath - o.fetchedWrongPath;
    r.squashed = squashed - o.squashed;
    r.condBranches = condBranches - o.condBranches;
    r.mispredicts = mispredicts - o.mispredicts;
    r.flushes = flushes - o.flushes;
    r.l1dAccesses = l1dAccesses - o.l1dAccesses;
    r.l1dMisses = l1dMisses - o.l1dMisses;
    r.l2Accesses = l2Accesses - o.l2Accesses;
    r.l2Misses = l2Misses - o.l2Misses;
    return r;
}

ChipSimulator::CtxTotals &
ChipSimulator::CtxTotals::operator+=(const CtxTotals &o)
{
    committed += o.committed;
    fetched += o.fetched;
    fetchedWrongPath += o.fetchedWrongPath;
    squashed += o.squashed;
    condBranches += o.condBranches;
    mispredicts += o.mispredicts;
    flushes += o.flushes;
    l1dAccesses += o.l1dAccesses;
    l1dMisses += o.l1dMisses;
    l2Accesses += o.l2Accesses;
    l2Misses += o.l2Misses;
    return *this;
}

ChipSimulator::ChipSimulator(const SimConfig &cfg_,
                             const std::vector<std::string> &benches,
                             PolicyKind policyKind)
    : ChipSimulator(cfg_, benches, policyKind,
                    makeAllocator(cfg_.soc.allocator))
{
}

ChipSimulator::ChipSimulator(
    const SimConfig &cfg_, const std::vector<std::string> &benches,
    PolicyKind policyKind,
    std::unique_ptr<ThreadToCoreAllocator> allocator)
    : ChipSimulator(cfg_, benches, policyKind, nullptr,
                    std::move(allocator))
{
}

ChipSimulator::ChipSimulator(const SimConfig &cfg_,
                             const std::vector<std::string> &benches,
                             std::unique_ptr<Policy> customPolicy)
    // The kind is unused: the injected instance drives the one core.
    : ChipSimulator(cfg_, benches, PolicyKind::Icount,
                    std::move(customPolicy),
                    makeAllocator(cfg_.soc.allocator))
{
}

ChipSimulator::ChipSimulator(
    const SimConfig &cfg_, const std::vector<std::string> &benches,
    PolicyKind policyKind, std::unique_ptr<Policy> customPolicy,
    std::unique_ptr<ThreadToCoreAllocator> allocator)
    : soc(cfg_.soc), commitWidth(cfg_.core.commitWidth),
      benchNames(benches), nThreads(static_cast<int>(benches.size())),
      nCores(cfg_.soc.numCores), alloc(std::move(allocator))
{
    if (nCores < 1)
        fatal("chip needs at least one core (got %d)", nCores);
    SMT_ASSERT(alloc != nullptr, "null allocator");
    SMT_ASSERT(!benches.empty(), "empty workload");
    SMT_ASSERT(!customPolicy || nCores == 1,
               "an injected policy drives one core, not %d", nCores);

    // One core is the paper's single-core machine: the context
    // count follows the workload. Multi-core chips have a fixed
    // context capacity per core and threads move between cores, so
    // capacity is part of the configuration.
    nCtx = nCores == 1 ? nThreads : soc.contextsPerCore;
    if (nCtx < 1 || nCtx > maxThreads) {
        fatal("contexts per core %d out of range (1..%d)", nCtx,
              maxThreads);
    }
    if (nThreads > nCores * nCtx) {
        fatal("workload has %d threads; the chip offers %d cores x "
              "%d contexts = %d",
              nThreads, nCores, nCtx, nCores * nCtx);
    }

    buildChip(cfg_, policyKind, std::move(customPolicy));
    prewarmChip();
}

ChipSimulator::~ChipSimulator()
{
    stopTickWorkers();
    // Free the cores' parts in reverse allocation order (pipeline,
    // generators, policy, predictor, memory) before the bookkeeping;
    // see buildChip for why the heap pattern matters.
    for (Core &core : cores)
        core.pipe.reset();
    gens.clear();
    for (Core &core : cores) {
        core.pol.reset();
        core.bpred.reset();
        core.mem.reset();
    }
}

void
ChipSimulator::buildChip(const SimConfig &cfg, PolicyKind policyKind,
                         std::unique_ptr<Policy> customPolicy)
{
    SmtConfig coreCfg = cfg.core;
    coreCfg.numThreads = nCtx;

    if (nCores > 1) {
        const SharedCacheParams lp = llcParams(cfg);
        LlcArbiterConfig ac;
        ac.numCores = nCores;
        ac.mshrsPerCore = lp.mshrsPerCore;
        ac.mshrsTotal = lp.mshrsTotal;
        ac.ways = lp.tags.assoc;
        ac.busSlotsPerWindow = static_cast<int>(
            lp.busWindow / std::max<Cycle>(1, lp.busLatency));
        llc = std::make_unique<SharedCache>(
            lp, nCores, makeLlcArbiter(cfg.soc.llcArbiter, ac));
    }

    // Initial placement: the allocator's cold-start decision (all
    // allocators spread by id, so cold start never differs between
    // them; one core has nothing to decide). Contexts are handed out
    // in thread-id order, so the occupied contexts of every core
    // form a prefix.
    //
    // Chips are built and torn down many times per sweep or
    // benchmark, so the single-core one allocates no temporaries and
    // nothing but its placement before its parts (and ~ChipSimulator
    // frees the parts in reverse): heap holes left behind let later
    // small allocations unpin the heap top, and glibc then trims it
    // and faults it back in on every construction (measured: 4x the
    // page faults and ~2x the set-up time of five 4-thread
    // machines).
    const ChipTopology topo{nCores, nCtx};
    coreOf = nCores == 1
        ? std::vector<int>(static_cast<std::size_t>(nThreads), 0)
        : alloc->allocate(topo,
                          std::vector<ThreadPerfSample>(
                              static_cast<std::size_t>(nThreads)),
                          0);
    SMT_ASSERT(static_cast<int>(coreOf.size()) == nThreads,
               "allocator returned %zu placements for %d threads",
               coreOf.size(), nThreads);
    ctxOf.assign(static_cast<std::size_t>(nThreads), -1);
    for (int s = 0; s < nThreads; ++s) {
        const int c = coreOf[s];
        SMT_ASSERT(c >= 0 && c < nCores, "bad initial core %d", c);
        ctxOf[s] = static_cast<int>(
            std::count(coreOf.begin(), coreOf.begin() + s, c));
        SMT_ASSERT(ctxOf[s] < nCtx, "core %d over capacity", c);
    }

    gens.resize(static_cast<std::size_t>(nThreads));
    cores.resize(static_cast<std::size_t>(nCores));
    for (int c = 0; c < nCores; ++c) {
        Core &core = cores[c];
        core.mem = std::make_unique<MemorySystem>(cfg.mem, nCtx);
        core.bpred =
            std::make_unique<BranchPredictor>(cfg.bpred, nCtx);
        core.pol = customPolicy ? std::move(customPolicy)
                                : makePolicy(policyKind, cfg.policy);

        // Generator seeds are per software thread and stable across
        // migrations: a thread keeps its stream on every core. Each
        // is allocated next to its first core's state.
        for (int s = 0; s < nThreads; ++s) {
            if (coreOf[s] == c) {
                gens[s] = std::make_unique<SyntheticTraceGenerator>(
                    benchProfile(benchNames[s]),
                    cfg.seed + 7919ull * static_cast<std::uint64_t>(s));
            }
        }

        std::vector<Pipeline::ThreadProgram> programs(
            static_cast<std::size_t>(nCtx));
        for (int s = 0; s < nThreads; ++s) {
            if (coreOf[s] != c)
                continue;
            Pipeline::ThreadProgram &prog = programs[ctxOf[s]];
            prog.trace = gens[s].get();
            prog.profile = &gens[s]->profile();
            prog.addrBase =
                static_cast<Addr>(s) * threadAddrStride;
        }
        core.pipe = std::make_unique<Pipeline>(
            coreCfg, *core.mem, *core.bpred, *core.pol,
            std::move(programs));
    }

    homes.resize(static_cast<std::size_t>(nThreads));
    for (int s = 0; s < nThreads; ++s)
        settleHome(s, coreOf[s], ctxOf[s]);
    indexThreadsByCore();

    intervalBase.assign(static_cast<std::size_t>(nThreads), {});
    nextEpochAt = soc.epochCycles;
}

Cycle
ChipSimulator::llcLookahead() const
{
    // No LLC outcome reaches a core sooner than this after the
    // access that missed its private L2.
    const MemParams &mp = cores[0].mem->params();
    return mp.l1Latency + mp.l2Latency + llc->params().latency;
}

SharedCacheParams
ChipSimulator::llcParams(const SimConfig &cfg)
{
    SharedCacheParams lp = cfg.soc.llc;
    // The LLC's backing-memory latency always follows the hierarchy
    // configuration (Figure 7 style sweeps move it).
    lp.memLatency = cfg.mem.memLatency;
    if (cfg.soc.llcWays > 0)
        lp.tags.assoc = cfg.soc.llcWays;
    return lp;
}

void
ChipSimulator::settleHome(int thread, int core, int ctx)
{
    ThreadHome &h = homes[thread];
    h.core = core;
    h.ctx = ctx;
    h.mem = cores[core].mem.get();
    h.committedCtr = &cores[core].pipe->stats().committed[ctx];
    h.attachAt = readCtx(core, ctx);
    h.committedBias = h.accum.committed - h.attachAt.committed;
}

void
ChipSimulator::prewarmChip()
{
    for (int c = 0; c < nCores; ++c)
        prewarmCore(c);

    // The shared LLC starts holding every thread's near/mid/code
    // regions (the same regions the private L2s hold).
    if (llc) {
        const int line = cores[0].mem->params().l1d.lineSize;
        for (int s = 0; s < nThreads; ++s) {
            const Addr base =
                static_cast<Addr>(s) * threadAddrStride;
            const BenchProfile &prof = benchProfile(benchNames[s]);
            for (Addr off = 0; off < prof.midBytes;
                 off += static_cast<Addr>(line))
                llc->fill(base + layout::midBase + off);
            for (Addr off = 0; off < prof.nearBytes;
                 off += static_cast<Addr>(line))
                llc->fill(base + layout::nearBase + off);
            for (Addr off = 0; off < prof.codeFootprint;
                 off += static_cast<Addr>(line))
                llc->fill(base + layout::codeBase + off);
        }
        llc->resetStats();
    }
}

void
ChipSimulator::prewarmCore(int c)
{
    // Traces stand for the middle of a long-running execution
    // (SimPoint-style), so the frequently reused regions -- code,
    // the near data set, and the L2-resident mid set -- start
    // resident, as they would be hundreds of millions of
    // instructions in. The far/stream regions stay cold on purpose:
    // missing on them *is* their steady state. The core's threads
    // are visited in thread-id order, which is their context order.
    MemorySystem &mem = *cores[c].mem;
    const Addr line = static_cast<Addr>(mem.params().l1d.lineSize);
    const Addr page = mem.params().dtlb.pageBytes;
    const auto base = [](int s) {
        return static_cast<Addr>(s) * threadAddrStride;
    };

    // Fill order matters when the combined footprints exceed the L2:
    // least-critical first (mid), code last, and code interleaved
    // across threads so no thread's working set is wiped wholesale.
    for (int s = 0; s < nThreads; ++s) {
        if (coreOf[s] != c)
            continue;
        const BenchProfile &prof = benchProfile(benchNames[s]);
        for (Addr off = 0; off < prof.midBytes; off += line)
            mem.l2().fill(base(s) + layout::midBase + off);
        for (Addr off = 0; off < prof.midBytes; off += page)
            mem.dtlb(ctxOf[s]).access(base(s) + layout::midBase + off);
    }
    Addr maxCode = 0;
    for (int s = 0; s < nThreads; ++s) {
        if (coreOf[s] != c)
            continue;
        const BenchProfile &prof = benchProfile(benchNames[s]);
        for (Addr off = 0; off < prof.nearBytes; off += line) {
            const Addr a = base(s) + layout::nearBase + off;
            mem.l1d().fill(a);
            mem.l2().fill(a);
        }
        for (Addr off = 0; off < prof.nearBytes; off += page)
            mem.dtlb(ctxOf[s]).access(base(s) + layout::nearBase + off);
        for (Addr off = 0; off < prof.codeFootprint; off += page)
            mem.itlb(ctxOf[s]).access(base(s) + layout::codeBase + off);
        maxCode = std::max(maxCode, prof.codeFootprint);
    }
    for (Addr off = 0; off < maxCode; off += line) {
        for (int s = 0; s < nThreads; ++s) {
            if (coreOf[s] != c ||
                off >= benchProfile(benchNames[s]).codeFootprint)
                continue;
            const Addr a = base(s) + layout::codeBase + off;
            mem.l1i().fill(a);
            mem.l2().fill(a);
        }
    }
    mem.resetStats();
}

ChipSimulator::CtxTotals
ChipSimulator::readCtx(int core, int ctx) const
{
    const PipelineStats &ps = cores[core].pipe->stats();
    const MemorySystem &mem = *cores[core].mem;
    CtxTotals t;
    t.committed = ps.committed[ctx];
    t.fetched = ps.fetched[ctx];
    t.fetchedWrongPath = ps.fetchedWrongPath[ctx];
    t.squashed = ps.squashed[ctx];
    t.condBranches = ps.condBranches[ctx];
    t.mispredicts = ps.mispredicts[ctx];
    t.flushes = ps.flushes[ctx];
    t.l1dAccesses = mem.l1dAccesses(ctx);
    t.l1dMisses = mem.l1dMisses(ctx);
    t.l2Accesses = mem.l2DataAccesses(ctx);
    t.l2Misses = mem.l2DataMisses(ctx);
    return t;
}

ChipSimulator::CtxTotals
ChipSimulator::totalsOf(int thread) const
{
    const ThreadHome &h = homes[thread];
    CtxTotals t = h.accum;
    t += readCtx(h.core, h.ctx) - h.attachAt;
    return t;
}

void
ChipSimulator::indexThreadsByCore()
{
    for (Core &core : cores)
        core.threadCtxMask = 0;
    for (int s = 0; s < nThreads; ++s)
        cores[coreOf[s]].threadCtxMask |= 1u << ctxOf[s];
}

void
ChipSimulator::tickQuantum(Cycle q)
{
    const Cycle from = cycle + 1;
    cycle += q;
    if (workers.empty()) {
        tickCores(0, from, cycle);
        if (wavefront)
            settleQuantum(from);
        return;
    }
    // Publish the quantum end, tick worker 0's cores on this thread,
    // then wait for the rest: once awaitAll returns, every core's
    // ticks (and the requests they posted) happened-before anything
    // the main thread does next.
    wavefront->beginQuantum(cycle);
    tickCores(0, from, cycle);
    if (hprof) {
        const std::uint64_t t0 = hprof->nowNs();
        wavefront->awaitAll(cycle);
        hprof->add(hsMainAwait, t0, hprof->nowNs());
    } else {
        wavefront->awaitAll(cycle);
    }
    settleQuantum(from);
}

void
ChipSimulator::tickCores(int w, Cycle from, Cycle to)
{
    // Cycle by cycle, ascending core order within a cycle: the order
    // that makes the wavefront's waits-for relation acyclic — see
    // soc/tick_wavefront.hh.
    for (Cycle t = from; t <= to; ++t) {
        const std::size_t i = static_cast<std::size_t>(t - from);
        CycleSample *const row = samples.data() + i;
        // Every core times the same cycles, so per-core scope totals
        // stay comparable.
        const bool timed = hprof && t % hprofEvery == 0;
        for (int c = w; c < nCores; c += nTickWorkers) {
            Core &core = cores[static_cast<std::size_t>(c)];
            if (timed) {
                const std::uint64_t t0 = hprof->nowNs();
                core.pipe->tick();
                hprof->add(hsCoreTick[static_cast<std::size_t>(c)], t0,
                           hprof->nowNs());
            } else {
                core.pipe->tick();
            }
            std::uint32_t slow = 0;
            for (std::uint32_t m = core.threadCtxMask; m; m &= m - 1) {
                slow += core.mem->pendingL1DLoads(
                            __builtin_ctz(m)) > 0 ? 1 : 0;
            }
            row[static_cast<std::size_t>(c) * maxQuantum] = {
                slow, static_cast<std::uint32_t>(
                          core.mem->outstandingMemLoads())};
            if (!wavefront)
                continue;
            if (!core.mem->lateMemLoads().empty())
                addLateMemLoads(c, from);
            wavefront->coreDone(c, t);
        }
    }
}

void
ChipSimulator::addLateMemLoads(int c, Cycle from)
{
    MemorySystem &mem = *cores[static_cast<std::size_t>(c)].mem;
    for (const auto &late : mem.lateMemLoads()) {
        SMT_ASSERT(late.first >= from,
                   "late memory load from before the quantum");
        for (Cycle t = late.first; t < late.second; ++t) {
            samples[static_cast<std::size_t>(c) * maxQuantum +
                    static_cast<std::size_t>(t - from)]
                .memLoads += 1;
        }
    }
    mem.clearLateMemLoads();
}

void
ChipSimulator::settleQuantum(Cycle from)
{
    // Every pair through the quantum's end is complete, so every
    // request is resolvable: resolve the rest, and let each core
    // take its outcomes now, before chipWork and sampling read any
    // core state.
    wavefront->resolveAll();
    for (int c = 0; c < nCores; ++c) {
        cores[static_cast<std::size_t>(c)].mem->settleAll(cycle);
        addLateMemLoads(c, from);
    }
}

void
ChipSimulator::workerLoop(int w, Cycle last)
{
    const int idleScope =
        hprof ? hsWorkerIdle[static_cast<std::size_t>(w - 1)] : 0;
    for (;;) {
        Cycle end;
        if (hprof) {
            const std::uint64_t t0 = hprof->nowNs();
            end = wavefront->awaitQuantum(last);
            hprof->add(idleScope, t0, hprof->nowNs());
        } else {
            end = wavefront->awaitQuantum(last);
        }
        if (end == TickWavefront::stopCycle)
            return;
        tickCores(w, last + 1, end);
        last = end;
    }
}

void
ChipSimulator::startWavefront()
{
    if (nCores <= 1)
        return;
    int w = soc.chipJobs;
    if (w <= 0)
        w = static_cast<int>(std::thread::hardware_concurrency());
    w = std::min(std::max(w, 1), nCores);

    // Every multi-core run reaches the LLC through the wavefront's
    // split transactions, serial or not; it and the cores' pending
    // state are sized here, not at construction (see buildChip).
    const MemParams &mp = cores[0].mem->params();
    wavefront = std::make_unique<TickWavefront>(
        *llc, nCores, cycle, mp.l1dMshrs + mp.l1iMshrs + 1);
    const Cycle lookahead = llcLookahead();
    for (int c = 0; c < nCores; ++c) {
        Core &core = cores[static_cast<std::size_t>(c)];
        // Readers that need an outcome the cycle it is made await
        // every request at post.
        LlcPort::Trigger sync = LlcPort::numTriggers;
        if (lookahead == 0)
            sync = LlcPort::TrigZeroLookahead;
        else if (telem)
            sync = LlcPort::TrigTelemetry;
        else if (core.pol->eventMask() & EvDataAccess)
            sync = LlcPort::TrigDataAccess;
        Pipeline *const pipe = core.pipe.get();
        core.mem->attachLlc(
            wavefront.get(), c, lookahead, sync,
            [pipe](const MemorySystem::PendingAccess &p, Cycle ready,
                   ServiceLevel level) {
                pipe->settlePending(p, ready, level);
            });
    }
    if (w <= 1)
        return;

    nTickWorkers = w;
    if (hprof) {
        // Scope registration is single-threaded: the wavefront's
        // blocked-wait scopes (wave.c<k>.gate) and the per-worker
        // idle scopes must exist before the first worker spawns.
        wavefront->setHostProfiler(hprof);
        hsMainAwait = hprof->scope("wave.main.await");
        hsWorkerIdle.clear();
        for (int i = 1; i < w; ++i)
            hsWorkerIdle.push_back(hprof->scope(
                "wave.w" + std::to_string(i) + ".idle"));
    }
    workers.reserve(static_cast<std::size_t>(w - 1));
    for (int i = 1; i < w; ++i)
        workers.emplace_back(
            [this, i, start = cycle] { workerLoop(i, start); });
}

void
ChipSimulator::stopTickWorkers()
{
    if (workers.empty())
        return;
    wavefront->requestStop();
    for (std::thread &th : workers)
        th.join();
    workers.clear();
    if (hprof) {
        // The workers joined, so the per-core wait stats are stable;
        // record them into the profile before the wavefront dies.
        static const char *const boundNames[numQuantumBounds] = {
            "commit", "epoch", "drain", "cycle-cap", "audit",
            "telemetry", "buffer"};
        std::string cfgRec =
            "{\"type\": \"wave-config\", \"workers\": " +
            std::to_string(nTickWorkers) +
            ", \"cores\": " + std::to_string(nCores) +
            ", \"quanta\": " + fmtU64(nQuanta) +
            ", \"quantumCycles\": " + fmtU64(quantumCycles) +
            ", \"quantumEnds\": {";
        for (int b = 0; b < numQuantumBounds; ++b) {
            cfgRec += std::string(b ? ", " : "") + "\"" +
                      boundNames[b] + "\": " + fmtU64(quantumEnds[b]);
        }
        cfgRec += "}, \"lookahead\": " + fmtU64(llcLookahead()) +
                  ", \"llcPosted\": " + fmtU64(wavefront->posted()) +
                  ", \"resolvedBy\": {";
        std::uint64_t blocked = 0;
        for (int c = 0; c < nCores; ++c)
            blocked += wavefront->waveStats(c).gateWaits;
        for (int k = 0; k < LlcPort::numTriggers; ++k) {
            const auto why = static_cast<LlcPort::Trigger>(k);
            cfgRec += std::string(k ? ", " : "") + "\"" +
                      LlcPort::triggerName(why) +
                      "\": " + fmtU64(wavefront->resolvedBy(why));
        }
        hprof->record(cfgRec + "}, \"blockedWaits\": " +
                      fmtU64(blocked) + "}");
        for (int c = 0; c < nCores; ++c) {
            const TickWavefront::WaveStats &ws =
                wavefront->waveStats(c);
            std::string rec =
                "{\"type\": \"wavefront\", \"core\": " +
                std::to_string(c) +
                ", \"worker\": " + std::to_string(c % nTickWorkers) +
                ", \"gateWaits\": " + fmtU64(ws.gateWaits) +
                ", \"spinIters\": " + fmtU64(ws.spinIters) +
                ", \"yieldIters\": " + fmtU64(ws.yieldIters) +
                ", \"yieldTransitions\": " +
                fmtU64(ws.yieldTransitions) +
                ", \"waitNs\": " + fmtU64(ws.waitNs) +
                ", \"awaited\": [";
            for (std::size_t k = 0; k < ws.awaited.size(); ++k) {
                if (k)
                    rec += ", ";
                rec += fmtU64(ws.awaited[k]);
            }
            rec += "]}";
            hprof->record(std::move(rec));
        }
    }
    nTickWorkers = 1;
}

void
ChipSimulator::setTelemetry(TelemetryHub *hub)
{
    telem = hub;
    if (!telem)
        return;
    // One core has no allocator to trace and nowhere to migrate to:
    // its pipeline's channels (per-thread IPC included) are
    // registered unprefixed and the core0 track is the only one.
    const bool multi = nCores > 1;
    if (multi)
        allocTrack = telem->track("alloc");
    coreTracks.clear();
    for (int c = 0; c < nCores; ++c) {
        coreTracks.push_back(
            telem->track("core" + std::to_string(c)));
        cores[c].pipe->registerTelemetry(
            *telem, multi ? "c" + std::to_string(c) + "." : "");
    }
    // Software threads migrate between cores, so chip-level
    // per-thread IPC reads the migration-proof committed totals, not
    // any one pipeline's counters.
    for (int s = 0; multi && s < nThreads; ++s) {
        telem->rate("t" + std::to_string(s) + ".ipc",
                    [this, s] { return committedOf(s); });
    }
    if (llc)
        llc->attachTelemetry(*telem);
    telemSlow.assign(static_cast<std::size_t>(nThreads), false);
}

void
ChipSimulator::setHostProfiler(HostProfiler *prof)
{
    if (nCores == 1) {
        // The single-core machine: the pipeline's own unprefixed
        // stage scopes are the whole profile (no epochs, no
        // migrations, no per-core tick timing to add).
        cores[0].pipe->setHostProfiler(prof, "");
        return;
    }
    hprof = prof;
    hsCoreTick.clear();
    if (llc)
        llc->setHostProfiler(prof);
    if (!prof) {
        for (Core &core : cores)
            core.pipe->setHostProfiler(nullptr, "");
        hprofEvery = 0;
        return;
    }
    hprofEvery = prof->sampleEvery();
    for (int c = 0; c < nCores; ++c) {
        const std::string cp = "c" + std::to_string(c) + ".";
        hsCoreTick.push_back(prof->scope(cp + "tick"));
        cores[c].pipe->setHostProfiler(prof, cp);
    }
    hsEpoch = prof->scope("chip.epoch");
    hsMigrate = prof->scope("chip.migrate");
}

void
ChipSimulator::resetAllStats()
{
    for (Core &core : cores) {
        core.pipe->resetStats();
        core.mem->resetStats();
    }
    if (llc)
        llc->resetStats();
    for (ThreadHome &h : homes) {
        h.accum = {};
        h.attachAt = {};
        h.committedBias = 0;
    }
    std::fill(intervalBase.begin(), intervalBase.end(), CtxTotals{});
    intervalStart = cycle;
}

void
ChipSimulator::runEpoch()
{
    // A zero-length interval has no metrics to sample and never
    // consults the allocator, so it must not consume an epoch
    // number either: the counter counts allocator invocations, and
    // it is what reaches the allocator, the debounce, and the soc
    // JSON's "allocEpochs".
    const Cycle dt = cycle - intervalStart;
    if (dt == 0)
        return;
    ProfScope hps(hprof, hsEpoch);
    ++epoch;

    std::vector<ThreadPerfSample> metrics(
        static_cast<std::size_t>(nThreads));
    for (int s = 0; s < nThreads; ++s) {
        const CtxTotals now = totalsOf(s);
        const CtxTotals iv = now - intervalBase[s];
        ThreadPerfSample &m = metrics[s];
        m.ipc = static_cast<double>(iv.committed) /
            static_cast<double>(dt);
        m.l1MissRate = iv.l1dAccesses
            ? static_cast<double>(iv.l1dMisses) /
                static_cast<double>(iv.l1dAccesses)
            : 0.0;
        m.l2Mpki = iv.committed
            ? 1000.0 * static_cast<double>(iv.l2Misses) /
                static_cast<double>(iv.committed)
            : 0.0;
        intervalBase[s] = now;
    }
    intervalStart = cycle;

    const ChipTopology topo{nCores, nCtx};
    std::vector<int> proposed = alloc->allocate(topo, metrics, epoch);
    SMT_ASSERT(static_cast<int>(proposed.size()) == nThreads,
               "allocator returned %zu placements for %d threads",
               proposed.size(), nThreads);
    std::vector<int> occ(static_cast<std::size_t>(nCores), 0);
    for (const int c : proposed) {
        SMT_ASSERT(c >= 0 && c < nCores, "allocator placed a thread "
                   "on core %d of %d", c, nCores);
        ++occ[c];
    }
    for (int c = 0; c < nCores; ++c)
        SMT_ASSERT(occ[c] <= nCtx, "allocator over-filled core %d", c);

    // Two placements naming the same partition differently must not
    // cause migrations: relabel for maximum overlap first.
    const std::vector<int> canon =
        canonicalizePlacement(coreOf, proposed, nCores);
    // Debug aid: SMT_SOC_TRACE=1 dumps every epoch's metrics and
    // placement decision to stderr. The whole line goes through
    // inform() so --chip-jobs workers cannot interleave it, and the
    // floats through fmtDouble so the dump is byte-stable too.
    // smtlint:allow(D1): debug-only dump gate; never reaches simulated state or output
    if (std::getenv("SMT_SOC_TRACE")) {
        std::string line = "epoch " + fmtU64(epoch) + " cycle " +
                           fmtU64(cycle) + ":";
        for (int s2 = 0; s2 < nThreads; ++s2)
            line += " " + benchNames[s2] + ":ipc=" +
                    fmtDouble(metrics[s2].ipc, 3) + ",cur=" +
                    std::to_string(coreOf[s2]) + ",prop=" +
                    std::to_string(canon[s2]);
        inform("%s", line.c_str());
    }
    if (canon == coreOf) {
        lastProposal.clear();
        return;
    }
    int movers = 0;
    for (int s = 0; s < nThreads; ++s) {
        if (canon[s] != coreOf[s])
            ++movers;
    }

    // Debounce: migrations squash in-flight work and run the new
    // core's private caches cold, so a change must survive two
    // consecutive epochs (one interval of which is migration-free)
    // before the chip pays for it. Kills metric-noise ping-pong.
    // Proposals are compared as *partitions* (relabel one onto the
    // other first): the same grouping can come back with different
    // core labels when every overlap with the current placement
    // ties, and that must still count as a confirmation.
    if (lastProposal.empty() ||
        canonicalizePlacement(lastProposal, canon, nCores) !=
            lastProposal) {
        lastProposal = canon;
        if (telem) {
            telem->event(allocTrack, cycle, "realloc-proposed",
                         "{\"epoch\": " + std::to_string(epoch) +
                             ", \"movers\": " +
                             std::to_string(movers) + "}");
        }
        return;
    }
    lastProposal.clear();

    pendingPlacement = canon;
    migrating = true;
    drainDeadline = cycle + soc.drainTimeout;
    if (telem) {
        telem->event(allocTrack, cycle, "realloc-confirmed",
                     "{\"epoch\": " + std::to_string(epoch) +
                         ", \"movers\": " + std::to_string(movers) +
                         "}");
    }
    for (int s = 0; s < nThreads; ++s) {
        if (pendingPlacement[s] != coreOf[s])
            cores[coreOf[s]].pipe->beginDrain(ctxOf[s]);
    }
}

void
ChipSimulator::completeMigration()
{
    ProfScope hps(hprof, hsMigrate);
    // Detach every mover (thread-id order), banking its counters.
    for (int s = 0; s < nThreads; ++s) {
        if (pendingPlacement[s] == coreOf[s])
            continue;
        ThreadHome &h = homes[s];
        h.accum += readCtx(h.core, h.ctx) - h.attachAt;
        cores[h.core].pipe->detachThread(h.ctx);
    }

    // Free contexts on each core = capacity minus the stayers.
    std::vector<std::vector<bool>> used(
        static_cast<std::size_t>(nCores),
        std::vector<bool>(static_cast<std::size_t>(nCtx), false));
    for (int s = 0; s < nThreads; ++s) {
        if (pendingPlacement[s] == coreOf[s])
            used[coreOf[s]][ctxOf[s]] = true;
    }

    // Attach movers (thread-id order) to the lowest free context of
    // their new core — fully deterministic.
    for (int s = 0; s < nThreads; ++s) {
        if (pendingPlacement[s] == coreOf[s])
            continue;
        const int c = pendingPlacement[s];
        int ctx = -1;
        for (int k = 0; k < nCtx; ++k) {
            if (!used[c][k]) {
                ctx = k;
                break;
            }
        }
        SMT_ASSERT(ctx >= 0, "no free context on core %d", c);
        used[c][ctx] = true;

        if (telem) {
            telem->event(allocTrack, cycle, "migrate",
                         "{\"thread\": " + std::to_string(s) +
                             ", \"from\": " +
                             std::to_string(coreOf[s]) +
                             ", \"to\": " + std::to_string(c) + "}");
        }

        Pipeline::ThreadProgram prog;
        prog.trace = gens[s].get();
        prog.profile = &gens[s]->profile();
        prog.addrBase = static_cast<Addr>(s) * threadAddrStride;
        cores[c].pipe->attachThread(ctx, prog);

        coreOf[s] = c;
        ctxOf[s] = ctx;
        settleHome(s, c, ctx);
        ++nMigrations;
    }

    indexThreadsByCore();
    migrating = false;
    pendingPlacement.clear();
    if (auditPeriod)
        auditInvariants();
}

bool
ChipSimulator::reached(std::uint64_t limit, Cycle &quiet) const
{
    // A core commits at most commitWidth instructions a cycle, so a
    // thread `left` commits short of the limit cannot reach it in
    // the next ceil(left / width) - 1 cycles. The run loop skips the
    // check for that many and still stops on exactly the cycle a
    // per-cycle check would.
    std::uint64_t left = ~0ull;
    for (int s = 0; s < nThreads; ++s) {
        const std::uint64_t c = committedOf(s);
        if (c >= limit)
            return true;
        left = std::min(left, limit - c);
    }
    quiet = (left - 1) / static_cast<std::uint64_t>(commitWidth);
    return false;
}

void
ChipSimulator::chipWork()
{
    // The epoch/migration machinery runs in warmup and measurement
    // alike (it is machine behaviour, not a statistic); with one
    // core there is nowhere to move, so it is skipped entirely.
    if (nCores <= 1)
        return;
    if (migrating) {
        bool allIdle = true;
        for (int s = 0; s < nThreads && allIdle; ++s) {
            if (pendingPlacement[s] != coreOf[s] &&
                !cores[coreOf[s]].pipe->drainComplete(ctxOf[s]))
                allIdle = false;
        }
        if (allIdle || cycle >= drainDeadline)
            completeMigration();
    } else if (soc.epochCycles > 0 && cycle >= nextEpochAt) {
        nextEpochAt = cycle + soc.epochCycles;
        runEpoch();
    }
    if (auditPeriod && cycle % auditPeriod == 0)
        auditInvariants();
}

Cycle
ChipSimulator::nextQuantum(Cycle maxCycles, Cycle quiet)
{
    // Every bound is the number of cycles until the main thread has
    // something to do, so chipWork, sampling and the commit-limit
    // check are no-ops on all cycles of the quantum but the last.
    // Ties go to the bound listed first.
    Cycle q = quiet + 1; // no thread can reach the limit sooner
    QuantumBound why = BoundCommit;
    const auto bound = [&q, &why](Cycle v, QuantumBound b) {
        if (v < q) {
            q = v;
            why = b;
        }
    };
    if (nCores > 1) {
        if (migrating)
            bound(1, BoundDrain); // the drain is polled every cycle
        else if (soc.epochCycles > 0)
            bound(nextEpochAt > cycle ? nextEpochAt - cycle : 1,
                  BoundEpoch);
        if (auditPeriod)
            bound(auditPeriod - cycle % auditPeriod, BoundAudit);
    }
    bound(maxCycles - cycle, BoundCycleCap);
    // The hub samples its channels and latches phase events every
    // cycle, in their place among the LLC's events: one-cycle quanta
    // keep both exactly where the serial loop put them.
    if (telem)
        bound(1, BoundTelemetry);
    bound(maxQuantum, BoundBuffer);
    ++nQuanta;
    quantumCycles += q;
    ++quantumEnds[why];
    return q;
}

void
ChipSimulator::sampleCycle(PhaseStats &stats)
{
    TelemetryHub *const hub = telem;
    int nSlow = 0;
    for (int s = 0; s < nThreads; ++s) {
        const ThreadHome &h = homes[s];
        const bool slow = h.mem->pendingL1DLoads(h.ctx) > 0;
        if (slow)
            ++nSlow;
        if (hub && slow != telemSlow[static_cast<std::size_t>(s)]) {
            telemSlow[static_cast<std::size_t>(s)] = slow;
            hub->event(coreTracks[static_cast<std::size_t>(h.core)],
                       cycle, slow ? "phase-slow" : "phase-fast",
                       "{\"thread\": " + std::to_string(s) + "}");
        }
    }
    ++stats.slowCycles[static_cast<std::size_t>(nSlow)];
    std::uint64_t memLoads = 0;
    for (const Core &core : cores) {
        memLoads += static_cast<std::uint64_t>(
            core.mem->outstandingMemLoads());
    }
    stats.mlp.sample(memLoads);
    if (hub)
        hub->tick(cycle);
}

bool
ChipSimulator::runQuanta(std::uint64_t limit, Cycle maxCycles,
                         Cycle &quiet, PhaseStats *stats)
{
    bool done = false;
    while (!done && cycle < maxCycles) {
        const Cycle q = nextQuantum(maxCycles, quiet);
        tickQuantum(q);
        if (stats) {
            // Fold the cycles before the last in cycle order; the
            // last is sampled after chipWork, which may drain or
            // migrate threads.
            for (std::size_t i = 0; i + 1 < q; ++i) {
                std::uint32_t nSlow = 0;
                std::uint64_t memLoads = 0;
                for (std::size_t c = 0; c < cores.size(); ++c) {
                    const CycleSample &cs = samples[c * maxQuantum + i];
                    nSlow += cs.slowThreads;
                    memLoads += cs.memLoads;
                }
                ++stats->slowCycles[nSlow];
                stats->mlp.sample(memLoads);
            }
        }
        chipWork();
        if (stats)
            sampleCycle(*stats);
        if (quiet >= q)
            quiet -= q;
        else
            done = reached(limit, quiet);
    }
    return done;
}

SimResult
ChipSimulator::run(std::uint64_t commitLimit, Cycle maxCycles,
                   std::uint64_t warmupCommits)
{
    // Sized here, not in buildChip: construction allocates nothing
    // but the chip's parts (see buildChip for why that matters).
    samples.resize(static_cast<std::size_t>(nCores) * maxQuantum);
    startWavefront();

    // Cycles the first-to-the-limit check may skip (see reached()).
    Cycle quiet = 0;
    if (warmupCommits > 0) {
        runQuanta(warmupCommits, maxCycles, quiet, nullptr);
        resetAllStats();
        quiet = 0;
    }

    const Cycle statsStart = cycle;
    PhaseStats stats;
    stats.slowCycles.assign(static_cast<std::size_t>(nThreads) + 1, 0);
    if (telem)
        telem->beginSampling(cycle);
    const bool done = runQuanta(commitLimit, maxCycles, quiet, &stats);

    stopTickWorkers();

    if (!done) {
        warn("run hit the cycle cap (%llu) before any thread "
             "committed %llu instructions",
             static_cast<unsigned long long>(maxCycles),
             static_cast<unsigned long long>(commitLimit));
    }

    SimResult res;
    res.cycles = cycle - statsStart;
    res.slowPhaseCycles = std::move(stats.slowCycles);
    res.mlpBusyMean = stats.mlp.meanNonZero();
    for (int s = 0; s < nThreads; ++s) {
        const CtxTotals t = totalsOf(s);
        ThreadResult tr;
        tr.bench = benchNames[s];
        tr.committed = t.committed;
        tr.ipc = res.cycles
            ? static_cast<double>(t.committed) /
                static_cast<double>(res.cycles)
            : 0.0;
        tr.fetched = t.fetched;
        tr.fetchedWrongPath = t.fetchedWrongPath;
        tr.squashed = t.squashed;
        tr.condBranches = t.condBranches;
        tr.mispredicts = t.mispredicts;
        tr.flushes = t.flushes;
        tr.l1dAccesses = t.l1dAccesses;
        tr.l1dMisses = t.l1dMisses;
        tr.l2Accesses = t.l2Accesses;
        tr.l2Misses = t.l2Misses;
        res.threads.push_back(std::move(tr));
    }

    if (nCores > 1) {
        // Fold each core's per-context commit-stream hashes into one
        // word per core: the chip's architectural ground truth, and
        // what the checked-in 2-core golden pins.
        for (int c = 0; c < nCores; ++c) {
            const PipelineStats &ps = cores[c].pipe->stats();
            std::uint64_t h = 0;
            for (int k = 0; k < nCtx; ++k)
                h = (h ^ ps.commitHash[k]) * 0x9e3779b97f4a7c15ull;
            res.coreCommitHashes.push_back(h);
        }
        res.migrations = nMigrations;
        res.allocEpochs = epoch;
        res.llcAccesses = llc->totalAccesses();
        res.llcMisses = llc->totalMisses();
        res.llcArbiter = llc->arbiter().name();
        res.llcShareReassignments = llc->shareReassignments();
        for (int c = 0; c < nCores; ++c) {
            LlcCoreStats cs;
            cs.accesses = llc->accesses(c);
            cs.misses = llc->misses(c);
            cs.mshrShare = llc->mshrShareOf(c);
            cs.ways = llc->wayCountOf(c);
            cs.linesOwned = llc->linesOwned(c);
            res.llcPerCore.push_back(cs);
        }
    }
    return res;
}

void
ChipSimulator::auditInvariants() const
{
    for (const Core &core : cores)
        core.pipe->auditInvariants();
    if (llc)
        llc->auditInvariants();

    // Chip-level placement bookkeeping: every thread sits on exactly
    // one (core, context), within capacity, and that context is
    // active on its pipeline; every unoccupied context is idle.
    std::vector<std::vector<int>> who(
        static_cast<std::size_t>(nCores),
        std::vector<int>(static_cast<std::size_t>(nCtx), -1));
    for (int s = 0; s < nThreads; ++s) {
        const int c = coreOf[s];
        const int k = ctxOf[s];
        SMT_ASSERT(c >= 0 && c < nCores && k >= 0 && k < nCtx,
                   "thread %d placed off-chip", s);
        SMT_ASSERT(who[c][k] < 0,
                   "threads %d and %d share core %d ctx %d",
                   who[c][k], s, c, k);
        who[c][k] = s;
        SMT_ASSERT(cores[c].pipe->contextActive(k),
                   "thread %d's context is idle", s);
        SMT_ASSERT(homes[s].core == c && homes[s].ctx == k,
                   "thread %d home out of sync", s);
    }
    for (int c = 0; c < nCores; ++c) {
        for (int k = 0; k < nCtx; ++k) {
            if (who[c][k] < 0) {
                SMT_ASSERT(!cores[c].pipe->contextActive(k),
                           "unowned context %d/%d is active", c, k);
            }
        }
    }
}

} // namespace smt
