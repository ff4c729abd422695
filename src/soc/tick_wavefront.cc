#include "soc/tick_wavefront.hh"

#include <thread>

#include "common/logging.hh"
#include "prof/host_profiler.hh"

namespace smt {

TickWavefront::TickWavefront(SharedCache &llc_, int numCores,
                             Cycle startCycle, int maxOutstanding)
    : llc(llc_), nCores(numCores),
      cs(static_cast<std::size_t>(numCores)), go(startCycle)
{
    SMT_ASSERT(numCores >= 1, "wavefront over %d cores", numCores);
    SMT_ASSERT(maxOutstanding >= 1, "bad request bound %d",
               maxOutstanding);
    for (CoreSync &c : cs)
        c.done.store(startCycle, std::memory_order_relaxed);
    std::size_t slots = 1;
    while (slots < static_cast<std::size_t>(maxOutstanding))
        slots *= 2;
    ringMask = slots - 1;
    ring.assign(static_cast<std::size_t>(numCores),
                std::vector<Request>(slots));
}

void
TickWavefront::backoff(unsigned &spins)
{
    // A simulated core tick is short, so the awaited flag usually
    // flips within the spin budget when the peer runs on its own
    // CPU; past that the peer is likely descheduled (or the host is
    // oversubscribed) and yielding is the only way to let it run.
    if (++spins < 64) {
#if defined(__x86_64__)
        __builtin_ia32_pause();
#endif
    } else {
        std::this_thread::yield();
    }
}

void
TickWavefront::beginQuantum(Cycle end)
{
    // The release pairs with awaitQuantum's acquire: everything the
    // main thread did between quanta (migrations, stat resets,
    // epoch bookkeeping) is visible to every worker before it
    // touches its cores.
    go.store(end, std::memory_order_release);
}

Cycle
TickWavefront::awaitQuantum(Cycle last) const
{
    unsigned spins = 0;
    Cycle t;
    while ((t = go.load(std::memory_order_acquire)) == last)
        backoff(spins);
    return t;
}

void
TickWavefront::coreDone(int core, Cycle t)
{
    // The release pairs with the acquires in the order test and
    // awaitAll(): every effect of this core's tick — pipeline state
    // and the requests it posted — is visible to whoever observes
    // the completion.
    cs[static_cast<std::size_t>(core)].done.store(
        t, std::memory_order_release);
}

void
TickWavefront::awaitAll(Cycle t) const
{
    for (int c = 0; c < nCores; ++c) {
        unsigned spins = 0;
        while (!finished(c, t))
            backoff(spins);
    }
}

void
TickWavefront::requestStop()
{
    go.store(stopCycle, std::memory_order_release);
}

void
TickWavefront::setHostProfiler(HostProfiler *prof)
{
    hprof = prof;
    stats.clear();
    gateScope.clear();
    if (!prof)
        return;
    stats.resize(static_cast<std::size_t>(nCores));
    for (int k = 0; k < nCores; ++k) {
        stats[static_cast<std::size_t>(k)].awaited.assign(
            static_cast<std::size_t>(nCores), 0);
        gateScope.push_back(
            prof->scope("wave.c" + std::to_string(k) + ".gate"));
    }
}

std::uint64_t
TickWavefront::post(int core, Cycle t, Addr addr, Cycle now)
{
    // Only the thread ticking the core posts, so it owns nPosted.
    CoreSync &s = cs[static_cast<std::size_t>(core)];
    const std::uint64_t n = s.nPosted.load(std::memory_order_relaxed);
    SMT_ASSERT(n - s.resolved.load(std::memory_order_acquire) <=
                   ringMask,
               "core %d has more than %llu LLC requests in flight",
               core, static_cast<unsigned long long>(ringMask + 1));
    Request &r = ring[static_cast<std::size_t>(core)]
                     [static_cast<std::size_t>(n & ringMask)];
    r.t = t;
    r.addr = addr;
    r.now = now;
    // The release publishes the slot to the resolver.
    s.nPosted.store(n + 1, std::memory_order_release);
    tryResolve(TrigPost);
    return n;
}

bool
TickWavefront::unresolved() const
{
    for (const CoreSync &s : cs) {
        if (s.resolved.load(std::memory_order_relaxed) !=
            s.nPosted.load(std::memory_order_relaxed))
            return true;
    }
    return false;
}

int
TickWavefront::blockerOf(int core, Cycle t) const
{
    // Every (cycle, core) pair before (t, core) in the serial order:
    // lower ids in this cycle, higher ids in the previous one.
    for (int k = 0; k < nCores; ++k) {
        if (k != core && !finished(k, k < core ? t : t - 1))
            return k;
    }
    return -1;
}

int
TickWavefront::nextCore() const
{
    int best = -1;
    Cycle bestT = 0;
    for (int k = 0; k < nCores; ++k) {
        const CoreSync &s = cs[static_cast<std::size_t>(k)];
        const std::uint64_t n =
            s.resolved.load(std::memory_order_relaxed);
        if (n == s.nPosted.load(std::memory_order_acquire))
            continue;
        const Cycle t = ring[static_cast<std::size_t>(k)]
                            [static_cast<std::size_t>(n & ringMask)]
                                .t;
        // Strictly earlier cycle wins; a tie keeps the lower id.
        if (best < 0 || t < bestT) {
            best = k;
            bestT = t;
        }
    }
    return best;
}

void
TickWavefront::resolveLocked(Trigger why)
{
    for (;;) {
        int c = nextCore();
        if (c < 0)
            return;
        CoreSync *s = &cs[static_cast<std::size_t>(c)];
        std::uint64_t n = s->resolved.load(std::memory_order_relaxed);
        const Cycle t = ring[static_cast<std::size_t>(c)]
                            [static_cast<std::size_t>(n & ringMask)]
                                .t;
        if (blockerOf(c, t) >= 0)
            return;
        // Every pair before (t, c) is complete, and the acquires in
        // blockerOf() made all of their posts visible: look again,
        // one of them may precede (t, c). Whatever comes first now
        // is resolvable too (its preceding pairs are a subset).
        c = nextCore();
        s = &cs[static_cast<std::size_t>(c)];
        n = s->resolved.load(std::memory_order_relaxed);
        Request &r = ring[static_cast<std::size_t>(c)]
                         [static_cast<std::size_t>(n & ringMask)];
        r.res = llc.access(c, r.addr, r.now, r.t);
        s->resolved.store(n + 1, std::memory_order_release);
        ++nResolvedBy[why];
    }
}

void
TickWavefront::tryResolve(Trigger why)
{
    // Test before the exchange so contending threads only read the
    // lock's line while someone else holds it.
    if (resolving.load(std::memory_order_relaxed) ||
        resolving.exchange(true, std::memory_order_acquire))
        return;
    resolveLocked(why);
    resolving.store(false, std::memory_order_release);
}

void
TickWavefront::resolveAll()
{
    // No worker resolves after its last pair of a quantum, so the
    // lock is free; the acquire pairs with the last release.
    SMT_ASSERT(!resolving.exchange(true, std::memory_order_acquire),
               "LLC resolver busy at a quantum end");
    resolveLocked(TrigQuantumEnd);
    resolving.store(false, std::memory_order_release);
    SMT_ASSERT(!unresolved(), "unresolvable LLC request at a quantum "
               "end");
}

void
TickWavefront::await(int core, std::uint64_t req, Trigger why)
{
    const auto ready = [this, core, req] {
        return resolved(core) > req;
    };
    if (ready())
        return;
    tryResolve(why);
    if (ready())
        return;

    // Blocked: once every pair before the request's own has
    // completed, it and every request before it are resolvable, so
    // resolve them (unless another thread already is); until then
    // only read the done counters, leaving the resolver's lock and
    // the LLC's lines to the threads that can use them.
    const Cycle t = ring[static_cast<std::size_t>(core)]
                        [static_cast<std::size_t>(req & ringMask)]
                            .t;
    const auto step = [&](unsigned &spins) {
        backoff(spins);
        if (blockerOf(core, t) < 0)
            tryResolve(why);
    };
    if (!hprof) {
        unsigned spins = 0;
        while (!ready())
            step(spins);
        return;
    }

    // Profiled wait: accumulate into locals while blocked and store
    // once at the end, so the stats line is not bounced mid-wait.
    const std::uint64_t t0 = hprof->nowNs();
    const int firstAwaited = blockerOf(core, t);
    unsigned spins = 0;
    while (!ready())
        step(spins);
    const std::uint64_t t1 = hprof->nowNs();
    const std::uint64_t yields = spins >= 64 ? spins - 63 : 0;
    WaveStats &ws = stats[static_cast<std::size_t>(core)];
    ws.gateWaits += 1;
    ws.spinIters += spins - yields;
    ws.yieldIters += yields;
    ws.yieldTransitions += yields ? 1 : 0;
    ws.waitNs += t1 - t0;
    if (firstAwaited >= 0)
        ws.awaited[static_cast<std::size_t>(firstAwaited)] += 1;
    hprof->add(gateScope[static_cast<std::size_t>(core)], t0, t1);
}

std::uint64_t
TickWavefront::posted() const
{
    std::uint64_t n = 0;
    for (const CoreSync &s : cs)
        n += s.nPosted.load(std::memory_order_relaxed);
    return n;
}

} // namespace smt
