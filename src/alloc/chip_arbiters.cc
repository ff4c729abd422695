#include "alloc/chip_arbiters.hh"

#include <algorithm>
#include <cstdio>

#include "alloc/registry.hh"
#include "common/logging.hh"
#include "telemetry/telemetry.hh"

namespace smt {

const char *
chipResourceName(ChipResource r)
{
    switch (r) {
      case ChipMshr: return "llc-mshr";
      case ChipBus: return "llc-bus";
      case ChipWay: return "llc-way";
      default: return "invalid";
    }
}

// ---------------------------------------------------------------
// ChipDcraArbiter
// ---------------------------------------------------------------

ChipDcraArbiter::ChipDcraArbiter(const LlcArbiterConfig &cfg)
    : p(cfg), model(cfg.sharing)
{
    const std::size_t n = static_cast<std::size_t>(p.numCores);
    // Until the first epoch no core is gated, matching core-level
    // DCRA, where a thread is only limited once classified slow.
    mshrShare.assign(n, shareUnlimited);
    busShare.assign(n, shareUnlimited);
    slowMask.assign(n, false);
}

void
ChipDcraArbiter::beginEpoch(std::uint64_t epoch, Cycle now)
{
    (void)epoch;
    const ResourceDomain *dom = actx.domain;
    SMT_ASSERT(dom != nullptr, "chip-dcra epoch before bind");

    // Classification, exactly the paper's but one level up: a core
    // is *slow* while it has LLC-level misses outstanding (the chip
    // analogue of a pending data-cache miss) and *active* for the
    // pool while it acquired an entry within the activity window.
    int fastActive = 0;
    int slowActive = 0;
    std::vector<bool> active(static_cast<std::size_t>(p.numCores));
    for (int c = 0; c < p.numCores; ++c) {
        const bool slow = dom->occupancy(c, ChipMshr) > 0;
        if (tlm && slow != slowMask[static_cast<std::size_t>(c)]) {
            char buf[48];
            std::snprintf(buf, sizeof(buf), "{\"core\": %d}", c);
            tlm->event(tlmTrack, now,
                       slow ? "core-slow" : "core-fast", buf);
        }
        slowMask[static_cast<std::size_t>(c)] = slow;
        const bool act =
            now - dom->lastAcquire(c, ChipMshr) <= p.activityWindow;
        active[static_cast<std::size_t>(c)] = act;
        if (!act)
            continue;
        if (slow)
            ++slowActive;
        else
            ++fastActive;
    }

    // E_slow over each pooled resource; fast or inactive cores are
    // never gated (shareUnlimited), the paper's asymmetry.
    const int mshrLimit =
        std::max(1, model.slowLimit(p.mshrsTotal, fastActive,
                                    slowActive));
    const int busLimit =
        std::max(1, model.slowLimit(p.busSlotsPerWindow, fastActive,
                                    slowActive));
    bool changed = false;
    for (int c = 0; c < p.numCores; ++c) {
        const std::size_t i = static_cast<std::size_t>(c);
        const bool gated = slowMask[i] && active[i];
        const int m = gated ? mshrLimit : shareUnlimited;
        const int b = gated ? busLimit : shareUnlimited;
        changed = changed || m != mshrShare[i] || b != busShare[i];
        mshrShare[i] = m;
        busShare[i] = b;
    }
    if (changed) {
        ++nReassigned;
        if (tlm) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "{\"mshrLimit\": %d, \"busLimit\": %d, "
                          "\"slowActive\": %d, \"fastActive\": %d}",
                          mshrLimit, busLimit, slowActive,
                          fastActive);
            tlm->event(tlmTrack, now, "share-reassign", buf);
        }
    }
}

void
ChipDcraArbiter::attachTelemetry(TelemetryHub *hub, int eventTrack)
{
    tlm = hub;
    tlmTrack = eventTrack;
    for (int c = 0; c < p.numCores; ++c) {
        const std::string pre =
            "arb.c" + std::to_string(c) + ".";
        // -1 renders "unlimited" (the mshrShareOf() convention);
        // shareUnlimited itself would dwarf any plot scale.
        hub->gauge(pre + "mshrShare", [this, c] {
            const int s = mshrShare[static_cast<std::size_t>(c)];
            return s == shareUnlimited ? -1.0
                                       : static_cast<double>(s);
        });
        hub->gauge(pre + "busShare", [this, c] {
            const int s = busShare[static_cast<std::size_t>(c)];
            return s == shareUnlimited ? -1.0
                                       : static_cast<double>(s);
        });
    }
}

// ---------------------------------------------------------------
// WayPartitionArbiter
// ---------------------------------------------------------------

WayPartitionArbiter::WayPartitionArbiter(const LlcArbiterConfig &cfg,
                                         bool utilDriven)
    : p(cfg), util(utilDriven)
{
    // ChipSimulator::problem() refuses such chips before building.
    SMT_ASSERT(p.ways >= p.numCores, "%d LLC ways for %d cores",
               p.ways, p.numCores);
    wayCount = equalDeal();
    epochAccesses.assign(static_cast<std::size_t>(p.numCores), 0);
}

std::vector<int>
WayPartitionArbiter::equalDeal() const
{
    std::vector<int> deal(static_cast<std::size_t>(p.numCores));
    for (int c = 0; c < p.numCores; ++c) {
        deal[static_cast<std::size_t>(c)] =
            p.ways / p.numCores + (c < p.ways % p.numCores ? 1 : 0);
    }
    return deal;
}

void
WayPartitionArbiter::beginEpoch(std::uint64_t epoch, Cycle now)
{
    (void)epoch;
    (void)now;
    if (!util)
        return;

    std::uint64_t total = 0;
    for (const std::uint64_t a : epochAccesses)
        total += a;
    if (total == 0)
        return; // idle epoch: keep the current deal

    // Demand-proportional deal with a one-way floor, largest-
    // remainder rounding, deterministic tie-break by core id.
    const int spare = p.ways - p.numCores;
    std::vector<int> deal(static_cast<std::size_t>(p.numCores), 1);
    std::vector<std::pair<std::uint64_t, int>> rem;
    int dealt = 0;
    for (int c = 0; c < p.numCores; ++c) {
        const std::uint64_t a =
            epochAccesses[static_cast<std::size_t>(c)];
        const std::uint64_t scaled =
            a * static_cast<std::uint64_t>(spare);
        const int extra = static_cast<int>(scaled / total);
        deal[static_cast<std::size_t>(c)] += extra;
        dealt += extra;
        rem.emplace_back(scaled % total, c);
    }
    std::sort(rem.begin(), rem.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first > b.first;
                  return a.second < b.second;
              });
    for (int i = 0; dealt < spare; ++i, ++dealt)
        ++deal[static_cast<std::size_t>(rem[static_cast<std::size_t>(
            i)].second)];

    if (deal != wayCount) {
        wayCount = std::move(deal);
        ++nReassigned;
        if (tlm) {
            std::string args = "{\"ways\": [";
            for (int c = 0; c < p.numCores; ++c) {
                if (c)
                    args += ", ";
                args += std::to_string(
                    wayCount[static_cast<std::size_t>(c)]);
            }
            args += "]}";
            tlm->event(tlmTrack, now, "way-redeal",
                       std::move(args));
        }
    }
    std::fill(epochAccesses.begin(), epochAccesses.end(), 0);
}

void
WayPartitionArbiter::attachTelemetry(TelemetryHub *hub,
                                     int eventTrack)
{
    tlm = hub;
    tlmTrack = eventTrack;
    for (int c = 0; c < p.numCores; ++c) {
        hub->gauge("arb.c" + std::to_string(c) + ".ways",
                   [this, c] {
                       return static_cast<double>(
                           wayCount[static_cast<std::size_t>(c)]);
                   });
    }
}

// ---------------------------------------------------------------
// factory / registry
// ---------------------------------------------------------------

namespace {

using ArbiterFactory = std::unique_ptr<ResourceArbiter> (*)(
    const LlcArbiterConfig &);

const NamedRegistry<ArbiterFactory> &
arbiterRegistry()
{
    static const NamedRegistry<ArbiterFactory> reg = [] {
        NamedRegistry<ArbiterFactory> r;
        r.add("static", [](const LlcArbiterConfig &cfg)
              -> std::unique_ptr<ResourceArbiter> {
            return std::make_unique<StaticQuotaArbiter>(cfg);
        });
        r.add("chip-dcra", [](const LlcArbiterConfig &cfg)
              -> std::unique_ptr<ResourceArbiter> {
            return std::make_unique<ChipDcraArbiter>(cfg);
        });
        r.add("way-equal", [](const LlcArbiterConfig &cfg)
              -> std::unique_ptr<ResourceArbiter> {
            return std::make_unique<WayPartitionArbiter>(cfg, false);
        });
        r.add("way-util", [](const LlcArbiterConfig &cfg)
              -> std::unique_ptr<ResourceArbiter> {
            return std::make_unique<WayPartitionArbiter>(cfg, true);
        });
        return r;
    }();
    return reg;
}

} // anonymous namespace

std::unique_ptr<ResourceArbiter>
makeLlcArbiter(const std::string &name, const LlcArbiterConfig &cfg)
{
    const ArbiterFactory *f = arbiterRegistry().find(name);
    if (!f)
        fatal("unknown LLC arbiter '%s' (run 'smtsim "
              "--list-arbiters')", name.c_str());
    return (*f)(cfg);
}

std::vector<const char *>
llcArbiterNames()
{
    return arbiterRegistry().names();
}

bool
isLlcArbiterName(const std::string &name)
{
    return arbiterRegistry().find(name) != nullptr;
}

bool
isWayPartitioningArbiter(const std::string &name)
{
    return name == "way-equal" || name == "way-util";
}

} // namespace smt
