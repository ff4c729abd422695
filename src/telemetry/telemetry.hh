/**
 * @file
 * Deterministic run telemetry: named time-series channels sampled on
 * a fixed cycle interval, plus a structured event tracer with cycle
 * timestamps, rendered as NDJSON (`smtsim-ts-v1`) and Chrome
 * trace-event JSON (loadable in Perfetto / chrome://tracing).
 *
 * Design constraints, inherited from the determinism story of the
 * simulator itself:
 *
 *  - **Zero overhead when off.** No TelemetryHub exists unless the
 *    user asked for one (`--trace-out`); every producer guards its
 *    hook on a nullable pointer, and nothing telemetry does may feed
 *    back into simulation timing.
 *  - **Byte-deterministic when on.** Samples are taken on the main
 *    thread between cycles (a chip with a hub attached ticks
 *    one-cycle quanta, so every `--chip-jobs` worker has finished
 *    the cycle), and events are only emitted from (a) the main
 *    thread between cycles or (b) inside the shared-LLC access path,
 *    whose total order across cores the TickWavefront reproduces
 *    exactly for every worker count (with a hub attached every LLC
 *    request is resolved when it is posted). Rendering uses the
 *    fixed-format helpers of common/json.hh. The same run therefore
 *    emits the same bytes under any `--jobs` / `--chip-jobs` value.
 *  - **Bounded.** Sample and event buffers have hard caps; overflow
 *    drops new entries and counts them (`droppedSamples` /
 *    `droppedEvents` in the NDJSON footer) instead of growing
 *    without bound or silently truncating.
 *
 * Channel kinds:
 *  - `counter` — u64 reader; emitted as the integer delta over each
 *    interval (e.g. squashes, DCRA phase flips, gate follows).
 *  - `rate`    — u64 reader; emitted as delta / interval (e.g. IPC,
 *    fetch rate).
 *  - `ratio`   — two u64 readers; emitted as delta(num) / delta(den),
 *    0 when the denominator did not move (e.g. L1D miss rate).
 *  - `gauge`   — double reader; instantaneous value at the sample
 *    point (e.g. IQ/ROB occupancy, MSHR fill).
 */

#ifndef DCRA_SMT_TELEMETRY_TELEMETRY_HH
#define DCRA_SMT_TELEMETRY_TELEMETRY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace smt {

class TelemetryHub
{
  public:
    using U64Fn = std::function<std::uint64_t()>;
    using DblFn = std::function<double()>;

    /**
     * @param sampleInterval cycles between samples; 0 disables
     *        time-series sampling (events still record).
     * @param maxSamples / @param maxEvents buffer caps; overflow is
     *        dropped-and-counted, never fatal.
     */
    explicit TelemetryHub(Cycle sampleInterval,
                          std::size_t maxSamples = 1u << 20,
                          std::size_t maxEvents = 1u << 20);

    /** @name Channel registration (before beginSampling) */
    /** @{ */
    void counter(const std::string &name, U64Fn read);
    void rate(const std::string &name, U64Fn read);
    void ratio(const std::string &name, U64Fn num, U64Fn den);
    void gauge(const std::string &name, DblFn read);
    /** @} */

    /**
     * Register (or look up) an event track — one timeline row in the
     * trace viewer (a core, an allocator, an arbiter).
     */
    int track(const std::string &name);

    /**
     * Record one discrete decision. @p args, when non-empty, must be
     * a complete JSON object literal (e.g. `{"thread": 3}`) built
     * with the common/json.hh formatters; it is embedded verbatim.
     */
    void event(int track, Cycle now, const std::string &name,
               std::string args = std::string());

    /**
     * Arm sampling at @p now (the measurement-window start, after
     * warmup reset): re-bases every channel's last-read value so the
     * first interval's deltas cover exactly [now, now+interval).
     */
    void beginSampling(Cycle now);

    /** Per-cycle hook; cheap no-op until the next sample boundary. */
    void
    tick(Cycle now)
    {
        if (sampling && now >= nextSampleAt)
            sampleNow(now);
    }

    /** @name Introspection */
    /** @{ */
    Cycle interval() const { return ival; }
    std::size_t channelCount() const { return channels.size(); }
    std::size_t sampleCount() const { return sampleCycles.size(); }
    std::size_t eventCount() const { return events.size(); }
    std::uint64_t droppedSamples() const { return nDroppedSamples; }
    std::uint64_t droppedEvents() const { return nDroppedEvents; }
    /** @} */

    /** The `smtsim-ts-v1` NDJSON document (header, samples, footer). */
    std::string renderTimeSeries() const;

    /**
     * Chrome trace-event JSON: one metadata-named thread per track,
     * instant events with ts = cycle (displayed as microseconds).
     * @p extraEvents, when non-empty, is a pre-rendered fragment of
     * additional trace-event records (no enclosing array, records
     * joined by ",\n") spliced before the closing bracket — the
     * --prof host-span tracks use it. Extra records are host data
     * and therefore nondeterministic; callers needing byte-stable
     * traces pass nothing, and the rendered bytes are then
     * unchanged.
     */
    std::string renderChromeTrace(
        const std::string &extraEvents = std::string()) const;

  private:
    enum class Kind { Counter, Rate, Ratio, Gauge };

    struct Channel
    {
        Kind kind;
        std::string name;
        U64Fn u64;
        U64Fn den;
        DblFn dbl;
        std::uint64_t last = 0;
        std::uint64_t lastDen = 0;
    };

    struct Event
    {
        int track;
        Cycle cycle;
        std::string name;
        std::string args;
    };

    void sampleNow(Cycle now);

    Cycle ival;
    std::size_t maxSamples;
    std::size_t maxEvents;
    bool sampling = false;
    Cycle nextSampleAt = 0;
    Cycle lastSampleAt = 0;

    std::vector<Channel> channels;
    std::vector<std::string> tracks;
    std::vector<Event> events;

    /** Flattened sample matrix: sampleCount x channelCount. Counter
     *  deltas are stored exactly (they fit a double far below 2^53
     *  per interval) and re-emitted as integers. */
    std::vector<double> values;
    std::vector<Cycle> sampleCycles;

    std::uint64_t nDroppedSamples = 0;
    std::uint64_t nDroppedEvents = 0;
};

/**
 * Run provenance as a JSON object literal: git describe, build type
 * and compiler flags baked in by CMake (common/version.hh), plus the
 * *stable* host facts (CPU count, /proc/cpuinfo model name). The
 * same binary on the same host always renders the same bytes, so
 * provenance never breaks the cross-worker-count output diffs. The
 * run-varying host facts (load average) deliberately live only in
 * the --prof sidecars and BENCH_perf.json, which no byte diff
 * covers.
 */
std::string provenanceJson();

/** Per-job telemetry file base: `<prefix>.job<index>`. The sidecar
 *  files are `<base>.ts.ndjson` and `<base>.trace.json`. */
std::string telemetryFileBase(const std::string &prefix,
                              std::size_t jobIndex);

/**
 * Write the telemetry sidecars: `<tsBase>.ts.ndjson` and
 * `<traceBase>.trace.json`. An empty base skips that file — the
 * --ts-out / --trace-out split maps directly onto the two bases
 * (with --trace-out alone both point at the same base, the
 * historical combined behaviour, byte-identical). @p hostTraceEvents
 * is forwarded to renderChromeTrace (the --prof merge).
 * @return false (with a warn()) if any requested file failed.
 */
bool writeTelemetryFiles(const TelemetryHub &hub,
                         const std::string &tsBase,
                         const std::string &traceBase,
                         const std::string &hostTraceEvents =
                             std::string());

} // namespace smt

#endif // DCRA_SMT_TELEMETRY_TELEMETRY_HH
