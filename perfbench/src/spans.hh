/**
 * @file
 * The benchmark's own host-time spans: name, start, end and the span
 * that caused it, recorded around every public call the benchmark
 * makes into the simulator (construction, run, SweepRunner::run,
 * sink render, journal replay). Spans are kept in memory and written
 * once when the benchmark ends; self time is a span's duration minus
 * the part its child spans cover. Single-threaded by design: every
 * span opens and closes on the benchmark's main thread.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hh"

namespace perfbench {

class SpanLog
{
  public:
    SpanLog() : epoch(Clock::now()) {}

    /** Host nanoseconds since the log was created. */
    std::uint64_t
    nowNs() const
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - epoch)
                .count());
    }

    /** Open a span as a child of the innermost open one. */
    int
    open(const std::string &name)
    {
        const int parent = stack.empty() ? -1 : stack.back();
        spans.push_back({name, parent, nowNs(), 0});
        stack.push_back(static_cast<int>(spans.size()) - 1);
        return stack.back();
    }

    /** Close the innermost span (which must be @p id); seconds. */
    double
    close(int id)
    {
        Span &s = spans[static_cast<std::size_t>(id)];
        s.endNs = nowNs();
        stack.pop_back();
        return static_cast<double>(s.endNs - s.startNs) / 1e9;
    }

    /** Run @p fn inside a span; returns its host seconds. */
    template <class F>
    double
    timed(const std::string &name, F &&fn)
    {
        const int id = open(name);
        fn();
        return close(id);
    }

    /**
     * Self time (ns) of each closed span: its duration minus the
     * union of its children, which never overlap because every span
     * lives on one thread.
     */
    std::vector<std::uint64_t>
    selfNs() const
    {
        std::vector<std::uint64_t> self(spans.size());
        for (std::size_t i = 0; i < spans.size(); ++i)
            self[i] = spans[i].endNs - spans[i].startNs;
        for (const Span &s : spans) {
            if (s.parent >= 0)
                self[static_cast<std::size_t>(s.parent)] -=
                    s.endNs - s.startNs;
        }
        return self;
    }

    /** Total self time per span name, name-ordered. */
    std::map<std::string, std::uint64_t>
    selfByName() const
    {
        const std::vector<std::uint64_t> self = selfNs();
        std::map<std::string, std::uint64_t> out;
        for (std::size_t i = 0; i < spans.size(); ++i)
            out[spans[i].name] += self[i];
        return out;
    }

    /** Every span as one JSON object per line (id = position). */
    std::string
    ndjson() const
    {
        const std::vector<std::uint64_t> self = selfNs();
        std::string out;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            out += "{\"type\": \"span\", \"id\": " + smt::fmtU64(i) +
                ", \"parent\": " + std::to_string(s.parent) +
                ", \"name\": \"" + smt::jsonEscape(s.name) +
                "\", \"startNs\": " + smt::fmtU64(s.startNs) +
                ", \"endNs\": " + smt::fmtU64(s.endNs) +
                ", \"selfNs\": " + smt::fmtU64(self[i]) + "}\n";
        }
        return out;
    }

  private:
    // smtlint:allow(D1): the benchmark measures host time by design
    using Clock = std::chrono::steady_clock;

    struct Span
    {
        std::string name;
        int parent;
        std::uint64_t startNs;
        std::uint64_t endNs;
    };

    Clock::time_point epoch;
    std::vector<Span> spans;
    std::vector<int> stack;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
