#include "prof/prof_report.hh"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/json.hh"
#include "common/stats.hh"

namespace smt {

namespace {

struct ScopeAgg
{
    std::uint64_t hits = 0;
    std::uint64_t ns = 0;
    std::uint64_t maxNs = 0;
};

struct WaveAgg
{
    int worker = -1;
    std::uint64_t gateWaits = 0;
    std::uint64_t spinIters = 0;
    std::uint64_t yieldIters = 0;
    std::uint64_t yieldTransitions = 0;
    std::uint64_t waitNs = 0;
    std::vector<std::uint64_t> awaited;
};

struct JobAgg
{
    int job = 0;
    std::uint64_t wallNs = 0;
    std::uint64_t queueNs = 0;
    std::uint64_t forkNs = 0;
    std::uint64_t reapNs = 0;
};

struct Report
{
    std::size_t files = 0;
    // Insertion-ordered so equal-time scopes render deterministically.
    std::vector<std::string> scopeOrder;
    std::map<std::string, ScopeAgg> scopes;
    std::map<int, WaveAgg> wave; //!< keyed by core
    int waveWorkers = 0;
    int waveCores = 0;
    std::uint64_t quanta = 0;        //!< summed wave-config records
    std::uint64_t quantumCycles = 0;
    /** Quanta ended per bound, in first-seen order. */
    std::vector<std::pair<std::string, std::uint64_t>> quantumEnds;
    std::uint64_t lookahead = 0;  //!< largest LLC lookahead seen
    std::uint64_t llcPosted = 0;  //!< LLC requests posted
    std::uint64_t blockedWaits = 0;
    /** LLC requests resolved per trigger, in first-seen order. */
    std::vector<std::pair<std::string, std::uint64_t>> resolvedBy;
    std::uint64_t runWallNs = 0; //!< summed "run" records
    std::vector<JobAgg> jobs;
    std::uint64_t baselineComputes = 0;
    std::uint64_t baselineWaits = 0;
    std::uint64_t baselineWaitNs = 0;
};

bool
readFileText(const std::string &path, std::string &out,
             std::string &err)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f) {
        err = "prof-report: cannot read '" + path + "'";
        return false;
    }
    char buf[4096];
    std::size_t n;
    out.clear();
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return true;
}

/** Add a {"name": count, ...} object into @p counts, keeping the
 *  names in first-seen order. */
void
addCounts(std::vector<std::pair<std::string, std::uint64_t>> &counts,
          const JsonValue &obj)
{
    for (const auto &kv : obj.obj) {
        auto it = std::find_if(
            counts.begin(), counts.end(),
            [&kv](const auto &e) { return e.first == kv.first; });
        if (it == counts.end()) {
            counts.emplace_back(kv.first, 0);
            it = counts.end() - 1;
        }
        it->second += kv.second.asU64();
    }
}

bool
ingestFile(const std::string &path, Report &rep, std::string &err)
{
    std::string text;
    if (!readFileText(path, text, err))
        return false;
    ++rep.files;

    std::size_t lineNo = 0;
    std::size_t pos = 0;
    bool sawHeader = false;
    while (pos < text.size()) {
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            nl = text.size();
        const std::string line = text.substr(pos, nl - pos);
        pos = nl + 1;
        ++lineNo;
        if (line.empty())
            continue;
        JsonValue v;
        if (!parseJson(line, v) || v.kind != JsonValue::Object) {
            err = "prof-report: " + path + ":" +
                  std::to_string(lineNo) + ": malformed JSON line";
            return false;
        }
        if (!sawHeader) {
            const JsonValue *schema = v.find("schema");
            if (!schema || schema->str != "smtsim-prof-v1") {
                err = "prof-report: " + path +
                      ": not an smtsim-prof-v1 profile";
                return false;
            }
            sawHeader = true;
            continue;
        }
        const JsonValue *type = v.find("type");
        if (!type)
            continue;
        if (type->str == "scope") {
            const JsonValue *name = v.find("name");
            if (!name)
                continue;
            ScopeAgg &agg = rep.scopes[name->str];
            if (agg.hits == 0 && agg.ns == 0 && agg.maxNs == 0)
                rep.scopeOrder.push_back(name->str);
            if (const JsonValue *x = v.find("hits"))
                agg.hits += x->asU64();
            if (const JsonValue *x = v.find("ns"))
                agg.ns += x->asU64();
            if (const JsonValue *x = v.find("maxNs"))
                agg.maxNs = std::max(agg.maxNs, x->asU64());
        } else if (type->str == "wavefront") {
            const JsonValue *core = v.find("core");
            if (!core)
                continue;
            WaveAgg &agg =
                rep.wave[static_cast<int>(core->asI64())];
            if (const JsonValue *x = v.find("worker"))
                agg.worker = static_cast<int>(x->asI64());
            if (const JsonValue *x = v.find("gateWaits"))
                agg.gateWaits += x->asU64();
            if (const JsonValue *x = v.find("spinIters"))
                agg.spinIters += x->asU64();
            if (const JsonValue *x = v.find("yieldIters"))
                agg.yieldIters += x->asU64();
            if (const JsonValue *x = v.find("yieldTransitions"))
                agg.yieldTransitions += x->asU64();
            if (const JsonValue *x = v.find("waitNs"))
                agg.waitNs += x->asU64();
            if (const JsonValue *x = v.find("awaited")) {
                if (agg.awaited.size() < x->arr.size())
                    agg.awaited.resize(x->arr.size(), 0);
                for (std::size_t i = 0; i < x->arr.size(); ++i)
                    agg.awaited[i] += x->arr[i].asU64();
            }
        } else if (type->str == "wave-config") {
            if (const JsonValue *x = v.find("workers"))
                rep.waveWorkers =
                    std::max(rep.waveWorkers,
                             static_cast<int>(x->asI64()));
            if (const JsonValue *x = v.find("cores"))
                rep.waveCores = std::max(
                    rep.waveCores, static_cast<int>(x->asI64()));
            if (const JsonValue *x = v.find("quanta"))
                rep.quanta += x->asU64();
            if (const JsonValue *x = v.find("quantumCycles"))
                rep.quantumCycles += x->asU64();
            if (const JsonValue *x = v.find("quantumEnds"))
                addCounts(rep.quantumEnds, *x);
            if (const JsonValue *x = v.find("lookahead"))
                rep.lookahead = std::max(rep.lookahead, x->asU64());
            if (const JsonValue *x = v.find("llcPosted"))
                rep.llcPosted += x->asU64();
            if (const JsonValue *x = v.find("blockedWaits"))
                rep.blockedWaits += x->asU64();
            if (const JsonValue *x = v.find("resolvedBy"))
                addCounts(rep.resolvedBy, *x);
        } else if (type->str == "run") {
            if (const JsonValue *x = v.find("wallNs"))
                rep.runWallNs += x->asU64();
        } else if (type->str == "job") {
            JobAgg j;
            if (const JsonValue *x = v.find("job"))
                j.job = static_cast<int>(x->asI64());
            if (const JsonValue *x = v.find("wallNs"))
                j.wallNs = x->asU64();
            if (const JsonValue *x = v.find("queueNs"))
                j.queueNs = x->asU64();
            if (const JsonValue *x = v.find("forkNs"))
                j.forkNs = x->asU64();
            if (const JsonValue *x = v.find("reapNs"))
                j.reapNs = x->asU64();
            rep.jobs.push_back(j);
        } else if (type->str == "baseline") {
            if (const JsonValue *x = v.find("computes"))
                rep.baselineComputes += x->asU64();
            if (const JsonValue *x = v.find("waits"))
                rep.baselineWaits += x->asU64();
            if (const JsonValue *x = v.find("waitNs"))
                rep.baselineWaitNs += x->asU64();
        }
    }
    if (!sawHeader) {
        err = "prof-report: " + path + ": empty profile";
        return false;
    }
    return true;
}

double
ms(std::uint64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

double
us(std::uint64_t ns)
{
    return static_cast<double>(ns) / 1e3;
}

std::uint64_t
percentile(std::vector<std::uint64_t> sorted, double p)
{
    if (sorted.empty())
        return 0;
    std::sort(sorted.begin(), sorted.end());
    const double rank =
        p / 100.0 * static_cast<double>(sorted.size());
    std::size_t idx = static_cast<std::size_t>(rank);
    if (static_cast<double>(idx) < rank)
        ++idx; // ceil
    if (idx > 0)
        --idx; // 1-based -> 0-based
    if (idx >= sorted.size())
        idx = sorted.size() - 1;
    return sorted[idx];
}

} // anonymous namespace

bool
renderProfReport(const std::vector<std::string> &paths,
                 const ProfReportOptions &opts, std::string &out,
                 std::string &err)
{
    Report rep;
    for (const std::string &p : paths) {
        if (!ingestFile(p, rep, err))
            return false;
    }

    out.clear();
    out += "host profile: " + std::to_string(rep.files) +
           " file(s), " + std::to_string(rep.scopes.size()) +
           " scope(s)\n";
    out += "note: host wall-clock times; nondeterministic, never "
           "golden-checked\n";

    // -- top scopes by accumulated host time --------------------
    std::vector<std::string> order = rep.scopeOrder;
    std::stable_sort(order.begin(), order.end(),
                     [&rep](const std::string &a,
                            const std::string &b) {
                         return rep.scopes[a].ns > rep.scopes[b].ns;
                     });
    std::uint64_t totalNs = 0;
    for (const auto &kv : rep.scopes)
        totalNs += kv.second.ns;
    if (!order.empty()) {
        out += "\n== top scopes (sampled host wall) ==\n";
        TextTable t;
        t.header({"scope", "hits", "total_ms", "mean_us", "max_us",
                  "share%"});
        int rows = 0;
        for (const std::string &name : order) {
            if (rows++ >= opts.topScopes)
                break;
            const ScopeAgg &s = rep.scopes[name];
            const double mean =
                s.hits ? us(s.ns) / static_cast<double>(s.hits)
                       : 0.0;
            const double share =
                totalNs ? 100.0 * static_cast<double>(s.ns) /
                              static_cast<double>(totalNs)
                        : 0.0;
            t.row({name, std::to_string(s.hits),
                   TextTable::fmt(ms(s.ns), 3),
                   TextTable::fmt(mean, 2),
                   TextTable::fmt(us(s.maxNs), 2),
                   TextTable::fmt(share, 1)});
        }
        out += t.str();
    }

    // -- wavefront gate waits -----------------------------------
    if (!rep.wave.empty()) {
        out += "\n== wavefront gate waits (" +
               std::to_string(rep.waveWorkers) + " worker(s), " +
               std::to_string(rep.waveCores) + " core(s)) ==\n";
        TextTable t;
        t.header({"core", "worker", "waits", "wait_ms", "spins",
                  "yields", "escalations", "avg_wait_us",
                  "top_awaited"});
        for (const auto &kv : rep.wave) {
            const WaveAgg &w = kv.second;
            const double avg =
                w.gateWaits
                    ? us(w.waitNs) /
                          static_cast<double>(w.gateWaits)
                    : 0.0;
            std::string top = "-";
            std::uint64_t best = 0;
            for (std::size_t i = 0; i < w.awaited.size(); ++i) {
                if (w.awaited[i] > best) {
                    best = w.awaited[i];
                    top = "c" + std::to_string(i) + " (" +
                          std::to_string(best) + ")";
                }
            }
            t.row({"c" + std::to_string(kv.first),
                   w.worker >= 0 ? "w" + std::to_string(w.worker)
                                 : "-",
                   std::to_string(w.gateWaits),
                   TextTable::fmt(ms(w.waitNs), 3),
                   std::to_string(w.spinIters),
                   std::to_string(w.yieldIters),
                   std::to_string(w.yieldTransitions),
                   TextTable::fmt(avg, 2), top});
        }
        out += t.str();

        // Quanta: how far the cores ran between main-thread steps,
        // and which lookahead bound cut each quantum short.
        if (rep.quanta > 0) {
            out += "quanta: " + std::to_string(rep.quanta) +
                   ", mean " +
                   TextTable::fmt(static_cast<double>(rep.quantumCycles) /
                                      static_cast<double>(rep.quanta),
                                  1) +
                   " cycles; ended by";
            for (const auto &e : rep.quantumEnds) {
                out += " " + e.first + "=" + std::to_string(e.second);
            }
            out += "\n";
        }

        // Split-transaction LLC: how its requests got resolved, and
        // how often a core had to block for one.
        if (rep.llcPosted > 0) {
            out += "llc requests: " + std::to_string(rep.llcPosted) +
                   " posted, lookahead " +
                   std::to_string(rep.lookahead) + " cycles, " +
                   std::to_string(rep.blockedWaits) +
                   " blocked waits; resolved by";
            for (const auto &e : rep.resolvedBy) {
                out += " " + e.first + "=" + std::to_string(e.second);
            }
            out += "\n";
        }

        // Per-worker view: idle time comes from the wave.w<i>.idle /
        // wave.main.await scopes, gate-wait share from the per-core
        // records owned by that worker.
        if (rep.runWallNs > 0) {
            out += "\n== workers (vs " +
                   TextTable::fmt(ms(rep.runWallNs), 1) +
                   " ms total run wall) ==\n";
            TextTable wt;
            wt.header({"worker", "idle_ms", "util%", "gate_ms",
                       "gate_share%"});
            std::map<int, std::uint64_t> workerGateNs;
            for (const auto &kv : rep.wave) {
                if (kv.second.worker >= 0)
                    workerGateNs[kv.second.worker] +=
                        kv.second.waitNs;
            }
            for (int w = 0; w < std::max(rep.waveWorkers, 1);
                 ++w) {
                const std::string idleScope =
                    w == 0 ? "wave.main.await"
                           : "wave.w" + std::to_string(w) + ".idle";
                std::uint64_t idleNs = 0;
                auto it = rep.scopes.find(idleScope);
                if (it != rep.scopes.end())
                    idleNs = it->second.ns;
                const double wall =
                    static_cast<double>(rep.runWallNs);
                const double util =
                    100.0 *
                    (1.0 - static_cast<double>(idleNs) / wall);
                const std::uint64_t gate = workerGateNs[w];
                wt.row({"w" + std::to_string(w),
                        TextTable::fmt(ms(idleNs), 3),
                        TextTable::fmt(util, 1),
                        TextTable::fmt(ms(gate), 3),
                        TextTable::fmt(
                            100.0 * static_cast<double>(gate) /
                                wall,
                            1)});
            }
            out += wt.str();
        }
    }

    // -- job wall/queue percentiles -----------------------------
    if (!rep.jobs.empty()) {
        std::vector<std::uint64_t> wall, queue;
        std::uint64_t forkNs = 0, reapNs = 0;
        for (const JobAgg &j : rep.jobs) {
            wall.push_back(j.wallNs);
            queue.push_back(j.queueNs);
            forkNs += j.forkNs;
            reapNs += j.reapNs;
        }
        out += "\n== jobs (" + std::to_string(rep.jobs.size()) +
               ") ==\n";
        TextTable t;
        t.header({"metric", "p50_ms", "p90_ms", "p99_ms", "max_ms"});
        auto pctRow = [&t](const char *name,
                           const std::vector<std::uint64_t> &xs) {
            t.row({name, TextTable::fmt(ms(percentile(xs, 50)), 3),
                   TextTable::fmt(ms(percentile(xs, 90)), 3),
                   TextTable::fmt(ms(percentile(xs, 99)), 3),
                   TextTable::fmt(
                       ms(*std::max_element(xs.begin(), xs.end())),
                       3)});
        };
        pctRow("wall", wall);
        pctRow("queue", queue);
        out += t.str();
        if (forkNs || reapNs) {
            out += "isolation overhead: fork " +
                   TextTable::fmt(ms(forkNs), 3) + " ms, reap " +
                   TextTable::fmt(ms(reapNs), 3) + " ms\n";
        }
    }

    // -- baseline cache -----------------------------------------
    if (rep.baselineComputes || rep.baselineWaits) {
        out += "\n== baseline cache ==\n";
        out += "computes " + std::to_string(rep.baselineComputes) +
               ", waits " + std::to_string(rep.baselineWaits) +
               ", wait " + TextTable::fmt(ms(rep.baselineWaitNs), 3) +
               " ms\n";
    }

    return true;
}

} // namespace smt
