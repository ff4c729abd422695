#include "sim/experiment.hh"

#include <cstdint>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "sim/metrics.hh"
#include "sim/simulator.hh"

namespace smt {

ExperimentContext::ExperimentContext(
    const SimConfig &base_, std::uint64_t commitLimit,
    std::uint64_t warmupCommits,
    std::shared_ptr<BaselineCache> baselines_)
    : base(base_), limit(commitLimit), warmup(warmupCommits),
      baselines(baselines_ ? std::move(baselines_)
                           : std::make_shared<BaselineCache>())
{
}

double
ExperimentContext::singleThreadIpc(const std::string &bench)
{
    return baselines->ipc(base, bench, limit, warmup);
}

RunSummary
ExperimentContext::runWorkload(const Workload &w, PolicyKind policy)
{
    // Runs on the single-core machine whatever base.soc says, like
    // its baselines (see BaselineCache).
    SimConfig one = base;
    one.soc = SocParams();
    Simulator sim(one, w.benches, policy);
    RunSummary s;
    s.raw = sim.run(limit, 50'000'000, warmup);
    for (std::size_t i = 0; i < w.benches.size(); ++i) {
        s.multiIpc.push_back(s.raw.threads[i].ipc);
        s.singleIpc.push_back(singleThreadIpc(w.benches[i]));
    }
    s.throughput = s.raw.throughput();
    s.hmean = hmeanSpeedup(s.multiIpc, s.singleIpc);
    return s;
}

namespace {

std::string
doubleArrayJson(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ",";
        out += fmtDoubleExact(v[i]);
    }
    out += "]";
    return out;
}

std::string
u64ArrayJson(const std::vector<std::uint64_t> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ",";
        out += fmtU64(v[i]);
    }
    out += "]";
    return out;
}

bool
doubleArrayFromJson(const JsonValue *v, std::vector<double> &out)
{
    if (!v || v->kind != JsonValue::Array)
        return false;
    out.clear();
    for (const JsonValue &e : v->arr) {
        if (e.kind != JsonValue::Number)
            return false;
        out.push_back(e.asDouble());
    }
    return true;
}

bool
u64ArrayFromJson(const JsonValue *v, std::vector<std::uint64_t> &out)
{
    if (!v || v->kind != JsonValue::Array)
        return false;
    out.clear();
    for (const JsonValue &e : v->arr) {
        if (e.kind != JsonValue::Number)
            return false;
        out.push_back(e.asU64());
    }
    return true;
}

bool
numberField(const JsonValue &obj, const char *key, double &out)
{
    const JsonValue *v = obj.find(key);
    if (!v || v->kind != JsonValue::Number)
        return false;
    out = v->asDouble();
    return true;
}

bool
u64Field(const JsonValue &obj, const char *key, std::uint64_t &out)
{
    const JsonValue *v = obj.find(key);
    if (!v || v->kind != JsonValue::Number)
        return false;
    out = v->asU64();
    return true;
}

} // anonymous namespace

std::string
runSummaryToJson(const RunSummary &s)
{
    const SimResult &r = s.raw;
    std::string out = "{\"throughput\":" +
        fmtDoubleExact(s.throughput);
    out += ",\"hmean\":" + fmtDoubleExact(s.hmean);
    out += ",\"multiIpc\":" + doubleArrayJson(s.multiIpc);
    out += ",\"singleIpc\":" + doubleArrayJson(s.singleIpc);
    out += ",\"cycles\":" + fmtU64(r.cycles);
    out += ",\"slowPhaseCycles\":" + u64ArrayJson(r.slowPhaseCycles);
    out += ",\"mlpBusyMean\":" + fmtDoubleExact(r.mlpBusyMean);
    out += ",\"threads\":[";
    for (std::size_t t = 0; t < r.threads.size(); ++t) {
        const ThreadResult &tr = r.threads[t];
        if (t)
            out += ",";
        out += "{\"bench\":\"" + jsonEscape(tr.bench) + "\"";
        out += ",\"committed\":" + fmtU64(tr.committed);
        out += ",\"ipc\":" + fmtDoubleExact(tr.ipc);
        out += ",\"fetched\":" + fmtU64(tr.fetched);
        out += ",\"fetchedWrongPath\":" +
            fmtU64(tr.fetchedWrongPath);
        out += ",\"squashed\":" + fmtU64(tr.squashed);
        out += ",\"condBranches\":" + fmtU64(tr.condBranches);
        out += ",\"mispredicts\":" + fmtU64(tr.mispredicts);
        out += ",\"flushes\":" + fmtU64(tr.flushes);
        out += ",\"l1dAccesses\":" + fmtU64(tr.l1dAccesses);
        out += ",\"l1dMisses\":" + fmtU64(tr.l1dMisses);
        out += ",\"l2Accesses\":" + fmtU64(tr.l2Accesses);
        out += ",\"l2Misses\":" + fmtU64(tr.l2Misses);
        out += "}";
    }
    out += "]";
    // Chip-level extras ride along unconditionally: they are all
    // zero/empty for single-core runs and the sinks only render them
    // when coreCommitHashes is nonempty, exactly as for a live run.
    out += ",\"coreCommitHashes\":" +
        u64ArrayJson(r.coreCommitHashes);
    out += ",\"migrations\":" + fmtU64(r.migrations);
    out += ",\"allocEpochs\":" + fmtU64(r.allocEpochs);
    out += ",\"llcAccesses\":" + fmtU64(r.llcAccesses);
    out += ",\"llcMisses\":" + fmtU64(r.llcMisses);
    out += ",\"llcArbiter\":\"" + jsonEscape(r.llcArbiter) + "\"";
    out += ",\"llcShareReassignments\":" +
        fmtU64(r.llcShareReassignments);
    out += ",\"llcPerCore\":[";
    for (std::size_t c = 0; c < r.llcPerCore.size(); ++c) {
        const LlcCoreStats &cs = r.llcPerCore[c];
        if (c)
            out += ",";
        out += "{\"accesses\":" + fmtU64(cs.accesses);
        out += ",\"misses\":" + fmtU64(cs.misses);
        out += ",\"mshrShare\":" + std::to_string(cs.mshrShare);
        out += ",\"ways\":" + std::to_string(cs.ways);
        out += ",\"linesOwned\":" + fmtU64(cs.linesOwned);
        out += "}";
    }
    out += "]}";
    return out;
}

bool
runSummaryFromJson(const JsonValue &v, RunSummary &out)
{
    if (v.kind != JsonValue::Object)
        return false;
    SimResult &r = out.raw;
    if (!numberField(v, "throughput", out.throughput) ||
        !numberField(v, "hmean", out.hmean) ||
        !doubleArrayFromJson(v.find("multiIpc"), out.multiIpc) ||
        !doubleArrayFromJson(v.find("singleIpc"), out.singleIpc) ||
        !u64Field(v, "cycles", r.cycles) ||
        !u64ArrayFromJson(v.find("slowPhaseCycles"),
                          r.slowPhaseCycles) ||
        !numberField(v, "mlpBusyMean", r.mlpBusyMean) ||
        !u64ArrayFromJson(v.find("coreCommitHashes"),
                          r.coreCommitHashes) ||
        !u64Field(v, "migrations", r.migrations) ||
        !u64Field(v, "allocEpochs", r.allocEpochs) ||
        !u64Field(v, "llcAccesses", r.llcAccesses) ||
        !u64Field(v, "llcMisses", r.llcMisses) ||
        !u64Field(v, "llcShareReassignments",
                  r.llcShareReassignments)) {
        return false;
    }
    const JsonValue *arb = v.find("llcArbiter");
    if (!arb || arb->kind != JsonValue::String)
        return false;
    r.llcArbiter = arb->str;

    const JsonValue *threads = v.find("threads");
    if (!threads || threads->kind != JsonValue::Array)
        return false;
    r.threads.clear();
    for (const JsonValue &tv : threads->arr) {
        if (tv.kind != JsonValue::Object)
            return false;
        ThreadResult tr;
        const JsonValue *bench = tv.find("bench");
        if (!bench || bench->kind != JsonValue::String)
            return false;
        tr.bench = bench->str;
        double ipc = 0.0;
        if (!u64Field(tv, "committed", tr.committed) ||
            !numberField(tv, "ipc", ipc) ||
            !u64Field(tv, "fetched", tr.fetched) ||
            !u64Field(tv, "fetchedWrongPath", tr.fetchedWrongPath) ||
            !u64Field(tv, "squashed", tr.squashed) ||
            !u64Field(tv, "condBranches", tr.condBranches) ||
            !u64Field(tv, "mispredicts", tr.mispredicts) ||
            !u64Field(tv, "flushes", tr.flushes) ||
            !u64Field(tv, "l1dAccesses", tr.l1dAccesses) ||
            !u64Field(tv, "l1dMisses", tr.l1dMisses) ||
            !u64Field(tv, "l2Accesses", tr.l2Accesses) ||
            !u64Field(tv, "l2Misses", tr.l2Misses)) {
            return false;
        }
        tr.ipc = ipc;
        r.threads.push_back(std::move(tr));
    }

    const JsonValue *perCore = v.find("llcPerCore");
    if (!perCore || perCore->kind != JsonValue::Array)
        return false;
    r.llcPerCore.clear();
    for (const JsonValue &cv : perCore->arr) {
        if (cv.kind != JsonValue::Object)
            return false;
        LlcCoreStats cs;
        const JsonValue *share = cv.find("mshrShare");
        const JsonValue *ways = cv.find("ways");
        if (!u64Field(cv, "accesses", cs.accesses) ||
            !u64Field(cv, "misses", cs.misses) || !share ||
            share->kind != JsonValue::Number || !ways ||
            ways->kind != JsonValue::Number ||
            !u64Field(cv, "linesOwned", cs.linesOwned)) {
            return false;
        }
        cs.mshrShare = static_cast<int>(share->asI64());
        cs.ways = static_cast<int>(ways->asI64());
        r.llcPerCore.push_back(cs);
    }
    return true;
}

CellAverage
ExperimentContext::runCell(int numThreads, WorkloadType type,
                           PolicyKind policy)
{
    const auto cell = workloadsOf(numThreads, type);
    SMT_ASSERT(!cell.empty(), "empty workload cell");
    CellAverage avg;
    for (const Workload &w : cell) {
        const RunSummary s = runWorkload(w, policy);
        avg.throughput += s.throughput;
        avg.hmean += s.hmean;
    }
    avg.throughput /= static_cast<double>(cell.size());
    avg.hmean /= static_cast<double>(cell.size());
    return avg;
}

} // namespace smt
