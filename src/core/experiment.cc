#include "core/experiment.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "core/analysis_pipeline.hh"
#include "core/cell_executor.hh"
#include "core/result_store.hh"

namespace cassandra::core {

const CellResult *
Experiment::find(const std::string &workload, uarch::Scheme scheme,
                 const std::string &config) const
{
    for (const CellResult &c : cells) {
        if (c.workload == workload && c.scheme == scheme &&
            (config.empty() || c.config == config))
            return &c;
    }
    return nullptr;
}

const char *
cacheModeName(CacheMode mode)
{
    switch (mode) {
      case CacheMode::On:
        return "on";
      case CacheMode::Readonly:
        return "readonly";
      default:
        return "off";
    }
}

CacheMode
cacheModeFromName(const std::string &name)
{
    if (name == "off")
        return CacheMode::Off;
    if (name == "on")
        return CacheMode::On;
    if (name == "readonly" || name == "read-only")
        return CacheMode::Readonly;
    throw std::invalid_argument(
        "unknown cache mode \"" + name +
        "\" (expected off, on or readonly)");
}

unsigned
RunnerOptions::resolveThreads(size_t work) const
{
    unsigned n = threads;
    if (n == 0)
        n = std::max(1u, std::thread::hardware_concurrency());
    return std::min<unsigned>(n, std::max<size_t>(work, 1));
}

ExperimentRunner::ExperimentRunner(WorkloadResolver resolver,
                                   RunnerOptions options)
    : ExperimentRunner(std::make_shared<AnalysisCache>(
                           std::move(resolver), options.analyze),
                       options)
{
}

ExperimentRunner::ExperimentRunner(std::shared_ptr<AnalysisCache> cache,
                                   RunnerOptions options)
    : ExperimentRunner(std::move(cache), options, nullptr)
{
}

ExperimentRunner::ExperimentRunner(std::shared_ptr<AnalysisCache> cache,
                                   RunnerOptions options,
                                   std::shared_ptr<CellExecutor> executor)
    : cache_(std::move(cache)), options_(options),
      executor_(std::move(executor))
{
    if (!cache_)
        throw std::invalid_argument(
            "ExperimentRunner needs an analysis cache");
    if (options_.cacheMode != CacheMode::Off)
        store_ = std::make_shared<ResultStore>(
            options_.cacheDir.empty() ? "result-cache"
                                      : options_.cacheDir);
    if (!executor_)
        executor_ = std::make_shared<InProcessExecutor>(options_.threads);
}

namespace {

/** Distinct names in first-appearance order (registry spelling). */
std::vector<std::string>
distinctNames(const std::vector<std::string> &names)
{
    std::vector<std::string> out;
    std::unordered_set<std::string> seen;
    for (const std::string &name : names) {
        if (seen.insert(name).second)
            out.push_back(name);
    }
    return out;
}

} // namespace

std::vector<AnalyzedWorkload::Ptr>
ExperimentRunner::analyze(const std::vector<std::string> &names,
                          AnalysisPhaseMask phases, TraceMode mode) const
{
    // Phase 1: each distinct workload analyzed exactly once, distinct
    // workloads concurrently. The cache's single-flight get() makes
    // duplicates (and races with other runners on the same cache)
    // share one analysis.
    const std::vector<std::string> distinct = distinctNames(names);
    std::vector<AnalyzedWorkload::Ptr> artifacts(distinct.size());
    runParallel(options_.resolveThreads(distinct.size()),
                distinct.size(), [&](size_t i) {
                    artifacts[i] = cache_->get(distinct[i], phases, mode);
                });

    std::map<std::string, AnalyzedWorkload::Ptr> by_name;
    for (size_t i = 0; i < distinct.size(); i++)
        by_name[distinct[i]] = artifacts[i];
    std::vector<AnalyzedWorkload::Ptr> out;
    out.reserve(names.size());
    for (const std::string &name : names)
        out.push_back(by_name[name]);
    return out;
}

std::vector<AnalyzedWorkload::Ptr>
ExperimentRunner::analyze(const std::vector<std::string> &names) const
{
    return analyze(names, 0, cache_->options().traceMode);
}

AnalysisPhaseMask
ExperimentRunner::neededPhases(
    const std::vector<ExperimentMatrix> &matrices)
{
    AnalysisPhaseMask phases = PhaseTimingTrace;
    for (const ExperimentMatrix &matrix : matrices) {
        for (uarch::Scheme s : matrix.schemes) {
            if (uarch::schemeIsCassandra(s))
                phases |= PhaseTraceImage;
            if (uarch::schemeUsesTaint(s))
                phases |= PhaseTaint;
        }
    }
    return phases;
}

Experiment
ExperimentRunner::run(const ExperimentMatrix &matrix) const
{
    return run(std::vector<ExperimentMatrix>{matrix});
}

Experiment
ExperimentRunner::run(const std::vector<ExperimentMatrix> &matrices) const
{
    // Plan: flatten the cross products up front so the executor fills
    // a fixed slot array — result order never depends on scheduling or
    // threads.
    const std::vector<SimConfig> default_configs{SimConfig{}};

    std::vector<PlannedCell> cells;
    std::vector<std::string> names;
    for (const ExperimentMatrix &matrix : matrices) {
        const std::vector<SimConfig> &configs =
            matrix.configs.empty() ? default_configs : matrix.configs;
        for (const std::string &w : matrix.workloads) {
            names.push_back(w);
            for (uarch::Scheme s : matrix.schemes)
                for (const SimConfig &c : configs)
                    cells.push_back(PlannedCell{w, s, c});
        }
    }

    // Phase 1: analyze once per distinct workload (analyze() dedups),
    // requesting only the phases the matrices' schemes consume, and
    // streaming the traces when any cell config asks for it.
    const AnalysisPhaseMask phases = neededPhases(matrices);
    TraceMode mode = cache_->options().traceMode;
    for (const ExperimentMatrix &matrix : matrices) {
        for (const SimConfig &c : matrix.configs) {
            if (c.traceMode == TraceMode::Stream)
                mode = TraceMode::Stream;
        }
    }
    Experiment exp;
    // Pipeline counters are process-wide cumulative; the telemetry of
    // one dispatch is the delta across it.
    const uint64_t fused_base = fusedAnalysisPasses();
    const ReplayCounters replay0 = replayCounters();
    // Resolve the artifacts without any phases: recording is
    // demand-driven, so workloads whose cells all replay from the
    // result store are never analyzed at all. Phases for the cells
    // that do simulate run in parallel after the store filter below.
    std::vector<AnalyzedWorkload::Ptr> artifacts =
        analyze(names, 0, mode);
    for (size_t i = 0; i < names.size(); i++)
        exp.artifacts.emplace(names[i], artifacts[i]);

    // Result store: replay every cell whose key hits, dispatch only
    // the misses. Filtering happens here in the coordinator, so any
    // executor gets the cache for free and the merged vector stays
    // byte-identical to an uncached run.
    exp.telemetry.cacheEnabled = store_ != nullptr;
    exp.telemetry.cacheMode = cacheModeName(options_.cacheMode);
    if (store_)
        exp.telemetry.cacheDir = store_->dir();

    std::vector<CellResult> results(cells.size());
    std::vector<ResultStoreKey> keys;
    std::vector<size_t> pending_slots;
    std::vector<PlannedCell> pending;
    for (size_t i = 0; i < cells.size(); i++) {
        const PlannedCell &cell = cells[i];
        const AnalyzedWorkload &artifact = *exp.artifacts.at(cell.workload);
        if (store_) {
            SimConfig cfg = cell.config;
            cfg.scheme = cell.scheme;
            keys.push_back(
                resultStoreKey(artifact.workload(), cell.scheme, cfg));
            ExperimentResult cached;
            if (store_->lookup(keys.back(), cached)) {
                // Named like a fresh cell, so it is indistinguishable.
                results[i] = namedResult(cell, artifact, cached);
                continue;
            }
        }
        pending_slots.push_back(i);
        pending.push_back(cell);
    }
    exp.telemetry.cachedCells = cells.size() - pending.size();
    exp.telemetry.simulatedCells = pending.size();

    // Phase 2: dispatch the missing cells to the executor and merge.
    // The executor fills fixed slots, so the cells come back in
    // matrix order whatever it did to run them.
    if (!pending.empty()) {
        // Phase 1b: analyze once per distinct workload that still has
        // cells to simulate — concurrently, requesting exactly the
        // phases the pending schemes consume.
        std::vector<AnalyzedWorkload::Ptr> todo;
        std::unordered_set<std::string> seen_names;
        for (const PlannedCell &cell : pending)
            if (seen_names.insert(cell.workload).second)
                todo.push_back(exp.artifacts.at(cell.workload));
        runParallel(options_.resolveThreads(todo.size()), todo.size(),
                    [&](size_t i) { todo[i]->ensurePhases(phases); });

        // Opt-in dedup (RunnerOptions::dedupCells): identical cells
        // — same workload, scheme and canonical sim parameters —
        // dispatch once; executors are required to be byte-identical
        // per cell, so replicating the result into every requesting
        // slot (with each slot's own naming fields) cannot change any
        // report. owner[j] is pending[j]'s representative in `unique`.
        std::vector<size_t> owner(pending.size());
        std::vector<PlannedCell> unique;
        if (options_.dedupCells) {
            std::map<std::string, size_t> reps;
            for (size_t j = 0; j < pending.size(); j++) {
                const PlannedCell &cell = pending[j];
                SimConfig cfg = cell.config;
                cfg.scheme = cell.scheme;
                const std::string key = cell.workload + '\0' +
                    uarch::schemeName(cell.scheme) + '\0' +
                    std::to_string(canonicalSimConfigHash(cfg, cell.scheme));
                const auto [it, inserted] =
                    reps.emplace(key, unique.size());
                if (inserted)
                    unique.push_back(cell);
                owner[j] = it->second;
            }
        } else {
            unique = pending;
            for (size_t j = 0; j < pending.size(); j++)
                owner[j] = j;
        }
        exp.telemetry.dedupedCells = pending.size() - unique.size();
        exp.telemetry.simulatedCells = unique.size();

        std::vector<CellResult> fresh =
            executor_->execute(unique, exp.artifacts);
        if (fresh.size() != unique.size())
            throw std::logic_error("cell executor returned a result "
                                   "vector of the wrong size");
        std::vector<char> stored(unique.size(), 0);
        for (size_t j = 0; j < pending.size(); j++) {
            const PlannedCell &cell = pending[j];
            if (store_ && options_.cacheMode == CacheMode::On &&
                !stored[owner[j]]) {
                // Duplicates share a store key by construction (the
                // canonical hash is the key), so one write suffices.
                store_->store(keys[pending_slots[j]],
                              fresh[owner[j]].result);
                stored[owner[j]] = 1;
            }
            results[pending_slots[j]] =
                namedResult(cell, *exp.artifacts.at(cell.workload),
                            fresh[owner[j]].result);
        }
    }
    exp.cells = std::move(results);

    // Analysis observability: every artifact whose Algorithm 2 phase
    // ran (or was adopted from a snapshot) reports its accumulator
    // peak. Keyed by name and emitted in map order so the stats
    // document is deterministic across thread schedules. Each distinct
    // recorded artifact adds the trace bytes it holds.
    std::unordered_set<const AnalyzedWorkload *> held;
    for (const auto &[name, artifact] : exp.artifacts) {
        if (artifact->hasTraceImage())
            exp.telemetry.analysisPeaks.emplace_back(
                name, artifact->traces().peakAccumBytes);
        if (artifact->hasTimingTrace() && held.insert(artifact.get()).second)
            exp.telemetry.traceBytes += artifact->heldFrames().bytes();
    }

    if (store_) {
        const ResultStore::Stats stats = store_->stats();
        exp.telemetry.cacheHits = stats.hits;
        exp.telemetry.cacheMisses = stats.misses;
        exp.telemetry.cacheStores = stats.stores;
        exp.telemetry.cacheEvictions = stats.evictions;
    }
    exp.telemetry.analysisFusedPasses =
        fusedAnalysisPasses() - fused_base;
    const ReplayCounters replay = replayCounters();
    exp.telemetry.framesDecoded = replay.framesDecoded - replay0.framesDecoded;
    exp.telemetry.framesReplayed =
        replay.framesReplayed - replay0.framesReplayed;
    exp.telemetry.replayWaits = replay.replayWaits - replay0.replayWaits;
    return exp;
}

// ---------------------------------------------------------------------
// Derived metrics
// ---------------------------------------------------------------------

DerivedMetrics
computeDerived(const Experiment &exp)
{
    DerivedMetrics d;
    d.cyclesVsBaseline.assign(exp.cells.size(),
                              std::numeric_limits<double>::quiet_NaN());

    // One indexing pass over the baseline cells (first match wins,
    // like Experiment::find) keeps the whole computation linear.
    std::unordered_map<std::string, uint64_t> base_by_config;
    std::unordered_map<std::string, uint64_t> base_by_workload;
    auto config_key = [](const CellResult &c) {
        return c.workload + '\0' + c.config;
    };
    for (const CellResult &cell : exp.cells) {
        if (cell.scheme != uarch::Scheme::UnsafeBaseline)
            continue;
        base_by_config.emplace(config_key(cell),
                               cell.result.stats.cycles);
        base_by_workload.emplace(cell.workload,
                                 cell.result.stats.cycles);
    }

    for (size_t i = 0; i < exp.cells.size(); i++) {
        const CellResult &cell = exp.cells[i];
        // Prefer the baseline run of the same config variant; fall
        // back to any baseline of the workload (sweeps like Q4 pair
        // one baseline config against many scheme configs).
        uint64_t base_cycles = 0;
        auto it = base_by_config.find(config_key(cell));
        if (it != base_by_config.end()) {
            base_cycles = it->second;
        } else {
            auto fallback = base_by_workload.find(cell.workload);
            if (fallback != base_by_workload.end())
                base_cycles = fallback->second;
        }
        if (base_cycles)
            d.cyclesVsBaseline[i] =
                static_cast<double>(cell.result.stats.cycles) /
                static_cast<double>(base_cycles);
    }

    struct Acc
    {
        double logSum = 0.0;
        size_t n = 0;
    };
    std::vector<Acc> accs;
    for (size_t i = 0; i < exp.cells.size(); i++) {
        double v = d.cyclesVsBaseline[i];
        if (!std::isfinite(v) || v <= 0.0)
            continue;
        const CellResult &cell = exp.cells[i];
        size_t g = 0;
        for (; g < d.geomeans.size(); g++) {
            if (d.geomeans[g].scheme == cell.scheme &&
                d.geomeans[g].config == cell.config)
                break;
        }
        if (g == d.geomeans.size()) {
            DerivedMetrics::Geomean gm;
            gm.scheme = cell.scheme;
            gm.config = cell.config;
            d.geomeans.push_back(gm);
            accs.push_back(Acc{});
        }
        accs[g].logSum += std::log(v);
        accs[g].n++;
    }
    for (size_t g = 0; g < d.geomeans.size(); g++) {
        d.geomeans[g].cyclesVsBaseline =
            std::exp(accs[g].logSum / accs[g].n);
        d.geomeans[g].workloads = accs[g].n;
    }
    return d;
}

// ---------------------------------------------------------------------
// Reporters
// ---------------------------------------------------------------------

namespace {

/** JSON string escaping (control chars, quotes, backslash). */
std::string
jsonEscaped(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char ch : s) {
        switch (ch) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

/**
 * One JSON object's key/value emitter, keeping track of comma
 * placement. A multi-line object puts each key on its own line,
 * `indent` spaces in; a one-line object (indent < 0) separates its
 * keys with ", ".
 */
class JsonObject
{
  public:
    JsonObject(std::ostream &os, int indent) : os_(os), indent_(indent) {}

    void
    field(const char *key, uint64_t v)
    {
        prefix(key);
        os_ << v;
    }

    void
    field(const char *key, double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6f", v);
        prefix(key);
        os_ << buf;
    }

    void
    field(const char *key, const std::string &v)
    {
        prefix(key);
        os_ << '"' << jsonEscaped(v) << '"';
    }

    /** Open an object under `key`, nested one level deeper; close() it
     * before the next key of this one. */
    JsonObject
    nested(const char *key, bool one_line = false)
    {
        prefix(key);
        os_ << "{";
        return JsonObject(os_, one_line ? -1 : indent_ + 2);
    }

    /** The closing brace, on a line of its own unless one-line. */
    void
    close()
    {
        if (indent_ >= 0)
            newline(indent_ - 2);
        os_ << "}";
    }

  private:
    void
    prefix(const char *key)
    {
        if (!first_)
            os_ << (indent_ < 0 ? ", " : ",");
        first_ = false;
        if (indent_ >= 0)
            newline(indent_);
        os_ << '"' << key << "\": ";
    }

    void
    newline(int indent)
    {
        os_ << "\n" << std::string(indent, ' ');
    }

    std::ostream &os_;
    int indent_;
    bool first_ = true;
};

/**
 * The counters of `result` below the top level, in
 * forEachResultCounter order, each in the object its section names
 * under `cell`: "core" is a multi-line object, "caches.l1i" a one-line
 * object "l1i" inside "caches".
 */
void
writeCounterSections(JsonObject &cell, const ExperimentResult &result)
{
    std::string group_key, level_key; // keys of the open objects
    std::optional<JsonObject> group, level;
    forEachResultCounter(result, [&](const char *section, const char *key,
                                     uint64_t v) {
        if (!*section)
            return;
        const char *dot = std::strchr(section, '.');
        const std::string g = dot ? std::string(section, dot) : section;
        const std::string l = dot ? dot + 1 : "";
        if (level && (g != group_key || l != level_key)) {
            level->close();
            level.reset();
        }
        if (g != group_key) {
            if (group)
                group->close();
            group.emplace(cell.nested(g.c_str()));
            group_key = g;
        }
        if (!l.empty() && !level) {
            level.emplace(group->nested(l.c_str(), /*one_line=*/true));
            level_key = l;
        }
        (level ? *level : *group).field(key, v);
    });
    if (level)
        level->close();
    if (group)
        group->close();
}

} // namespace

void
TableReporter::write(const Experiment &exp, std::ostream &os) const
{
    const DerivedMetrics derived = computeDerived(exp);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%-28s %-10s %-18s %-14s %12s %12s %6s %10s %10s %8s\n",
                  "workload", "suite", "scheme", "config", "cycles",
                  "insts", "ipc", "btu_hits", "mispred", "vs_base");
    os << buf;
    os << std::string(136, '-') << "\n";
    for (size_t i = 0; i < exp.cells.size(); i++) {
        const CellResult &c = exp.cells[i];
        char vs_base[16];
        if (std::isfinite(derived.cyclesVsBaseline[i]))
            std::snprintf(vs_base, sizeof(vs_base), "%.4f",
                          derived.cyclesVsBaseline[i]);
        else
            std::snprintf(vs_base, sizeof(vs_base), "-");
        std::snprintf(
            buf, sizeof(buf),
            "%-28s %-10s %-18s %-14s %12llu %12llu %6.2f %10llu %10llu "
            "%8s\n",
            c.workload.c_str(), c.suite.c_str(),
            uarch::schemeName(c.scheme), c.config.c_str(),
            static_cast<unsigned long long>(c.result.stats.cycles),
            static_cast<unsigned long long>(c.result.stats.instructions),
            c.result.stats.ipc(),
            static_cast<unsigned long long>(c.result.btu.hits +
                                            c.result.btu.singleTargetHits),
            static_cast<unsigned long long>(
                c.result.stats.condMispredicts),
            vs_base);
        os << buf;
    }
    if (!derived.geomeans.empty()) {
        os << std::string(136, '-') << "\n";
        for (const auto &g : derived.geomeans) {
            std::snprintf(
                buf, sizeof(buf),
                "%-28s %-10s %-18s %-14s %12s %12s %6s %10s %10s %8.4f\n",
                "geomean", "", uarch::schemeName(g.scheme),
                g.config.c_str(), "", "", "", "", "",
                g.cyclesVsBaseline);
            os << buf;
        }
    }
}

void
JsonReporter::write(const Experiment &exp, std::ostream &os) const
{
    const DerivedMetrics derived = computeDerived(exp);
    os << "{\n  \"results\": [";
    bool first_cell = true;
    for (size_t i = 0; i < exp.cells.size(); i++) {
        const CellResult &c = exp.cells[i];
        if (!first_cell)
            os << ",";
        first_cell = false;
        os << "\n    {";
        JsonObject o(os, 6);
        o.field("workload", c.workload);
        o.field("suite", c.suite);
        o.field("scheme", std::string(uarch::schemeName(c.scheme)));
        o.field("config", c.config);
        forEachResultCounter(c.result, [&](const char *section,
                                           const char *key, uint64_t v) {
            if (!*section)
                o.field(key, v);
        });
        o.field("ipc", c.result.stats.ipc());
        if (std::isfinite(derived.cyclesVsBaseline[i]))
            o.field("cycles_vs_baseline", derived.cyclesVsBaseline[i]);
        writeCounterSections(o, c.result);
        os << "\n    }";
    }
    os << "\n  ],\n  \"geomeans\": [";
    bool first_geo = true;
    for (const auto &g : derived.geomeans) {
        if (!first_geo)
            os << ",";
        first_geo = false;
        os << "\n    {";
        JsonObject o(os, 6);
        o.field("scheme", std::string(uarch::schemeName(g.scheme)));
        o.field("config", g.config);
        o.field("cycles_vs_baseline", g.cyclesVsBaseline);
        o.field("workloads", static_cast<uint64_t>(g.workloads));
        os << "\n    }";
    }
    os << "\n  ]\n}\n";
}

void
CsvReporter::write(const Experiment &exp, std::ostream &os) const
{
    const DerivedMetrics derived = computeDerived(exp);
    os << "workload,suite,scheme,config,cycles,instructions,ipc,"
          "branches,crypto_branches,cond_mispredicts,resolve_stalls,"
          "btu_lookups,btu_hits,btu_misses,btu_evictions,"
          "l1i_accesses,l1i_misses,l1d_accesses,l1d_misses,"
          "l2_accesses,l2_misses,l3_accesses,l3_misses,"
          "cycles_vs_baseline\n";
    // Commas inside names (none today) would corrupt rows; quote
    // defensively when present.
    auto cell = [](const std::string &s) {
        if (s.find(',') == std::string::npos &&
            s.find('"') == std::string::npos)
            return s;
        std::string quoted = "\"";
        for (char ch : s) {
            if (ch == '"')
                quoted += '"';
            quoted += ch;
        }
        quoted += '"';
        return quoted;
    };
    for (size_t i = 0; i < exp.cells.size(); i++) {
        const CellResult &c = exp.cells[i];
        const uarch::CoreStats &s = c.result.stats;
        const btu::BtuStats &b = c.result.btu;
        const CacheActivity &ca = c.result.caches;
        char ipc_buf[32];
        std::snprintf(ipc_buf, sizeof(ipc_buf), "%.6f", s.ipc());
        char vs_buf[32] = "";
        if (std::isfinite(derived.cyclesVsBaseline[i]))
            std::snprintf(vs_buf, sizeof(vs_buf), "%.6f",
                          derived.cyclesVsBaseline[i]);
        os << cell(c.workload) << ',' << cell(c.suite) << ','
           << uarch::schemeName(c.scheme) << ',' << cell(c.config) << ','
           << s.cycles << ',' << s.instructions << ',' << ipc_buf << ','
           << s.branches << ',' << s.cryptoBranches << ','
           << s.condMispredicts << ',' << s.resolveStalls << ','
           << b.lookups << ',' << b.hits + b.singleTargetHits << ','
           << b.misses << ',' << b.evictions << ',' << ca.l1iAccesses
           << ',' << ca.l1iMisses << ',' << ca.l1dAccesses << ','
           << ca.l1dMisses << ',' << ca.l2Accesses << ',' << ca.l2Misses
           << ',' << ca.l3Accesses << ',' << ca.l3Misses << ','
           << vs_buf << "\n";
    }
    // Per-scheme geomean rows: the 19 counter columns stay empty, the
    // derived column carries the geometric mean.
    for (const auto &g : derived.geomeans) {
        char geo_buf[32];
        std::snprintf(geo_buf, sizeof(geo_buf), "%.6f",
                      g.cyclesVsBaseline);
        os << "geomean,," << uarch::schemeName(g.scheme) << ','
           << cell(g.config);
        for (int col = 0; col < 19; col++)
            os << ',';
        os << ',' << geo_buf << "\n";
    }
}

void
writeRunTelemetry(const RunTelemetry &telemetry, std::ostream &os)
{
    os << "{\n  \"cache_stats\": {";
    {
        JsonObject o(os, 4);
        o.field("mode", telemetry.cacheMode.empty()
                    ? std::string("off")
                    : telemetry.cacheMode);
        if (telemetry.cacheEnabled) {
            o.field("dir", telemetry.cacheDir);
            o.field("hits", telemetry.cacheHits);
            o.field("misses", telemetry.cacheMisses);
            o.field("stores", telemetry.cacheStores);
            o.field("evictions", telemetry.cacheEvictions);
        }
        o.field("cached_cells", telemetry.cachedCells);
        o.field("simulated_cells", telemetry.simulatedCells);
        o.field("deduped_cells", telemetry.dedupedCells);
    }
    os << "\n  },\n  \"pipeline\": {";
    {
        JsonObject o(os, 4);
        o.field("analysis_fused_passes", telemetry.analysisFusedPasses);
        o.field("frames_decoded", telemetry.framesDecoded);
        o.field("frames_replayed", telemetry.framesReplayed);
        o.field("replay_waits", telemetry.replayWaits);
        o.field("trace_bytes", telemetry.traceBytes);
    }
    os << "\n  },\n  \"analysis\": ";
    if (telemetry.analysisPeaks.empty()) {
        os << "null";
    } else {
        os << "{";
        JsonObject o(os, 4);
        o.field("image_runs",
                static_cast<uint64_t>(telemetry.analysisPeaks.size()));
        uint64_t peak = 0;
        for (const auto &[name, bytes] : telemetry.analysisPeaks)
            peak = std::max(peak, bytes);
        o.field("peak_accum_bytes", peak);
        JsonObject peaks = o.nested("workloads", /*one_line=*/true);
        for (const auto &[name, bytes] : telemetry.analysisPeaks)
            peaks.field(name.c_str(), bytes);
        peaks.close();
        os << "\n  }";
    }
    os << "\n}\n";
}

std::unique_ptr<Reporter>
makeReporter(const std::string &format)
{
    if (format == "table")
        return std::make_unique<TableReporter>();
    if (format == "json")
        return std::make_unique<JsonReporter>();
    if (format == "csv")
        return std::make_unique<CsvReporter>();
    throw std::invalid_argument("unknown report format \"" + format +
                                "\" (expected table, json or csv)");
}

} // namespace cassandra::core
