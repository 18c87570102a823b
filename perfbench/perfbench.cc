/**
 * @file
 * Benchmark program of the simulator harness (see perfbench/README.md).
 *
 *   perfbench sweep  --workload W --seed N --threads T --work DIR
 *   perfbench traced --workload W --seed N --work DIR
 *
 * `sweep` runs one cold batch sweep of workload W through
 * ExperimentRunner::run, checks every cell and prints one JSON line
 * with the end-to-end figures (wall, instructions, peak RSS, set-up
 * time, the Cassandra cycle ratio and a digest of every cell result).
 *
 * `traced` re-executes the same matrix single-threaded, layer by
 * layer, timing calls into each module's public entry points from
 * here (no spans inside the library), reconciles the layer times
 * against a plain one-thread ExperimentRunner::run of the same matrix,
 * and prints one JSON line of per-layer metrics.
 *
 * The seed only permutes the order of the matrix's kernels and
 * configs: inputs are fixed in-program, so per-cell results must not
 * depend on it (the digest lets the caller check that).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/analysis_pipeline.hh"
#include "core/byte_io.hh"
#include "core/cell_executor.hh"
#include "core/experiment.hh"
#include "core/result_store.hh"
#include "core/serialize.hh"
#include "core/trace_stream.hh"
#include "core/tracegen.hh"
#include "crypto/workload_registry.hh"
#include "sim/machine.hh"
#include "uarch/pipeline.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace cassandra;
using uarch::Scheme;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** One benchmark workload: a single batch sweep. */
struct BenchWorkload
{
    std::string name;
    std::vector<std::string> kernels;
    std::vector<Scheme> schemes;
    std::vector<core::SimConfig> configs;
    core::TraceMode mode = core::TraceMode::Whole;
    bool resultStore = false;
    /** Collapse cells that differ only in knobs their scheme ignores
     * (the baseline under a BTU sweep). */
    bool dedup = false;
};

BenchWorkload
benchWorkload(const std::string &name)
{
    BenchWorkload w;
    w.name = name;
    const core::SimConfig base;
    if (name == "tls-stream") {
        w.kernels = {"server/tls/64"};
        w.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra,
                     Scheme::CassandraLite, Scheme::Spt,
                     Scheme::CassandraProspect};
        w.configs = {base.withTraceMode(core::TraceMode::Stream)};
        w.mode = core::TraceMode::Stream;
    } else if (name == "suite-whole") {
        const auto &reg = crypto::WorkloadRegistry::global();
        for (const char *suite : {"BearSSL", "OpenSSL", "PQC"})
            for (const std::string &k : reg.names(suite))
                w.kernels.push_back(k);
        w.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra,
                     Scheme::CassandraStl, Scheme::Spt};
        w.configs = {base};
        w.resultStore = true;
    } else if (name == "btu-sweep") {
        // The axes of bench/ablation_btu: fill latency at 16 ways and
        // way count at fill 14, around the default 1x16 / fill 14.
        w.kernels = {"DES_ct", "SHA-256", "EC_c25519_i31", "ChaCha20_ct",
                     "kyber768"};
        w.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra,
                     Scheme::CassandraStl};
        w.configs = {base};
        for (unsigned lat : {5u, 40u, 200u})
            w.configs.push_back(base.withBtuFillLatency(lat).named(
                "fill=" + std::to_string(lat)));
        for (size_t ways : {1, 2, 4, 8, 32})
            w.configs.push_back(base.withBtuGeometry(1, ways).named(
                "ways=" + std::to_string(ways)));
        w.dedup = true;
    } else {
        throw std::invalid_argument(
            "unknown workload \"" + name +
            "\" (expected tls-stream, suite-whole or btu-sweep)");
    }
    return w;
}

/** The seed permutes kernel and config order, nothing else. */
void
permute(BenchWorkload &w, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::shuffle(w.kernels.begin(), w.kernels.end(), rng);
    std::shuffle(w.configs.begin(), w.configs.end(), rng);
}

core::ExperimentMatrix
matrixOf(const BenchWorkload &w)
{
    core::ExperimentMatrix m;
    m.workloads = w.kernels;
    m.schemes = w.schemes;
    m.configs = w.configs;
    return m;
}

bool
needsImage(const BenchWorkload &w)
{
    return std::any_of(w.schemes.begin(), w.schemes.end(),
                       uarch::schemeIsCassandra);
}

bool
needsTaint(Scheme s)
{
    return s == Scheme::Prospect || s == Scheme::CassandraProspect;
}

bool
needsTaint(const BenchWorkload &w)
{
    return std::any_of(w.schemes.begin(), w.schemes.end(),
                       [](Scheme s) { return needsTaint(s); });
}

/** Lower-case metric spelling of a scheme. */
std::string
schemeKey(Scheme s)
{
    switch (s) {
      case Scheme::UnsafeBaseline: return "baseline";
      case Scheme::Cassandra: return "cassandra";
      case Scheme::CassandraStl: return "cassandra-stl";
      case Scheme::CassandraLite: return "cassandra-lite";
      case Scheme::Spt: return "spt";
      case Scheme::Prospect: return "prospect";
      case Scheme::CassandraProspect: return "cassandra-prospect";
    }
    return "unknown";
}

const std::vector<Scheme> &
reportedSchemes()
{
    static const std::vector<Scheme> all = {
        Scheme::UnsafeBaseline, Scheme::Cassandra, Scheme::CassandraStl,
        Scheme::CassandraLite,  Scheme::Spt,       Scheme::CassandraProspect};
    return all;
}

// ---------------------------------------------------------------------
// Set-up: registry make + runner/store construction
// ---------------------------------------------------------------------

using WorkloadMap = std::map<std::string, core::Workload>;

/** Everything built before the first analysis call. */
struct Prepared
{
    std::shared_ptr<const WorkloadMap> workloads;
    core::WorkloadResolver resolver;
    core::RunnerOptions options;
    std::unique_ptr<core::ExperimentRunner> runner;
};

core::WorkloadResolver
resolverOf(std::shared_ptr<const WorkloadMap> map)
{
    return [map](const std::string &name) {
        auto it = map->find(name);
        if (it == map->end())
            throw std::invalid_argument("perfbench: no prepared workload " +
                                        name);
        return it->second;
    };
}

core::RunnerOptions
runnerOptions(const BenchWorkload &w, unsigned threads,
              const std::string &storeDir, const std::string &streamDir)
{
    core::RunnerOptions ro(threads);
    ro.analyze.traceMode = w.mode;
    ro.analyze.streamDir = streamDir;
    ro.dedupCells = w.dedup;
    if (w.resultStore) {
        ro.cacheMode = core::CacheMode::On;
        ro.cacheDir = storeDir;
    }
    return ro;
}

Prepared
prepare(const BenchWorkload &w, unsigned threads,
        const std::string &storeDir, const std::string &streamDir)
{
    Prepared p;
    auto map = std::make_shared<WorkloadMap>();
    const auto &reg = crypto::WorkloadRegistry::global();
    for (const std::string &k : w.kernels)
        map->emplace(k, reg.make(k));
    p.workloads = map;
    p.resolver = resolverOf(map);
    p.options = runnerOptions(w, threads, storeDir, streamDir);
    p.runner =
        std::make_unique<core::ExperimentRunner>(p.resolver, p.options);
    return p;
}

// ---------------------------------------------------------------------
// Results, checks, digests
// ---------------------------------------------------------------------

/** The report fields of one cell, filled the way Simulation::run
 * fills them. */
core::ExperimentResult
resultOf(const uarch::OooCore &core, const uarch::CoreStats &stats)
{
    core::ExperimentResult r;
    r.stats = stats;
    if (core.btuUnit())
        r.btu = core.btuUnit()->stats();
    r.bpu = core.tage().stats();
    const auto &mem = core.memory();
    r.caches.l1iAccesses = mem.l1i().stats().accesses;
    r.caches.l1iMisses = mem.l1i().stats().misses;
    r.caches.l1dAccesses = mem.l1d().stats().accesses;
    r.caches.l1dMisses = mem.l1d().stats().misses;
    r.caches.l2Accesses = mem.l2().stats().accesses;
    r.caches.l2Misses = mem.l2().stats().misses;
    r.caches.l3Accesses = mem.l3().stats().accesses;
    r.caches.l3Misses = mem.l3().stats().misses;
    return r;
}

std::vector<uint8_t>
packed(const core::ExperimentResult &r)
{
    core::ByteWriter w;
    core::packExperimentResult(w, r);
    return w.take();
}

std::string
cellKey(const std::string &kernel, Scheme s, const std::string &config)
{
    return kernel + "|" + uarch::schemeName(s) + "|" + config;
}

/** FNV-1a over every cell (key + all counters), in key order, so the
 * digest is independent of matrix order. */
std::string
digestOf(const core::Experiment &exp)
{
    std::map<std::string, std::vector<uint8_t>> cells;
    for (const auto &c : exp.cells)
        cells[cellKey(c.workload, c.scheme, c.config)] = packed(c.result);
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const uint8_t *p, size_t n) {
        for (size_t i = 0; i < n; i++) {
            h ^= p[i];
            h *= 1099511628211ull;
        }
    };
    for (const auto &[key, bytes] : cells) {
        mix(reinterpret_cast<const uint8_t *>(key.data()), key.size() + 1);
        mix(bytes.data(), bytes.size());
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Geomean over kernels of Cassandra / UnsafeBaseline cycles on the
 * default config; NaN when the matrix lacks either scheme. */
double
cassandraRatio(const core::Experiment &exp,
               const std::vector<std::string> &kernels)
{
    double log_sum = 0;
    size_t n = 0;
    for (const std::string &k : kernels) {
        const auto *base = exp.find(k, Scheme::UnsafeBaseline, "default");
        const auto *cass = exp.find(k, Scheme::Cassandra, "default");
        if (!base || !cass || !base->result.stats.cycles)
            return std::nan("");
        log_sum += std::log(static_cast<double>(cass->result.stats.cycles) /
                            base->result.stats.cycles);
        n++;
    }
    return n ? std::exp(log_sum / n) : std::nan("");
}

/**
 * Count failed cells: a kernel whose evaluation output does not verify
 * fails all its cells; a cell fails on a BTU redirect mismatch
 * (Cassandra family) or when its instruction count differs from the
 * artifact's op count.
 */
size_t
countFailures(const core::Experiment &exp, std::vector<std::string> &why)
{
    std::map<std::string, bool> verified;
    std::map<std::string, uint64_t> ops;
    for (const auto &[name, aw] : exp.artifacts) {
        bool ok = false;
        try {
            ok = aw->verifyOutput();
        } catch (const std::exception &e) {
            why.push_back(name + ": " + e.what());
        }
        if (!ok)
            why.push_back(name + ": evaluation output does not verify");
        verified[name] = ok;
        ops[name] = aw->numOps();
    }
    size_t failed = 0;
    for (const auto &c : exp.cells) {
        const std::string key = cellKey(c.workload, c.scheme, c.config);
        bool ok = verified[c.workload];
        if (uarch::schemeIsCassandra(c.scheme) &&
            c.result.stats.btuMismatches != 0) {
            why.push_back(key + ": btu_mismatches=" +
                          std::to_string(c.result.stats.btuMismatches));
            ok = false;
        }
        if (c.result.stats.instructions != ops[c.workload]) {
            why.push_back(key + ": instructions " +
                          std::to_string(c.result.stats.instructions) +
                          " != numOps " + std::to_string(ops[c.workload]));
            ok = false;
        }
        failed += ok ? 0 : 1;
    }
    return failed;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Flat JSON object writer (insertion order). */
class JsonLine
{
  public:
    void
    num(const std::string &key, double v)
    {
        add(key, jsonNumber(v));
    }

    void
    str(const std::string &key, const std::string &v)
    {
        add(key, jsonString(v));
    }

    void
    raw(const std::string &key, const std::string &json)
    {
        add(key, json);
    }

    std::string
    text() const
    {
        return "{" + body_ + "}";
    }

  private:
    void
    add(const std::string &key, const std::string &json)
    {
        if (!body_.empty())
            body_ += ", ";
        body_ += jsonString(key) + ": " + json;
    }

    std::string body_;
};

std::string
jsonStrings(const std::vector<std::string> &items, size_t cap = 20)
{
    std::string out = "[";
    for (size_t i = 0; i < items.size() && i < cap; i++)
        out += (i ? ", " : "") + jsonString(items[i]);
    return out + "]";
}

/** Peak resident set of this process so far (VmHWM), in MiB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return std::nan("");
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

uint64_t
fileBytes(const std::string &path)
{
    return static_cast<uint64_t>(std::filesystem::file_size(path));
}

// ---------------------------------------------------------------------
// sweep: one cold batch sweep with tracing off
// ---------------------------------------------------------------------

/** Set-ups per sweep: each takes well under a millisecond, so a
 * median over many keeps setup_s steady. */
constexpr unsigned setupReps = 25;

int
runSweep(const BenchWorkload &w, uint64_t seed, unsigned threads,
         const std::string &work)
{
    const std::string streamDir = work + "/streams";
    core::ensureDirectories(streamDir);

    // Set-up is repeated and the median reported; the last repetition
    // (fresh, empty result store) runs the measured sweep.
    std::vector<double> setup;
    Prepared p;
    for (unsigned i = 0; i < setupReps; i++) {
        // The sweep is cold: its result store starts empty.
        const std::string storeDir =
            work + "/store-" + std::to_string(i);
        core::removeDirectoryTree(storeDir);
        const auto t0 = Clock::now();
        Prepared next = prepare(w, threads, storeDir, streamDir);
        setup.push_back(since(t0));
        p = std::move(next);
    }

    const core::ExperimentMatrix matrix = matrixOf(w);
    JsonLine out;
    out.str("mode", "sweep");
    out.str("workload", w.name);
    out.num("seed", static_cast<double>(seed));
    out.num("threads", threads);
    out.num("setup_s", median(setup));
    out.num("cells", static_cast<double>(matrix.cellCount()));

    core::Experiment exp;
    const auto t0 = Clock::now();
    try {
        exp = p.runner->run(matrix);
    } catch (const std::exception &e) {
        out.num("cells_failed", static_cast<double>(matrix.cellCount()));
        out.raw("failures", jsonStrings({e.what()}));
        std::printf("%s\n", out.text().c_str());
        return 1;
    }
    const double wall = since(t0);
    const double rss = peakRssMb();

    uint64_t insts = 0;
    for (const auto &c : exp.cells)
        insts += c.result.stats.instructions;
    std::vector<std::string> why;
    const size_t failed = countFailures(exp, why);

    out.num("wall_s", wall);
    out.num("instructions", static_cast<double>(insts));
    out.num("simulated_cells",
            static_cast<double>(exp.telemetry.simulatedCells));
    out.num("peak_rss_mb", rss);
    out.num("cycles_vs_baseline_cassandra", cassandraRatio(exp, w.kernels));
    out.num("cells_failed", static_cast<double>(failed));
    out.str("digest", digestOf(exp));
    out.raw("failures", jsonStrings(why));
    std::printf("%s\n", out.text().c_str());
    return failed ? 1 : 0;
}

// ---------------------------------------------------------------------
// traced: layer-by-layer re-execution + reconciliation
// ---------------------------------------------------------------------

/** Phase-2 executor timing each Simulation::run (single-threaded). */
class TimedExecutor final : public core::CellExecutor
{
  public:
    const char *name() const override { return "perfbench-timed"; }

    std::vector<core::CellResult>
    execute(const std::vector<core::PlannedCell> &cells,
            const core::ArtifactMap &artifacts) override
    {
        std::vector<core::CellResult> out(cells.size());
        for (size_t i = 0; i < cells.size(); i++) {
            const core::PlannedCell &cell = cells[i];
            const auto &aw = artifacts.at(cell.workload);
            core::SimConfig cfg = cell.config;
            cfg.scheme = cell.scheme;
            const core::Simulation sim(aw);
            const auto t0 = Clock::now();
            out[i].result = sim.run(cfg);
            cellSeconds.push_back(since(t0));
            out[i].workload = cell.workload;
            out[i].suite = aw->workload().suite;
            out[i].scheme = cell.scheme;
            out[i].config = cell.config.name;
        }
        return out;
    }

    std::vector<double> cellSeconds;
};

/** The runner's stream-mode consumer: chunks into a trace file. */
class StreamConsumer final : public core::BatchConsumer
{
  public:
    explicit StreamConsumer(core::TraceStreamWriter &writer)
        : writer_(&writer)
    {
    }

    void
    consume(const core::AnalysisChunk &chunk) override
    {
        writer_->appendBatch(chunk.view());
    }

    void finish() override { writer_->finish(); }

  private:
    core::TraceStreamWriter *writer_;
};

/** The runner's fused taint consumer: the incremental taint walk. */
class TaintConsumer final : public core::BatchConsumer
{
  public:
    explicit TaintConsumer(const std::vector<core::SecretRegion> &regions)
        : walker_(regions)
    {
    }

    void
    consume(const core::AnalysisChunk &chunk) override
    {
        for (size_t i = 0; i < chunk.size; i++) {
            if (walker_.feed(*chunk.ops.inst[i], chunk.ops.memAddr[i],
                             chunk.ops.crypto[i] != 0)) {
                const uint64_t bit = chunk.baseIndex + i;
                const size_t word = static_cast<size_t>(bit >> 6);
                if (word >= words_.size())
                    words_.resize(word + 1, 0);
                words_[word] |= 1ull << (bit & 63);
            }
        }
    }

  private:
    uarch::TaintWalker walker_;
    std::vector<uint64_t> words_;
};

/** Per-scheme accumulators of the uarch and btu layers. */
struct SchemeLayer
{
    double seconds = 0; ///< OooCore::run over in-memory chunks
    uint64_t ops = 0;
    // default-config counters, summed over kernels
    uint64_t cycles = 0, insts = 0, resolveStalls = 0, btuFillStalls = 0,
             btuWindowStalls = 0, integrityStalls = 0, mispredicts = 0,
             l1dMisses = 0;
    uint64_t btuLookups = 0, btuHits = 0, btuMisses = 0,
             btuWindowStallsBtu = 0;
};

/** Every per-layer accumulator of one traced pass. */
struct Layers
{
    double machineS = 0;
    uint64_t machineInsts = 0;
    double opPassS = 0;
    uint64_t opPassOps = 0, opPassChunks = 0, producerStalls = 0;
    double branchPassS = 0, tracegenS = 0, kmersS = 0, embedS = 0;
    uint64_t peakAccum = 0, branches = 0, singleTarget = 0,
             inputDependent = 0, traceBytes = 0;
    double taintS = 0;
    uint64_t taintOps = 0, taintedOps = 0;
    double encodeS = 0, decodeS = 0;
    uint64_t codecOps = 0, streamBytes = 0, prefetchBatches = 0,
             prefetchStalls = 0;
    std::map<Scheme, SchemeLayer> schemes;
    double saveS = 0, loadS = 0;
    uint64_t snapshotBytes = 0;
    double storeS = 0, lookupS = 0;
    uint64_t stores = 0, lookups = 0;
    /** Sum of the layer times the one-thread runner actually pays. */
    double attributedS = 0;
};

/**
 * Layers of one kernel, each timed around its public entry point. The
 * kernel's retained chunks are moved to `resident` on return: the
 * runner keeps every kernel's trace live through the sweep, so the op
 * pass is timed on fresh memory here too.
 */
void
traceKernel(const BenchWorkload &w, const std::string &kernel,
            const core::Workload &wl, const std::string &work,
            const std::map<std::string, std::vector<uint8_t>> &runnerCells,
            std::vector<std::vector<core::AnalysisChunk>> &resident,
            Layers &L, std::vector<std::string> &why)
{
    const bool stream = w.mode == core::TraceMode::Stream;
    const bool taintNeeded =
        needsTaint(w) && !wl.secretRegions.empty();
    const uint64_t fp = core::programFingerprint(wl.program);

    // sim: one bare functional run of the evaluation input, which also
    // verifies the kernel's output.
    {
        sim::Machine m(wl.program);
        if (wl.setInput)
            wl.setInput(m, 2);
        const auto t0 = Clock::now();
        const sim::RunResult res = m.run(wl.maxDynInsts);
        L.machineS += since(t0);
        L.machineInsts += res.instCount;
        if (!res.halted || (wl.check && !wl.check(m)))
            why.push_back(kernel + ": evaluation output does not verify");
    }

    // analysis_pipeline: the fused op pass, retaining the chunks (the
    // whole-mode trace storage).
    std::vector<core::AnalysisChunk> chunks;
    const auto t0 = Clock::now();
    const core::FusedPassStats st =
        core::runFusedOpPass(wl, 2, {}, {}, &chunks);
    const double opPass = since(t0);
    const uint64_t ops = st.numOps;
    L.opPassS += opPass;
    L.opPassOps += ops;
    L.opPassChunks += st.chunks;

    // The runner's stream-mode pass: threaded, stream writer (+ taint
    // walk when a ProSpeCT scheme needs it) on the consumer thread.
    const std::string runnerStream = work + "/runner.trace";
    if (stream) {
        core::TraceStreamWriter writer(runnerStream, fp);
        StreamConsumer sc(writer);
        TaintConsumer tc(wl.secretRegions);
        std::vector<core::BatchConsumer *> consumers = {&sc};
        if (taintNeeded)
            consumers.push_back(&tc);
        core::AnalysisPipelineOptions po;
        po.mode = core::AnalysisPipelineOptions::Mode::Threaded;
        const auto t1 = Clock::now();
        const core::FusedPassStats st2 =
            core::runFusedOpPass(wl, 2, consumers, po);
        L.attributedS += since(t1);
        L.producerStalls += st2.producerStalls;
    } else {
        L.attributedS += opPass;
    }

    // trace_stream: encode the retained chunks, then drain a cursor.
    const std::string codecStream = work + "/codec.trace";
    {
        const auto t1 = Clock::now();
        core::TraceStreamWriter writer(codecStream, fp);
        for (const core::AnalysisChunk &c : chunks)
            writer.appendBatch(c.view());
        writer.finish();
        L.encodeS += since(t1);
    }
    L.streamBytes += fileBytes(codecStream);
    L.codecOps += ops;
    {
        const uint64_t pb = core::TraceCursor::prefetchBatches();
        const uint64_t ps = core::TraceCursor::prefetchStalls();
        uint64_t decoded = 0;
        const auto t1 = Clock::now();
        {
            core::TraceCursor cur(codecStream, wl.program);
            uarch::OpBatch b;
            while (size_t n = cur.nextBatch(b, uarch::timingOpBatchOps))
                decoded += n;
        }
        L.decodeS += since(t1);
        L.prefetchBatches += core::TraceCursor::prefetchBatches() - pb;
        L.prefetchStalls += core::TraceCursor::prefetchStalls() - ps;
        if (decoded != ops)
            why.push_back(kernel + ": decoded " + std::to_string(decoded) +
                          " of " + std::to_string(ops) + " ops");
    }

    // uarch taint walk.
    uarch::TaintBitmap taint;
    if (taintNeeded) {
        core::ChunkSpanSource src(chunks);
        const auto t1 = Clock::now();
        taint = uarch::computeTaintBitmap(src, wl.secretRegions, ops);
        const double dt = since(t1);
        L.taintS += dt;
        L.taintOps += ops;
        L.taintedOps += taint.count();
        if (!stream) // the whole-mode runner fuses it into the op pass
            L.attributedS += dt;
    }

    // tracegen (Algorithm 2): the two branch passes alone, then the
    // whole generateTraces the runner calls.
    core::TraceGenResult tg;
    if (needsImage(w)) {
        const auto t1 = Clock::now();
        core::runFusedBranchPass(wl, 0);
        core::runFusedBranchPass(wl, 1);
        L.branchPassS += since(t1);
        const auto t2 = Clock::now();
        tg = core::generateTraces(wl, {}, /*fused=*/true);
        const double dt = since(t2);
        L.tracegenS += dt;
        L.attributedS += dt;
        L.kmersS += tg.timings.dnaSec + tg.timings.kmersSec;
        L.embedS += tg.timings.embedSec;
        L.peakAccum = std::max(L.peakAccum, tg.peakAccumBytes);
        L.branches += tg.records.size();
        for (const auto &r : tg.records) {
            L.singleTarget += r.singleTarget ? 1 : 0;
            L.inputDependent += r.inputDependent ? 1 : 0;
        }
        L.traceBytes += tg.image.traceBytes();
    }

    // uarch core: every distinct cell over the in-memory chunks (cells
    // the runner collapses reuse their representative's result). The
    // default config also replays the stream file through a cursor,
    // which must give identical counters; in stream mode every distinct
    // cell replays through the cursor, as the runner does.
    std::map<std::pair<Scheme, uint64_t>, core::ExperimentResult> simulated;
    std::unique_ptr<core::ResultStore> store;
    if (w.resultStore)
        store = std::make_unique<core::ResultStore>(
            work + "/store-" + std::to_string(fp));
    for (Scheme s : w.schemes) {
        for (const core::SimConfig &base : w.configs) {
            const core::SimConfig cfg = base.withScheme(s);
            const std::string key = cellKey(kernel, s, cfg.name);
            const std::pair<Scheme, uint64_t> rep = {
                s, w.dedup ? core::canonicalSimConfigHash(cfg, s)
                           : simulated.size()};
            const bool fresh = simulated.count(rep) == 0;
            const core::TraceImage *image =
                uarch::schemeIsCassandra(s) ? &tg.image : nullptr;
            const uarch::TaintBitmap *tb =
                needsTaint(s) && taintNeeded ? &taint : nullptr;

            if (fresh) {
                uarch::OooCore core(cfg, wl.program, image);
                core::ChunkSpanSource src(chunks);
                const auto t1 = Clock::now();
                const uarch::CoreStats stats = core.run(src, tb);
                const double dt = since(t1);
                simulated[rep] = resultOf(core, stats);
                SchemeLayer &sl = L.schemes[s];
                sl.seconds += dt;
                sl.ops += ops;
                if (!stream)
                    L.attributedS += dt;
            }
            const core::ExperimentResult &mem = simulated.at(rep);
            if (cfg.name == "default" || (stream && fresh)) {
                uarch::OooCore core(cfg, wl.program, image);
                core::TraceCursor cur(stream ? runnerStream : codecStream,
                                      wl.program);
                const auto t1 = Clock::now();
                const uarch::CoreStats stats = core.run(cur, tb);
                if (stream && fresh)
                    L.attributedS += since(t1);
                if (packed(resultOf(core, stats)) != packed(mem))
                    why.push_back(key + ": in-memory and TraceCursor "
                                        "replays differ");
            }

            // The layer re-execution must reproduce the runner's cell.
            auto it = runnerCells.find(key);
            if (it == runnerCells.end() || it->second != packed(mem))
                why.push_back(key + ": traced cell differs from the "
                                    "runner's");
            if (uarch::schemeIsCassandra(s) && mem.stats.btuMismatches)
                why.push_back(key + ": btu_mismatches != 0");
            if (mem.stats.instructions != ops)
                why.push_back(key + ": instructions != op count");

            if (cfg.name == "default") {
                SchemeLayer &sl = L.schemes[s];
                const uarch::CoreStats &cs = mem.stats;
                sl.cycles += cs.cycles;
                sl.insts += cs.instructions;
                sl.resolveStalls += cs.resolveStalls;
                sl.btuFillStalls += cs.btuFillStalls;
                sl.btuWindowStalls += cs.btuWindowStalls;
                sl.integrityStalls += cs.integrityStalls;
                sl.mispredicts += cs.condMispredicts +
                    cs.indirectMispredicts + cs.returnMispredicts;
                sl.l1dMisses += mem.caches.l1dMisses;
                sl.btuLookups += mem.btu.lookups;
                sl.btuHits += mem.btu.hits + mem.btu.singleTargetHits;
                sl.btuMisses += mem.btu.misses;
                sl.btuWindowStallsBtu += mem.btu.windowStalls;
            }

            // core/result_store: the cold sweep's miss lookup for every
            // cell, one store per distinct cell.
            if (store) {
                const core::ResultStoreKey rk =
                    core::resultStoreKey(wl, s, cfg);
                core::ExperimentResult probe;
                const auto t1 = Clock::now();
                if (store->lookup(rk, probe))
                    why.push_back(key + ": fresh result store hit");
                const double lookup = since(t1);
                L.lookupS += lookup;
                L.lookups++;
                L.attributedS += lookup;
                if (fresh) {
                    const auto t2 = Clock::now();
                    store->store(rk, mem);
                    const double dt = since(t2);
                    L.storeS += dt;
                    L.stores++;
                    L.attributedS += dt;
                }
            }
        }
    }
    std::remove(runnerStream.c_str());
    std::remove(codecStream.c_str());
    resident.push_back(std::move(chunks));
}

int
runTraced(const BenchWorkload &w, uint64_t seed, const std::string &work)
{
    const std::string streamDir = work + "/streams";
    core::ensureDirectories(streamDir);
    std::vector<std::string> why;
    const core::ExperimentMatrix matrix = matrixOf(w);
    Prepared p = prepare(w, 1, work + "/store-setup", streamDir);

    // core/experiment + cell_executor: analyze, then simulate on the
    // warmed cache through an executor that times each Simulation::run.
    double analyzeS = 0, simulateS = 0;
    std::vector<double> cellS;
    std::string digestTimed;
    {
        auto cache = std::make_shared<core::AnalysisCache>(
            p.resolver, p.options.analyze);
        auto exec = std::make_shared<TimedExecutor>();
        core::RunnerOptions ro =
            runnerOptions(w, 1, work + "/store-timed", streamDir);
        core::ExperimentRunner runner(cache, ro, exec);
        auto t0 = Clock::now();
        runner.analyze(w.kernels,
                       core::ExperimentRunner::neededPhases({matrix}),
                       w.mode);
        analyzeS = since(t0);
        t0 = Clock::now();
        const core::Experiment exp = runner.run(matrix);
        simulateS = since(t0);
        cellS = exec->cellSeconds;
        digestTimed = digestOf(exp);
    }

    // The plain one-thread run the layer times are reconciled against.
    double runnerWall = 0;
    std::map<std::string, std::vector<uint8_t>> runnerCells;
    Layers L;
    {
        core::Experiment exp;
        {
            core::ExperimentRunner runner(
                p.resolver,
                runnerOptions(w, 1, work + "/store-plain", streamDir));
            const auto t0 = Clock::now();
            exp = runner.run(matrix);
            runnerWall = since(t0);
        }
        for (const auto &c : exp.cells)
            runnerCells[cellKey(c.workload, c.scheme, c.config)] =
                packed(c.result);
        if (digestOf(exp) != digestTimed)
            why.push_back("timed-executor and plain runs disagree");
        size_t failed = countFailures(exp, why);
        if (failed)
            why.push_back(std::to_string(failed) + " runner cells failed");

        // core/serialize: snapshot every artifact, release the sweep,
        // then load each snapshot back (one at a time).
        std::vector<std::pair<std::string, uint64_t>> snaps;
        for (const auto &[name, aw] : exp.artifacts) {
            const std::string path =
                work + "/snap-" + std::to_string(snaps.size()) + ".aw";
            const auto t0 = Clock::now();
            core::saveAnalyzedWorkload(*aw, path, name);
            L.saveS += since(t0);
            L.snapshotBytes += fileBytes(path);
            snaps.emplace_back(name, aw->numOps());
        }
        exp = core::Experiment();
        for (size_t i = 0; i < snaps.size(); i++) {
            const std::string path =
                work + "/snap-" + std::to_string(i) + ".aw";
            const auto t0 = Clock::now();
            core::AnalyzedWorkload::Ptr back =
                core::loadAnalyzedWorkload(path, p.resolver, streamDir);
            L.loadS += since(t0);
            if (back->numOps() != snaps[i].second)
                why.push_back(snaps[i].first + ": snapshot op count differs");
            back.reset();
            std::remove(path.c_str());
        }
    }
    // Hand the released sweep back to the kernel, so the layer passes
    // below fault in fresh pages like the runner's cold sweep did.
    malloc_trim(0);

    std::vector<std::vector<core::AnalysisChunk>> resident;
    for (const std::string &k : w.kernels)
        traceKernel(w, k, p.workloads->at(k), work, runnerCells, resident,
                    L, why);

    // ---- metrics ----------------------------------------------------
    auto perOp = [](double s, uint64_t ops) {
        return ops ? s * 1e9 / static_cast<double>(ops) : 0.0;
    };
    JsonLine m;
    m.num("sim.machine.ns_per_inst", perOp(L.machineS, L.machineInsts));
    m.num("sim.machine.insts", static_cast<double>(L.machineInsts));
    m.num("analysis.op_pass.ns_per_op", perOp(L.opPassS, L.opPassOps));
    m.num("analysis.op_pass.chunks", static_cast<double>(L.opPassChunks));
    m.num("analysis.producer_stalls",
          static_cast<double>(L.producerStalls));
    m.num("tracegen.branch_pass_s", L.branchPassS);
    m.num("tracegen.total_s", L.tracegenS);
    m.num("tracegen.kmers_s", L.kmersS);
    m.num("tracegen.embed_s", L.embedS);
    m.num("tracegen.peak_accum_bytes", static_cast<double>(L.peakAccum));
    m.num("tracegen.branches", static_cast<double>(L.branches));
    m.num("tracegen.single_target", static_cast<double>(L.singleTarget));
    m.num("tracegen.input_dependent",
          static_cast<double>(L.inputDependent));
    m.num("tracegen.trace_bytes", static_cast<double>(L.traceBytes));
    m.num("taint.ns_per_op", perOp(L.taintS, L.taintOps));
    m.num("taint.tainted_ops", static_cast<double>(L.taintedOps));
    m.num("trace_stream.encode_ns_per_op", perOp(L.encodeS, L.codecOps));
    m.num("trace_stream.decode_ns_per_op", perOp(L.decodeS, L.codecOps));
    m.num("trace_stream.bytes_per_op",
          L.codecOps ? static_cast<double>(L.streamBytes) / L.codecOps : 0);
    m.num("trace_stream.prefetch_batches",
          static_cast<double>(L.prefetchBatches));
    m.num("trace_stream.prefetch_stalls",
          static_cast<double>(L.prefetchStalls));
    double ooocoreS = 0;
    for (Scheme s : reportedSchemes()) {
        const SchemeLayer sl = L.schemes.count(s) ? L.schemes.at(s)
                                                  : SchemeLayer{};
        ooocoreS += sl.seconds;
        const std::string u = "uarch." + schemeKey(s) + ".";
        m.num(u + "ns_per_op", perOp(sl.seconds, sl.ops));
        m.num(u + "cycles", static_cast<double>(sl.cycles));
        m.num(u + "ipc", sl.cycles ? static_cast<double>(sl.insts) /
                                         static_cast<double>(sl.cycles)
                                   : 0.0);
        m.num(u + "resolve_stalls", static_cast<double>(sl.resolveStalls));
        m.num(u + "btu_fill_stalls", static_cast<double>(sl.btuFillStalls));
        m.num(u + "btu_window_stalls",
              static_cast<double>(sl.btuWindowStalls));
        m.num(u + "integrity_stalls",
              static_cast<double>(sl.integrityStalls));
        m.num(u + "mispredicts", static_cast<double>(sl.mispredicts));
        m.num(u + "l1d_misses", static_cast<double>(sl.l1dMisses));
        if (!uarch::schemeUsesBtu(s))
            continue;
        const std::string b = "btu." + schemeKey(s) + ".";
        m.num(b + "lookups", static_cast<double>(sl.btuLookups));
        m.num(b + "hits", static_cast<double>(sl.btuHits));
        m.num(b + "misses", static_cast<double>(sl.btuMisses));
        m.num(b + "window_stalls",
              static_cast<double>(sl.btuWindowStallsBtu));
    }
    m.num("serialize.save_s", L.saveS);
    m.num("serialize.load_s", L.loadS);
    m.num("serialize.snapshot_bytes", static_cast<double>(L.snapshotBytes));
    m.num("result_store.store_us_per_cell",
          L.stores ? L.storeS * 1e6 / L.stores : 0.0);
    m.num("result_store.lookup_us_per_cell",
          L.lookups ? L.lookupS * 1e6 / L.lookups : 0.0);
    std::vector<double> sorted = cellS;
    std::sort(sorted.begin(), sorted.end());
    m.num("experiment.analyze_s", analyzeS);
    m.num("experiment.simulate_s", simulateS);
    m.num("experiment.cells", static_cast<double>(cellS.size()));
    m.num("experiment.cell_s.p50", median(cellS));
    m.num("experiment.cell_s.max", sorted.empty() ? 0.0 : sorted.back());
    m.num("experiment.runner_wall_s", runnerWall);
    m.num("experiment.layer_sum_s", L.attributedS);
    m.num("experiment.unattributed_s", runnerWall - L.attributedS);

    // Shares of the one-thread runner wall, the gprof view of
    // docs in perfbench/README.md. The machine runs once per op pass
    // plus once per Algorithm 2 branch pass.
    const double machinePerInst =
        L.machineInsts ? L.machineS / L.machineInsts : 0.0;
    const double passes = needsImage(w) ? 3.0 : 1.0;
    const size_t streamCells =
        w.mode == core::TraceMode::Stream ? cellS.size() : 0;
    auto share = [&](double s) {
        return runnerWall > 0 ? s / runnerWall : 0.0;
    };
    m.num("profile.ooocore_share", share(ooocoreS));
    m.num("profile.machine_share",
          share(machinePerInst * passes * L.machineInsts));
    m.num("profile.decode_share",
          share(L.codecOps ? L.decodeS * streamCells : 0.0));
    m.num("profile.encode_share",
          share(w.mode == core::TraceMode::Stream ? L.encodeS : 0.0));

    JsonLine out;
    out.str("mode", "traced");
    out.str("workload", w.name);
    out.num("seed", static_cast<double>(seed));
    out.str("digest", digestTimed);
    out.raw("metrics", m.text());
    out.num("failed_checks", static_cast<double>(why.size()));
    out.raw("failures", jsonStrings(why));
    std::printf("%s\n", out.text().c_str());
    return why.empty() ? 0 : 1;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench sweep|traced|info --workload W "
                 "--seed N [--threads T] --work DIR\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string mode = argv[1];
    if (mode == "info") {
        JsonLine out;
        out.str("build_type", PERFBENCH_BUILD_TYPE);
        out.str("compiler", PERFBENCH_COMPILER);
#ifdef NDEBUG
        out.num("ndebug", 1);
#else
        out.num("ndebug", 0);
#endif
        std::printf("%s\n", out.text().c_str());
        return 0;
    }
#ifndef NDEBUG
    std::fprintf(stderr, "perfbench: refusing an assert-enabled build\n");
    return 3;
#endif
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr,
                     "perfbench: refusing a %s build (need Release)\n",
                     PERFBENCH_BUILD_TYPE);
        return 3;
    }

    std::string workload, work;
    uint64_t seed = 0;
    unsigned threads = 4;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string flag = argv[i], value = argv[i + 1];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed")
            seed = std::stoull(value);
        else if (flag == "--threads")
            threads = static_cast<unsigned>(std::stoul(value));
        else if (flag == "--work")
            work = value;
        else {
            usage();
            return 2;
        }
    }
    if (workload.empty() || work.empty() ||
        (mode != "sweep" && mode != "traced")) {
        usage();
        return 2;
    }

    try {
        BenchWorkload w = benchWorkload(workload);
        permute(w, seed);
        core::ensureDirectories(work);
        return mode == "sweep"
            ? runSweep(w, seed, threads, work)
            : runTraced(w, seed, work);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
