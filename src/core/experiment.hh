/**
 * @file
 * Declarative experiment matrices, the parallel two-phase runner and
 * the result reporters.
 *
 * An ExperimentMatrix names workloads (resolved through a name ->
 * Workload factory, normally crypto::WorkloadRegistry::global()
 * .resolver()), protection schemes, and SimConfig variants; the
 * runner executes the full workload x scheme x config cross product
 * in two phases. Phase 1 analyzes each distinct workload exactly once
 * (concurrently across workloads, memoized in an AnalysisCache);
 * phase 2 hands the planned cells to a core::CellExecutor — the
 * in-process thread pool unless the caller injects another. The
 * runner itself is a pure coordinator: plan cells -> acquire
 * artifacts -> dispatch -> merge. Each cell still builds its own
 * core, so the result vector is deterministic for any thread count
 * and always in matrix order (workload-major, then scheme, then
 * config).
 *
 *   core::ExperimentMatrix m;
 *   m.workloads = {"ChaCha20_ct", "kyber768"};
 *   m.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra};
 *   core::ExperimentRunner runner(
 *       crypto::WorkloadRegistry::global().resolver());
 *   core::Experiment exp = runner.run(m);
 *   core::makeReporter("json")->write(exp, std::cout);
 *
 * Reporters additionally emit derived metrics: per-cell cycles
 * normalized to the workload's UnsafeBaseline cell and per-scheme
 * geometric means over the normalized ratios.
 */

#ifndef CASSANDRA_CORE_EXPERIMENT_HH
#define CASSANDRA_CORE_EXPERIMENT_HH

#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/analyzed_workload.hh"
#include "core/sim_config.hh"

namespace cassandra::core {

class CellExecutor;
class ResultStore;

/** Name -> Workload factory used to resolve matrix entries. */
using WorkloadResolver = AnalysisCache::Resolver;

/** The workload x scheme x config cross product to execute. */
struct ExperimentMatrix
{
    /** Workload names, resolved through the runner's resolver. */
    std::vector<std::string> workloads;
    /** Schemes; overrides the scheme field of each config. */
    std::vector<uarch::Scheme> schemes;
    /**
     * SimConfig variants (scheme field ignored — the matrix schemes
     * take its place per cell). Empty means one default config.
     */
    std::vector<SimConfig> configs;

    size_t
    cellCount() const
    {
        return workloads.size() * schemes.size() *
            (configs.empty() ? 1 : configs.size());
    }
};

/** One executed cell of the matrix. */
struct CellResult
{
    std::string workload; ///< the matrix (registry) name of the cell
    std::string suite;
    uarch::Scheme scheme = uarch::Scheme::UnsafeBaseline;
    std::string config; ///< SimConfig::name of the variant
    ExperimentResult result;
};

/**
 * Side-band observability of one runner dispatch: result-store,
 * pipeline and analysis counters. Deliberately *not* part of any
 * report format — reports must stay byte-identical between cold and
 * warm runs — telemetry is emitted as its own JSON document
 * (writeRunTelemetry, `--stats-out`).
 */
struct RunTelemetry
{
    /** A result store was consulted this run. */
    bool cacheEnabled = false;
    std::string cacheMode; ///< "off", "on" or "readonly"
    std::string cacheDir;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    uint64_t cacheStores = 0;
    uint64_t cacheEvictions = 0;
    /** Cells replayed from the store (never dispatched). */
    uint64_t cachedCells = 0;
    /** Cells handed to the executor (simulated fresh). */
    uint64_t simulatedCells = 0;
    /** Cells answered by an identical cell in the same dispatch
     * (RunnerOptions::dedupCells). */
    uint64_t dedupedCells = 0;

    /** Fused analysis passes executed during this dispatch (batched
     * single-pass Machine runs; 0 when every artifact came from a
     * snapshot). */
    uint64_t analysisFusedPasses = 0;
    /** InProcessExecutor's replayCounters() over this dispatch: each
     * trace frame decoded once and replayed once per cell. */
    uint64_t framesDecoded = 0;
    uint64_t framesReplayed = 0;
    uint64_t replayWaits = 0;
    /** Encoded trace bytes the run's artifacts hold in memory
     * (whole mode; stream-mode traces live in files). */
    uint64_t traceBytes = 0;

    /** Algorithm 2 accumulator peak of each workload whose image
     * phase ran in this dispatch (name -> peak bytes, matrix order).
     * The load-bearing boundedness observable: for the composite
     * server mixes this number must stay flat as the request count
     * grows (docs/ARCHITECTURE.md, "Memory bounds"). */
    std::vector<std::pair<std::string, uint64_t>> analysisPeaks;
};

/** Emit telemetry as a standalone JSON document with `cache_stats`,
 * `pipeline` and `analysis` blocks (the `--stats-out` payload). */
void writeRunTelemetry(const RunTelemetry &telemetry, std::ostream &os);

/** All cells of one matrix run, in matrix order. */
struct Experiment
{
    std::vector<CellResult> cells;

    /** Cache and analysis observability of the run that produced
     * this experiment (not serialized by any Reporter). */
    RunTelemetry telemetry;

    /**
     * The shared analysis artifacts of the run, keyed by matrix
     * workload name — benches read Algorithm 2 results from here
     * without re-analyzing.
     */
    std::map<std::string, AnalyzedWorkload::Ptr> artifacts;

    /**
     * First cell matching workload + scheme (+ config when non-empty);
     * null when absent.
     */
    const CellResult *find(const std::string &workload,
                           uarch::Scheme scheme,
                           const std::string &config = "") const;
};

/** Whether (and how) the persistent cell-result store is consulted. */
enum class CacheMode
{
    /** No store: every cell simulates (the default). */
    Off,
    /** Consult the store before dispatch; persist fresh results. */
    On,
    /** Consult but never write (shared read-only store). */
    Readonly,
};

const char *cacheModeName(CacheMode mode);

/**
 * Parse a cache mode name ("off", "on" or "readonly").
 * @throws std::invalid_argument on anything else.
 */
CacheMode cacheModeFromName(const std::string &name);

/** Runner knobs. */
struct RunnerOptions
{
    RunnerOptions() = default;
    RunnerOptions(unsigned threads, AnalyzeOptions analyze = {})
        : threads(threads), analyze(std::move(analyze))
    {
    }

    /** Worker threads; 0 means hardware concurrency. */
    unsigned threads = 0;

    /**
     * Analysis options of the runner-owned cache (trace mode, stream
     * directory, eagerly-run phases). Ignored when the runner shares a
     * caller-owned cache (the cache's own options apply there).
     */
    AnalyzeOptions analyze;

    /**
     * Persistent cell-result store: Off (default) simulates every
     * cell; On consults the store before dispatch, executes only the
     * missing cells and persists fresh results; Readonly consults
     * without writing.
     */
    CacheMode cacheMode = CacheMode::Off;

    /** Result-store directory; empty defaults to "result-cache". */
    std::string cacheDir;

    /**
     * Collapse identical pending cells (same workload, scheme and
     * canonical sim parameters) into one dispatched simulation whose
     * result fills every requesting slot. Off by default — the
     * executor sees exactly the matrix cells; the bench CLI always
     * turns it on, since sweeps over BTU knobs repeat every cell of a
     * scheme that has no BTU.
     */
    bool dedupCells = false;

    /**
     * The one place thread-pool sizing is decided: the requested
     * count (or hardware concurrency) clamped to the work at hand.
     */
    unsigned resolveThreads(size_t work) const;
};

/**
 * Coordinates experiment matrices: plans the cell cross product,
 * acquires analysis artifacts (phase 1), dispatches the cells to its
 * CellExecutor (phase 2) and merges the results in matrix order.
 */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(WorkloadResolver resolver,
                              RunnerOptions options = {});
    /** Share a caller-owned cache (artifacts persist across runs). */
    explicit ExperimentRunner(std::shared_ptr<AnalysisCache> cache,
                              RunnerOptions options = {});
    /**
     * Inject a custom phase-2 executor (null builds an
     * InProcessExecutor with options.threads, core/cell_executor.hh).
     */
    ExperimentRunner(std::shared_ptr<AnalysisCache> cache,
                     RunnerOptions options,
                     std::shared_ptr<CellExecutor> executor);

    /**
     * Run every cell of the matrix. Distinct workloads are analyzed
     * once (phase 1) with exactly the analysis phases the matrix's
     * schemes need — baseline/SPT-only sweeps never run Algorithm 2,
     * ProSpeCT-free sweeps never run the taint pre-pass — then cells
     * execute concurrently over the shared artifacts (phase 2); the
     * returned cells are in matrix order and bit-identical for any
     * thread count. Any cell config requesting TraceMode::Stream makes
     * the analysis spill its traces to disk (artifacts are shared per
     * workload, so the non-default request wins). Worker exceptions
     * (e.g. unknown workload names) are rethrown here.
     */
    Experiment run(const ExperimentMatrix &matrix) const;

    /**
     * Run several matrices as one batch sharing one analysis phase;
     * cells are concatenated in matrix order.
     */
    Experiment run(const std::vector<ExperimentMatrix> &matrices) const;

    /**
     * Phase 1 only: analyze the named workloads in parallel (each
     * distinct name exactly once), guaranteeing `phases` beyond the
     * cache's defaults. Returns artifacts in input order.
     */
    std::vector<AnalyzedWorkload::Ptr>
    analyze(const std::vector<std::string> &names,
            AnalysisPhaseMask phases, TraceMode mode) const;

    /** analyze() with the cache's default phases and trace mode. */
    std::vector<AnalyzedWorkload::Ptr>
    analyze(const std::vector<std::string> &names) const;

    /** Analysis phases the matrix's schemes will consume. */
    static AnalysisPhaseMask
    neededPhases(const std::vector<ExperimentMatrix> &matrices);

    /** The artifact cache backing this runner. */
    AnalysisCache &cache() const { return *cache_; }

    /** The persistent cell-result store; null when cacheMode is Off
     * (or a custom executor was injected with no store). */
    const std::shared_ptr<ResultStore> &resultStore() const
    {
        return store_;
    }

  private:
    std::shared_ptr<AnalysisCache> cache_;
    RunnerOptions options_;
    std::shared_ptr<ResultStore> store_;
    std::shared_ptr<CellExecutor> executor_;
};

/** Derived metrics computed over a finished experiment. */
struct DerivedMetrics
{
    /**
     * Per-cell cycles normalized to the same workload's
     * UnsafeBaseline cell (same config preferred, any config as
     * fallback); NaN when the experiment has no baseline for the
     * workload. Parallel to Experiment::cells.
     */
    std::vector<double> cyclesVsBaseline;

    /** Geometric mean of cyclesVsBaseline per (scheme, config). */
    struct Geomean
    {
        uarch::Scheme scheme = uarch::Scheme::UnsafeBaseline;
        std::string config;
        double cyclesVsBaseline = 0.0;
        size_t workloads = 0; ///< cells contributing to the mean
    };
    std::vector<Geomean> geomeans; ///< in first-appearance order
};

/** Compute normalized ratios and per-scheme geomeans. */
DerivedMetrics computeDerived(const Experiment &exp);

/** Serializes an Experiment to a stream. */
class Reporter
{
  public:
    virtual ~Reporter() = default;
    virtual void write(const Experiment &exp, std::ostream &os) const = 0;
};

/** Fixed-width text table (cycles, IPC, BTU/BPU headline counters,
 * baseline-normalized cycles, per-scheme geomean rows). */
class TableReporter : public Reporter
{
  public:
    void write(const Experiment &exp, std::ostream &os) const override;
};

/** Full structured dump: every CoreStats/BtuStats/BpuStats/cache
 * counter of every cell as {"results": [...]}, plus derived
 * per-cell "cycles_vs_baseline" and a "geomeans" section. */
class JsonReporter : public Reporter
{
  public:
    void write(const Experiment &exp, std::ostream &os) const override;
};

/** Flat spreadsheet-friendly rows (headline counters per cell, a
 * cycles_vs_baseline column, geomean rows appended). */
class CsvReporter : public Reporter
{
  public:
    void write(const Experiment &exp, std::ostream &os) const override;
};

/**
 * Reporter by format name: "table", "json" or "csv".
 * @throws std::invalid_argument on anything else.
 */
std::unique_ptr<Reporter> makeReporter(const std::string &format);

} // namespace cassandra::core

#endif // CASSANDRA_CORE_EXPERIMENT_HH
