/**
 * @file
 * The pluggable phase-2 cell-execution layer.
 *
 * ExperimentRunner plans the workload x scheme x config cross product
 * and acquires the analysis artifacts; a CellExecutor then turns the
 * planned cells into CellResults. Executors must be interchangeable:
 * given the same cells and artifacts, every executor produces
 * byte-identical results in cell order, regardless of threads, shard
 * counts or scheduling.
 *
 * Two backends ship here:
 *
 *  - InProcessExecutor runs the cells over a thread pool in this
 *    process (the historical ExperimentRunner behavior).
 *
 *  - SubprocessShardExecutor partitions the cells into shards and
 *    spawns one worker process per shard (`<worker_binary> --worker
 *    --manifest=F --out=F`, the contract run_experiment implements).
 *    Each worker receives a CASSSM1 shard manifest naming its cells
 *    and the serialized `.aw` artifact snapshot of every workload it
 *    touches, simulates its cells and writes a CASSCR1 cell-result
 *    set (core/serialize); the coordinator merges the partial sets
 *    back into one result vector by global cell index, so any shard
 *    partition — and any completion order — yields the identical
 *    report. A crashed worker (nonzero exit, missing or corrupt
 *    output) has its cells retried once on an in-process executor;
 *    only when that retry also fails does the run fail, with a
 *    WorkerError carrying the shard's stderr.
 */

#ifndef CASSANDRA_CORE_CELL_EXECUTOR_HH
#define CASSANDRA_CORE_CELL_EXECUTOR_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace cassandra::core {

class ResultStore;

/**
 * Run fn(0..work) over a pool of `threads` workers, failing fast on
 * the first exception (rethrown here). Shared by the runner's analysis
 * phase and the in-process executor.
 */
void runParallel(unsigned threads, size_t work,
                 const std::function<void(size_t)> &fn);

/** One planned phase-2 cell (the matrix cross product, flattened). */
struct PlannedCell
{
    std::string workload; ///< matrix (registry) spelling
    uarch::Scheme scheme = uarch::Scheme::UnsafeBaseline;
    /** Config variant; its scheme field is replaced by `scheme`. */
    SimConfig config;
};

/** Shared analysis artifacts, keyed by matrix workload name. */
using ArtifactMap = std::map<std::string, AnalyzedWorkload::Ptr>;

/**
 * The shard partition an executor chose for its last execute() call
 * (telemetry; empty for executors that do not shard).
 */
struct ScheduleSummary
{
    bool valid = false;
    ShardScheduler scheduler = ShardScheduler::Contiguous;
    /** Estimated cost (model units) assigned to each shard. */
    std::vector<uint64_t> shardCosts;
};

/**
 * Per-cell cost estimates for the shard scheduler, in cost-model
 * units. For each cell, a prior run's recorded cycle count from the
 * result store when a matching entry exists (`store` may be null),
 * falling back to the workload artifact's static ops count — both are
 * proportional to simulated work, so mixed sources still rank cells
 * usefully. Every estimate is at least 1.
 */
std::vector<uint64_t>
estimateCellCosts(const std::vector<PlannedCell> &cells,
                  const ArtifactMap &artifacts,
                  const ResultStore *store);

/**
 * Partition cell indices 0..costs.size() into `shards` groups.
 * Contiguous reproduces the historical equal-size blocks; Lpt sorts
 * by descending cost and greedily assigns each cell to the least-
 * loaded shard (longest-processing-time bin packing), so one huge
 * cell no longer serializes a shard behind a pile of cheap ones.
 * Deterministic (stable tie-breaks); with shards <= cells, no shard
 * is left empty. The merged report is byte-identical either way —
 * results merge by global index.
 */
std::vector<std::vector<uint32_t>>
scheduleShards(ShardScheduler scheduler,
               const std::vector<uint64_t> &costs, unsigned shards);

/** Executes planned cells over shared artifacts. */
class CellExecutor
{
  public:
    virtual ~CellExecutor() = default;

    /** Diagnostic backend name ("inprocess", "subprocess", ...). */
    virtual const char *name() const = 0;

    /**
     * Execute every cell; the result vector is parallel to `cells`
     * and must be byte-identical across executors and schedules.
     * Artifacts must cover every cell's workload.
     */
    virtual std::vector<CellResult>
    execute(const std::vector<PlannedCell> &cells,
            const ArtifactMap &artifacts) = 0;

    /** The shard partition of the last execute() call (invalid for
     * backends that do not shard). */
    virtual ScheduleSummary lastSchedule() const { return {}; }
};

/** Phase-2 cells over a thread pool in this process. */
class InProcessExecutor : public CellExecutor
{
  public:
    /** @param threads worker threads; 0 = hardware concurrency
     * (resolved through RunnerOptions::resolveThreads). */
    explicit InProcessExecutor(unsigned threads = 0);

    const char *name() const override { return "inprocess"; }
    std::vector<CellResult>
    execute(const std::vector<PlannedCell> &cells,
            const ArtifactMap &artifacts) override;

  private:
    unsigned threads_;
};

/**
 * A worker process failed and its cells could not be recovered: the
 * shard crashed (or produced corrupt output) and the in-process retry
 * failed too. what() includes the shard's captured stderr.
 */
class WorkerError : public std::runtime_error
{
  public:
    WorkerError(unsigned shard, const std::string &detail,
                std::string stderr_text);

    unsigned shard() const { return shard_; }
    /** Captured stderr of the failed worker (tail, bounded). */
    const std::string &stderrText() const { return stderrText_; }

  private:
    unsigned shard_;
    std::string stderrText_;
};

/**
 * One shard's work order, serialized as a CASSSM1 manifest file: the
 * artifact snapshot per workload, the planned cells with their global
 * indices, and the worker's thread budget.
 */
struct ShardManifest
{
    uint32_t shardIndex = 0;
    /** Worker thread-pool size (pre-capped by the coordinator so
     * shards x threads never oversubscribes the machine). */
    uint32_t workerThreads = 1;
    /** Directory for rehydrated trace streams in the worker. */
    std::string streamDir;
    /** Workload name -> .aw snapshot path, for every cell workload. */
    std::vector<std::pair<std::string, std::string>> artifacts;
    /** Global cell index of cells[i] in the coordinator's plan. */
    std::vector<uint32_t> indices;
    std::vector<PlannedCell> cells;
};

std::vector<uint8_t> packShardManifest(const ShardManifest &manifest);

/**
 * Parse CASSSM1 bytes back into a manifest.
 * @throws ArtifactFormatError on bad magic/version,
 *         std::invalid_argument on truncated or inconsistent bytes.
 */
ShardManifest unpackShardManifest(const std::vector<uint8_t> &bytes);

void saveShardManifest(const ShardManifest &manifest,
                       const std::string &path);
ShardManifest loadShardManifest(const std::string &path);

/**
 * The worker side of the subprocess contract (what `run_experiment
 * --worker` runs): load the manifest, rehydrate the artifact
 * snapshots through `resolver`, execute the cells in-process and
 * write the CASSCR1 cell-result set to `out_path`. Errors are
 * reported on `err` and turn into a nonzero return (the coordinator
 * retries the shard in-process). Honors the CASSANDRA_TEST_WORKER_CRASH
 * fault-injection hook: a worker whose shard index matches the
 * variable exits early with status 42 (exercises the retry path).
 */
int runShardWorker(const std::string &manifest_path,
                   const std::string &out_path,
                   const AnalysisCache::Resolver &resolver,
                   std::ostream &err);

/**
 * Phase-2 cells sharded across worker subprocesses (POSIX only;
 * execute() throws std::runtime_error elsewhere).
 */
class SubprocessShardExecutor : public CellExecutor
{
  public:
    struct Options
    {
        /** Shard count; 0 = auto (RunnerOptions::resolveShards). */
        unsigned shards = 0;
        /** Binary implementing the --worker contract (required). */
        std::string workerBinary;
        /** Coordinator-side thread request; per-worker budgets derive
         * from it via RunnerOptions::resolveThreads(work, shards). */
        unsigned threads = 0;
        /** Scratch directory; empty = per-process temp dir. Scratch
         * files are removed after a successful run and kept (with a
         * stderr note naming the directory) when the run fails, so
         * manifests and worker stderr survive for debugging. */
        std::string scratchDir;
        /** Retry a crashed shard's cells in-process before failing.
         * Disabled, a crashed shard raises WorkerError directly. */
        bool retryInProcess = true;
        /** Shard partitioning policy (see scheduleShards). */
        ShardScheduler scheduler = ShardScheduler::Contiguous;
        /** Prior-cycles source for the Lpt cost model; null falls
         * back to the static ops-count estimate for every cell. */
        std::shared_ptr<const ResultStore> costSource;
    };

    /** Cumulative backend counters (observable in tests/telemetry). */
    struct Stats
    {
        uint64_t shardsLaunched = 0;
        uint64_t shardsFailed = 0;
        uint64_t cellsRetried = 0; ///< recovered on the in-process path
    };

    /** @throws std::invalid_argument when workerBinary is empty. */
    explicit SubprocessShardExecutor(Options options);

    const char *name() const override { return "subprocess"; }
    std::vector<CellResult>
    execute(const std::vector<PlannedCell> &cells,
            const ArtifactMap &artifacts) override;

    ScheduleSummary lastSchedule() const override { return schedule_; }

    const Stats &stats() const { return stats_; }

  private:
    Options options_;
    Stats stats_;
    ScheduleSummary schedule_;
};

/**
 * Executor for RunnerOptions::execution: InProcessExecutor or
 * SubprocessShardExecutor configured from the options. `costSource`
 * (may be null) feeds the subprocess executor's cost model with prior
 * cycles from the result store.
 */
std::shared_ptr<CellExecutor>
makeCellExecutor(const RunnerOptions &options,
                 std::shared_ptr<const ResultStore> costSource = nullptr);

} // namespace cassandra::core

#endif // CASSANDRA_CORE_CELL_EXECUTOR_HH
