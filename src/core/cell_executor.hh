/**
 * @file
 * The phase-2 cell-execution layer.
 *
 * ExperimentRunner plans the workload x scheme x config cross product
 * and acquires the analysis artifacts; a CellExecutor then turns the
 * planned cells into CellResults. InProcessExecutor, the runner's
 * executor, replays the cells over a thread pool in this process; the
 * interface stays so callers can inject their own (a timing harness,
 * for example). Given the same cells and artifacts, an executor must
 * produce byte-identical results in cell order, whatever its thread
 * count.
 */

#ifndef CASSANDRA_CORE_CELL_EXECUTOR_HH
#define CASSANDRA_CORE_CELL_EXECUTOR_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace cassandra::core {

/**
 * Run fn(0..work) over a pool of `threads` workers, failing fast on
 * the first exception (rethrown here). Shared by the runner's analysis
 * phase and the in-process executor.
 */
void runParallel(unsigned threads, size_t work,
                 const std::function<void(size_t)> &fn);

/** InProcessExecutor's process-wide counters: stream frames decoded,
 * stream frames fed to a cell's core, and waits of a pool thread that
 * found nothing to decode or replay. */
struct ReplayCounters
{
    uint64_t framesDecoded = 0, framesReplayed = 0, replayWaits = 0;
};

ReplayCounters replayCounters();

/** One planned phase-2 cell (the matrix cross product, flattened). */
struct PlannedCell
{
    std::string workload; ///< matrix (registry) spelling
    uarch::Scheme scheme = uarch::Scheme::UnsafeBaseline;
    /** Config variant; its scheme field is replaced by `scheme`. */
    SimConfig config;
};

/** `cell`'s result slot holding `result`: named by the matrix name
 * (not Workload::name), so Experiment::find works with whatever the
 * caller spelled, parameterized entries included. */
CellResult namedResult(const PlannedCell &cell,
                       const AnalyzedWorkload &artifact,
                       const ExperimentResult &result = {});

/** Shared analysis artifacts, keyed by matrix workload name. */
using ArtifactMap = std::map<std::string, AnalyzedWorkload::Ptr>;

/** Executes planned cells over shared artifacts. */
class CellExecutor
{
  public:
    virtual ~CellExecutor() = default;

    /** Diagnostic backend name ("inprocess", ...). */
    virtual const char *name() const = 0;

    /**
     * Execute every cell; the result vector is parallel to `cells`
     * and must be byte-identical across executors and thread counts.
     * Artifacts must cover every cell's workload.
     */
    virtual std::vector<CellResult>
    execute(const std::vector<PlannedCell> &cells,
            const ArtifactMap &artifacts) = 0;
};

/**
 * Phase-2 cells over a thread pool in this process. The cells of one
 * streamed artifact form a group whose cores (OooCore::consume) all
 * replay one TraceCursor's frames, each decoded once into a small
 * ring; a whole-mode cell is a group of its own. A pool thread decodes
 * a frame while a ring has room, else replays the least-advanced
 * runnable cell for a quantum of frames, else admits the next group.
 */
class InProcessExecutor : public CellExecutor
{
  public:
    /** @param threads worker threads; 0 = hardware concurrency
     * (RunnerOptions::resolveThreads, a stream group's decode counting
     * as one more unit of work). */
    explicit InProcessExecutor(unsigned threads = 0);

    const char *name() const override { return "inprocess"; }
    std::vector<CellResult>
    execute(const std::vector<PlannedCell> &cells,
            const ArtifactMap &artifacts) override;

  private:
    unsigned threads_;
};

} // namespace cassandra::core

#endif // CASSANDRA_CORE_CELL_EXECUTOR_HH
