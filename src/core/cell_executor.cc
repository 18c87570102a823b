#include "core/cell_executor.hh"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace cassandra::core {

void
runParallel(unsigned threads, size_t work,
            const std::function<void(size_t)> &fn)
{
    if (work == 0)
        return;
    std::atomic<size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;

    auto worker = [&] {
        for (;;) {
            size_t i = next.fetch_add(1);
            if (i >= work)
                return;
            {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (first_error)
                    return; // fail fast, keep remaining slots empty
            }
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
                return;
            }
        }
    };

    if (threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; t++)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    if (first_error)
        std::rethrow_exception(first_error);
}

// ---------------------------------------------------------------------
// InProcessExecutor
// ---------------------------------------------------------------------

InProcessExecutor::InProcessExecutor(unsigned threads) : threads_(threads)
{
}

std::vector<CellResult>
InProcessExecutor::execute(const std::vector<PlannedCell> &cells,
                           const ArtifactMap &artifacts)
{
    std::vector<CellResult> results(cells.size());
    runParallel(
        RunnerOptions(threads_).resolveThreads(cells.size()),
        cells.size(), [&](size_t i) {
            const PlannedCell &cell = cells[i];
            const AnalyzedWorkload::Ptr &artifact =
                artifacts.at(cell.workload);
            CellResult &out = results[i];
            // Keyed by the matrix name (not Workload::name) so
            // Experiment::find works with whatever the caller
            // spelled, parameterized entries included.
            out.workload = cell.workload;
            out.suite = artifact->workload().suite;
            out.scheme = cell.scheme;
            out.config = cell.config.name;
            SimConfig cfg = cell.config;
            cfg.scheme = cell.scheme;
            out.result = Simulation(artifact).run(cfg);
        });
    return results;
}

} // namespace cassandra::core
