#include "core/cell_executor.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "core/trace_stream.hh"

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

namespace {

/** Frames of a group decoded ahead of its least-advanced cell. */
constexpr uint64_t ringFrames = 8;
/** Frames a cell replays per turn on a pool thread. */
constexpr uint64_t quantumFrames = 2;

std::atomic<uint64_t> frames_decoded{0}, frames_replayed{0}, replay_waits{0};

/** One planned cell under replay. */
struct CellRun
{
    size_t slot = 0; ///< index into the planned cells and the results
    std::unique_ptr<uarch::OooCore> core; ///< while the cell runs
    uint64_t frame = 0; ///< frames replayed so far
    bool busy = false, done = false;
};

/** The cells replaying one artifact, held in memory or streamed: its
 * cursor decodes frame f once, into ring[f % ring.size()], which is
 * kept until every cell has replayed it. */
struct Group
{
    AnalyzedWorkload::Ptr artifact;
    std::vector<CellRun> cells;
    std::unique_ptr<TraceCursor> cursor;
    std::vector<uarch::OpBatchStorage> ring;
    uint64_t frames = 0;
    uint64_t decoded = 0; ///< frames ready to replay
    bool decoding = false;
    size_t finished = 0; ///< cells done
};

/** A turn: decode `group`'s frame `from`, or replay [from, to) on `cell`. */
struct Task
{
    Group *group = nullptr;
    CellRun *cell = nullptr;
    uint64_t from = 0, to = 0;
};

/** The scheduler state the pool threads share. */
class ReplayPool
{
  public:
    ReplayPool(const std::vector<PlannedCell> &cells,
               const ArtifactMap &artifacts,
               std::vector<CellResult> &results)
        : cells_(cells), results_(results)
    {
        std::map<const AnalyzedWorkload *, size_t> group_of;
        for (size_t i = 0; i < cells.size(); i++) {
            const AnalyzedWorkload::Ptr &artifact =
                artifacts.at(cells[i].workload);
            results[i] = namedResult(cells[i], *artifact);
            const auto [it, fresh] =
                group_of.emplace(artifact.get(), groups_.size());
            if (fresh) {
                Group &g = groups_.emplace_back();
                g.artifact = artifact;
                g.cursor = artifact->openOpSource();
                g.frames = g.cursor->numFrames();
                g.ring.resize(std::min(g.frames, ringFrames));
            }
            groups_[it->second].cells.emplace_back().slot = i;
        }
    }

    /** The pool sizes each group's decode as one more unit of work. */
    size_t groups() const { return groups_.size(); }

    /** One pool thread: claim and perform turns until every cell has
     * finished. A failed turn stops every thread and is rethrown here;
     * runParallel keeps the first such error. */
    void
    work()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!failed_) {
            Task t;
            if (!claim(t)) {
                if (busy_ == 0)
                    return;
                replay_waits.fetch_add(1, std::memory_order_relaxed);
                const uint64_t seen = events_;
                cv_.wait(lock, [&] { return events_ != seen; });
                continue;
            }
            busy_++;
            lock.unlock();
            try {
                perform(t);
            } catch (...) {
                lock.lock();
                failed_ = true;
                events_++;
                cv_.notify_all();
                throw;
            }
            lock.lock();
            busy_--;
            events_++;
            complete(t);
            cv_.notify_all();
        }
    }

  private:
    /** Pick the next turn: a decode while a ring has room, else the
     * least-advanced runnable cell, else admit the next group. */
    bool
    claim(Task &t)
    {
        for (;; admitted_++) {
            Task best;
            for (size_t i = 0; i < admitted_; i++) {
                Group &g = groups_[i];
                uint64_t tail = g.frames; // the oldest frame still needed
                for (CellRun &c : g.cells) {
                    tail = std::min(tail, c.frame);
                    if (!c.busy && !c.done && c.frame < g.decoded &&
                        (!best.cell || c.frame < best.from))
                        best = Task{&g, &c, c.frame,
                                    std::min(c.frame + quantumFrames,
                                             g.decoded)};
                }
                if (!g.decoding && g.decoded < g.frames &&
                    g.decoded - tail < g.ring.size()) {
                    g.decoding = true;
                    t = Task{&g, nullptr, g.decoded, g.decoded + 1};
                    return true;
                }
            }
            if (best.cell) {
                best.cell->busy = true;
                t = best;
                return true;
            }
            if (admitted_ == groups_.size())
                return false;
        }
    }

    /** Run one turn, outside the lock: the ring slots it reads stay
     * put, and the one it decodes into is unused, until complete(). */
    void
    perform(const Task &t)
    {
        Group &g = *t.group;
        if (!t.cell) {
            g.cursor->decodeFrame(t.from, g.ring[t.from % g.ring.size()]);
            return;
        }
        CellRun &c = *t.cell;
        if (!c.core) {
            SimConfig cfg = cells_[c.slot].config;
            cfg.scheme = cells_[c.slot].scheme;
            auto [core, taint] = Simulation(g.artifact).makeCore(cfg);
            core->begin(taint);
            c.core = std::move(core);
        }
        for (uint64_t f = t.from; f < t.to; f++) {
            const uarch::OpBatchStorage &frame = g.ring[f % g.ring.size()];
            const size_t ops = frame.pc.size();
            for (size_t at = 0; at < ops; at += uarch::timingOpBatchOps)
                c.core->consume(frame.view(
                    at, std::min(uarch::timingOpBatchOps, ops - at)));
        }
        if (t.to == g.frames) {
            results_[c.slot].result =
                resultFromCore(*c.core, c.core->finish());
            c.core.reset();
        }
    }

    /** Record a performed turn (under the lock). */
    void
    complete(const Task &t)
    {
        Group &g = *t.group;
        if (!t.cell) {
            g.decoding = false;
            g.decoded++;
            frames_decoded.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        t.cell->busy = false;
        t.cell->frame = t.to;
        t.cell->done = t.to == g.frames;
        frames_replayed.fetch_add(t.to - t.from, std::memory_order_relaxed);
        if (t.cell->done && ++g.finished == g.cells.size()) {
            g.cursor.reset(); // the last cell releases the trace
            std::vector<uarch::OpBatchStorage>().swap(g.ring);
        }
    }

    const std::vector<PlannedCell> &cells_;
    std::vector<CellResult> &results_;
    std::vector<Group> groups_; ///< fixed once the pool starts

    std::mutex mutex_; ///< guards everything below and the groups
    std::condition_variable cv_;
    size_t admitted_ = 0; ///< groups [0, admitted_) are live
    size_t busy_ = 0;     ///< turns being performed
    uint64_t events_ = 0; ///< turns performed, for waiters
    bool failed_ = false;
};

} // namespace

ReplayCounters
replayCounters()
{
    return {frames_decoded.load(std::memory_order_relaxed),
            frames_replayed.load(std::memory_order_relaxed),
            replay_waits.load(std::memory_order_relaxed)};
}

CellResult
namedResult(const PlannedCell &cell, const AnalyzedWorkload &artifact,
            const ExperimentResult &result)
{
    return CellResult{cell.workload, artifact.workload().suite, cell.scheme,
                      cell.config.name, result};
}

InProcessExecutor::InProcessExecutor(unsigned threads) : threads_(threads)
{
}

std::vector<CellResult>
InProcessExecutor::execute(const std::vector<PlannedCell> &cells,
                           const ArtifactMap &artifacts)
{
    std::vector<CellResult> results(cells.size());
    ReplayPool pool(cells, artifacts, results);
    // A group's decode is one more unit of work: a lone cell still
    // gets a thread decoding ahead of it.
    const unsigned threads = RunnerOptions(threads_).resolveThreads(
        cells.size() + pool.groups());
    runParallel(threads, threads, [&](size_t) { pool.work(); });
    return results;
}

} // namespace cassandra::core
