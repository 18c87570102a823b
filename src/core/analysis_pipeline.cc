#include "core/analysis_pipeline.hh"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <future>
#include <mutex>
#include <thread>
#include <utility>

#include "core/trace_stream.hh"
#include "sim/machine.hh"

namespace cassandra::core {

namespace {

std::atomic<uint64_t> fused_passes{0};

/** Fill the inst/crypto columns from the pc column through
 * the cursor's relink table (cryptoPcTable). Executed pcs were
 * validated by Machine::step before the probe fired, so no range check
 * is needed (unlike the cursor, which reads from disk). */
void
relinkChunk(AnalysisChunk &chunk, const ir::Program &prog,
            const std::vector<uint8_t> &crypto)
{
    const ir::Inst *insts = prog.insts.data();
    for (size_t i = 0; i < chunk.size; i++) {
        const size_t idx = static_cast<size_t>(
            (chunk.ops.pc[i] - ir::Program::codeBase) / ir::instBytes);
        chunk.ops.inst[i] = insts + idx;
        chunk.ops.crypto[i] = crypto[idx];
    }
}

/**
 * The bounded chunk ring between the machine run and the consumers.
 * Inline mode degenerates to a direct call in submit(); Threaded mode
 * runs `process` on one consumer thread in submission order, recycling
 * storage through a free list (unless chunks are retained, in which
 * case storage is never recycled and acquire() never stalls — the
 * retained set holds every chunk regardless of queue depth).
 */
class ChunkPipeline
{
  public:
    using Process = std::function<void(AnalysisChunk &)>;

    ChunkPipeline(const AnalysisPipelineOptions &options, Process process,
                  std::vector<AnalysisChunk> *retain)
        : process_(std::move(process)), retain_(retain),
          chunkOps_(options.chunkOps ? options.chunkOps : 1),
          ringChunks_(options.ringChunks ? options.ringChunks : 1)
    {
        using Mode = AnalysisPipelineOptions::Mode;
        threaded_ = options.mode == Mode::Threaded ||
            (options.mode == Mode::Auto &&
             analysisLaunchPolicy() == std::launch::async);
        if (threaded_)
            consumer_ = std::thread([this] { consumerLoop(); });
    }

    ~ChunkPipeline()
    {
        // Abandoned pipeline (an exception is unwinding the producer):
        // stop the consumer without processing the backlog.
        if (consumer_.joinable()) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                aborted_ = true;
                done_ = true;
            }
            consumerCv_.notify_all();
            consumer_.join();
        }
    }

    bool threaded() const { return threaded_; }
    uint64_t producerStalls() const { return producerStalls_; }

    /** A chunk ready for the probe: columns sized chunkOps_, size 0,
     * baseIndex at the current stream position. Blocks in Threaded
     * mode while every ring chunk is in flight. */
    AnalysisChunk
    acquire()
    {
        AnalysisChunk chunk;
        if (!threaded_) {
            if (!free_.empty()) {
                chunk = std::move(free_.back());
                free_.pop_back();
            }
        } else {
            std::unique_lock<std::mutex> lock(mutex_);
            if (error_)
                std::rethrow_exception(error_);
            if (!free_.empty()) {
                chunk = std::move(free_.back());
                free_.pop_back();
            } else if (retain_ || allocated_ < ringChunks_) {
                allocated_++;
            } else {
                producerStalls_++;
                producerCv_.wait(lock, [this] {
                    return !free_.empty() || error_ != nullptr;
                });
                if (error_)
                    std::rethrow_exception(error_);
                chunk = std::move(free_.back());
                free_.pop_back();
            }
        }
        chunk.ops.resize(chunkOps_);
        chunk.size = 0;
        chunk.baseIndex = nextBase_;
        return chunk;
    }

    /** Hand a filled chunk (size set by the caller) downstream. */
    void
    submit(AnalysisChunk chunk)
    {
        nextBase_ += chunk.size;
        if (!threaded_) {
            processOne(chunk);
            return;
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.push_back(std::move(chunk));
        }
        consumerCv_.notify_one();
    }

    /** Wait for the backlog to drain, join the consumer, and rethrow
     * any consumer-side exception. The pipeline is spent afterwards. */
    void
    drain()
    {
        if (threaded_) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                done_ = true;
            }
            consumerCv_.notify_all();
            consumer_.join();
            if (error_)
                std::rethrow_exception(error_);
        }
        free_.clear();
    }

  private:
    void
    processOne(AnalysisChunk &chunk)
    {
        process_(chunk);
        if (retain_)
            retain_->push_back(std::move(chunk));
        else if (!threaded_)
            free_.push_back(std::move(chunk));
    }

    void
    consumerLoop()
    {
        for (;;) {
            AnalysisChunk chunk;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                consumerCv_.wait(lock, [this] {
                    return !queue_.empty() || done_;
                });
                if (aborted_ || (queue_.empty() && done_))
                    return;
                chunk = std::move(queue_.front());
                queue_.pop_front();
            }
            try {
                process_(chunk);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex_);
                error_ = std::current_exception();
                producerCv_.notify_all();
                return;
            }
            if (retain_) {
                // Single consumer, FIFO queue: retention preserves
                // dynamic order without touching the lock.
                retain_->push_back(std::move(chunk));
            } else {
                std::lock_guard<std::mutex> lock(mutex_);
                free_.push_back(std::move(chunk));
                producerCv_.notify_one();
            }
        }
    }

    Process process_;
    std::vector<AnalysisChunk> *retain_;
    size_t chunkOps_;
    size_t ringChunks_;
    bool threaded_ = false;

    uint64_t nextBase_ = 0;
    uint64_t producerStalls_ = 0;

    // Threaded-mode state (mutex-guarded); free_ doubles as the
    // inline-mode recycle list (producer-only, no locking).
    std::mutex mutex_;
    std::condition_variable producerCv_;
    std::condition_variable consumerCv_;
    std::deque<AnalysisChunk> queue_;
    std::vector<AnalysisChunk> free_;
    size_t allocated_ = 0;
    bool done_ = false;
    bool aborted_ = false;
    std::exception_ptr error_;
    std::thread consumer_;
};

/**
 * The machine run both fused passes share: run the workload on input
 * `which` with the probe in `slot` (Machine::opBatchProbe or
 * branchBatchProbe) filling chunks from `pipeline`, submit each full
 * chunk and the tail, and drain. Throws InstructionBudgetError (naming
 * `context`) when the run does not halt.
 */
void
runProbedMachine(const Workload &workload, int which,
                 sim::Machine::BatchProbe *sim::Machine::*slot,
                 const char *context, ChunkPipeline &pipeline,
                 FusedPassStats &stats)
{
    stats.threaded = pipeline.threaded();
    sim::Machine machine(workload.program);
    if (workload.setInput)
        workload.setInput(machine, which);

    sim::Machine::BatchProbe probe;
    AnalysisChunk cur = pipeline.acquire();
    // The branch probe leaves memAddr alone, so one attach serves both.
    auto attach = [&] {
        probe.pc = cur.ops.pc.data();
        probe.memAddr = cur.ops.memAddr.data();
        probe.nextPc = cur.ops.nextPc.data();
        probe.cap = cur.ops.pc.size();
        probe.size = 0;
    };
    auto submit = [&] {
        cur.size = probe.size;
        stats.numOps += cur.size;
        stats.chunks++;
        pipeline.submit(std::move(cur));
    };
    attach();
    probe.full = [&] {
        submit();
        cur = pipeline.acquire();
        attach();
    };
    machine.*slot = &probe;

    auto res = machine.run(workload.maxDynInsts);
    if (!res.halted)
        throw InstructionBudgetError(workload.name, res.instCount, context);
    if (probe.size)
        submit();
    pipeline.drain();
    stats.producerStalls = pipeline.producerStalls();
}

} // namespace

FusedPassStats
runFusedOpPass(const Workload &workload, int which,
               const std::vector<BatchConsumer *> &consumers,
               const AnalysisPipelineOptions &options,
               std::vector<AnalysisChunk> *retain)
{
    fused_passes.fetch_add(1, std::memory_order_relaxed);
    const ir::Program &prog = workload.program;
    const std::vector<uint8_t> crypto = cryptoPcTable(prog);

    FusedPassStats stats;
    ChunkPipeline pipeline(
        options,
        [&](AnalysisChunk &chunk) {
            relinkChunk(chunk, prog, crypto);
            for (BatchConsumer *consumer : consumers)
                consumer->consume(chunk);
        },
        retain);
    runProbedMachine(workload, which, &sim::Machine::opBatchProbe,
                     "timing trace", pipeline, stats);
    for (BatchConsumer *consumer : consumers)
        consumer->finish();
    return stats;
}

FusedBranchRun
runFusedBranchPass(const Workload &workload, int which, bool crypto_only,
                   const AnalysisPipelineOptions &options)
{
    fused_passes.fetch_add(1, std::memory_order_relaxed);
    const ir::Program &prog = workload.program;
    const std::vector<uint8_t> crypto = cryptoPcTable(prog);

    FusedBranchRun out;
    FoldedTraceCollector collector;
    ChunkPipeline pipeline(
        options,
        [&](AnalysisChunk &chunk) {
            // Branch chunks carry pc/nextPc only; the crypto filter
            // indexes the relink table directly (every recorded pc was
            // executed, hence valid).
            for (size_t i = 0; i < chunk.size; i++) {
                const uint64_t pc = chunk.ops.pc[i];
                if (crypto_only) {
                    const size_t idx = static_cast<size_t>(
                        (pc - ir::Program::codeBase) / ir::instBytes);
                    if (!crypto[idx])
                        continue;
                }
                collector.onBranch(pc, chunk.ops.nextPc[i]);
            }
        },
        nullptr);
    runProbedMachine(workload, which, &sim::Machine::branchBatchProbe,
                     "Algorithm 2 analysis run", pipeline, out.stats);
    collector.finish();
    out.heldBytes = collector.heldBytes();
    out.peakBytes = collector.peakHeldBytes();
    out.traces = collector.take();
    return out;
}

bool
ChunkSpanSource::settle()
{
    while (chunk_ < chunks_->size() && pos_ >= (*chunks_)[chunk_].size) {
        chunk_++;
        pos_ = 0;
    }
    return chunk_ < chunks_->size();
}

size_t
ChunkSpanSource::nextBatch(uarch::OpBatch &out, size_t max_ops)
{
    if (max_ops == 0 || !settle())
        return 0;
    const AnalysisChunk &c = (*chunks_)[chunk_];
    const size_t n = std::min(max_ops, c.size - pos_);
    out = c.ops.view(pos_, n);
    pos_ += n;
    return n;
}

std::launch
analysisLaunchPolicy()
{
    return std::thread::hardware_concurrency() >= 2 ? std::launch::async
                                                    : std::launch::deferred;
}

void
runBeside(const std::function<void()> &first,
          const std::function<void()> &second)
{
    const std::launch policy = analysisLaunchPolicy();
    std::future<void> side = std::async(policy, second);
    std::exception_ptr error;
    try {
        first();
    } catch (...) {
        error = std::current_exception();
    }
    // A deferred future dropped without get() never runs its task, so
    // a failed first pass does not pay for the second.
    if (!error || policy == std::launch::async) {
        try {
            side.get();
        } catch (...) {
            if (!error)
                error = std::current_exception();
        }
    }
    if (error)
        std::rethrow_exception(error);
}

uint64_t
fusedAnalysisPasses()
{
    return fused_passes.load(std::memory_order_relaxed);
}

} // namespace cassandra::core
