/**
 * @file
 * Fused single-pass analysis pipeline.
 *
 * The recording of a timing trace, its encoding and the ProSpeCT taint
 * walk share ONE instrumented machine run: the machine's SoA batch
 * probe fills fixed-size AnalysisChunk spans (pc / memAddr / nextPc
 * columns straight from the interpreter loop, no per-op indirect
 * call), each full chunk is relinked (inst pointer + crypto flag from
 * a per-static-instruction table) and handed to every registered
 * BatchConsumer — the CASSTF3 frame encoder (frames held in memory in
 * whole mode, a stream file in stream mode), the incremental
 * TaintWalker — before the next chunk is produced. The chunks
 * themselves are recycled through the ring, so analysis memory stays
 * at a few chunks whatever the trace length.
 *
 * Two execution modes share one code path:
 *  - Inline: the probe's flush callback relinks and consumes the chunk
 *    synchronously. This is the single-core mode; it is also the
 *    deterministic reference for the threaded mode.
 *  - Threaded: chunks flow through a bounded ring (free list + ready
 *    queue) to one consumer thread; the producer stalls — counted —
 *    when all ring chunks are in flight. Consumers run in submission
 *    order on one thread, so consumer state needs no locking and the
 *    observed op sequence is identical to Inline.
 *
 * Parity contract: the chunk columns hold, op for op, the executed
 * instruction stream, whatever the chunk size, ring size or mode, so
 * every consumer's output is byte-identical across them. The parity
 * suite's oracle is a test-only recorder (tests/trace_test_util.hh):
 * one machine run through the batch probe into growing columns,
 * relinked with Program::at and isCryptoPc, beside
 * uarch::computeTaintBitmap over those columns and generateTraces with
 * `fused` false.
 */

#ifndef CASSANDRA_CORE_ANALYSIS_PIPELINE_HH
#define CASSANDRA_CORE_ANALYSIS_PIPELINE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <vector>

#include "core/branch_trace.hh"
#include "core/workload.hh"
#include "uarch/pipeline.hh"

namespace cassandra::core {

/** One span of consecutive dynamic ops in SoA form. */
struct AnalysisChunk
{
    uarch::OpBatchStorage ops;
    size_t size = 0;        ///< valid ops (columns may be larger)
    uint64_t baseIndex = 0; ///< dynamic index of ops column element 0

    /** View of the valid ops. */
    uarch::OpBatch
    view() const
    {
        return ops.view(0, size);
    }
};

/**
 * One consumer of the fused op pass. consume() is called once per
 * chunk, in dynamic-op order, from a single thread (the producer in
 * Inline mode, the consumer thread in Threaded mode); finish() after
 * the last chunk. The chunk is fully relinked (inst/crypto columns
 * valid) when consume() sees it.
 */
class BatchConsumer
{
  public:
    virtual ~BatchConsumer() = default;

    virtual void consume(const AnalysisChunk &chunk) = 0;

    /** Called once after the final chunk (stream writers finalize
     * here). Runs on the producer thread, after the pipeline drained. */
    virtual void
    finish()
    {
    }
};

/** Knobs of one fused pass. */
struct AnalysisPipelineOptions
{
    enum class Mode
    {
        Auto,     ///< Threaded when analysisLaunchPolicy() is async
        Inline,   ///< synchronous consume in the probe callback
        Threaded, ///< bounded ring + one consumer thread
    };

    /** Ops per chunk. Power-of-two multiples of the replay batch size
     * keep nextBatch() views frame-aligned, but any value >= 1 is
     * correct — the parity suite runs odd sizes on purpose. */
    size_t chunkOps = size_t(1) << 15;
    /** Chunks in flight in Threaded mode (>= 1); the producer stalls
     * when all of them are queued or being consumed. Ignored when
     * chunks are retained — retention keeps every chunk live anyway. */
    size_t ringChunks = 4;
    Mode mode = Mode::Auto;
};

/** Counters of one fused pass (feeds RunTelemetry). */
struct FusedPassStats
{
    uint64_t numOps = 0;         ///< probe firings == trace ops
    uint64_t chunks = 0;         ///< chunks produced
    uint64_t producerStalls = 0; ///< acquire() waits (Threaded only)
    bool threaded = false;       ///< resolved execution mode
};

/**
 * Run the workload on analysis input `which` once, feeding every
 * executed op through `consumers` as relinked chunks. With `retain`
 * the consumed chunks are additionally moved there in order, at
 * 33 B/op (perfbench, bench/micro_replay and the parity tests read
 * them; AnalyzedWorkload holds encoded frames instead). Throws
 * InstructionBudgetError (context "timing trace") when the run does
 * not halt.
 */
FusedPassStats
runFusedOpPass(const Workload &workload, int which,
               const std::vector<BatchConsumer *> &consumers,
               const AnalysisPipelineOptions &options = {},
               std::vector<AnalysisChunk> *retain = nullptr);

/** Result of one fused Algorithm 2 collection run (the batched
 * counterpart of tracegen's per-input instrumented run). */
struct FusedBranchRun
{
    std::map<uint64_t, FoldedTrace> traces;
    uint64_t heldBytes = 0;
    uint64_t peakBytes = 0;
    FusedPassStats stats;
};

/**
 * Fused Algorithm 2 collection: one machine run on input `which` whose
 * control-flow outcomes stream through the branch batch probe into a
 * detached FoldedTraceCollector (crypto-filtered like the probe-driven
 * collector). The folded traces and held/peak byte accounting are
 * identical to collectRun's — onBranch is the single shared seam.
 */
FusedBranchRun
runFusedBranchPass(const Workload &workload, int which,
                   bool crypto_only = true,
                   const AnalysisPipelineOptions &options = {});

/**
 * TimingOpSource over retained fused chunks (runFusedOpPass's
 * `retain`): replay with no decode, for perfbench and the parity
 * tests. nextBatch() serves zero-copy views into the chunks (a batch
 * never crosses a chunk boundary). `chunks` must outlive the source.
 */
class ChunkSpanSource final : public uarch::TimingOpSource
{
  public:
    explicit ChunkSpanSource(const std::vector<AnalysisChunk> &chunks)
        : chunks_(&chunks)
    {
    }

    size_t nextBatch(uarch::OpBatch &out, size_t max_ops) override;

  private:
    /** Advance past exhausted chunks; false at end of stream. */
    bool settle();

    const std::vector<AnalysisChunk> *chunks_;
    size_t chunk_ = 0;
    size_t pos_ = 0; ///< within chunk_
};

/**
 * How independent analysis passes of one workload are launched side by
 * side (the recording pass next to Algorithm 2, Algorithm 2's two
 * input runs next to each other): std::launch::async when the host has
 * >= 2 hardware threads — the rule AnalysisPipelineOptions::Mode::Auto
 * applies — and std::launch::deferred otherwise, so a single-core host
 * runs them one after another on the joining thread.
 */
std::launch analysisLaunchPolicy();

/**
 * Run `first` on the calling thread and `second` beside it under
 * analysisLaunchPolicy(). Both are joined before an error propagates,
 * and first's error wins, so which error surfaces never depends on
 * timing. Under std::launch::deferred a failed `first` means `second`
 * never starts.
 */
void runBeside(const std::function<void()> &first,
               const std::function<void()> &second);

/**
 * Process-wide count of fused analysis passes (op passes and branch
 * passes both count). Feeds the analysis_fused_passes telemetry field.
 */
uint64_t fusedAnalysisPasses();

} // namespace cassandra::core

#endif // CASSANDRA_CORE_ANALYSIS_PIPELINE_HH
