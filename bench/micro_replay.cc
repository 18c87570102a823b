/**
 * @file
 * Microbenchmarks (google-benchmark) for trace replay throughput: the
 * scalar next() path versus the batched SoA nextBatch() paths, over
 * the in-memory sources (the reference AoS TraceSpanSource and a
 * ChunkSpanSource over the analysis pass's SoA chunks) and the
 * TraceCursor over CASSTF2 frames, from a stream file (stream mode)
 * or held in memory (whole mode).
 * Items processed = timing ops replayed, so the items-per-second
 * column reads directly as replay ops/sec; the batch/scalar ratio is
 * the speedup the SoA replay layer claims (docs/ARCHITECTURE.md,
 * "Performance guide").
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "core/analysis_pipeline.hh"
#include "core/analyzed_workload.hh"
#include "core/serialize.hh"
#include "core/trace_stream.hh"
#include "crypto/workload_registry.hh"
#include "uarch/pipeline.hh"

using namespace cassandra;

namespace {

using core::TraceCursor;
using core::TraceStreamWriter;
using uarch::OpBatch;
using uarch::TimingOp;
using uarch::TimingOpSource;
using uarch::TimingTrace;

/** The evaluation trace every benchmark replays (recorded once). */
const TimingTrace &
trace()
{
    static const TimingTrace t = uarch::recordTrace(
        crypto::WorkloadRegistry::global().make("ChaCha20_ct"), 2);
    return t;
}

const core::Workload &
workload()
{
    static const core::Workload w =
        crypto::WorkloadRegistry::global().make("ChaCha20_ct");
    return w;
}

/** The same trace as the SoA chunks the fused analysis pass can
 * retain (runFusedOpPass's `retain`). */
const std::vector<core::AnalysisChunk> &
chunks()
{
    static const std::vector<core::AnalysisChunk> c = [] {
        std::vector<core::AnalysisChunk> out;
        core::runFusedOpPass(workload(), 2, {}, {}, &out);
        return out;
    }();
    return c;
}

/** The same trace as a whole-mode artifact holds it: CASSTF2 frames
 * in memory. */
const core::TraceFrames &
heldFrames()
{
    static const core::AnalyzedWorkload::Ptr aw =
        core::AnalyzedWorkload::analyze(workload());
    return aw->heldFrames();
}

/** CASSTF2 stream file of the same trace. */
const std::string &
streamFile()
{
    static const std::string path = [] {
        const std::string p = "/tmp/micro_replay.trace";
        TraceStreamWriter writer(
            p, core::programFingerprint(workload().program));
        for (const TimingOp &op : trace())
            writer.append(op);
        writer.finish();
        return p;
    }();
    return path;
}

/**
 * Hides a source's native nextBatch() behind the base-class adapter
 * (batching through next() one op at a time) — the scalar reference
 * the native batch paths are measured against.
 */
class ScalarOnly : public TimingOpSource
{
  public:
    explicit ScalarOnly(TimingOpSource &inner) : inner_(inner) {}

    const TimingOp *
    next() override
    {
        return inner_.next();
    }

  private:
    TimingOpSource &inner_;
};

/** Drain a source scalar-wise; returns a checksum the optimizer must
 * keep. */
uint64_t
drainScalar(TimingOpSource &src)
{
    uint64_t sum = 0;
    while (const TimingOp *op = src.next())
        sum += op->pc + op->memAddr + op->nextPc;
    return sum;
}

/** Drain a source batch-wise through the SoA columns. */
uint64_t
drainBatched(TimingOpSource &src)
{
    uint64_t sum = 0;
    OpBatch batch;
    while (size_t n = src.nextBatch(batch, uarch::timingOpBatchOps)) {
        for (size_t i = 0; i < n; i++)
            sum += batch.pc[i] + batch.memAddr[i] + batch.nextPc[i];
    }
    return sum;
}

void
BM_ReplaySpanScalar(benchmark::State &state)
{
    const TimingTrace &t = trace();
    for (auto _ : state) {
        uarch::TraceSpanSource src(t);
        benchmark::DoNotOptimize(drainScalar(src));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(t.size()));
}
BENCHMARK(BM_ReplaySpanScalar);

void
BM_ReplaySpanScalarAdapter(benchmark::State &state)
{
    // The base-class nextBatch adapter: batch API, scalar decode.
    const TimingTrace &t = trace();
    for (auto _ : state) {
        uarch::TraceSpanSource inner(t);
        ScalarOnly src(inner);
        benchmark::DoNotOptimize(drainBatched(src));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(t.size()));
}
BENCHMARK(BM_ReplaySpanScalarAdapter);

void
BM_ReplaySpanBatchTranspose(benchmark::State &state)
{
    // Native batch path of the AoS reference source: one AoS -> SoA
    // transpose per 4K-op batch.
    const TimingTrace &t = trace();
    for (auto _ : state) {
        uarch::TraceSpanSource src(t);
        benchmark::DoNotOptimize(drainBatched(src));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(t.size()));
}
BENCHMARK(BM_ReplaySpanBatchTranspose);

void
BM_ReplaySpanBatchShared(benchmark::State &state)
{
    // Zero-copy views into SoA chunks the fused analysis pass retained:
    // the replay cost with no decode at all.
    const std::vector<core::AnalysisChunk> &c = chunks();
    for (auto _ : state) {
        core::ChunkSpanSource src(c);
        benchmark::DoNotOptimize(drainBatched(src));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(trace().size()));
}
BENCHMARK(BM_ReplaySpanBatchShared);

void
BM_ReplayCursorScalar(benchmark::State &state)
{
    const std::string &path = streamFile();
    for (auto _ : state) {
        TraceCursor src(path, workload().program);
        benchmark::DoNotOptimize(drainScalar(src));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(trace().size()));
}
BENCHMARK(BM_ReplayCursorScalar);

void
BM_ReplayCursorBatchDelta(benchmark::State &state)
{
    // CASSTF2: delta/zig-zag varint frames (decodeRelinkedFrame).
    const std::string &path = streamFile();
    for (auto _ : state) {
        TraceCursor src(path, workload().program);
        benchmark::DoNotOptimize(drainBatched(src));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(trace().size()));
}
BENCHMARK(BM_ReplayCursorBatchDelta);

void
BM_ReplayHeldBatchDelta(benchmark::State &state)
{
    // The production whole-mode path: the same CASSTF2 frames decoded
    // from the artifact's memory (AnalyzedWorkload::openOpSource).
    const core::TraceFrames &held = heldFrames();
    for (auto _ : state) {
        TraceCursor src(held, workload().program);
        benchmark::DoNotOptimize(drainBatched(src));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(trace().size()));
}
BENCHMARK(BM_ReplayHeldBatchDelta);

} // namespace

BENCHMARK_MAIN();
