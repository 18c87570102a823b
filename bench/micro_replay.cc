/**
 * @file
 * Microbenchmarks (google-benchmark) for trace replay throughput
 * through the batched SoA nextBatch() path: a ChunkSpanSource over the
 * analysis pass's SoA chunks (the replay cost with no decode), and the
 * TraceCursor over CASSTF3 frames, from a stream file (stream mode) or
 * held in memory (whole mode).
 * Items processed = timing ops replayed, so the items-per-second
 * column reads directly as replay ops/sec; the cursor/chunk ratio is
 * what decoding the frames costs (docs/ARCHITECTURE.md, "Performance
 * guide").
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
using uarch::TimingOpSource;

const core::Workload &
workload()
{
    static const core::Workload w =
        crypto::WorkloadRegistry::global().make("ChaCha20_ct");
    return w;
}

/** The evaluation trace every benchmark replays, as the SoA chunks the
 * fused analysis pass can retain (runFusedOpPass's `retain`). */
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

/** Ops of the trace. */
int64_t
traceOps()
{
    static const int64_t n = [] {
        int64_t sum = 0;
        for (const core::AnalysisChunk &c : chunks())
            sum += static_cast<int64_t>(c.size);
        return sum;
    }();
    return n;
}

/** The same trace as a whole-mode artifact holds it: CASSTF3 frames
 * in memory. */
const core::TraceFrames &
heldFrames()
{
    static const core::AnalyzedWorkload::Ptr aw =
        core::AnalyzedWorkload::analyze(workload());
    return aw->heldFrames();
}

/** CASSTF3 stream file of the same trace. */
const std::string &
streamFile()
{
    static const std::string path = [] {
        const std::string p = "/tmp/micro_replay.trace";
        TraceStreamWriter writer(
            p, core::programFingerprint(workload().program));
        for (const core::AnalysisChunk &c : chunks())
            writer.appendBatch(c.view());
        writer.finish();
        return p;
    }();
    return path;
}

/** Drain a source batch-wise through the SoA columns; returns a
 * checksum the optimizer must keep. */
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
BM_ReplaySpanBatchShared(benchmark::State &state)
{
    // Zero-copy views into SoA chunks the fused analysis pass retained:
    // the replay cost with no decode at all.
    const std::vector<core::AnalysisChunk> &c = chunks();
    for (auto _ : state) {
        core::ChunkSpanSource src(c);
        benchmark::DoNotOptimize(drainBatched(src));
    }
    state.SetItemsProcessed(state.iterations() * traceOps());
}
BENCHMARK(BM_ReplaySpanBatchShared);

void
BM_ReplayCursorBatchDelta(benchmark::State &state)
{
    // CASSTF3: sparse record frames (decodeRelinkedFrame). The
    // benchmark keeps the name of the delta frames it used to time.
    const std::string &path = streamFile();
    for (auto _ : state) {
        TraceCursor src(path, workload().program);
        benchmark::DoNotOptimize(drainBatched(src));
    }
    state.SetItemsProcessed(state.iterations() * traceOps());
}
BENCHMARK(BM_ReplayCursorBatchDelta);

void
BM_ReplayHeldBatchDelta(benchmark::State &state)
{
    // The production whole-mode path: the same CASSTF3 frames decoded
    // from the artifact's memory (AnalyzedWorkload::openOpSource).
    const core::TraceFrames &held = heldFrames();
    for (auto _ : state) {
        TraceCursor src(held, workload().program);
        benchmark::DoNotOptimize(drainBatched(src));
    }
    state.SetItemsProcessed(state.iterations() * traceOps());
}
BENCHMARK(BM_ReplayHeldBatchDelta);

} // namespace

BENCHMARK_MAIN();
