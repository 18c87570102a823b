/**
 * @file
 * Batched-replay parity tests: a trace stream serves the recorded op
 * columns (tests/trace_test_util.hh recordOps) at every batch size and
 * frame size, on both cursor backings, and the core resumed batch by
 * batch through OooCore::begin/consume/finish gives run()'s counters
 * for every scheme, on whole and streamed artifacts alike. Batches of
 * one op are the per-op reference.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/analysis_pipeline.hh"
#include "core/analyzed_workload.hh"
#include "core/serialize.hh"
#include "core/trace_stream.hh"
#include "uarch/pipeline.hh"
#include "crypto/workload_registry.hh"
#include "tests/trace_test_util.hh"

namespace {

using namespace cassandra;
using core::AnalyzedWorkload;
using core::ExperimentResult;
using core::SimConfig;
using core::TraceCursor;
using core::TraceStreamWriter;
using uarch::OpBatch;
using uarch::OpBatchStorage;
using uarch::Scheme;
using uarch::TimingOpSource;

constexpr Scheme allSchemes[] = {
    Scheme::UnsafeBaseline, Scheme::Cassandra,  Scheme::CassandraStl,
    Scheme::CassandraLite,  Scheme::Spt,        Scheme::Prospect,
    Scheme::CassandraProspect};

core::Workload
workload(const char *name)
{
    return crypto::WorkloadRegistry::global().make(name);
}

/** Drain `src` via nextBatch(max_ops) and compare the concatenated
 * columns against the recorded ops. */
void
expectBatchedColumnsEqualOps(TimingOpSource &src, const OpBatchStorage &ops,
                             const ir::Program &program, size_t max_ops)
{
    SCOPED_TRACE("max_ops=" + std::to_string(max_ops));
    OpBatchStorage got;
    OpBatch batch;
    while (const size_t n = src.nextBatch(batch, max_ops)) {
        ASSERT_EQ(n, batch.size);
        ASSERT_LE(n, max_ops);
        test::appendOps(got, batch);
    }
    test::expectSameOps(got, ops, program, "batched columns");
}

/** Write `ops` as a multi-frame stream file; small frames force
 * batches to stop at frame boundaries (tail/partial batches). */
std::string
writeStream(const core::Workload &w, const OpBatchStorage &ops,
            uint32_t frame_ops)
{
    const std::string path =
        test::scratchPath("batch-" + std::to_string(frame_ops) + ".trace");
    TraceStreamWriter writer(path, core::programFingerprint(w.program),
                             frame_ops);
    writer.appendBatch(ops.view(0, ops.pc.size()));
    writer.finish();
    return path;
}

/** One timing run of `aw`'s own source under `scheme`, on the core and
 * taint bitmap core::Simulation wires. */
ExperimentResult
runScheme(const AnalyzedWorkload::Ptr &aw, Scheme scheme)
{
    SimConfig config;
    config.scheme = scheme;
    auto [ooo, taint] = core::Simulation(aw).makeCore(config);
    auto src = aw->openOpSource();
    return core::resultFromCore(*ooo, ooo->run(*src, taint));
}

/** runScheme over the artifact's own source, fed through
 * begin/consume/finish in batches of at most `max_ops` ops (a source
 * never serves a batch across a frame, so 1 << 15 feeds whole
 * frames). */
ExperimentResult
resumeScheme(const AnalyzedWorkload::Ptr &aw, Scheme scheme,
             size_t max_ops)
{
    SimConfig config;
    config.scheme = scheme;
    auto [ooo, taint] = core::Simulation(aw).makeCore(config);
    auto src = aw->openOpSource();
    ooo->begin(taint);
    OpBatch batch;
    while (src->nextBatch(batch, max_ops) != 0)
        ooo->consume(batch);
    return core::resultFromCore(*ooo, ooo->finish());
}

/** The batch sizes the resumable core is fed in; 1 is the per-op
 * reference. */
constexpr size_t resumeBatches[] = {1, 17, uarch::timingOpBatchOps,
                                    size_t{1} << 15};

// ---------------------------------------------------------------------
// Column equivalence: every batch size, both source kinds
// ---------------------------------------------------------------------

TEST(BatchColumnsTest, CursorMatchesTraceAtFrameBoundaries)
{
    core::Workload w = workload("SHA-256");
    const OpBatchStorage ops = test::recordOps(w);
    ASSERT_GT(ops.pc.size(), 2 * uarch::timingOpBatchOps);
    const size_t B = uarch::timingOpBatchOps;
    // 256-op frames force every batch to stop at a frame boundary;
    // default-sized frames exercise full-width batches with a tail.
    for (uint32_t frame_ops : {uint32_t{256}, uint32_t{1} << 15}) {
        SCOPED_TRACE("frameOps=" + std::to_string(frame_ops));
        const std::string path = writeStream(w, ops, frame_ops);
        for (size_t max_ops : {size_t{1}, B - 1, B, B + 1}) {
            TraceCursor cursor(path, w.program);
            expectBatchedColumnsEqualOps(cursor, ops, w.program, max_ops);
        }
        // 17 never divides a frame, so frame boundaries land
        // mid-request, on both backings.
        for (TraceCursor::Backing backing :
             {TraceCursor::Backing::Mmap, TraceCursor::Backing::Buffered}) {
            SCOPED_TRACE("backing " +
                         std::to_string(static_cast<int>(backing)));
            TraceCursor cursor(path, w.program, backing);
            expectBatchedColumnsEqualOps(cursor, ops, w.program, 17);
        }
        std::remove(path.c_str());
    }
}

TEST(BatchColumnsTest, EmptyAndExhaustedSourcesReturnZero)
{
    core::Workload w = workload("SHA-256");
    OpBatch batch;
    const core::TraceFrames empty;
    TraceCursor none(empty, w.program);
    EXPECT_EQ(none.nextBatch(batch, uarch::timingOpBatchOps), 0u);
    const std::vector<core::AnalysisChunk> no_chunks;
    core::ChunkSpanSource no_span(no_chunks);
    EXPECT_EQ(no_span.nextBatch(batch, uarch::timingOpBatchOps), 0u);

    const std::string path = writeStream(w, test::recordOps(w), 256);
    TraceCursor drained(path, w.program);
    EXPECT_EQ(drained.nextBatch(batch, 0), 0u);
    while (drained.nextBatch(batch, uarch::timingOpBatchOps) != 0) {
    }
    EXPECT_EQ(drained.nextBatch(batch, uarch::timingOpBatchOps), 0u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// End-to-end timing parity: resumed vs whole-run replay, all schemes
// ---------------------------------------------------------------------

/** Every scheme's run() of `aw` against the same replay resumed in
 * each of resumeBatches. */
void
expectResumedRunsMatch(const AnalyzedWorkload::Ptr &aw)
{
    for (Scheme scheme : allSchemes) {
        SCOPED_TRACE(uarch::schemeName(scheme));
        const ExperimentResult whole = runScheme(aw, scheme);
        for (size_t max_ops : resumeBatches)
            test::expectSameCounters(
                resumeScheme(aw, scheme, max_ops), whole,
                "resumed, batches of " + std::to_string(max_ops));
    }
}

TEST(BatchParityTest, WholeSourceResumesIdenticallyAcrossSchemes)
{
    expectResumedRunsMatch(
        AnalyzedWorkload::analyze(workload("ChaCha20_ct")));
}

TEST(BatchParityTest, StreamSourceResumesIdenticallyAcrossSchemes)
{
    core::AnalyzeOptions options;
    options.traceMode = core::TraceMode::Stream;
    options.streamDir = test::scratchPath("batch-parity-streams");
    expectResumedRunsMatch(
        AnalyzedWorkload::analyze(workload("ChaCha20_ct"), options));
}

} // namespace
