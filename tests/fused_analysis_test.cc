/**
 * @file
 * Fused single-pass analysis pipeline parity suite.
 *
 * The fused pipeline (core/analysis_pipeline) is the only analysis
 * path. The oracle is the test recorder (tests/trace_test_util.hh
 * recordOps: one machine run into growing columns, relinked
 * independently), uarch::computeTaintBitmap over its columns and
 * generateTraces with fused = false. Everything here is exact
 * comparison: op columns, folded Algorithm 2 traces, packed image
 * bytes, taint bits, stream file bytes and replayed batches must
 * match the reference op for op — across chunk sizes (including 1),
 * ring sizes (including 1), and Inline and forced-Threaded mode. Plus
 * the TraceStreamWriter durability seam: a crash after the data fsync
 * but before the index/footer must leave a file that fails loudly at
 * open, never a footer-valid-but-truncated stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <future>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/analysis_pipeline.hh"
#include "core/analyzed_workload.hh"
#include "core/serialize.hh"
#include "core/trace_stream.hh"
#include "core/tracegen.hh"
#include "crypto/workload_registry.hh"
#include "tests/trace_test_util.hh"

namespace {

using namespace cassandra;
using core::AnalysisChunk;
using core::AnalysisPipelineOptions;
using core::AnalyzedWorkload;
using core::AnalyzeOptions;
using core::BatchConsumer;
using core::ChunkSpanSource;
using core::TraceCursor;
using core::TraceMode;
using core::TraceStreamWriter;
using Mode = core::AnalysisPipelineOptions::Mode;

core::Workload
workload(const char *name)
{
    return crypto::WorkloadRegistry::global().make(name);
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << path;
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** Consumer that collects every chunk's columns. */
class CollectConsumer final : public BatchConsumer
{
  public:
    void
    consume(const AnalysisChunk &chunk) override
    {
        EXPECT_EQ(chunk.baseIndex, ops.pc.size());
        test::appendOps(ops, chunk.view());
    }

    void
    finish() override
    {
        finished = true;
    }

    uarch::OpBatchStorage ops;
    bool finished = false;
};

/** A stream file of `ops` written by a writer fed one op at a time
 * (1-op batches, so every op goes through the writer's staging). */
void
writeOpByOp(const std::string &path, const ir::Program &program,
            const uarch::OpBatchStorage &ops)
{
    TraceStreamWriter writer(path, core::programFingerprint(program));
    for (size_t i = 0; i < ops.pc.size(); i++)
        writer.appendBatch(ops.view(i, 1));
    writer.finish();
}

/** Exact (packed-bytes) equality of two Algorithm 2 results. */
void
expectSameTraceGen(const core::TraceGenResult &a,
                   const core::TraceGenResult &b, const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.peakAccumBytes, b.peakAccumBytes);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (size_t i = 0; i < a.records.size(); i++) {
        const auto &ra = a.records[i], &rb = b.records[i];
        ASSERT_EQ(ra.pc, rb.pc);
        EXPECT_EQ(ra.singleTarget, rb.singleTarget) << std::hex << ra.pc;
        EXPECT_EQ(ra.inputDependent, rb.inputDependent)
            << std::hex << ra.pc;
        EXPECT_EQ(ra.rejection, rb.rejection) << std::hex << ra.pc;
        EXPECT_EQ(ra.vanillaSize, rb.vanillaSize) << std::hex << ra.pc;
        EXPECT_EQ(ra.kmersSize, rb.kmersSize) << std::hex << ra.pc;
    }
    ASSERT_EQ(a.image.numBranches(), b.image.numBranches());
    EXPECT_EQ(a.image.traceBytes(), b.image.traceBytes());
    for (const auto &rec : a.records) {
        const core::HintInfo *ha = a.image.hint(rec.pc);
        const core::HintInfo *hb = b.image.hint(rec.pc);
        ASSERT_EQ(ha != nullptr, hb != nullptr) << std::hex << rec.pc;
        if (ha) {
            EXPECT_EQ(core::packHint(*ha, rec.pc),
                      core::packHint(*hb, rec.pc))
                << std::hex << rec.pc;
        }
    }
    ASSERT_EQ(a.image.traces().size(), b.image.traces().size());
    for (const auto &[pc, trace] : a.image.traces()) {
        const core::BranchTrace *other = b.image.trace(pc);
        ASSERT_NE(other, nullptr) << std::hex << pc;
        EXPECT_EQ(core::packTrace(trace), core::packTrace(*other))
            << std::hex << pc;
    }
}

// ---------------------------------------------------------------------
// Fused op pass vs the recorder
// ---------------------------------------------------------------------

TEST(FusedOpPass, MatchesReferenceAcrossChunkRingAndMode)
{
    const core::Workload w = workload("synthetic/chacha20/75");
    const uarch::OpBatchStorage ref = test::recordOps(w);
    ASSERT_GT(ref.pc.size(), 1000u);

    struct Combo
    {
        Mode mode;
        size_t chunkOps;
        size_t ringChunks;
    };
    // Odd chunk sizes force batch boundaries inside basic blocks;
    // chunk 1 and ring 1 are the degenerate extremes.
    const Combo combos[] = {
        {Mode::Inline, 1, 1},     {Mode::Inline, 7, 1},
        {Mode::Inline, 1000, 4},  {Mode::Threaded, 1, 1},
        {Mode::Threaded, 7, 1},   {Mode::Threaded, 333, 2},
        {Mode::Threaded, 4096, 4}};
    for (const Combo &combo : combos) {
        AnalysisPipelineOptions options;
        options.mode = combo.mode;
        options.chunkOps = combo.chunkOps;
        options.ringChunks = combo.ringChunks;
        CollectConsumer collect;
        const core::FusedPassStats stats =
            core::runFusedOpPass(w, 2, {&collect}, options);
        const std::string what = "mode=" +
            std::to_string(static_cast<int>(combo.mode)) +
            " chunk=" + std::to_string(combo.chunkOps) +
            " ring=" + std::to_string(combo.ringChunks);
        EXPECT_TRUE(collect.finished) << what;
        EXPECT_EQ(stats.numOps, ref.pc.size()) << what;
        EXPECT_EQ(stats.threaded, combo.mode == Mode::Threaded) << what;
        test::expectSameOps(collect.ops, ref, w.program, what);
    }
}

TEST(FusedOpPass, RetainedChunksReplayIdentically)
{
    const core::Workload w = workload("synthetic/chacha20/75");
    const uarch::OpBatchStorage ref = test::recordOps(w);

    AnalysisPipelineOptions options;
    options.chunkOps = 777; // deliberately unaligned with batch sizes
    std::vector<AnalysisChunk> chunks;
    const core::FusedPassStats stats =
        core::runFusedOpPass(w, 2, {}, options, &chunks);
    ASSERT_EQ(stats.numOps, ref.pc.size());
    ASSERT_GT(chunks.size(), 1u);

    // Batched replay with a max_ops that never divides the chunk size.
    ChunkSpanSource src(chunks);
    test::expectSameOps(test::drainOps(src, 61), ref, w.program,
                        "ChunkSpanSource::nextBatch");
}

// ---------------------------------------------------------------------
// Fused Algorithm 2 (branch pass) vs reference collectRun
// ---------------------------------------------------------------------

TEST(FusedBranchPass, GenerateTracesParity)
{
    for (const char *name : {"synthetic/chacha20/75", "DES_ct"}) {
        const core::Workload w = workload(name);
        const core::TraceGenResult ref =
            core::generateTraces(w, {}, /*fused=*/false);
        const core::TraceGenResult fused =
            core::generateTraces(w, {}, /*fused=*/true);
        expectSameTraceGen(fused, ref, name);
    }
}

TEST(FusedBranchPass, FoldedRunMatchesAcrossModes)
{
    const core::Workload w = workload("synthetic/chacha20/75");
    const core::FusedBranchRun ref = core::runFusedBranchPass(w, 0);
    ASSERT_FALSE(ref.traces.empty());
    for (Mode mode : {Mode::Inline, Mode::Threaded}) {
        AnalysisPipelineOptions options;
        options.mode = mode;
        options.chunkOps = 129;
        options.ringChunks = 1;
        const core::FusedBranchRun got =
            core::runFusedBranchPass(w, 0, true, options);
        EXPECT_EQ(got.heldBytes, ref.heldBytes);
        EXPECT_EQ(got.peakBytes, ref.peakBytes);
        ASSERT_EQ(got.traces.size(), ref.traces.size());
        for (const auto &[pc, trace] : ref.traces) {
            auto it = got.traces.find(pc);
            ASSERT_NE(it, got.traces.end()) << std::hex << pc;
            EXPECT_TRUE(it->second.sameAs(trace)) << std::hex << pc;
            EXPECT_EQ(it->second.logicalSize(), trace.logicalSize())
                << std::hex << pc;
        }
    }
}

// ---------------------------------------------------------------------
// Side-by-side passes (runBeside)
// ---------------------------------------------------------------------

TEST(RunBeside, FirstErrorWinsAfterBothJoin)
{
    std::atomic<bool> second_ran{false};
    try {
        core::runBeside([] { throw std::runtime_error("first"); },
                        [&] {
                            second_ran = true;
                            throw std::logic_error("second");
                        });
        ADD_FAILURE() << "runBeside swallowed the error";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "first");
    }
    // An async second pass is joined before the error surfaces; a
    // deferred one never starts once the first has failed.
    EXPECT_EQ(second_ran.load(),
              core::analysisLaunchPolicy() == std::launch::async);
}

TEST(RunBeside, SecondErrorSurfacesWhenFirstSucceeds)
{
    bool first_ran = false;
    EXPECT_THROW(core::runBeside([&] { first_ran = true; },
                                 [] { throw std::logic_error("second"); }),
                 std::logic_error);
    EXPECT_TRUE(first_ran);
}

// ---------------------------------------------------------------------
// Artifact-level parity: AnalyzedWorkload vs the free-function
// references
// ---------------------------------------------------------------------

TEST(FusedArtifact, WholeModeParity)
{
    const char *name = "DES_ct"; // has secret regions -> taint runs
    AnalyzeOptions options;
    options.phases = core::allAnalysisPhases;
    const auto fused = AnalyzedWorkload::analyze(workload(name), options);

    // The references, on their own copy of the workload.
    const core::Workload w = workload(name);
    const uarch::OpBatchStorage refOps = test::recordOps(w);
    test::ColumnSource refSrc(refOps);
    const uarch::TaintBitmap refTaint = uarch::computeTaintBitmap(
        refSrc, w.secretRegions, refOps.pc.size());
    const core::TraceGenResult refImage =
        core::generateTraces(w, {}, /*fused=*/false);

    // Trace ops.
    test::expectSameOps(test::drainOps(*fused), fused->workload().program,
                        refOps, w.program, "whole-mode trace");
    EXPECT_EQ(fused->numOps(), refOps.pc.size());

    // Taint bits.
    const uarch::TaintBitmap &tf = fused->taintBitmap();
    ASSERT_EQ(tf.size(), refTaint.size());
    EXPECT_EQ(tf.count(), refTaint.count());
    EXPECT_GT(tf.count(), 0u);
    for (size_t i = 0; i < tf.size(); i++)
        ASSERT_EQ(tf.test(i), refTaint.test(i)) << "op " << i;

    // Algorithm 2 image.
    expectSameTraceGen(fused->traces(), refImage, "whole image");

    // Simulated cycles, including a taint-consuming scheme.
    for (uarch::Scheme scheme :
         {uarch::Scheme::Cassandra, uarch::Scheme::Prospect}) {
        const auto a = core::Simulation(fused).run(scheme);
        core::SimConfig cfg;
        cfg.scheme = scheme;
        uarch::OooCore core(cfg, w.program,
                            uarch::schemeIsCassandra(scheme)
                                ? &refImage.image
                                : nullptr);
        test::ColumnSource src(refOps);
        const uarch::CoreStats b = core.run(
            src, scheme == uarch::Scheme::Prospect ? &refTaint : nullptr);
        EXPECT_EQ(a.stats.cycles, b.cycles) << static_cast<int>(scheme);
        EXPECT_EQ(a.stats.instructions, b.instructions);
    }
}

TEST(FusedArtifact, StreamFileBytesIdentical)
{
    AnalyzeOptions options;
    options.traceMode = TraceMode::Stream;
    options.streamDir = test::scratchPath("fused-stream");
    const auto fused = AnalyzedWorkload::analyze(
        workload("synthetic/chacha20/75"), options);

    // The reference file: the recorded ops fed to a writer one op at
    // a time.
    const core::Workload w = workload("synthetic/chacha20/75");
    const uarch::OpBatchStorage refOps = test::recordOps(w);
    const std::string refPath = test::scratchPath("fused-stream-ref");
    writeOpByOp(refPath, w.program, refOps);

    EXPECT_EQ(fused->numOps(), refOps.pc.size());
    ASSERT_NE(fused->streamPath(), refPath);
    // The fused writer consumes whole SoA batches, the reference one
    // op at a time; the container bytes must not differ.
    EXPECT_EQ(readFile(fused->streamPath()), readFile(refPath));
    std::remove(refPath.c_str());
}

TEST(FusedArtifact, StreamModeAllPhasesParity)
{
    // Stream mode, every phase, a kernel with secret regions: the op
    // pass feeds the stream writer and the taint walk while both
    // Algorithm 2 input runs execute beside it. Each output must match
    // its free-function reference.
    const char *name = "DES_ct";
    AnalyzeOptions options;
    options.traceMode = TraceMode::Stream;
    options.phases = core::allAnalysisPhases;
    options.streamDir = test::scratchPath("fused-all-phases");
    const auto fused = AnalyzedWorkload::analyze(workload(name), options);
    ASSERT_TRUE(fused->streamed());
    EXPECT_TRUE(fused->hasTimingTrace());
    EXPECT_TRUE(fused->hasTraceImage());
    EXPECT_TRUE(fused->hasTaintBitmap());

    const core::Workload w = workload(name);
    const uarch::OpBatchStorage refOps = test::recordOps(w);

    // Stream bytes: a writer fed one op at a time.
    const std::string refPath =
        test::scratchPath("fused-all-phases-ref.trace");
    writeOpByOp(refPath, w.program, refOps);
    EXPECT_EQ(fused->numOps(), refOps.pc.size());
    EXPECT_EQ(readFile(fused->streamPath()), readFile(refPath));

    // Taint bits.
    test::ColumnSource refSrc(refOps);
    const uarch::TaintBitmap refTaint = uarch::computeTaintBitmap(
        refSrc, w.secretRegions, refOps.pc.size());
    const uarch::TaintBitmap &tf = fused->taintBitmap();
    ASSERT_EQ(tf.size(), refTaint.size());
    EXPECT_GT(tf.count(), 0u);
    for (size_t i = 0; i < tf.size(); i++)
        ASSERT_EQ(tf.test(i), refTaint.test(i)) << "op " << i;

    // Algorithm 2 image.
    expectSameTraceGen(fused->traces(),
                       core::generateTraces(w, {}, /*fused=*/false),
                       "stream image");
}

// ---------------------------------------------------------------------
// Phase fusion accounting
// ---------------------------------------------------------------------

TEST(FusedArtifact, OnePassServesTraceAndTaint)
{
    const auto before = AnalyzedWorkload::analysisPhaseRuns();
    const uint64_t passes0 = core::fusedAnalysisPasses();

    const auto aw = AnalyzedWorkload::analyze(workload("DES_ct"));
    aw->ensurePhases(core::PhaseTimingTrace | core::PhaseTaint);

    const auto after = AnalyzedWorkload::analysisPhaseRuns();
    EXPECT_EQ(after.timingTrace, before.timingTrace + 1);
    EXPECT_EQ(after.taint, before.taint + 1);
    // ONE fused machine pass produced both phases.
    EXPECT_EQ(core::fusedAnalysisPasses(), passes0 + 1);
    EXPECT_TRUE(aw->hasTimingTrace());
    EXPECT_TRUE(aw->hasTaintBitmap());
}

// ---------------------------------------------------------------------
// Writer durability seam (flush-ordering bugfix)
// ---------------------------------------------------------------------

std::vector<uint8_t> g_seamBytes;
std::string g_seamPath;

void
seamSnapshot(const std::string &path)
{
    g_seamPath = path;
    g_seamBytes = readFile(path);
}

TEST(StreamWriterSeam, CrashBeforeFooterFailsLoudly)
{
    const core::Workload w = workload("synthetic/chacha20/75");
    const uarch::OpBatchStorage ops = test::recordOps(w);
    ASSERT_GT(ops.pc.size(), 512u);

    {
        const std::string path = "seam_full.casstf";
        const std::string crashed = "seam_crashed.casstf";
        g_seamBytes.clear();
        g_seamPath.clear();

        TraceStreamWriter writer(
            path, core::programFingerprint(w.program), 256);
        writer.appendBatch(ops.view(0, ops.pc.size()));
        TraceStreamWriter::finishSeamHook = &seamSnapshot;
        writer.finish();
        TraceStreamWriter::finishSeamHook = nullptr;

        // The hook fired at the seam: every data frame was already
        // durable, no index/footer byte had been issued yet. The only
        // post-seam change inside the prefix is the header's numOps
        // patch (bytes 24..32), so mask it before comparing.
        ASSERT_EQ(g_seamPath, path);
        const std::vector<uint8_t> full = readFile(path);
        ASSERT_GT(full.size(), g_seamBytes.size());
        ASSERT_GT(g_seamBytes.size(), 32u);
        std::vector<uint8_t> prefix(full.begin(),
                                    full.begin() +
                                        static_cast<long>(
                                            g_seamBytes.size()));
        std::vector<uint8_t> seam = g_seamBytes;
        std::fill(prefix.begin() + 24, prefix.begin() + 32, 0);
        std::fill(seam.begin() + 24, seam.begin() + 32, 0);
        ASSERT_EQ(prefix, seam);

        // A file cut at the seam (crash between data-sync and footer)
        // must fail loudly at open — the footer describes nothing.
        writeFile(crashed, g_seamBytes);
        EXPECT_THROW(TraceCursor(crashed, w.program),
                     core::ArtifactError);

        // The finished file replays completely.
        TraceCursor cursor(path, w.program);
        EXPECT_EQ(cursor.numOps(), ops.pc.size());
        EXPECT_EQ(test::drainOps(cursor).pc.size(), ops.pc.size());

        std::remove(path.c_str());
        std::remove(crashed.c_str());
    }
}

} // namespace
