/**
 * @file
 * Batched-replay parity tests: the SoA nextBatch() paths must be
 * observably identical to the scalar next() path — same columns for
 * every batch size, and byte-identical timing results across every
 * scheme on both source kinds (in-memory span and chunked trace
 * stream), also when the core is resumed batch by batch through
 * OooCore::begin/consume/finish. The scalar reference is the default
 * TimingOpSource::nextBatch adapter, which batches through next().
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

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
using uarch::Scheme;
using uarch::TimingOp;
using uarch::TimingOpSource;
using uarch::TimingTrace;

constexpr Scheme allSchemes[] = {
    Scheme::UnsafeBaseline, Scheme::Cassandra,  Scheme::CassandraStl,
    Scheme::CassandraLite,  Scheme::Spt,        Scheme::Prospect,
    Scheme::CassandraProspect};

core::Workload
workload(const char *name)
{
    return crypto::WorkloadRegistry::global().make(name);
}

/**
 * Hides a source's native nextBatch() override behind the base-class
 * adapter: batching then goes through next() one op at a time, which
 * is the scalar reference semantics every native batch path must
 * reproduce exactly.
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

/** Drain `src` via nextBatch(max_ops) and compare the concatenated
 * columns against the recorded trace. */
void
expectBatchedColumnsEqualTrace(TimingOpSource &src,
                               const TimingTrace &trace, size_t max_ops)
{
    SCOPED_TRACE("max_ops=" + std::to_string(max_ops));
    size_t i = 0;
    OpBatch batch;
    size_t n;
    while ((n = src.nextBatch(batch, max_ops)) != 0) {
        ASSERT_EQ(n, batch.size);
        ASSERT_LE(n, max_ops);
        for (size_t b = 0; b < n; b++, i++) {
            ASSERT_LT(i, trace.size());
            EXPECT_EQ(batch.pc[b], trace[i].pc);
            EXPECT_EQ(batch.memAddr[b], trace[i].memAddr);
            EXPECT_EQ(batch.nextPc[b], trace[i].nextPc);
            EXPECT_EQ(batch.inst[b]->op, trace[i].inst->op);
            EXPECT_EQ(batch.crypto[b] != 0, trace[i].crypto);
        }
    }
    EXPECT_EQ(i, trace.size());
}

/** Write `trace` as a multi-frame stream file; small frames force
 * batches to stop at frame boundaries (tail/partial batches). */
std::string
writeStream(const core::Workload &w, const TimingTrace &trace,
            uint32_t frame_ops)
{
    const std::string path =
        test::scratchPath("batch-" + std::to_string(frame_ops) + ".trace");
    TraceStreamWriter writer(path, core::programFingerprint(w.program),
                             frame_ops);
    for (const auto &op : trace)
        writer.append(op);
    writer.finish();
    return path;
}

/** One timing run of `src` under `scheme`, on the core and taint
 * bitmap core::Simulation wires. */
ExperimentResult
runScheme(const AnalyzedWorkload::Ptr &aw, Scheme scheme,
          TimingOpSource &src)
{
    SimConfig config;
    config.scheme = scheme;
    auto [ooo, taint] = core::Simulation(aw).makeCore(config);
    return core::resultFromCore(*ooo, ooo->run(src, taint));
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

/** The batch sizes the resumable core is fed in. */
constexpr size_t resumeBatches[] = {1, 17, uarch::timingOpBatchOps,
                                    size_t{1} << 15};

/** Every counter of the run, as one comparable vector. */
std::vector<uint64_t>
allCounters(const ExperimentResult &r)
{
    const auto &s = r.stats;
    const auto &b = r.btu;
    const auto &p = r.bpu;
    const auto &c = r.caches;
    return {
        s.cycles,         s.instructions,      s.branches,
        s.cryptoBranches, s.condMispredicts,   s.indirectMispredicts,
        s.returnMispredicts, s.decodeRedirects, s.integrityStalls,
        s.resolveStalls,  s.btuFillStalls,     s.btuWindowStalls,
        s.btuFlushes,     s.btuMismatches,     s.loads,
        s.stores,         s.stlForwards,       s.schemeLoadDelays,
        s.prospectBlocks, s.icacheMissBubbles,
        b.lookups,        b.hits,              b.misses,
        b.singleTargetHits, b.evictions,       b.checkpointRestores,
        b.prefetches,     b.commits,           b.flushes,
        b.windowStalls,   b.stallResolve,      b.squashRewinds,
        p.condLookups,    p.condMispredicts,   p.loopOverrides,
        p.btbLookups,     p.btbMisses,         p.indirectMispredicts,
        p.rsbPushes,      p.rsbPops,           p.returnMispredicts,
        p.updates,
        c.l1iAccesses,    c.l1iMisses,         c.l1dAccesses,
        c.l1dMisses,      c.l2Accesses,        c.l2Misses,
        c.l3Accesses,     c.l3Misses,
    };
}

// ---------------------------------------------------------------------
// Column equivalence: every batch size, both source kinds
// ---------------------------------------------------------------------

TEST(BatchColumnsTest, SpanSourceMatchesTraceAtOddBatchSizes)
{
    core::Workload w = workload("SHA-256");
    auto trace = uarch::recordTrace(w, 2);
    ASSERT_GT(trace.size(), 2 * uarch::timingOpBatchOps);
    const size_t B = uarch::timingOpBatchOps;
    for (size_t max_ops : {size_t{1}, B - 1, B, B + 1, trace.size() + 7}) {
        uarch::TraceSpanSource src(trace);
        expectBatchedColumnsEqualTrace(src, trace, max_ops);
    }
}

TEST(BatchColumnsTest, CursorMatchesTraceAtFrameBoundaries)
{
    core::Workload w = workload("SHA-256");
    auto trace = uarch::recordTrace(w, 2);
    const size_t B = uarch::timingOpBatchOps;
    // 256-op frames force every batch to stop at a frame boundary;
    // default-sized frames exercise full-width batches with a tail.
    for (uint32_t frame_ops : {uint32_t{256}, uint32_t{1} << 15}) {
        SCOPED_TRACE("frameOps=" + std::to_string(frame_ops));
        const std::string path = writeStream(w, trace, frame_ops);
        for (size_t max_ops : {size_t{1}, B - 1, B, B + 1}) {
            TraceCursor cursor(path, w.program);
            expectBatchedColumnsEqualTrace(cursor, trace, max_ops);
        }
        // 17 never divides a frame, so frame boundaries land
        // mid-request, on both backings.
        for (TraceCursor::Backing backing :
             {TraceCursor::Backing::Mmap, TraceCursor::Backing::Buffered}) {
            SCOPED_TRACE("backing " +
                         std::to_string(static_cast<int>(backing)));
            TraceCursor cursor(path, w.program, backing);
            expectBatchedColumnsEqualTrace(cursor, trace, 17);
        }
        std::remove(path.c_str());
    }
}

TEST(BatchColumnsTest, EmptyAndExhaustedSourcesReturnZero)
{
    TimingTrace empty;
    uarch::TraceSpanSource src(empty);
    OpBatch batch;
    EXPECT_EQ(src.nextBatch(batch, uarch::timingOpBatchOps), 0u);

    core::Workload w = workload("SHA-256");
    auto trace = uarch::recordTrace(w, 2);
    uarch::TraceSpanSource drained(trace);
    while (drained.next() != nullptr) {
    }
    EXPECT_EQ(drained.nextBatch(batch, uarch::timingOpBatchOps), 0u);
}

TEST(BatchColumnsTest, NextAndNextBatchShareOnePosition)
{
    core::Workload w = workload("SHA-256");
    auto trace = uarch::recordTrace(w, 2);
    const std::string path = writeStream(w, trace, 256);
    TraceCursor cursor(path, w.program);
    // Scalar-consume into the middle of a frame, then switch to
    // batches: the batch must resume exactly where next() stopped.
    const size_t lead = 100;
    for (size_t i = 0; i < lead; i++)
        ASSERT_NE(cursor.next(), nullptr);
    OpBatch batch;
    size_t n = cursor.nextBatch(batch, 64);
    ASSERT_GT(n, 0u);
    for (size_t b = 0; b < n; b++) {
        EXPECT_EQ(batch.pc[b], trace[lead + b].pc);
        EXPECT_EQ(batch.nextPc[b], trace[lead + b].nextPc);
    }
    // And back to scalar.
    const TimingOp *op = cursor.next();
    ASSERT_NE(op, nullptr);
    EXPECT_EQ(op->pc, trace[lead + n].pc);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// End-to-end timing parity: batched vs scalar, all schemes
// ---------------------------------------------------------------------

TEST(BatchParityTest, WholeSourceMatchesScalarAcrossSchemes)
{
    auto aw = AnalyzedWorkload::analyze(workload("ChaCha20_ct"));
    for (Scheme scheme : allSchemes) {
        SCOPED_TRACE(uarch::schemeName(scheme));
        auto batched_src = aw->openOpSource();
        auto batched = runScheme(aw, scheme, *batched_src);
        auto scalar_inner = aw->openOpSource();
        ScalarOnly scalar_src(*scalar_inner);
        auto scalar = runScheme(aw, scheme, scalar_src);
        EXPECT_EQ(allCounters(batched), allCounters(scalar));
        for (size_t max_ops : resumeBatches) {
            SCOPED_TRACE("resumed, batches of " + std::to_string(max_ops));
            EXPECT_EQ(allCounters(resumeScheme(aw, scheme, max_ops)),
                      allCounters(batched));
        }
    }
}

TEST(BatchParityTest, StreamSourceMatchesScalarAcrossSchemes)
{
    core::AnalyzeOptions options;
    options.traceMode = core::TraceMode::Stream;
    options.streamDir = test::scratchPath("batch-parity-streams");
    auto aw = AnalyzedWorkload::analyze(workload("ChaCha20_ct"), options);
    for (Scheme scheme : allSchemes) {
        SCOPED_TRACE(uarch::schemeName(scheme));
        auto batched_src = aw->openOpSource();
        auto batched = runScheme(aw, scheme, *batched_src);
        auto scalar_inner = aw->openOpSource();
        ScalarOnly scalar_src(*scalar_inner);
        auto scalar = runScheme(aw, scheme, scalar_src);
        EXPECT_EQ(allCounters(batched), allCounters(scalar));
        for (size_t max_ops : resumeBatches) {
            SCOPED_TRACE("resumed, batches of " + std::to_string(max_ops));
            EXPECT_EQ(allCounters(resumeScheme(aw, scheme, max_ops)),
                      allCounters(batched));
        }
    }
}

} // namespace
