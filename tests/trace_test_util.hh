/**
 * @file
 * Helpers shared by the trace-layer test suites: TimingOp structs
 * drained from an artifact's replay source, and a hand-built file of
 * the retired raw-frame stream container (revision 1), which readers
 * must reject.
 */

#ifndef CASSANDRA_TESTS_TRACE_TEST_UTIL_HH
#define CASSANDRA_TESTS_TRACE_TEST_UTIL_HH

#include <cstdint>
#include <vector>

#include "core/analyzed_workload.hh"
#include "uarch/pipeline.hh"

namespace cassandra::test {

/** Every op of an artifact's timing trace as TimingOp structs, drained
 * in order from openOpSource(). */
inline uarch::TimingTrace
drainOps(const core::AnalyzedWorkload &aw)
{
    uarch::TimingTrace ops;
    ops.reserve(aw.numOps());
    auto src = aw.openOpSource();
    uarch::OpBatch batch;
    while (const size_t n =
               src->nextBatch(batch, uarch::timingOpBatchOps)) {
        for (size_t i = 0; i < n; i++) {
            uarch::TimingOp op;
            op.pc = batch.pc[i];
            op.memAddr = batch.memAddr[i];
            op.nextPc = batch.nextPc[i];
            op.inst = batch.inst[i];
            op.crypto = batch.crypto[i] != 0;
            op.tainted = batch.tainted[i] != 0;
            ops.push_back(op);
        }
    }
    return ops;
}

/**
 * The bytes of a revision-1 stream file holding `trace`, the raw-frame
 * container CASSTF2 replaced: "CASSTF1\n" | u32 version=1 | u32
 * frameOps | u64 fingerprint | u64 numOps | frames of 24 B/op | index
 * (u64 offset per frame) | u64 indexPos | u64 numFrames.
 */
inline std::vector<uint8_t>
casstf1Bytes(uint64_t fingerprint, const uarch::TimingTrace &trace,
             uint32_t frame_ops)
{
    std::vector<uint8_t> out;
    auto u32 = [&](uint32_t v) {
        for (int i = 0; i < 4; i++)
            out.push_back(static_cast<uint8_t>(v >> (8 * i)));
    };
    auto u64 = [&](uint64_t v) {
        for (int i = 0; i < 8; i++)
            out.push_back(static_cast<uint8_t>(v >> (8 * i)));
    };
    for (char c : {'C', 'A', 'S', 'S', 'T', 'F', '1', '\n'})
        out.push_back(static_cast<uint8_t>(c));
    u32(1);
    u32(frame_ops);
    u64(fingerprint);
    u64(trace.size());
    std::vector<uint64_t> offsets;
    for (size_t i = 0; i < trace.size(); i++) {
        if (i % frame_ops == 0)
            offsets.push_back(out.size());
        u64(trace[i].pc);
        u64(trace[i].memAddr);
        u64(trace[i].nextPc);
    }
    const uint64_t index_pos = out.size();
    for (uint64_t offset : offsets)
        u64(offset);
    u64(index_pos);
    u64(offsets.size());
    return out;
}

} // namespace cassandra::test

#endif // CASSANDRA_TESTS_TRACE_TEST_UTIL_HH
