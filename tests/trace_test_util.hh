/**
 * @file
 * Helpers shared by the trace-layer test suites: process-unique
 * scratch paths, snapshot bytes saved and loaded through scratch
 * files, TimingOp structs drained from an artifact's replay source, a
 * hand-built file of the retired raw-frame stream container
 * (revision 1), which readers must reject, and a SimConfig whose every
 * parameter differs from its default (the encoder pins).
 */

#ifndef CASSANDRA_TESTS_TRACE_TEST_UTIL_HH
#define CASSANDRA_TESTS_TRACE_TEST_UTIL_HH

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "core/analyzed_workload.hh"
#include "core/serialize.hh"
#include "core/sim_config.hh"
#include "core/trace_stream.hh"
#include "uarch/pipeline.hh"

namespace cassandra::test {

/**
 * A scratch file or directory path under testing::TempDir(): `name`
 * with core::processUniqueSuffix() inserted before its extension
 * ("chacha20.trace" -> "chacha20-<suffix>.trace"), so test binaries
 * running at the same time on one host never share (or delete) each
 * other's files. Every path handed out is removed, file or directory
 * tree, when the test binary exits.
 */
inline std::string
scratchPath(const std::string &name)
{
    struct Registry
    {
        std::mutex mutex;
        std::vector<std::string> paths;

        ~Registry()
        {
            for (const std::string &path : paths) {
                core::removeDirectoryTree(path);
                std::remove(path.c_str());
            }
        }
    };
    static Registry registry;

    const size_t dot = name.rfind('.');
    const size_t stem = dot == std::string::npos || dot == 0 ? name.size()
                                                              : dot;
    std::string path = testing::TempDir() + "/" + name.substr(0, stem) +
        "-" + core::processUniqueSuffix() + name.substr(stem);
    std::lock_guard<std::mutex> lock(registry.mutex);
    registry.paths.push_back(path);
    return path;
}

/** A fresh scratch path for one snapshot file. */
inline std::string
snapshotScratchPath()
{
    static std::atomic<unsigned> count{0};
    return scratchPath("snapshot-" + std::to_string(count++) + ".aw");
}

/** The bytes of a snapshot of `aw` (saveAnalyzedWorkload through a
 * scratch file; `name` as there). */
inline std::vector<uint8_t>
snapshotBytes(const core::AnalyzedWorkload &aw, const std::string &name = "")
{
    const std::string path = snapshotScratchPath();
    core::saveAnalyzedWorkload(aw, path, name);
    return core::readFileBytes(path, "snapshot");
}

/** loadAnalyzedWorkload over snapshot `bytes`, through a scratch file. */
inline core::AnalyzedWorkload::Ptr
loadSnapshotBytes(const std::vector<uint8_t> &bytes,
                  const core::AnalysisCache::Resolver &resolver,
                  const std::string &stream_dir = "")
{
    const std::string path = snapshotScratchPath();
    core::writeFileBytes(path, bytes);
    return core::loadAnalyzedWorkload(path, resolver, stream_dir);
}

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

/**
 * A SimConfig with all 38 sweepable parameters set to pairwise
 * distinct, non-default values inside the JSON bounds, so a dropped,
 * swapped or mis-sized parameter in any encoder changes its output.
 * Written out field by field on purpose: it is the independent check
 * on the parameter list the encoders iterate.
 */
inline core::SimConfig
everyParamSimConfig()
{
    core::SimConfig cfg;
    cfg.name = "every-param";
    uarch::CoreParams &c = cfg.core;
    c.fetchWidth = 3;
    c.commitWidth = 5;
    c.issueWidth = 7;
    c.robSize = 301;
    c.iqSize = 61;
    c.lqSize = 71;
    c.sqSize = 83;
    c.intRegs = 191;
    c.frontendDepth = 11;
    c.decodeRedirect = 2;
    c.redirectPenalty = 13;
    c.numAlu = 4;
    c.numMul = 6;
    c.numLsu = 9;
    c.aluLatency = 10;
    c.mulLatency = 14;
    c.storeLatency = 15;
    c.l1i = {16 * 1024, 32, 17, 18};
    c.l1d = {40 * 1024, 128, 19, 20};
    c.l2 = {512 * 1024, 256, 21, 22};
    c.l3 = {8 * 1024 * 1024, 512, 23, 24};
    c.memLatency = 250;
    c.btuFlushPeriod = 12000000;
    cfg.btu.sets = 26;
    cfg.btu.ways = 27;
    cfg.btu.fillLatency = 28;
    return cfg;
}

/** Lower-case hex of a byte string. */
inline std::string
hexBytes(const std::vector<uint8_t> &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    for (uint8_t b : bytes) {
        out += digits[b >> 4];
        out += digits[b & 0xf];
    }
    return out;
}

} // namespace cassandra::test

#endif // CASSANDRA_TESTS_TRACE_TEST_UTIL_HH
