/**
 * @file
 * Helpers shared by the trace-layer test suites: process-unique
 * scratch paths, snapshot bytes saved and loaded through scratch
 * files, the op recorder every trace path is checked against (op
 * columns of one machine run, a source over them, the columns drained
 * from an artifact's replay source, and their comparison), hand-built
 * raw frames and files of the retired stream containers (revisions 1
 * and 2), which readers must reject, a SimConfig whose every
 * parameter differs from its default (the encoder pins), and the
 * counter-by-counter comparison of two ExperimentResults.
 */

#ifndef CASSANDRA_TESTS_TRACE_TEST_UTIL_HH
#define CASSANDRA_TESTS_TRACE_TEST_UTIL_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/analyzed_workload.hh"
#include "core/serialize.hh"
#include "core/sim_config.hh"
#include "core/trace_stream.hh"
#include "core/workload.hh"
#include "sim/machine.hh"
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

/** loadAnalyzedWorkload over snapshot `bytes`, through a scratch file
 * (`stream_dir` and `mode` as there). */
inline core::AnalyzedWorkload::Ptr
loadSnapshotBytes(const std::vector<uint8_t> &bytes,
                  const core::AnalysisCache::Resolver &resolver,
                  const std::string &stream_dir = "",
                  std::optional<core::TraceMode> mode = std::nullopt)
{
    const std::string path = snapshotScratchPath();
    core::writeFileBytes(path, bytes);
    return core::loadAnalyzedWorkload(path, resolver, stream_dir, mode);
}

/**
 * The oracle of the trace paths: every op of one run of `workload` on
 * input `which`, as columns. One machine run through the batch probe
 * into growing columns, then each op relinked with Program::at and
 * isCryptoPc, so it shares neither the fused pass's chunk ring nor
 * cryptoPcTable with the code under test.
 * @throws core::InstructionBudgetError when the run does not halt
 */
inline uarch::OpBatchStorage
recordOps(const core::Workload &workload, int which = 2)
{
    uarch::OpBatchStorage ops;
    sim::Machine machine(workload.program);
    if (workload.setInput)
        workload.setInput(machine, which);
    sim::Machine::BatchProbe probe;
    probe.full = [&] {
        probe.cap = std::max<size_t>(4096, 2 * probe.cap);
        ops.pc.resize(probe.cap);
        ops.memAddr.resize(probe.cap);
        ops.nextPc.resize(probe.cap);
        probe.pc = ops.pc.data();
        probe.memAddr = ops.memAddr.data();
        probe.nextPc = ops.nextPc.data();
    };
    probe.full();
    machine.opBatchProbe = &probe;
    const sim::RunResult res = machine.run(workload.maxDynInsts);
    if (!res.halted)
        throw core::InstructionBudgetError(workload.name, res.instCount,
                                           "timing trace");
    ops.resize(probe.size);
    const ir::Program &program = workload.program;
    for (size_t i = 0; i < probe.size; i++) {
        ops.inst[i] = &program.at(ops.pc[i]);
        ops.crypto[i] = program.isCryptoPc(ops.pc[i]) ? 1 : 0;
    }
    return ops;
}

/** A TimingOpSource over recorded columns, which must outlive it. */
class ColumnSource final : public uarch::TimingOpSource
{
  public:
    explicit ColumnSource(const uarch::OpBatchStorage &ops) : ops_(ops) {}

    size_t
    nextBatch(uarch::OpBatch &out, size_t max_ops) override
    {
        const size_t n = std::min(max_ops, ops_.pc.size() - pos_);
        out = ops_.view(pos_, n);
        pos_ += n;
        return n;
    }

  private:
    const uarch::OpBatchStorage &ops_;
    size_t pos_ = 0;
};

/** Append the ops of `batch` to the columns `out`. */
inline void
appendOps(uarch::OpBatchStorage &out, const uarch::OpBatch &batch)
{
    out.pc.insert(out.pc.end(), batch.pc, batch.pc + batch.size);
    out.memAddr.insert(out.memAddr.end(), batch.memAddr,
                       batch.memAddr + batch.size);
    out.nextPc.insert(out.nextPc.end(), batch.nextPc,
                      batch.nextPc + batch.size);
    out.inst.insert(out.inst.end(), batch.inst, batch.inst + batch.size);
    out.crypto.insert(out.crypto.end(), batch.crypto,
                      batch.crypto + batch.size);
}

/** Every op of `src`, drained in batches of at most `max_ops`. */
inline uarch::OpBatchStorage
drainOps(uarch::TimingOpSource &src,
         size_t max_ops = uarch::timingOpBatchOps)
{
    uarch::OpBatchStorage ops;
    uarch::OpBatch batch;
    while (src.nextBatch(batch, max_ops) != 0)
        appendOps(ops, batch);
    return ops;
}

/** Every op of an artifact's timing trace, drained in order from
 * openOpSource(). */
inline uarch::OpBatchStorage
drainOps(const core::AnalyzedWorkload &aw)
{
    return drainOps(*aw.openOpSource());
}

/**
 * Expect `got` and `want` to hold the same ops, column by column,
 * reporting the first op that differs. The inst column is compared as
 * indices into each side's program, so ops relinked against two copies
 * of one program compare equal (and against one program, this is
 * pointer equality).
 */
inline void
expectSameOps(const uarch::OpBatchStorage &got, const ir::Program &got_program,
              const uarch::OpBatchStorage &want,
              const ir::Program &want_program, const std::string &what)
{
    SCOPED_TRACE(what);
    ASSERT_EQ(got.pc.size(), want.pc.size());
    for (size_t i = 0; i < want.pc.size(); i++) {
        ASSERT_EQ(got.pc[i], want.pc[i]) << "op " << i;
        ASSERT_EQ(got.memAddr[i], want.memAddr[i]) << "op " << i;
        ASSERT_EQ(got.nextPc[i], want.nextPc[i]) << "op " << i;
        ASSERT_EQ(got.inst[i] - got_program.insts.data(),
                  want.inst[i] - want_program.insts.data())
            << "op " << i;
        ASSERT_EQ(got.crypto[i], want.crypto[i]) << "op " << i;
    }
}

/** expectSameOps for ops relinked against one program. */
inline void
expectSameOps(const uarch::OpBatchStorage &got,
              const uarch::OpBatchStorage &want, const ir::Program &program,
              const std::string &what)
{
    expectSameOps(got, program, want, program, what);
}

/** Append `v` to `out`, little-endian, in `bytes` bytes. */
inline void
putLe(std::vector<uint8_t> &out, uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; i++)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

/** Append ops [lo, hi) of `ops` as one raw frame (u8 kind 0 | u32
 * payloadBytes | u64 pc | u64 memAddr | u64 nextPc per op), a frame
 * kind every container revision since CASSTF2 reads. */
inline void
appendRawFrame(std::vector<uint8_t> &out, const uarch::OpBatchStorage &ops,
               size_t lo, size_t hi)
{
    out.push_back(0);
    putLe(out, (hi - lo) * core::traceStreamOpBytes, 4);
    for (size_t i = lo; i < hi; i++) {
        putLe(out, ops.pc[i], 8);
        putLe(out, ops.memAddr[i], 8);
        putLe(out, ops.nextPc[i], 8);
    }
}

/**
 * The bytes of a stream file holding `ops` in a retired container
 * revision, which readers must reject: 1 (CASSTF1, each frame its bare
 * 24 B/op ops) or 2 (CASSTF2, raw frames as appendRawFrame writes
 * them, which the current container still reads). Both lay out
 * "CASSTF<revision>\n" | u32 version=revision | u32 frameOps | u64
 * fingerprint | u64 numOps | frames | index (u64 offset per frame) |
 * u64 indexPos | u64 numFrames.
 */
inline std::vector<uint8_t>
retiredStreamBytes(int revision, uint64_t fingerprint,
                   const uarch::OpBatchStorage &ops, uint32_t frame_ops)
{
    std::vector<uint8_t> out;
    for (char c : {'C', 'A', 'S', 'S', 'T', 'F',
                   static_cast<char>('0' + revision), '\n'})
        out.push_back(static_cast<uint8_t>(c));
    putLe(out, static_cast<uint64_t>(revision), 4);
    putLe(out, frame_ops, 4);
    putLe(out, fingerprint, 8);
    putLe(out, ops.pc.size(), 8);
    std::vector<uint64_t> offsets;
    for (size_t lo = 0; lo < ops.pc.size(); lo += frame_ops) {
        const size_t hi = std::min<size_t>(ops.pc.size(), lo + frame_ops);
        offsets.push_back(out.size());
        if (revision == 2) {
            appendRawFrame(out, ops, lo, hi);
            continue;
        }
        for (size_t i = lo; i < hi; i++) {
            putLe(out, ops.pc[i], 8);
            putLe(out, ops.memAddr[i], 8);
            putLe(out, ops.nextPc[i], 8);
        }
    }
    const uint64_t index_pos = out.size();
    for (uint64_t offset : offsets)
        putLe(out, offset, 8);
    putLe(out, index_pos, 8);
    putLe(out, offsets.size(), 8);
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

/** The report path of one core::forEachResultCounter counter:
 * "cycles", "btu.hits", "caches.l1d.misses". */
inline std::string
counterPath(const char *section, const char *key)
{
    return *section ? std::string(section) + "." + key : std::string(key);
}

/**
 * Expect `got` and `want` to agree in every counter of
 * core::forEachResultCounter, naming each counter that differs by its
 * report path.
 */
inline void
expectSameCounters(const core::ExperimentResult &got,
                   const core::ExperimentResult &want,
                   const std::string &what)
{
    SCOPED_TRACE(what);
    std::vector<uint64_t> wanted;
    core::forEachResultCounter(want,
                               [&](const char *, const char *, uint64_t v) {
                                   wanted.push_back(v);
                               });
    size_t i = 0;
    core::forEachResultCounter(
        got, [&](const char *section, const char *key, uint64_t v) {
            const uint64_t expected = wanted[i++];
            EXPECT_EQ(v, expected) << counterPath(section, key);
        });
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
