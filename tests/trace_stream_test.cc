/**
 * @file
 * Memory-lean pipeline tests: chunked trace stream round trips (both
 * cursor backings), the CASSTF3 sparse frame codec, corrupt and
 * retired (revision 1 and 2) streams failing loudly, streamed-vs-whole
 * cycle parity across every scheme, the fused and the lazily walked
 * taint bitmaps against computeTaintBitmap over recorded ops, failed
 * recordings leaving no trace file, and the demand-driven per-phase
 * analysis counters (baseline-only sweeps never run Algorithm 2).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <stdexcept>
#include <tuple>

#include "core/experiment.hh"
#include "core/serialize.hh"
#include "core/trace_stream.hh"
#include "crypto/workload_registry.hh"
#include "tests/trace_test_util.hh"

namespace {

using namespace cassandra;
using core::AnalysisPhaseRuns;
using core::AnalyzedWorkload;
using core::AnalyzeOptions;
using core::ExperimentMatrix;
using core::ExperimentRunner;
using core::RunnerOptions;
using core::SimConfig;
using core::Simulation;
using core::TraceCursor;
using core::TraceMode;
using core::TraceStreamWriter;
using uarch::Scheme;

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

void
putLe64(std::vector<uint8_t> &bytes, size_t at, uint64_t v)
{
    for (int i = 0; i < 8; i++)
        bytes[at + i] = static_cast<uint8_t>(v >> (8 * i));
}

uint64_t
getLe64(const std::vector<uint8_t> &bytes, size_t at)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; i++)
        v |= static_cast<uint64_t>(bytes[at + i]) << (8 * i);
    return v;
}

/** Write a multi-frame stream of recorded ops. */
void
writeStream(const std::string &path, const core::Workload &w,
            const uarch::OpBatch &ops, uint32_t frame_ops = 256)
{
    TraceStreamWriter writer(path, core::programFingerprint(w.program),
                             frame_ops);
    writer.appendBatch(ops);
    writer.finish();
}

/** All of `ops` as one batch. */
uarch::OpBatch
allOps(const uarch::OpBatchStorage &ops)
{
    return ops.view(0, ops.pc.size());
}

constexpr Scheme allSchemes[] = {
    Scheme::UnsafeBaseline, Scheme::Cassandra,  Scheme::CassandraStl,
    Scheme::CassandraLite,  Scheme::Spt,        Scheme::Prospect,
    Scheme::CassandraProspect};

// ---------------------------------------------------------------------
// Trace stream container
// ---------------------------------------------------------------------

TEST(TraceStreamTest, RoundTripBothBackings)
{
    core::Workload w = workload("ChaCha20_ct");
    const auto ops = test::recordOps(w);
    // A small frame size forces multi-frame files + index use.
    const std::string path = test::scratchPath("chacha20.trace");
    writeStream(path, w, allOps(ops));
    for (auto backing : {TraceCursor::Backing::Buffered,
                         TraceCursor::Backing::Auto}) {
        SCOPED_TRACE(backing == TraceCursor::Backing::Buffered
                         ? "buffered"
                         : "auto");
        TraceCursor cursor(path, w.program, backing);
        ASSERT_EQ(cursor.numOps(), ops.pc.size());
        test::expectSameOps(test::drainOps(cursor), ops, w.program,
                            "replayed ops");
    }
}

TEST(TraceStreamTest, StreamsAreMuchSmallerThanRawOps)
{
    core::Workload w = workload("ChaCha20_ct");
    const auto ops = test::recordOps(w);
    const std::string path = test::scratchPath("size.trace");
    writeStream(path, w, allOps(ops), core::traceStreamDefaultFrameOps);
    const size_t size = readFile(path).size();
    // The bar is >= 2x below 24 B/op; real instruction streams
    // compress far better (straight-line ops cost nothing).
    EXPECT_LT(size * 2, ops.pc.size() * core::traceStreamOpBytes)
        << size << " bytes for " << ops.pc.size() << " ops";
}

TEST(TraceStreamTest, FingerprintGuardsStaleStreams)
{
    core::Workload w = workload("ChaCha20_ct");
    const std::string path = test::scratchPath("stale.trace");
    {
        TraceStreamWriter writer(path, /*fingerprint=*/0xdeadbeef);
        writer.finish();
    }
    EXPECT_THROW(core::TraceCursor(path, w.program),
                 core::ArtifactStaleError);
}

TEST(TraceStreamTest, RejectsForeignFiles)
{
    const std::string path = test::scratchPath("not_a_trace.bin");
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        for (int i = 0; i < 64; i++)
            std::fputc('x', f);
        std::fclose(f);
    }
    core::Workload w = workload("ChaCha20_ct");
    EXPECT_THROW(core::TraceCursor(path, w.program),
                 core::ArtifactFormatError);
}

// ---------------------------------------------------------------------
// CASSTF3 frame codec
// ---------------------------------------------------------------------

/** pc / memAddr / nextPc columns of a short op sequence. */
struct OpColumns
{
    std::vector<uint64_t> pc, mem, next;

    void
    push(uint64_t p, uint64_t m, uint64_t n)
    {
        pc.push_back(p);
        mem.push_back(m);
        next.push_back(n);
    }

    size_t size() const { return pc.size(); }

    bool
    operator==(const OpColumns &o) const
    {
        return pc == o.pc && mem == o.mem && next == o.next;
    }

    /** Columns [lo, hi) as a batch view (pc/memAddr/nextPc only). */
    uarch::OpBatch
    view(size_t lo, size_t hi) const
    {
        uarch::OpBatch b;
        b.pc = pc.data() + lo;
        b.memAddr = mem.data() + lo;
        b.nextPc = next.data() + lo;
        b.size = hi - lo;
        return b;
    }
};

/** encodeTraceFrame of columns [lo, hi), as exactly the frame bytes. */
std::vector<uint8_t>
encodeFrame(const OpColumns &ops, size_t lo, size_t hi)
{
    std::vector<uint8_t> buf;
    const size_t len =
        core::encodeTraceFrame(ops.pc.data() + lo, ops.mem.data() + lo,
                               ops.next.data() + lo, hi - lo, buf);
    buf.resize(len);
    return buf;
}

std::vector<uint8_t>
encodeFrame(const OpColumns &ops)
{
    return encodeFrame(ops, 0, ops.size());
}

/** decodeTraceFrameSoA of `frame` back into columns. */
OpColumns
decodeFrame(const std::vector<uint8_t> &frame, size_t frame_len,
            size_t ops)
{
    OpColumns out;
    out.pc.resize(ops);
    out.mem.resize(ops);
    out.next.resize(ops);
    core::decodeTraceFrameSoA(frame.data(), frame_len, ops, out.pc.data(),
                              out.mem.data(), out.next.data());
    return out;
}

TEST(TraceFrameCodecTest, SequentialOpsCompressAndRoundTrip)
{
    // A straight-line instruction stream: pc chains, nextPc is the
    // fall-through, and every op loads from the next array slot, so
    // each op is a 2-byte record (header + memAddr delta).
    OpColumns ops;
    uint64_t pc = 0x10000;
    for (int i = 0; i < 1000; i++) {
        ops.push(pc, 0x20000 + i * 8ull, pc + 4);
        pc += 4;
    }
    auto frame = encodeFrame(ops);
    ASSERT_GE(frame.size(), 5u);
    EXPECT_EQ(frame[0], 2u) << "sequential ops must pick sparse";
    EXPECT_LT(frame.size() * 4, ops.size() * core::traceStreamOpBytes)
        << "sequential ops should compress at least 4x";
    EXPECT_EQ(decodeFrame(frame, frame.size(), 1000), ops);
}

/** Round-trip `ops` through one frame, and through a stream file of
 * `frame_ops`-op frames on both cursor backings. */
void
expectRoundTrip(const OpColumns &ops, uint32_t frame_ops)
{
    const auto frame = encodeFrame(ops);
    EXPECT_EQ(decodeFrame(frame, frame.size(), ops.size()), ops);

    // A program long enough for every pc the columns use, so the
    // cursor's relink accepts them.
    ir::Program program;
    uint64_t top = 0;
    for (uint64_t pc : ops.pc)
        top = std::max(top, pc);
    program.insts.resize((top - ir::Program::codeBase) / ir::instBytes + 1);
    const std::string path = test::scratchPath("roundtrip.trace");
    {
        TraceStreamWriter writer(path, core::programFingerprint(program),
                                 frame_ops);
        writer.appendBatch(ops.view(0, ops.size()));
        writer.finish();
    }
    for (auto backing : {TraceCursor::Backing::Buffered,
                         TraceCursor::Backing::Auto}) {
        TraceCursor cursor(path, program, backing);
        OpColumns back;
        uarch::OpBatch batch;
        while (const size_t n = cursor.nextBatch(batch, 64)) {
            for (size_t i = 0; i < n; i++)
                back.push(batch.pc[i], batch.memAddr[i], batch.nextPc[i]);
        }
        EXPECT_EQ(back, ops);
    }
    std::remove(path.c_str());
}

TEST(TraceFrameCodecTest, SparseRecordsRoundTripEveryPlainRuleBreak)
{
    // Each op breaks one plain-op rule, or none, between runs of plain
    // ops; the stream cuts them into odd frames, so records and tails
    // land on every frame boundary, down to 1-op frames.
    const uint64_t base = ir::Program::codeBase;
    OpColumns ops;
    uint64_t pc = base;
    auto plain = [&](int n) {
        for (int i = 0; i < n; i++, pc += 4)
            ops.push(pc, 0, pc + 4);
    };
    plain(5);
    pc += 0x40; // a pc jump: pc != prev nextPc
    plain(3);
    ops.push(pc, 0x100000, pc + 4); // memAddr on a non-memory op
    pc += 4;
    ops.push(pc, 0x100000, pc + 4); // the same address again (delta 0)
    pc += 4;
    plain(2);
    ops.push(pc, 0xff000, pc + 4); // a lower address (negative delta)
    pc += 4;
    ops.push(pc, 0, base + 0x10); // non-sequential nextPc, backwards
    pc = base + 0x10;
    plain(1);
    ops.push(pc, 0x200000, pc + 0x80); // memAddr and nextPc at once
    ops.push(base, 0x8, base + 0x20);  // all three at once
    pc = base + 0x20;
    plain(6);
    for (uint32_t frame_ops : {1u, 2u, 3u, 7u, 64u}) {
        SCOPED_TRACE("frame_ops=" + std::to_string(frame_ops));
        expectRoundTrip(ops, frame_ops);
    }
}

TEST(TraceFrameCodecTest, PlainFramesAreOneRecord)
{
    // All plain from pc 0 on (the first op's "previous nextPc" is 0):
    // the whole frame is its tail record, 1000 << 3 in two bytes.
    OpColumns zero;
    for (uint64_t pc = 0; pc < 4000; pc += 4)
        zero.push(pc, 0, pc + 4);
    const auto frame = encodeFrame(zero);
    EXPECT_EQ(test::hexBytes(frame), "0202000000c03e");
    EXPECT_EQ(decodeFrame(frame, frame.size(), zero.size()), zero);

    // From a real code address only the first op needs a record.
    OpColumns code;
    for (uint64_t pc = 0x10000; pc < 0x10000 + 4000; pc += 4)
        code.push(pc, 0, pc + 4);
    EXPECT_EQ(test::hexBytes(encodeFrame(code)),
              "020600000001808008b83e"); // pc 0x10000; then 999 plain
    expectRoundTrip(code, 333);

    // A 1-op frame of each kind of op.
    for (const auto &[pc, mem, next] :
         {std::tuple<uint64_t, uint64_t, uint64_t>{0, 0, 4},
          {0x10000, 0, 0x10004},
          {0x10000, 0x20000, 0x10004},
          {0x10000, 0, 0x10100}}) {
        OpColumns one;
        one.push(pc, mem, next);
        const auto f = encodeFrame(one);
        EXPECT_EQ(f[0], 2u);
        EXPECT_EQ(decodeFrame(f, f.size(), 1), one);
    }
}

TEST(TraceFrameCodecTest, RandomColumnsRoundTripLosslessly)
{
    // The encoding is lossless for any columns: mostly plain runs with
    // random breaks, wrap-around values and all-random frames, at every
    // size from 1 op up.
    std::mt19937_64 rng(11);
    for (int round = 0; round < 200; round++) {
        OpColumns ops;
        const size_t n = 1 + rng() % 300;
        uint64_t pc = rng() % 3 == 0 ? rng() : 0x10000;
        for (size_t i = 0; i < n; i++) {
            const unsigned r = static_cast<unsigned>(rng() % 16);
            uint64_t mem = r == 1 ? rng() : (r == 2 ? rng() % 4096 : 0);
            uint64_t next = r == 3 ? rng() : pc + 4;
            if (r == 4)
                pc = rng();
            if (round % 10 == 9) {
                pc = rng();
                mem = rng();
                next = rng();
            }
            ops.push(pc, mem, next);
            pc = next;
        }
        auto frame = encodeFrame(ops);
        ASSERT_EQ(decodeFrame(frame, frame.size(), n), ops)
            << "round " << round;
        EXPECT_LE(frame.size(), 5 + n * core::traceStreamOpBytes);
    }
}

TEST(TraceFrameCodecTest, CorruptSparseFramesAreTyped)
{
    // Hand-made sparse frames of 3 ops: u8 kind 2 | u32 payloadBytes |
    // records.
    auto sparse = [](std::vector<uint8_t> records) {
        std::vector<uint8_t> frame = {2};
        test::putLe(frame, records.size(), 4);
        frame.insert(frame.end(), records.begin(), records.end());
        return frame;
    };
    // Well formed: 3 plain ops from pc 0, one tail record.
    EXPECT_EQ(decodeFrame(sparse({3 << 3}), 6, 3).pc,
              (std::vector<uint64_t>{0, 4, 8}));
    // A plain run longer than the frame, and a record whose own op
    // would be the fourth.
    for (const auto &bad :
         {sparse({4 << 3}), sparse({3 << 3 | 1, 2}),
          sparse({1 << 3, 2 << 3 | 4, 2})}) {
        SCOPED_TRACE(test::hexBytes(bad));
        EXPECT_THROW(decodeFrame(bad, bad.size(), 3),
                     core::ArtifactFormatError);
    }
    // Records ending before the frame's last op, and a varint whose
    // continuation bit runs off the payload.
    for (const auto &bad :
         {sparse({2 << 3}), sparse({0}), sparse({2 << 3 | 1, 0x80}),
          sparse({0x80})}) {
        SCOPED_TRACE(test::hexBytes(bad));
        try {
            decodeFrame(bad, bad.size(), 3);
            ADD_FAILURE() << "decoded";
        } catch (const core::ArtifactFormatError &e) {
            EXPECT_NE(std::string(e.what()).find("truncated"),
                      std::string::npos)
                << e.what();
        }
    }
    // Bytes after the record that completes the frame.
    const auto trailing = sparse({3 << 3, 0});
    try {
        decodeFrame(trailing, trailing.size(), 3);
        ADD_FAILURE() << "decoded";
    } catch (const core::ArtifactFormatError &e) {
        EXPECT_NE(std::string(e.what()).find("trailing"),
                  std::string::npos)
            << e.what();
    }
    // CASSTF2's delta kind is not read any more.
    auto delta = sparse({3 << 3});
    delta[0] = 1;
    EXPECT_THROW(decodeFrame(delta, delta.size(), 3),
                 core::ArtifactFormatError);
}

TEST(TraceFrameCodecTest, IncompressibleOpsFallBackToRawFrames)
{
    // All three fields random: every delta costs ~10 varint bytes, so
    // the encoder must keep the 24 B/op raw representation.
    std::mt19937_64 rng(7);
    OpColumns ops;
    for (int i = 0; i < 512; i++) {
        const uint64_t p = rng(), m = rng();
        ops.push(p, m, rng());
    }
    auto frame = encodeFrame(ops);
    ASSERT_GE(frame.size(), 5u);
    EXPECT_EQ(frame[0], 0u) << "incompressible ops must stay raw";
    EXPECT_EQ(frame.size(), ops.size() * core::traceStreamOpBytes + 5);
    EXPECT_EQ(decodeFrame(frame, frame.size(), 512), ops);
}

TEST(TraceFrameCodecTest, CorruptFramesAreTyped)
{
    OpColumns ops;
    for (int i = 0; i < 8; i++)
        ops.push(0x1111111111111111ull, 0x1111111111111111ull,
                 0x1111111111111111ull);
    auto frame = encodeFrame(ops);
    // Truncated below the frame header.
    EXPECT_THROW(decodeFrame(frame, 4, 8), core::ArtifactFormatError);
    // Payload length beyond the available bytes.
    EXPECT_THROW(decodeFrame(frame, frame.size() - 1, 8),
                 core::ArtifactFormatError);
    // Unknown encoding kind.
    auto bad_kind = frame;
    bad_kind[0] = 9;
    EXPECT_THROW(decodeFrame(bad_kind, bad_kind.size(), 8),
                 core::ArtifactFormatError);
    // Wrong op count for the frame.
    EXPECT_THROW(decodeFrame(frame, frame.size(), 7),
                 core::ArtifactFormatError);
}

TEST(TraceFrameCodecTest, EncoderBytesArePinned)
{
    // Four ops with loads and a taken branch (a sparse frame), four
    // ops whose fields need ~10-byte varints (raw: sparse would not
    // beat 24 B/op), and one tail op (a 1-op sparse frame). The sparse
    // frames, decoded by hand (records are "(plain ops before) << 3 |
    // flags", flags 1 pc, 2 memAddr, 4 nextPc, then one zig-zag varint
    // per flag in that order):
    //
    //   02 0c000000      kind 2 (sparse), 12 payload bytes
    //   03 808008        op 0: flags pc|mem; pc - 0 = 0x10000
    //      80808001            memAddr - 0 = 0x100000
    //                    op 1: plain (pc 0x10004, no memAddr)
    //   0e 0f 68         op 2: 1 plain op before, flags mem|next;
    //                          memAddr 0xffff8 - 0x100000 = -8,
    //                          nextPc 0x10040 - 0x1000c = +0x34
    //   08               op 3 plain: the tail record, 1 op, no flags
    //
    //   02 04000000 01 808008    op 8: flags pc; pc - 0 = 0x10000
    OpColumns ops;
    ops.push(0x10000, 0x100000, 0x10004);
    ops.push(0x10004, 0, 0x10008);
    ops.push(0x10008, 0xffff8, 0x10040);
    ops.push(0x10040, 0, 0x10044);
    ops.push(0x8000000000000010ull, 0x8000000000000020ull, 0);
    ops.push(0x9000000000000000ull, 0x10, 0);
    ops.push(0xa000000000000008ull, 0xf000000000000000ull, 0);
    ops.push(0xc000000000000004ull, 0x18, 0);
    ops.push(0x10000, 0, 0x10004);

    const std::string sparse = "020c00000003808008808080010e0f6808";
    const std::string raw = "0060000000"
                            "1000000000000080200000000000008000000000"
                            "0000000000000000000000901000000000000000"
                            "000000000000000008000000000000a000000000"
                            "000000f0000000000000000004000000000000c0"
                            "18000000000000000000000000000000";
    const std::string tail = "020400000001808008";
    EXPECT_EQ(test::hexBytes(encodeFrame(ops, 0, 4)), sparse);
    EXPECT_EQ(test::hexBytes(encodeFrame(ops, 4, 8)), raw);
    EXPECT_EQ(test::hexBytes(encodeFrame(ops, 8, 9)), tail);

    // The same ops through the writer, as whole batches (each frame
    // encoded straight from the columns) and one op at a time (staged):
    // header, frames, index and footer are pinned too.
    const std::string header = "434153535446330a" // magic
                               "03000000"         // version
                               "04000000"         // frameOps
                               "8877665544332211" // fingerprint
                               "0900000000000000"; // numOps
    const std::string index = "2000000000000000" // frame offsets
                              "3100000000000000"
                              "9600000000000000"
                              "9f00000000000000" // indexPos
                              "0300000000000000"; // numFrames
    const std::string file = header + sparse + raw + tail + index;
    const std::string path = test::scratchPath("pinned.trace");
    for (const bool batched : {true, false}) {
        SCOPED_TRACE(batched ? "batched" : "op by op");
        TraceStreamWriter writer(path, 0x1122334455667788ull, 4);
        if (batched) {
            writer.appendBatch(ops.view(0, 6));
            writer.appendBatch(ops.view(6, 9));
        } else {
            for (size_t i = 0; i < ops.size(); i++)
                writer.appendBatch(ops.view(i, i + 1));
        }
        writer.finish();
        EXPECT_EQ(test::hexBytes(readFile(path)), file);
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Corrupt and retired streams (negative paths)
// ---------------------------------------------------------------------

TEST(TraceStreamTest, RevisionTwoStreamsAreRejected)
{
    // A well-formed CASSTF2 file, even one of raw frames that this
    // container still reads, fails at open on its header.
    core::Workload w = workload("ChaCha20_ct");
    const auto ops = test::recordOps(w);
    const std::string path = test::scratchPath("revision2.trace");
    auto bytes = test::retiredStreamBytes(
        2, core::programFingerprint(w.program), ops, 256);
    writeFile(path, bytes);
    EXPECT_THROW(TraceCursor(path, w.program), core::ArtifactFormatError);

    // Relabelled as the current revision, the same file replays.
    bytes[6] = '3';
    bytes[8] = 3;
    writeFile(path, bytes);
    TraceCursor cursor(path, w.program);
    EXPECT_EQ(cursor.numOps(), ops.pc.size());
    test::expectSameOps(test::drainOps(cursor), ops, w.program,
                        "relabelled revision 2");
}

TEST(TraceStreamTest, RevisionOneStreamsAreRejected)
{
    // A well-formed file of the retired raw-frame container fails
    // loudly at open instead of replaying.
    core::Workload w = workload("ChaCha20_ct");
    const auto ops = test::recordOps(w);
    const std::string path = test::scratchPath("revision1.trace");
    writeFile(path,
              test::retiredStreamBytes(
                  1, core::programFingerprint(w.program), ops, 256));
    EXPECT_THROW(TraceCursor(path, w.program), core::ArtifactFormatError);
}

class CorruptStreamTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        w_ = workload("ChaCha20_ct");
        ops_ = test::recordOps(w_);
        path_ = test::scratchPath("corrupt.trace");
        writeStream(path_, w_, allOps(ops_));
        bytes_ = readFile(path_);
    }

    /** Re-write the (tampered) bytes and expect a typed throw. */
    template <typename Error>
    void
    expectThrow(const std::vector<uint8_t> &bytes)
    {
        writeFile(path_, bytes);
        EXPECT_THROW(TraceCursor(path_, w_.program), Error);
    }

    core::Workload w_ = workload("ChaCha20_ct");
    uarch::OpBatchStorage ops_;
    std::string path_;
    std::vector<uint8_t> bytes_;
};

TEST_F(CorruptStreamTest, TruncatedHeader)
{
    std::vector<uint8_t> head(bytes_.begin(), bytes_.begin() + 20);
    expectThrow<core::ArtifactFormatError>(head);
}

TEST_F(CorruptStreamTest, BadMagic)
{
    auto bad = bytes_;
    bad[0] = 'X';
    expectThrow<core::ArtifactFormatError>(bad);
}

TEST_F(CorruptStreamTest, UnknownVersionByte)
{
    auto bad = bytes_;
    bad[6] = '9'; // "CASSTF9\n"
    expectThrow<core::ArtifactFormatError>(bad);
}

TEST_F(CorruptStreamTest, RelabelAsRevisionOneIsRejected)
{
    // Claiming the retired container's magic must fail the
    // magic/version check, not silently decode the frames as raw.
    auto bad = bytes_;
    bad[6] = '1';
    expectThrow<core::ArtifactFormatError>(bad);
}

TEST_F(CorruptStreamTest, RelabelAsRevisionTwoIsRejected)
{
    // A CASSTF2 header, magic and version field both, fails before any
    // frame is read.
    auto bad = bytes_;
    bad[6] = '2';
    bad[8] = 2;
    expectThrow<core::ArtifactFormatError>(bad);
}

TEST_F(CorruptStreamTest, TruncatedIndex)
{
    std::vector<uint8_t> cut(bytes_.begin(), bytes_.end() - 24);
    expectThrow<core::ArtifactFormatError>(cut);
}

TEST_F(CorruptStreamTest, MismatchedFingerprint)
{
    auto bad = bytes_;
    bad[16] ^= 0xff; // first fingerprint byte
    expectThrow<core::ArtifactStaleError>(bad);
}

TEST_F(CorruptStreamTest, OverflowingFooterIsRejectedBeforeAllocating)
{
    // Craft a footer whose numFrames wraps the old consistency check
    // `index_pos + numFrames * 8 + footerBytes == file_len` through
    // uint64 overflow: with frame_ops == 1, expect_frames == numOps,
    // so tampering both to huge-but-consistent values used to pass
    // validation and then attempt a numFrames-sized allocation. The
    // cursor must bound numFrames against the file length *before*
    // sizing anything from it.
    const std::string path = test::scratchPath("overflow.trace");
    writeStream(path, w_, ops_.view(0, 6), /*frame_ops=*/1);
    auto bytes = readFile(path);
    const uint64_t frames = getLe64(bytes, bytes.size() - 8);
    ASSERT_EQ(frames, 6u);
    // numFrames' * 8 wraps to numFrames * 8 (2^61 * 8 == 2^64).
    const uint64_t huge = frames + (1ull << 61);
    putLe64(bytes, bytes.size() - 8, huge); // footer numFrames
    putLe64(bytes, 24, huge);               // header numOps
    writeFile(path, bytes);
    EXPECT_THROW(TraceCursor(path, w_.program),
                 core::ArtifactFormatError);
}

TEST_F(CorruptStreamTest, OversizedFrameOpsIsRejectedBeforeAllocating)
{
    // A single-frame file whose u32 frameOps header field is tampered
    // to ~4 billion passes every frame-count/offset check (one frame
    // either way) and used to size a ~96 GB frame buffer from the
    // untrusted field; the cursor must reject the size fields first.
    const std::string path = test::scratchPath("frameops.trace");
    writeStream(path, w_, ops_.view(0, 8),
                core::traceStreamDefaultFrameOps);
    auto bytes = readFile(path);
    bytes[12] = 0xf0; // u32 frameOps at header offset 12
    bytes[13] = 0xff;
    bytes[14] = 0xff;
    bytes[15] = 0xff;
    writeFile(path, bytes);
    EXPECT_THROW(TraceCursor(path, w_.program),
                 core::ArtifactFormatError);
}

TEST_F(CorruptStreamTest, FrameOpsAboveTheCeilingIsRejectedAtOpen)
{
    // A one-frame file claiming traceFrameMaxOps + 1 ops per frame and
    // as many ops passes every frame-count check (one frame either
    // way), fits u32, and would size a ~40 MiB decode buffer: the
    // cursor must reject it at open, before any decode.
    const std::string path = test::scratchPath("ceiling.trace");
    writeStream(path, w_, ops_.view(0, 8),
                core::traceStreamDefaultFrameOps);
    auto bytes = readFile(path);
    const uint32_t over = core::traceFrameMaxOps + 1;
    for (int i = 0; i < 4; i++)
        bytes[12 + i] = static_cast<uint8_t>(over >> (8 * i));
    putLe64(bytes, 24, over); // header numOps
    writeFile(path, bytes);
    try {
        TraceCursor cursor(path, w_.program);
        ADD_FAILURE() << "opened";
    } catch (const core::ArtifactFormatError &e) {
        EXPECT_NE(std::string(e.what()).find("frame size"),
                  std::string::npos)
            << e.what();
    }

    // Writers refuse such frames too; the ceiling itself is allowed.
    EXPECT_THROW(core::TraceFrameBuilder{over}, std::invalid_argument);
    EXPECT_THROW((TraceStreamWriter{path, 0, over}), std::invalid_argument);
    EXPECT_NO_THROW(core::TraceFrameBuilder{core::traceFrameMaxOps});
}

TEST_F(CorruptStreamTest, InconsistentFrameOffsets)
{
    // Point the first index entry somewhere inconsistent.
    auto bad = bytes_;
    const uint64_t frames = getLe64(bad, bad.size() - 8);
    const uint64_t index_pos = getLe64(bad, bad.size() - 16);
    ASSERT_GT(frames, 1u);
    putLe64(bad, static_cast<size_t>(index_pos), 7); // offsets[0] != 32
    expectThrow<core::ArtifactFormatError>(bad);
}

TEST(TraceStreamTest, WriterFailsFastWhenDiskIsFull)
{
    // /dev/full accepts the open and fails every write with ENOSPC:
    // the writer must throw instead of recording -1 offsets and
    // finishing a garbage index.
    std::ifstream probe("/dev/full");
    if (!probe.good())
        GTEST_SKIP() << "/dev/full unavailable";
    core::Workload w = workload("ChaCha20_ct");
    const auto ops = test::recordOps(w);
    EXPECT_THROW(
        {
            TraceStreamWriter writer(
                "/dev/full", core::programFingerprint(w.program),
                /*frame_ops=*/64);
            writer.appendBatch(allOps(ops));
            writer.finish();
        },
        std::runtime_error);
}

// ---------------------------------------------------------------------
// Stream file naming (collision regressions)
// ---------------------------------------------------------------------

TEST(TraceStreamPathTest, SanitizedCollisionsStayDistinct)
{
    // "synthetic/aes/25" and "synthetic_aes_25" sanitize to the same
    // string; the appended program fingerprint must keep distinct
    // workloads on distinct files.
    const std::string a =
        core::traceStreamPath("/tmp/t", "synthetic/aes/25", 0x1111);
    const std::string b =
        core::traceStreamPath("/tmp/t", "synthetic_aes_25", 0x2222);
    EXPECT_NE(a, b);
    // Same name, same program: stable path (cache-friendly).
    EXPECT_EQ(a, core::traceStreamPath("/tmp/t", "synthetic/aes/25",
                                       0x1111));
    // Slashes still never leak into the file name.
    EXPECT_EQ(a.find('/', std::string("/tmp/t/").size()),
              std::string::npos);
}

TEST(TraceStreamPathTest, DistinctProgramsGetDistinctStreamFiles)
{
    // End to end: two different programs whose names sanitize to the
    // same string. Before the fingerprint suffix both landed on one
    // "<dir>/a_b.trace", the second analysis silently clobbering the
    // first's ops; now each keeps its own file and both replay.
    core::Workload first = workload("ChaCha20_ct");
    core::Workload second = workload("SHAKE");
    first.name = "a/b";
    second.name = "a_b";
    AnalyzeOptions opts;
    opts.traceMode = TraceMode::Stream;
    opts.streamDir = test::scratchPath("collide");
    auto a = AnalyzedWorkload::analyze(std::move(first), opts);
    auto b = AnalyzedWorkload::analyze(std::move(second), opts);
    ASSERT_NE(a->streamPath(), b->streamPath());
    // Both remain fully readable after both were written (the clobber
    // made the first's cursor fail its fingerprint/pc validation).
    EXPECT_EQ(test::drainOps(*a).pc.size(), a->numOps());
    auto src_b = b->openOpSource();
    uarch::OpBatch batch;
    EXPECT_NE(src_b->nextBatch(batch, 1), 0u);
}

TEST(TraceStreamPathTest, DefaultDirIsProcessUnique)
{
    const std::string dir = core::defaultTraceStreamDir();
    const std::string prefix = "cassandra-traces-";
    const size_t at = dir.find(prefix);
    ASSERT_NE(at, std::string::npos) << dir;
    // Some per-process suffix must follow on every platform, or
    // concurrent runs clobber each other's trace files.
    EXPECT_GT(dir.size(), at + prefix.size()) << dir;
    // Stable within the process (analyses must agree on the dir).
    EXPECT_EQ(dir, core::defaultTraceStreamDir());
}

// ---------------------------------------------------------------------
// Streamed vs. whole parity
// ---------------------------------------------------------------------

TEST(TraceStreamTest, StreamedRunsMatchWholeRunsAllSchemes)
{
    // Streaming only changes where the ops live, never the replayed
    // ops: every scheme is cycle-identical to whole mode.
    for (const char *name : {"ChaCha20_ct", "synthetic/curve25519/50"}) {
        auto whole = AnalyzedWorkload::analyze(workload(name));
        ASSERT_FALSE(whole->streamed());
        Simulation whole_sim(whole);
        AnalyzeOptions stream_opts;
        stream_opts.traceMode = TraceMode::Stream;
        stream_opts.streamDir = test::scratchPath("stream-parity");
        auto streamed =
            AnalyzedWorkload::analyze(workload(name), stream_opts);
        ASSERT_TRUE(streamed->streamed());
        ASSERT_EQ(streamed->numOps(), whole->numOps());
        Simulation stream_sim(streamed);
        for (Scheme s : allSchemes) {
            test::expectSameCounters(stream_sim.run(s), whole_sim.run(s),
                                     std::string(name) + " / " +
                                         uarch::schemeName(s));
        }
    }
}

// ---------------------------------------------------------------------
// Taint bitmaps: the two production walks vs. recorded ops
// ---------------------------------------------------------------------

TEST(TaintBitmapTest, FusedAndLazyWalksMatchRecordedOps)
{
    // The fused walk (the recording pass's taint consumer, taken when
    // an analysis asks for the taint phase) and the lazy walk
    // (taintBitmap() after a trace-only analysis, over the replay
    // source) must set the bits computeTaintBitmap sets over the
    // recorder's columns. The kernels: every BearSSL and OpenSSL one
    // under 200K instructions, kyber512 for the PQC suite and a
    // synthetic mix. Each is walked three times, under the thread
    // sanitizer too, so the larger kernels are left out; DES_ct's
    // bitmaps are compared in fused_analysis_test.
    for (const char *name :
         {"ChaCha20_ct", "MultiHash", "Poly1305_ctmul", "SHA-256", "SHAKE",
          "TLS PRF", "chacha20", "sha256", "kyber512",
          "synthetic/chacha20/0"}) {
        SCOPED_TRACE(name);
        core::Workload w = workload(name);
        ASSERT_FALSE(w.secretRegions.empty());
        const auto ops = test::recordOps(w);
        test::ColumnSource src(ops);
        const uarch::TaintBitmap want =
            uarch::computeTaintBitmap(src, w.secretRegions, ops.pc.size());
        EXPECT_GT(want.count(), 0u);

        auto fused = AnalyzedWorkload::analyze(workload(name));
        fused->ensurePhases(core::PhaseTimingTrace | core::PhaseTaint);
        auto lazy = AnalyzedWorkload::analyze(workload(name));
        lazy->ensurePhases(core::PhaseTimingTrace);
        ASSERT_TRUE(fused->hasTaintBitmap());
        ASSERT_TRUE(lazy->hasTimingTrace());
        ASSERT_FALSE(lazy->hasTaintBitmap());
        for (const auto *aw : {fused.get(), lazy.get()}) {
            const uarch::TaintBitmap &got = aw->taintBitmap();
            ASSERT_EQ(got.size(), want.size());
            EXPECT_EQ(got.count(), want.count());
            for (size_t i = 0; i < want.size(); i++)
                ASSERT_EQ(got.test(i), want.test(i)) << "op " << i;
        }
    }
}

// ---------------------------------------------------------------------
// Demand-driven phases
// ---------------------------------------------------------------------

TEST(AnalysisPhaseTest, BaselineOnlyMatrixSkipsAlgorithm2)
{
    ExperimentMatrix m;
    m.workloads = {"SHA-256", "Poly1305_ctmul"};
    m.schemes = {Scheme::UnsafeBaseline, Scheme::Spt};

    const AnalysisPhaseRuns before =
        AnalyzedWorkload::analysisPhaseRuns();
    auto exp = ExperimentRunner(
                   crypto::WorkloadRegistry::global().resolver(),
                   RunnerOptions{4})
                   .run(m);
    const AnalysisPhaseRuns after =
        AnalyzedWorkload::analysisPhaseRuns();

    ASSERT_EQ(exp.cells.size(), 4u);
    EXPECT_EQ(after.timingTrace - before.timingTrace, 2u);
    // The acceptance bar: a baseline/SPT sweep runs zero Algorithm 2
    // phases and zero taint pre-passes.
    EXPECT_EQ(after.traceImage - before.traceImage, 0u);
    EXPECT_EQ(after.taint - before.taint, 0u);
    for (const auto &[name, artifact] : exp.artifacts) {
        EXPECT_FALSE(artifact->hasTraceImage()) << name;
        EXPECT_FALSE(artifact->hasTaintBitmap()) << name;
    }
}

TEST(AnalysisPhaseTest, CassandraMatrixRunsEachPhaseOnce)
{
    ExperimentMatrix m;
    m.workloads = {"SHA-256"};
    m.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra,
                 Scheme::Prospect};
    SimConfig base;
    m.configs = {base, base.withBtuGeometry(1, 4).named("ways=4")};

    const AnalysisPhaseRuns before =
        AnalyzedWorkload::analysisPhaseRuns();
    auto exp = ExperimentRunner(
                   crypto::WorkloadRegistry::global().resolver(),
                   RunnerOptions{4})
                   .run(m);
    const AnalysisPhaseRuns after =
        AnalyzedWorkload::analysisPhaseRuns();

    ASSERT_EQ(exp.cells.size(), 6u);
    EXPECT_EQ(after.timingTrace - before.timingTrace, 1u);
    // Six cells, two of them Cassandra, two ProSpeCT: each phase ran
    // exactly once regardless of cell count.
    EXPECT_EQ(after.traceImage - before.traceImage, 1u);
    EXPECT_EQ(after.taint - before.taint, 1u);
}

TEST(AnalysisPhaseTest, DemandDrivenImageOnDirectAccess)
{
    auto artifact = AnalyzedWorkload::analyze(workload("ChaCha20_ct"));
    EXPECT_FALSE(artifact->hasTraceImage());
    const AnalysisPhaseRuns before =
        AnalyzedWorkload::analysisPhaseRuns();
    EXPECT_GT(artifact->traces().image.numBranches(), 0u);
    EXPECT_TRUE(artifact->hasTraceImage());
    // Repeat access computes nothing new.
    (void)artifact->traces();
    const AnalysisPhaseRuns after =
        AnalyzedWorkload::analysisPhaseRuns();
    EXPECT_EQ(after.traceImage - before.traceImage, 1u);
}

// ---------------------------------------------------------------------
// Streamed artifacts end to end
// ---------------------------------------------------------------------

TEST(TraceStreamTest, StreamConfigRunsThroughRunnerIdentically)
{
    ExperimentMatrix m;
    m.workloads = {"ChaCha20_ct", "SHAKE"};
    m.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra};

    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto whole = ExperimentRunner(resolver, RunnerOptions{2}).run(m);

    // Same matrix, but every config requests streaming.
    SimConfig cfg;
    cfg.traceMode = TraceMode::Stream;
    m.configs = {cfg};
    AnalyzeOptions analyze;
    analyze.streamDir = test::scratchPath("stream-runner");
    auto streamed =
        ExperimentRunner(resolver, RunnerOptions{2, analyze}).run(m);

    ASSERT_EQ(streamed.cells.size(), whole.cells.size());
    for (size_t i = 0; i < whole.cells.size(); i++) {
        EXPECT_TRUE(streamed.artifacts.at(streamed.cells[i].workload)
                        ->streamed());
        test::expectSameCounters(streamed.cells[i].result,
                                 whole.cells[i].result,
                                 streamed.cells[i].workload);
    }
}

bool
fileExists(const std::string &path)
{
    return std::ifstream(path).good();
}

TEST(TraceStreamTest, UnfinishedWriterWritesNoFooter)
{
    // A writer destroyed before finish() — a recording pass unwinding
    // from an exception — must not stamp a valid index and footer over
    // the ops it happened to receive.
    core::Workload w = workload("ChaCha20_ct");
    const auto ops = test::recordOps(w);
    const std::string path = test::scratchPath("unfinished.trace");
    {
        TraceStreamWriter writer(path, core::programFingerprint(w.program),
                                 /*frame_ops=*/256);
        writer.appendBatch(allOps(ops));
    }
    EXPECT_THROW(TraceCursor(path, w.program), core::ArtifactFormatError);
}

TEST(TraceStreamTest, FailedStreamRecordingRemovesPartialFile)
{
    // SHAKE needs ~50K instructions: a 40K budget throws mid-recording,
    // after the writer has written a whole frame, held in memory or
    // flushed to disk. The failed recording drops it, so no file is
    // left and every later call fails on the budget again, never on a
    // stale frame.
    for (TraceMode mode : {TraceMode::Stream, TraceMode::Whole}) {
        SCOPED_TRACE(core::traceModeName(mode));
        core::Workload w = workload("SHAKE");
        w.maxDynInsts = 40000;
        AnalyzeOptions opts;
        opts.traceMode = mode;
        opts.streamDir = test::scratchPath("stream-budget");
        const std::string path = core::traceStreamPath(
            opts.streamDir, w.name, core::programFingerprint(w.program));
        auto artifact = AnalyzedWorkload::analyze(std::move(w), opts);
        EXPECT_THROW(artifact->numOps(), core::InstructionBudgetError);
        EXPECT_FALSE(artifact->hasTimingTrace());
        EXPECT_FALSE(fileExists(path)) << path;

        // Every phase at once: Algorithm 2's two input runs exhaust the
        // same budget beside the recording pass. All three are joined
        // and the recording pass's error surfaces, on every call (a
        // failed phase is not cached).
        for (int call = 0; call < 2; call++) {
            SCOPED_TRACE("call " + std::to_string(call));
            try {
                artifact->ensurePhases(core::allAnalysisPhases);
                ADD_FAILURE() << "ensurePhases did not throw";
            } catch (const core::InstructionBudgetError &e) {
                EXPECT_NE(std::string(e.what()).find("timing trace"),
                          std::string::npos)
                    << e.what();
            }
            EXPECT_FALSE(artifact->hasTimingTrace());
            EXPECT_FALSE(fileExists(path)) << path;
        }
        EXPECT_THROW(artifact->heldFrames(), core::InstructionBudgetError);
        EXPECT_THROW(artifact->openOpSource(), core::InstructionBudgetError);
        EXPECT_FALSE(artifact->hasTimingTrace());
        artifact.reset();
        EXPECT_FALSE(fileExists(path)) << path;
    }
}

TEST(TraceStreamTest, CorruptMiddleFrameFailsTheRunTyped)
{
    // The grouped replay decodes each frame once on some pool thread;
    // a corrupt frame must surface as the typed error from run(), with
    // every pool thread joined, at one thread and at several.
    AnalyzeOptions opts;
    opts.traceMode = TraceMode::Stream;
    opts.streamDir = test::scratchPath("stream-corrupt-frame");
    auto cache = std::make_shared<core::AnalysisCache>(
        crypto::WorkloadRegistry::global().resolver(), opts);
    const auto artifact = cache->get("DES_ct", core::allAnalysisPhases);

    auto bytes = readFile(artifact->streamPath());
    const uint64_t frames = getLe64(bytes, bytes.size() - 8);
    const uint64_t index_pos = getLe64(bytes, bytes.size() - 16);
    ASSERT_GE(frames, 3u);
    const uint64_t middle =
        getLe64(bytes, static_cast<size_t>(index_pos + frames / 2 * 8));
    bytes[static_cast<size_t>(middle)] = 0x7f; // unknown frame kind
    writeFile(artifact->streamPath(), bytes);

    ExperimentMatrix m;
    m.workloads = {"DES_ct"};
    m.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra,
                 Scheme::CassandraLite, Scheme::Spt,
                 Scheme::CassandraProspect};
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        EXPECT_THROW(ExperimentRunner(cache, RunnerOptions{threads}).run(m),
                     core::ArtifactFormatError);
    }
}

TEST(TraceStreamTest, StreamFileReclaimedWithArtifact)
{
    AnalyzeOptions opts;
    opts.traceMode = TraceMode::Stream;
    opts.streamDir = test::scratchPath("stream-reclaim");
    std::string path;
    {
        auto artifact =
            AnalyzedWorkload::analyze(workload("ChaCha20_ct"), opts);
        path = artifact->streamPath();
        // Phases are demand-driven: the stream file appears on first
        // use, not at analyze() time.
        artifact->numOps();
        std::FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr) << path;
        std::fclose(f);
    }
    // The artifact owned its trace file: dropping the last reference
    // reclaims the disk (stream-mode sweeps must not leak /tmp).
    EXPECT_EQ(std::fopen(path.c_str(), "rb"), nullptr) << path;
}

} // namespace
