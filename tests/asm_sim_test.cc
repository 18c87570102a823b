/**
 * @file
 * Integration tests for the macro-assembler + functional simulator:
 * arithmetic semantics, control flow, memory, calls/returns, loops,
 * probes and observation recording.
 */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "sim/machine.hh"

namespace {

using namespace cassandra;
using casm::Assembler;

/** Run a tiny program that computes into a0 and halts. */
uint64_t
runA0(const std::function<void(Assembler &)> &body)
{
    Assembler as;
    as.beginFunction("main", false);
    body(as);
    as.halt();
    as.endFunction();
    ir::Program prog = as.finalize();
    sim::Machine m(prog);
    auto res = m.run(100000);
    EXPECT_TRUE(res.halted);
    return m.arg(0);
}

TEST(SimTest, BasicArithmetic)
{
    EXPECT_EQ(runA0([](Assembler &as) {
        as.li(10, 40);
        as.li(11, 2);
        as.add(10, 10, 11);
    }), 42u);

    EXPECT_EQ(runA0([](Assembler &as) {
        as.li(10, 7);
        as.li(11, 6);
        as.mul(10, 10, 11);
    }), 42u);

    EXPECT_EQ(runA0([](Assembler &as) {
        as.li(10, -1);
        as.li(11, 1);
        as.sltu(10, 11, 10); // 1 < 0xfff..f unsigned
    }), 1u);

    EXPECT_EQ(runA0([](Assembler &as) {
        as.li(10, -1);
        as.li(11, 1);
        as.slt(10, 10, 11); // -1 < 1 signed
    }), 1u);
}

TEST(SimTest, WideMultiply)
{
    // mulhu of 2^63 * 4 = 2^65 -> high word 2.
    EXPECT_EQ(runA0([](Assembler &as) {
        as.li(10, static_cast<int64_t>(1ull << 63));
        as.li(11, 4);
        as.mulhu(10, 10, 11);
    }), 2u);

    // mulh of -1 * -1 -> high word 0.
    EXPECT_EQ(runA0([](Assembler &as) {
        as.li(10, -1);
        as.li(11, -1);
        as.mulh(10, 10, 11);
    }), 0u);
}

TEST(SimTest, WordOps)
{
    EXPECT_EQ(runA0([](Assembler &as) {
        as.li(10, 0xffffffff);
        as.li(11, 1);
        as.addw(10, 10, 11); // wraps to 0
    }), 0u);

    EXPECT_EQ(runA0([](Assembler &as) {
        as.li(10, 0x80000001);
        as.rotlwi(10, 10, 1); // -> 0x00000003
    }), 3u);
}

TEST(SimTest, RotatesAndShifts)
{
    EXPECT_EQ(runA0([](Assembler &as) {
        as.li(10, 1);
        as.rotli(10, 10, 63);
        as.rotli(10, 10, 1); // full circle
    }), 1u);
    EXPECT_EQ(runA0([](Assembler &as) {
        as.li(10, -8);
        as.sari(10, 10, 2);
    }), static_cast<uint64_t>(-2));
}

TEST(SimTest, Cmovnz)
{
    EXPECT_EQ(runA0([](Assembler &as) {
        as.li(10, 111); // dest keeps old value when cond == 0
        as.li(11, 0);
        as.li(12, 222);
        as.cmovnz(10, 11, 12);
    }), 111u);
    EXPECT_EQ(runA0([](Assembler &as) {
        as.li(10, 111);
        as.li(11, 1);
        as.li(12, 222);
        as.cmovnz(10, 11, 12);
    }), 222u);
}

TEST(SimTest, MemoryRoundTrip)
{
    EXPECT_EQ(runA0([](Assembler &as) {
        as.allocData("buf", 64);
        as.la(20, "buf");
        as.li(21, 0x1122334455667788);
        as.sd(21, 20, 8);
        as.ld(10, 20, 8);
    }), 0x1122334455667788u);

    // Byte/halfword/word accesses are little-endian and zero-extend.
    EXPECT_EQ(runA0([](Assembler &as) {
        as.allocData("buf", 64);
        as.la(20, "buf");
        as.li(21, 0x1122334455667788);
        as.sd(21, 20, 0);
        as.lb(10, 20, 1); // 0x77
    }), 0x77u);
    EXPECT_EQ(runA0([](Assembler &as) {
        as.allocData("buf", 64);
        as.la(20, "buf");
        as.li(21, 0xdeadbeefcafef00d);
        as.sd(21, 20, 0);
        as.lw(10, 20, 4); // 0xdeadbeef
    }), 0xdeadbeefu);
}

// ---------------------------------------------------------------------
// Machine memory: the page cache, word-width accesses, page crossings
// ---------------------------------------------------------------------

/** A machine over a program that only halts, plus `data` as its data
 * image (8-byte words). */
sim::Machine
memoryMachine(const std::vector<uint64_t> &data = {})
{
    Assembler as;
    if (!data.empty()) {
        as.allocData("image", data.size() * 8);
        for (size_t i = 0; i < data.size(); i++)
            as.setData64("image", i, data[i]);
    }
    as.beginFunction("main", false);
    as.halt();
    as.endFunction();
    return sim::Machine(as.finalize());
}

constexpr uint64_t kPage = 4096;
constexpr uint64_t kValue = 0x8877665544332211ull;

uint64_t
lowBytes(uint64_t v, int bytes)
{
    return bytes == 8 ? v : v & ((1ull << (8 * bytes)) - 1);
}

TEST(SimMemoryTest, EveryWidthAtPageEndNextToMappedAndUnmappedPages)
{
    // Base pages far from the program image; each case gets its own
    // pair so "never written" really means never written.
    uint64_t base = 0x40000000;
    for (const bool next_mapped : {true, false}) {
        for (const int bytes : {1, 2, 4, 8}) {
            for (uint64_t off = kPage - 3; off < kPage; off++) {
                SCOPED_TRACE("bytes=" + std::to_string(bytes) +
                             " off=" + std::to_string(off) +
                             " next_mapped=" + std::to_string(next_mapped));
                base += 2 * kPage;
                sim::Machine m = memoryMachine();
                const uint64_t addr = base + off;
                m.write8(base, 0x5a); // map the access's first page
                if (next_mapped)
                    m.write8(base + kPage + 16, 0xa5);

                // A load before the store sees the zero-filled tail of
                // the first page and zeros (or the unwritten part) of
                // the second, whether or not it is mapped.
                EXPECT_EQ(m.read(addr, bytes), 0u);

                m.write(addr, kValue, bytes);
                EXPECT_EQ(m.read(addr, bytes), lowBytes(kValue, bytes));
                for (int i = 0; i < bytes; i++)
                    EXPECT_EQ(m.read8(addr + i),
                              static_cast<uint8_t>(kValue >> (8 * i)))
                        << "byte " << i;
                // Neighbours are untouched.
                EXPECT_EQ(m.read8(addr - 1), 0u);
                EXPECT_EQ(m.read8(addr + bytes), 0u);
                EXPECT_EQ(m.read8(base), 0x5au);
                EXPECT_EQ(m.read8(base + kPage + 16),
                          next_mapped ? 0xa5u : 0u);
            }
        }
    }
}

TEST(SimMemoryTest, PageCrossingLoadsAndStoresThroughTheIsa)
{
    // The interpreter's ld/lw/lh/lb and sd/sw/sh/sb across the end of
    // a data page: the data image is page-aligned, so offsets
    // 4093..4095 of a two-page buffer straddle its first boundary.
    for (int64_t off = kPage - 3; off < static_cast<int64_t>(kPage);
         off++) {
        SCOPED_TRACE("off=" + std::to_string(off));
        EXPECT_EQ(runA0([&](Assembler &as) {
            as.allocData("buf", 2 * kPage);
            as.la(20, "buf");
            as.li(21, static_cast<int64_t>(kValue));
            as.sd(21, 20, off);
            as.ld(10, 20, off);
        }), kValue);
        EXPECT_EQ(runA0([&](Assembler &as) {
            as.allocData("buf", 2 * kPage);
            as.la(20, "buf");
            as.li(21, static_cast<int64_t>(kValue));
            as.sw(21, 20, off);
            as.lw(10, 20, off);
        }), lowBytes(kValue, 4));
        EXPECT_EQ(runA0([&](Assembler &as) {
            as.allocData("buf", 2 * kPage);
            as.la(20, "buf");
            as.li(21, static_cast<int64_t>(kValue));
            as.sh(21, 20, off);
            as.lh(10, 20, off);
        }), lowBytes(kValue, 2));
        EXPECT_EQ(runA0([&](Assembler &as) {
            as.allocData("buf", 2 * kPage);
            as.la(20, "buf");
            as.li(21, static_cast<int64_t>(kValue));
            as.sb(21, 20, off);
            as.lb(10, 20, off);
        }), lowBytes(kValue, 1));
    }
}

TEST(SimMemoryTest, NeverWrittenPagesReadZero)
{
    sim::Machine m = memoryMachine();
    const uint64_t addr = 0x50000000;
    EXPECT_EQ(m.read8(addr), 0u);
    for (const int bytes : {1, 2, 4, 8})
        EXPECT_EQ(m.read(addr + kPage - 2, bytes), 0u) << bytes;
    std::vector<uint8_t> out(3 * kPage, 0xff);
    m.readBytes(addr - 100, out.data(), out.size());
    for (size_t i = 0; i < out.size(); i++)
        ASSERT_EQ(out[i], 0u) << "byte " << i;

    // A read next to a written page mixes its bytes with zeros.
    m.write8(addr + kPage - 1, 0x7e);
    EXPECT_EQ(m.read(addr + kPage - 1, 8), 0x7eu);
    m.readBytes(addr + kPage - 2, out.data(), 4);
    EXPECT_EQ(out[0], 0u);
    EXPECT_EQ(out[1], 0x7eu);
    EXPECT_EQ(out[2], 0u);
    EXPECT_EQ(out[3], 0u);
}

TEST(SimMemoryTest, BulkCopiesSpanPages)
{
    sim::Machine m = memoryMachine();
    std::vector<uint8_t> in(3 * kPage + 123);
    for (size_t i = 0; i < in.size(); i++)
        in[i] = static_cast<uint8_t>(i * 31 + 7);
    const uint64_t addr = 0x60000000 + kPage - 17;
    m.writeBytes(addr, in.data(), in.size());
    std::vector<uint8_t> out(in.size());
    m.readBytes(addr, out.data(), out.size());
    EXPECT_EQ(out, in);
    for (size_t i = 0; i < in.size(); i += 997)
        EXPECT_EQ(m.read8(addr + i), in[i]) << "byte " << i;
    EXPECT_EQ(m.read8(addr - 1), 0u);
    EXPECT_EQ(m.read8(addr + in.size()), 0u);
}

TEST(SimMemoryTest, ResetAfterAliasingPagesRestoresTheImage)
{
    // More pages than page-cache entries, so cache slots alias; reset
    // must drop every page and every cached pointer to one (a stale
    // entry would read freed memory, which the sanitizer legs catch).
    const std::vector<uint64_t> image = {0x1111, 0x2222, 0x3333};
    sim::Machine m = memoryMachine(image);
    const uint64_t data = ir::Program::dataBase;
    for (size_t i = 0; i < image.size(); i++)
        ASSERT_EQ(m.read64(data + 8 * i), image[i]);

    constexpr int kPages = 200;
    const uint64_t base = 0x70000000;
    for (int round = 0; round < 2; round++) {
        SCOPED_TRACE("round " + std::to_string(round));
        m.write64(data, 0xdead);
        for (int p = 0; p < kPages; p++)
            m.write64(base + p * kPage + 8, 0xc0de0000u + p);
        for (int p = 0; p < kPages; p++)
            ASSERT_EQ(m.read64(base + p * kPage + 8), 0xc0de0000u + p);

        m.reset();
        for (size_t i = 0; i < image.size(); i++)
            EXPECT_EQ(m.read64(data + 8 * i), image[i]) << i;
        for (int p = 0; p < kPages; p++) {
            ASSERT_EQ(m.read64(base + p * kPage + 8), 0u) << "page " << p;
            ASSERT_EQ(m.read8(base + p * kPage), 0u) << "page " << p;
        }
        EXPECT_EQ(m.reg(ir::regSp), ir::Program::stackTop);
    }
}

TEST(SimTest, DataImageInitialization)
{
    Assembler as;
    as.allocData("tbl", 16);
    as.setData64("tbl", 0, 123);
    as.setData64("tbl", 1, 456);
    as.beginFunction("main", false);
    as.la(20, "tbl");
    as.ld(10, 20, 0);
    as.ld(11, 20, 8);
    as.add(10, 10, 11);
    as.halt();
    as.endFunction();
    sim::Machine m(as.finalize());
    m.run(100);
    EXPECT_EQ(m.arg(0), 579u);
}

TEST(SimTest, LoopAndBranches)
{
    // Sum 0..9 via forLoop.
    EXPECT_EQ(runA0([](Assembler &as) {
        as.li(10, 0);
        as.forLoop(20, 0, 10, [&] { as.add(10, 10, 20); });
    }), 45u);
}

TEST(SimTest, CallReturn)
{
    Assembler as;
    as.beginFunction("main", false);
    as.li(10, 5);
    as.call("double_it");
    as.call("double_it");
    as.halt();
    as.endFunction();
    as.beginFunction("double_it", true);
    as.add(10, 10, 10);
    as.ret();
    as.endFunction();
    sim::Machine m(as.finalize());
    auto res = m.run(100);
    EXPECT_TRUE(res.halted);
    EXPECT_EQ(m.arg(0), 20u);
}

TEST(SimTest, StackPushPop)
{
    EXPECT_EQ(runA0([](Assembler &as) {
        as.li(20, 77);
        as.push(20);
        as.li(20, 0);
        as.pop(10);
    }), 77u);
}

TEST(SimTest, BranchProbeSeesLoop)
{
    Assembler as;
    as.beginFunction("main", true);
    as.forLoop(20, 0, 4, [&] { as.nop(); });
    as.halt();
    as.endFunction();
    ir::Program prog = as.finalize();

    sim::Machine m(prog);
    std::vector<std::pair<uint64_t, uint64_t>> seen;
    m.branchProbe = [&](uint64_t pc, uint64_t target, const ir::Inst &) {
        seen.emplace_back(pc, target);
    };
    m.run(1000);
    // One static branch, 4 executions: 3 taken + 1 fall-through.
    ASSERT_EQ(seen.size(), 4u);
    uint64_t branch_pc = seen[0].first;
    for (auto &[pc, target] : seen)
        EXPECT_EQ(pc, branch_pc);
    EXPECT_NE(seen[0].second, seen[3].second);
    EXPECT_EQ(seen[3].second, branch_pc + ir::instBytes);
}

TEST(SimTest, ObservationRecording)
{
    Assembler as;
    as.allocData("buf", 8);
    as.beginFunction("main", true);
    as.la(20, "buf");
    as.li(21, 9);
    as.sd(21, 20, 0);
    as.ld(22, 20, 0);
    as.halt();
    as.endFunction();
    sim::Machine m(as.finalize());
    m.recordObservations = true;
    m.run(100);
    ASSERT_EQ(m.observations.size(), 2u);
    EXPECT_EQ(m.observations[0].kind, sim::ObsKind::Store);
    EXPECT_EQ(m.observations[1].kind, sim::ObsKind::Load);
    EXPECT_EQ(m.observations[0].value, m.observations[1].value);
    EXPECT_TRUE(m.observations[0].crypto);
}

TEST(AsmTest, Errors)
{
    Assembler as;
    as.beginFunction("main", false);
    as.j("nowhere");
    as.halt();
    as.endFunction();
    EXPECT_THROW(as.finalize(), casm::AsmError);

    Assembler as2;
    EXPECT_THROW(as2.endFunction(), casm::AsmError);

    Assembler as3;
    as3.label("dup");
    EXPECT_THROW(as3.label("dup"), casm::AsmError);

    Assembler as4;
    as4.allocData("d", 8);
    EXPECT_THROW(as4.allocData("d", 8), casm::AsmError);
    EXPECT_THROW(as4.dataAddr("other"), casm::AsmError);
}

TEST(AsmTest, ScratchPool)
{
    Assembler as;
    std::vector<ir::RegId> got;
    for (int i = 0; i < 45; i++)
        got.push_back(as.temp());
    EXPECT_THROW(as.temp(), casm::AsmError);
    as.release(got.back());
    EXPECT_EQ(as.temp(), got.back());
}

TEST(SimTest, RunawayCapReported)
{
    Assembler as;
    as.beginFunction("main", false);
    as.label("spin");
    as.j("spin");
    as.endFunction();
    sim::Machine m(as.finalize());
    auto res = m.run(1000);
    EXPECT_FALSE(res.halted);
    EXPECT_EQ(res.instCount, 1000u);
}

} // namespace
