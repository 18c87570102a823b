/**
 * @file
 * Tests for the hardware trace encoding (Figure 4): field-width
 * splitting, pattern-set superstring merging, storage accounting and
 * round-trip expansion.
 */

#include <gtest/gtest.h>

#include <random>

#include "core/trace_format.hh"
#include "core/trace_image.hh"

namespace {

using namespace cassandra;
using core::BranchTrace;
using core::KmersResult;
using core::RunElement;
using core::TraceLimits;
using core::VanillaTrace;

BranchTrace
encodeVanilla(uint64_t branch_pc, const VanillaTrace &v)
{
    return core::encodeBranchTrace(branch_pc,
                                   core::compressKmers(core::encodeDna(v)));
}

TEST(TraceFormatTest, SimpleLoopEncoding)
{
    uint64_t pc = 0x10100;
    VanillaTrace v = {{0x10080, 4}, {pc + 4, 1}};
    BranchTrace bt = encodeVanilla(pc, v);
    ASSERT_TRUE(bt.hasTrace());
    EXPECT_TRUE(bt.shortTrace);
    EXPECT_LE(bt.patternSet.size(), 2u);
    EXPECT_EQ(bt.expand(), v);
}

TEST(TraceFormatTest, RepetitionSplitting)
{
    // The paper's delta x 300 -> delta x 255 . delta x 45 rule.
    uint64_t pc = 0x10100;
    VanillaTrace v = {{0x10080, 300}, {pc + 4, 1}};
    BranchTrace bt = encodeVanilla(pc, v);
    ASSERT_TRUE(bt.hasTrace());
    for (const auto &pe : bt.patternSet)
        EXPECT_LE(pe.repetitions, TraceLimits::maxRepetitions);
    EXPECT_EQ(bt.expand(), v);
}

TEST(TraceFormatTest, TraceCounterSplitting)
{
    // 1000 passes of a one-element pattern exceed the 8-bit trace
    // counter and must be duplicated across elements.
    uint64_t pc = 0x10100;
    VanillaTrace v;
    for (int i = 0; i < 1000; i++) {
        v.push_back({0x10080, 3});
        v.push_back({pc + 4, 1});
    }
    BranchTrace bt = encodeVanilla(pc, v);
    ASSERT_TRUE(bt.hasTrace());
    for (const auto &el : bt.elements)
        EXPECT_LE(el.traceCounter, TraceLimits::maxTraceCounter);
    EXPECT_EQ(bt.expand(), v);
}

TEST(TraceFormatTest, OffsetOverflowRejected)
{
    uint64_t pc = 0x10100;
    VanillaTrace v = {{pc + 5000 * ir::instBytes, 2}, {pc + 4, 1},
                      {pc + 5000 * ir::instBytes, 2}, {pc + 4, 1}};
    BranchTrace bt = encodeVanilla(pc, v);
    EXPECT_FALSE(bt.hasTrace());
    EXPECT_EQ(bt.rejection, core::TraceRejection::OffsetOverflow);
}

TEST(TraceFormatTest, SingleTargetAndInputDependent)
{
    auto st = core::makeSingleTarget(0x10100, 0x10200);
    EXPECT_TRUE(st.singleTarget);
    EXPECT_EQ(st.storageBits(), 0u);

    auto id = core::makeInputDependent(0x10100);
    EXPECT_FALSE(id.hasTrace());
    EXPECT_EQ(id.rejection, core::TraceRejection::InputDependent);
}

TEST(TraceFormatTest, StorageBitsAccounting)
{
    uint64_t pc = 0x10100;
    VanillaTrace v = {{0x10080, 4}, {pc + 4, 1}};
    BranchTrace bt = encodeVanilla(pc, v);
    size_t expect = bt.patternSet.size() * TraceLimits::patternElementBits +
        bt.elements.size() * TraceLimits::traceElementBits;
    EXPECT_EQ(bt.storageBits(), expect);
}

TEST(TraceFormatTest, BtuStorageMatchesPaper)
{
    // 16 entries x 16 elements x (20 + 32) bits + 16 x 60 bits
    // = 14,272 bits = 1.74 KiB (Table 3).
    size_t bits = 16 * 16 *
            (TraceLimits::patternElementBits +
             TraceLimits::traceElementBits) +
        16 * TraceLimits::checkpointElementBits;
    EXPECT_EQ(bits, 14272u);
    EXPECT_NEAR(bits / 8.0 / 1024.0, 1.74, 0.01);
}

TEST(TraceFormatTest, RoundTripRandomTraces)
{
    std::mt19937_64 rng(7);
    for (int trial = 0; trial < 50; trial++) {
        uint64_t pc = 0x10400;
        std::vector<RunElement> motif;
        int body = 1 + static_cast<int>(rng() % 3);
        for (int i = 0; i < body; i++) {
            motif.push_back({pc + 16 * (1 + rng() % 64),
                             1 + rng() % 400});
        }
        VanillaTrace v;
        int reps = 1 + static_cast<int>(rng() % 30);
        for (int r = 0; r < reps; r++)
            for (auto e : motif)
                v.push_back(e);
        v.push_back({pc + 4, 1});
        v = core::toVanilla(core::expandVanilla(v));

        BranchTrace bt = encodeVanilla(pc, v);
        if (bt.hasTrace()) {
            EXPECT_EQ(bt.expand(), v) << "trial " << trial;
        }
    }
}

TEST(TraceImageTest, HintsAndTraces)
{
    core::TraceImage image;
    image.add(core::makeSingleTarget(0x10100, 0x10200));

    uint64_t pc = 0x10300;
    VanillaTrace v = {{0x10280, 4}, {pc + 4, 1}};
    image.add(encodeVanilla(pc, v));

    EXPECT_TRUE(image.known(0x10100));
    EXPECT_TRUE(image.known(pc));
    EXPECT_FALSE(image.known(0x10104));

    ASSERT_NE(image.hint(0x10100), nullptr);
    EXPECT_TRUE(image.hint(0x10100)->singleTarget);
    EXPECT_EQ(image.hint(0x10100)->targetPc, 0x10200u);
    EXPECT_EQ(image.trace(0x10100), nullptr); // no pages for hints

    ASSERT_NE(image.trace(pc), nullptr);
    EXPECT_GT(image.traceBytes(), 0u);
    EXPECT_EQ(image.hintBits(), 2u * TraceLimits::hintBitsPerBranch);
}

} // namespace
