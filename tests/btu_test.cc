/**
 * @file
 * Unit tests for the Branch Trace Unit: fetch/commit flows, replay
 * wrap-around (End of Trace), checkpoint save/restore across evictions
 * and flushes, squash rewinds and single-target handling.
 */

#include <gtest/gtest.h>

#include "btu/btu.hh"
#include "core/dna.hh"
#include "core/kmers.hh"
#include "core/trace_format.hh"

namespace {

using namespace cassandra;
using btu::Btu;
using core::VanillaTrace;

core::BranchTrace
makeTrace(uint64_t pc, const VanillaTrace &v)
{
    return core::encodeBranchTrace(pc,
                                   core::compressKmers(core::encodeDna(v)));
}

/** A loop branch: taken `trip - 1` times, then falls through, repeated. */
VanillaTrace
loopTrace(uint64_t pc, uint64_t taken_target, int trip, int instances)
{
    VanillaTrace v;
    for (int i = 0; i < instances; i++) {
        v.push_back({taken_target, static_cast<uint64_t>(trip - 1)});
        v.push_back({pc + ir::instBytes, 1});
    }
    return core::toVanilla(core::expandVanilla(v));
}

class BtuTest : public ::testing::Test
{
  protected:
    core::TraceImage image;
    uint64_t loopPc = 0x10100;
    uint64_t target = 0x10080;

    void
    addLoop(int trip, int instances)
    {
        image.add(makeTrace(loopPc, loopTrace(loopPc, target, trip,
                                              instances)));
    }
};

TEST_F(BtuTest, ReplaysExactSequentialTargets)
{
    addLoop(4, 3);
    Btu btu(image);
    // Expected per instance: taken x3, fall-through x1.
    for (int inst = 0; inst < 3; inst++) {
        for (int i = 0; i < 3; i++) {
            auto r = btu.fetchLookup(loopPc);
            EXPECT_EQ(r.target, target);
            btu.commitBranch(loopPc);
        }
        auto r = btu.fetchLookup(loopPc);
        EXPECT_EQ(r.target, loopPc + ir::instBytes);
        btu.commitBranch(loopPc);
    }
}

TEST_F(BtuTest, EndOfTraceWrapsAround)
{
    addLoop(4, 1); // trace covers one instance; EoT restarts it
    Btu btu(image);
    for (int inst = 0; inst < 5; inst++) {
        for (int i = 0; i < 3; i++) {
            auto r = btu.fetchLookup(loopPc);
            EXPECT_EQ(r.target, target) << "instance " << inst;
            btu.commitBranch(loopPc);
        }
        auto r = btu.fetchLookup(loopPc);
        EXPECT_EQ(r.target, loopPc + ir::instBytes);
        btu.commitBranch(loopPc);
    }
}

TEST_F(BtuTest, FirstLookupMissesThenHits)
{
    addLoop(4, 2);
    Btu btu(image);
    auto r1 = btu.fetchLookup(loopPc);
    EXPECT_EQ(r1.outcome, Btu::Outcome::MissFill);
    btu.commitBranch(loopPc);
    auto r2 = btu.fetchLookup(loopPc);
    EXPECT_EQ(r2.outcome, Btu::Outcome::Hit);
    EXPECT_EQ(btu.stats().misses, 1u);
    EXPECT_EQ(btu.stats().hits, 1u);
}

TEST_F(BtuTest, SingleTargetUsesNoEntry)
{
    image.add(core::makeSingleTarget(0x10200, 0x10300));
    Btu btu(image);
    auto r = btu.fetchLookup(0x10200);
    EXPECT_EQ(r.outcome, Btu::Outcome::SingleTarget);
    EXPECT_EQ(r.target, 0x10300u);
    EXPECT_EQ(btu.stats().misses, 0u);
    btu.commitBranch(0x10200); // must be harmless
}

TEST_F(BtuTest, InputDependentStalls)
{
    image.add(core::makeInputDependent(0x10200));
    Btu btu(image);
    auto r = btu.fetchLookup(0x10200);
    EXPECT_EQ(r.outcome, Btu::Outcome::StallResolve);
    EXPECT_EQ(btu.stats().stallResolve, 1u);
}

TEST_F(BtuTest, UnknownBranchStalls)
{
    Btu btu(image);
    auto r = btu.fetchLookup(0x19999 & ~3ull);
    EXPECT_EQ(r.outcome, Btu::Outcome::StallResolve);
}

TEST_F(BtuTest, CheckpointAcrossEviction)
{
    addLoop(4, 100);
    // A second branch that will conflict in a 1-entry BTU.
    uint64_t pc2 = 0x10200;
    image.add(makeTrace(pc2, loopTrace(pc2, 0x10180, 3, 100)));

    btu::BtuParams params;
    params.sets = 1;
    params.ways = 1;
    Btu btu(image, params);

    // Consume half an instance of the loop (2 of 3 taken).
    for (int i = 0; i < 2; i++) {
        auto r = btu.fetchLookup(loopPc);
        EXPECT_EQ(r.target, target);
        btu.commitBranch(loopPc);
    }
    // Touch the other branch: evicts the loop entry, checkpoints it.
    btu.fetchLookup(pc2);
    btu.commitBranch(pc2);
    EXPECT_GE(btu.stats().evictions, 1u);

    // The loop branch must resume exactly where it left off: one more
    // taken, then the fall-through.
    auto r = btu.fetchLookup(loopPc);
    EXPECT_EQ(r.target, target);
    btu.commitBranch(loopPc);
    r = btu.fetchLookup(loopPc);
    EXPECT_EQ(r.target, loopPc + ir::instBytes);
    EXPECT_GE(btu.stats().checkpointRestores, 1u);
}

TEST_F(BtuTest, FlushCheckpointsAndResumes)
{
    addLoop(5, 10);
    Btu btu(image);
    for (int i = 0; i < 3; i++) {
        auto r = btu.fetchLookup(loopPc);
        EXPECT_EQ(r.target, target);
        btu.commitBranch(loopPc);
    }
    btu.flush(); // context switch (paper Q4)
    auto r = btu.fetchLookup(loopPc);
    EXPECT_EQ(r.outcome, Btu::Outcome::MissFill);
    EXPECT_EQ(r.target, target); // 4th taken of 4
    btu.commitBranch(loopPc);
    r = btu.fetchLookup(loopPc);
    EXPECT_EQ(r.target, loopPc + ir::instBytes);
}

TEST_F(BtuTest, SquashRewindRestoresFetchCursor)
{
    addLoop(4, 10);
    Btu btu(image);
    // Fetch 3 speculative executions, commit only 1.
    auto r1 = btu.fetchLookup(loopPc);
    auto r2 = btu.fetchLookup(loopPc);
    auto r3 = btu.fetchLookup(loopPc);
    EXPECT_EQ(r1.target, target);
    EXPECT_EQ(r2.target, target);
    EXPECT_EQ(r3.target, target);
    btu.commitBranch(loopPc);

    // Squash kills the two uncommitted fetches.
    btu.rewindFetch([](uint64_t) { return 0; });

    // Fetch replays executions 2, 3, 4 (taken, taken, fall-through).
    EXPECT_EQ(btu.fetchLookup(loopPc).target, target);
    btu.commitBranch(loopPc);
    EXPECT_EQ(btu.fetchLookup(loopPc).target, target);
    btu.commitBranch(loopPc);
    EXPECT_EQ(btu.fetchLookup(loopPc).target, loopPc + ir::instBytes);
}

TEST_F(BtuTest, SquashRewindKeepsInFlight)
{
    addLoop(4, 10);
    Btu btu(image);
    btu.fetchLookup(loopPc);
    btu.fetchLookup(loopPc);
    // Squash younger ops but this branch keeps 2 in flight.
    btu.rewindFetch([&](uint64_t pc) { return pc == loopPc ? 2u : 0u; });
    // Next fetch must be execution #3: the last taken one.
    EXPECT_EQ(btu.fetchLookup(loopPc).target, target);
    btu.commitBranch(loopPc);
    btu.commitBranch(loopPc);
    btu.commitBranch(loopPc);
    EXPECT_EQ(btu.fetchLookup(loopPc).target, loopPc + ir::instBytes);
}

TEST_F(BtuTest, LongTracePrefetches)
{
    // 40 distinct-count instances produce > 16 trace elements.
    VanillaTrace v;
    for (int i = 0; i < 40; i++) {
        v.push_back({target, static_cast<uint64_t>(2 + (i % 5))});
        v.push_back({loopPc + ir::instBytes, 1});
    }
    v = core::toVanilla(core::expandVanilla(v));
    auto bt = makeTrace(loopPc, v);
    ASSERT_TRUE(bt.hasTrace());
    image.add(bt);
    Btu btu(image);

    // Replay the whole trace and verify every redirect.
    auto expect = core::expandVanilla(v);
    for (uint64_t t : expect) {
        auto r = btu.fetchLookup(loopPc);
        ASSERT_NE(r.outcome, Btu::Outcome::StallResolve);
        EXPECT_EQ(r.target, t);
        btu.commitBranch(loopPc);
    }
    if (!bt.shortTrace) {
        EXPECT_GT(btu.stats().prefetches, 0u);
    }
}

} // namespace
