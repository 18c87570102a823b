/**
 * @file
 * Tests for the trace pipeline: run-length encoding, DNA encoding and
 * the k-mers compression of Algorithm 1, including the paper's worked
 * examples and property-based round-trip checks.
 */

#include <gtest/gtest.h>

#include <random>

#include "core/branch_trace.hh"
#include "core/dna.hh"
#include "core/kmers.hh"

namespace {

using namespace cassandra;
using core::DnaEncoding;
using core::KmersResult;
using core::RawTrace;
using core::RunElement;
using core::VanillaTrace;

TEST(VanillaTest, PaperLoopExample)
{
    // BR0 with loop count 4: PC1 PC1 PC1 PC1 PC0 -> PC1x4 . PC0x1.
    RawTrace raw = {0x100, 0x100, 0x100, 0x100, 0x200};
    VanillaTrace v = core::toVanilla(raw);
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v[0], (RunElement{0x100, 4}));
    EXPECT_EQ(v[1], (RunElement{0x200, 1}));
    EXPECT_EQ(core::vanillaDynamicCount(v), 5u);
}

TEST(VanillaTest, RoundTrip)
{
    RawTrace raw = {1, 1, 2, 3, 3, 3, 1, 2, 2};
    EXPECT_EQ(core::expandVanilla(core::toVanilla(raw)), raw);
}

TEST(DnaTest, PaperBr1Example)
{
    // PC0x2 . PC1x5 . PC0x2 . PC1x5 . PC2x3 -> ACACG.
    VanillaTrace v = {{0x10, 2}, {0x20, 5}, {0x10, 2}, {0x20, 5},
                      {0x30, 3}};
    DnaEncoding dna = core::encodeDna(v);
    EXPECT_EQ(dna.toString(), "ACACG");
    EXPECT_EQ(dna.alphabetSize(), 3u);
    EXPECT_EQ(dna.decode(), v);
}

TEST(DnaTest, SameTargetDifferentCountIsDifferentLetter)
{
    VanillaTrace v = {{0x10, 2}, {0x20, 1}, {0x10, 3}};
    DnaEncoding dna = core::encodeDna(v);
    EXPECT_EQ(dna.alphabetSize(), 3u);
}

TEST(KmersTest, PaperBr1Compression)
{
    // ACACG compresses to p0 x 2 . p1 x 1 with p0 = AC, p1 = G.
    VanillaTrace v = {{0x10, 2}, {0x20, 5}, {0x10, 2}, {0x20, 5},
                      {0x30, 3}};
    KmersResult k = core::compressKmers(core::encodeDna(v));
    EXPECT_EQ(k.traceToString(), "p0 x 2 . p1 x 1");
    EXPECT_EQ(k.traceSize(), 2u);
    EXPECT_EQ(k.patternSetSize(), 3u); // AC expands to 2 + G to 1
    EXPECT_EQ(k.totalSize(), 5u);
    EXPECT_EQ(k.expand(), v);
}

TEST(KmersTest, LoopTraceIsTiny)
{
    // A deep loop: (PC1 x 100 . PC0 x 1) repeated 50 times.
    VanillaTrace v;
    for (int i = 0; i < 50; i++) {
        v.push_back({0x100, 100});
        v.push_back({0x200, 1});
    }
    KmersResult k = core::compressKmers(core::encodeDna(v));
    EXPECT_LE(k.totalSize(), 4u);
    EXPECT_EQ(k.expand(), v);
}

TEST(KmersTest, IncompressibleSequenceStays)
{
    // All-distinct letters cannot compress.
    VanillaTrace v;
    for (int i = 0; i < 10; i++)
        v.push_back({0x100 + 16u * i, static_cast<uint64_t>(1 + i)});
    KmersResult k = core::compressKmers(core::encodeDna(v));
    EXPECT_EQ(k.seq.size(), 10u);
    EXPECT_EQ(k.expand(), v);
}

TEST(KmersTest, NestedPatternsExpandCorrectly)
{
    // ABABCD ABABCD ... creates nested patterns ((AB)(AB)CD).
    VanillaTrace v;
    for (int rep = 0; rep < 8; rep++) {
        v.push_back({0x10, 1});
        v.push_back({0x20, 2});
        v.push_back({0x10, 1});
        v.push_back({0x20, 2});
        v.push_back({0x30, 3});
        v.push_back({0x40, 4});
    }
    KmersResult k = core::compressKmers(core::encodeDna(v));
    EXPECT_LT(k.totalSize(), v.size());
    EXPECT_EQ(k.expand(), v);
}

TEST(KmersTest, MaxKLimitsPatternSize)
{
    // A repeating 24-letter pattern cannot form one pattern with
    // maxK = 16, but sub-patterns still compress; expansion must hold.
    VanillaTrace v;
    for (int rep = 0; rep < 6; rep++) {
        for (int i = 0; i < 24; i++)
            v.push_back({0x100 + 16u * i, 1});
    }
    core::KmersParams params;
    params.maxK = 16;
    KmersResult k = core::compressKmers(core::encodeDna(v), params);
    EXPECT_EQ(k.expand(), v);
    for (const auto &sym : k.seq) {
        if (k.isPattern(sym)) {
            EXPECT_LE(k.expandSymbol(sym).size(), 16u);
        }
    }
}

/** Property: expansion always reproduces the vanilla trace. */
class KmersPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(KmersPropertyTest, RoundTripRandomLoopNests)
{
    std::mt19937_64 rng(GetParam());
    // Generate a random loop-nest-like trace: random alternation of a
    // few run elements with occasional noise, mimicking crypto control
    // flow shapes.
    std::uniform_int_distribution<int> target(1, 6);
    std::uniform_int_distribution<int> count(1, 300);
    std::uniform_int_distribution<int> shape(0, 2);

    VanillaTrace v;
    int body = 1 + static_cast<int>(rng() % 5);
    std::vector<RunElement> motif;
    for (int i = 0; i < body; i++) {
        motif.push_back({0x1000 + 16u * target(rng),
                         static_cast<uint64_t>(count(rng))});
    }
    int reps = 2 + static_cast<int>(rng() % 40);
    for (int r = 0; r < reps; r++) {
        for (auto e : motif)
            v.push_back(e);
        if (shape(rng) == 0) {
            v.push_back({0x9000 + 16u * target(rng),
                         static_cast<uint64_t>(count(rng))});
        }
    }
    // Normalize: adjacent duplicates merge in RLE form.
    v = core::toVanilla(core::expandVanilla(v));

    KmersResult k = core::compressKmers(core::encodeDna(v));
    EXPECT_EQ(k.expand(), v) << "seed " << GetParam();
    // The k-mers metric (trace + pattern set) can exceed the vanilla
    // size on short noisy traces; it must stay within a small factor.
    EXPECT_LE(k.totalSize(), 2 * v.size() + 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KmersPropertyTest,
                         ::testing::Range(0, 40));

} // namespace
