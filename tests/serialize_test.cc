/**
 * @file
 * Round-trip and size-accounting tests for the bit-exact trace-page
 * serialization (the wire format Algorithm 2 embeds in binaries), and
 * version/fingerprint guarding of AnalyzedWorkload snapshot files
 * (outdated containers — CASSAW3 snapshots and streams in the retired
 * revision-1 container included — raise typed errors so caches evict
 * them).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>

#include "bench/bench_util.hh"
#include "core/serialize.hh"
#include "crypto/workload_registry.hh"
#include "tests/trace_test_util.hh"

namespace {

using namespace cassandra;
using core::AnalyzedWorkload;
using core::AnalyzeOptions;
using core::BranchTrace;
using core::Simulation;
using core::TraceMode;
using core::VanillaTrace;

BranchTrace
encodeVanilla(uint64_t pc, const VanillaTrace &v)
{
    return core::encodeBranchTrace(pc,
                                   core::compressKmers(core::encodeDna(v)));
}

TEST(SerializeTest, RoundTripSimpleLoop)
{
    uint64_t pc = 0x10100;
    VanillaTrace v = {{0x10080, 4}, {pc + 4, 1}};
    BranchTrace bt = encodeVanilla(pc, v);
    auto bytes = core::packTrace(bt);
    EXPECT_EQ(bytes.size(), core::packedTraceBytes(bt));
    BranchTrace back = core::unpackTrace(bytes, pc);
    ASSERT_EQ(back.patternSet.size(), bt.patternSet.size());
    ASSERT_EQ(back.elements.size(), bt.elements.size());
    EXPECT_EQ(back.shortTrace, bt.shortTrace);
    EXPECT_EQ(back.expand(), bt.expand());
}

TEST(SerializeTest, NegativeOffsetsSurvive)
{
    uint64_t pc = 0x10400;
    VanillaTrace v = {{pc - 400, 3}, {pc + 4, 1}, {pc - 400, 3},
                      {pc + 4, 1}};
    BranchTrace bt = encodeVanilla(pc, v);
    ASSERT_TRUE(bt.hasTrace());
    BranchTrace back = core::unpackTrace(core::packTrace(bt), pc);
    EXPECT_EQ(back.expand(), bt.expand());
}

TEST(SerializeTest, RoundTripRandomTraces)
{
    std::mt19937_64 rng(11);
    for (int trial = 0; trial < 60; trial++) {
        uint64_t pc = 0x10800;
        VanillaTrace v;
        int motif = 1 + static_cast<int>(rng() % 4);
        std::vector<core::RunElement> m;
        for (int i = 0; i < motif; i++) {
            m.push_back({pc - 16 * (1 + rng() % 100),
                         1 + rng() % 300});
        }
        int reps = 1 + static_cast<int>(rng() % 20);
        for (int r = 0; r < reps; r++)
            for (auto e : m)
                v.push_back(e);
        v.push_back({pc + 4, 1});
        v = core::toVanilla(core::expandVanilla(v));
        BranchTrace bt = encodeVanilla(pc, v);
        if (!bt.hasTrace())
            continue;
        BranchTrace back = core::unpackTrace(core::packTrace(bt), pc);
        EXPECT_EQ(back.expand(), bt.expand()) << "trial " << trial;
        EXPECT_EQ(core::packTrace(back), core::packTrace(bt));
    }
}

TEST(SerializeTest, HintWordPacksSingleTarget)
{
    core::HintInfo hint;
    hint.singleTarget = true;
    hint.targetPc = 0x10200;
    uint16_t word = core::packHint(hint, 0x10100);
    EXPECT_TRUE(word & (1u << 13));
    // 0x100 bytes = 64 instructions forward.
    EXPECT_EQ(word & 0xfff, 64u);
}

TEST(SerializeTest, HintWordPacksTraceOffset)
{
    core::HintInfo hint;
    hint.shortTrace = true;
    hint.traceOffset = 0x123;
    uint16_t word = core::packHint(hint, 0x10100);
    EXPECT_FALSE(word & (1u << 13));
    EXPECT_TRUE(word & (1u << 12));
    EXPECT_EQ(word & 0xfff, 0x123u);
}

TEST(SerializeTest, PackedSizeMatchesStorageAccounting)
{
    uint64_t pc = 0x10100;
    VanillaTrace v;
    for (int i = 0; i < 20; i++) {
        v.push_back({0x10080, static_cast<uint64_t>(2 + i % 3)});
        v.push_back({pc + 4, 1});
    }
    v = core::toVanilla(core::expandVanilla(v));
    BranchTrace bt = encodeVanilla(pc, v);
    // Header is 20 bits; payload must match storageBits exactly.
    size_t expect = (20 + bt.storageBits() + 7) / 8;
    EXPECT_EQ(core::packedTraceBytes(bt), expect);
}

// ---------------------------------------------------------------------
// Artifact container versioning (eviction instead of silent drift)
// ---------------------------------------------------------------------

TEST(ArtifactVersionTest, OutdatedContainerVersionIsTyped)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto artifact = AnalyzedWorkload::analyze(resolver("ChaCha20_ct"));
    auto bytes = core::packAnalyzedWorkload(*artifact);

    // A v1-era snapshot: same "CASSAW" family, older version byte.
    std::vector<uint8_t> old_magic = bytes;
    old_magic[6] = '1';
    EXPECT_THROW(core::unpackAnalyzedWorkload(old_magic, resolver),
                 core::ArtifactFormatError);

    // Bump the explicit format version field behind the magic.
    std::vector<uint8_t> old_version = bytes;
    old_version[8] = static_cast<uint8_t>(core::artifactFormatVersion +
                                          1);
    EXPECT_THROW(core::unpackAnalyzedWorkload(old_version, resolver),
                 core::ArtifactFormatError);

    // Arbitrary non-artifact bytes are a format error too.
    std::vector<uint8_t> garbage(64, 0x5a);
    EXPECT_THROW(core::unpackAnalyzedWorkload(garbage, resolver),
                 core::ArtifactFormatError);
}

TEST(ArtifactVersionTest, FingerprintMismatchIsTyped)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto artifact = AnalyzedWorkload::analyze(resolver("ChaCha20_ct"));
    auto bytes = core::packAnalyzedWorkload(*artifact);
    auto wrong = [&](const std::string &) { return resolver("SHAKE"); };
    EXPECT_THROW(core::unpackAnalyzedWorkload(bytes, wrong),
                 core::ArtifactStaleError);
}

// ---------------------------------------------------------------------
// Stream-aware snapshots: embed the trace stream file, load back into
// stream mode, never materialize the op vector.
// ---------------------------------------------------------------------

AnalyzedWorkload::Ptr
streamedArtifact(const char *name, const std::string &dir)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    AnalyzeOptions opts;
    opts.traceMode = TraceMode::Stream;
    opts.streamDir = dir;
    return AnalyzedWorkload::analyze(resolver(name), opts);
}

std::vector<uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

TEST(StreamSnapshotTest, RoundTripsWithoutMaterializingOps)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    const std::string dir = test::scratchPath("snap-stream");
    auto artifact = streamedArtifact("ChaCha20_ct", dir);
    const std::string path = dir + "/chacha20.aw";

    const core::SnapshotIoStats before = core::snapshotIoStats();
    core::saveAnalyzedWorkload(*artifact, path, "ChaCha20_ct");
    auto reloaded = core::loadAnalyzedWorkload(path, resolver);
    const core::SnapshotIoStats after = core::snapshotIoStats();

    // The "never materializes" bar, observable via counters: a
    // streamed round trip moves stream bytes, zero inline ops.
    EXPECT_EQ(after.inlineOpsWritten, before.inlineOpsWritten);
    EXPECT_EQ(after.inlineOpsRead, before.inlineOpsRead);
    EXPECT_GT(after.streamBytesCopied, before.streamBytesCopied);

    // Rehydrated straight into stream mode, not whole mode.
    ASSERT_TRUE(reloaded->streamed());
    EXPECT_EQ(reloaded->numOps(), artifact->numOps());
    // ... on its own file (artifacts own + delete their streams).
    EXPECT_NE(reloaded->streamPath(), artifact->streamPath());

    // Identical timing results through the reloaded artifact.
    auto want = Simulation(artifact).run(uarch::Scheme::Cassandra);
    auto got = Simulation(reloaded).run(uarch::Scheme::Cassandra);
    EXPECT_EQ(got.stats.cycles, want.stats.cycles);
    EXPECT_EQ(got.stats.instructions, want.stats.instructions);
}

TEST(StreamSnapshotTest, SnapshotsAreMuchSmallerThanRawOps)
{
    const std::string dir = test::scratchPath("snap-size");
    auto artifact = streamedArtifact("ChaCha20_ct", dir);
    core::saveAnalyzedWorkload(*artifact, dir + "/stream.aw",
                               "ChaCha20_ct");
    // The bar is >= 2x below 24 B/op for the whole snapshot.
    EXPECT_LT(readBytes(dir + "/stream.aw").size() * 2,
              artifact->numOps() * core::traceStreamOpBytes);
}

TEST(StreamSnapshotTest, EmbeddedRevisionOneStreamIsRejected)
{
    // A streamed snapshot whose embedded stream is in the retired
    // raw-frame container must fail with the typed eviction error.
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    const std::string dir = test::scratchPath("snap-revision1");
    auto artifact = streamedArtifact("ChaCha20_ct", dir);
    auto bytes = core::packAnalyzedWorkload(*artifact, "ChaCha20_ct");

    // Layout: prefix(16) | meta(metaLen) | u8 storage | u64 numOps |
    // u64 blobLen | blob.
    uint32_t meta_len = 0;
    for (int i = 0; i < 4; i++)
        meta_len |= static_cast<uint32_t>(bytes[12 + i]) << (8 * i);
    const size_t blob_at = 16 + meta_len + 1 + 8 + 8;
    ASSERT_LT(blob_at, bytes.size());
    const core::Workload w = resolver("ChaCha20_ct");
    const std::vector<uint8_t> blob = test::casstf1Bytes(
        core::programFingerprint(w.program), uarch::recordTrace(w, 2),
        core::traceStreamDefaultFrameOps);
    bytes.resize(blob_at);
    for (int i = 0; i < 8; i++)
        bytes[blob_at - 8 + i] =
            static_cast<uint8_t>(uint64_t(blob.size()) >> (8 * i));
    bytes.insert(bytes.end(), blob.begin(), blob.end());

    EXPECT_THROW(core::unpackAnalyzedWorkload(bytes, resolver, dir),
                 core::ArtifactFormatError);
    const std::string path = dir + "/revision1.aw";
    writeBytes(path, bytes);
    EXPECT_THROW(core::loadAnalyzedWorkload(path, resolver, dir),
                 core::ArtifactFormatError);
}

TEST(StreamSnapshotTest, PackBytesRoundTripStreamed)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    const std::string dir = test::scratchPath("snap-bytes");
    auto artifact = streamedArtifact("ChaCha20_ct", dir);
    auto bytes = core::packAnalyzedWorkload(*artifact, "ChaCha20_ct");
    auto reloaded = core::unpackAnalyzedWorkload(bytes, resolver);
    ASSERT_TRUE(reloaded->streamed());
    EXPECT_EQ(reloaded->numOps(), artifact->numOps());
    auto src = reloaded->openOpSource();
    uint64_t seen = 0;
    while (src->next())
        seen++;
    EXPECT_EQ(seen, artifact->numOps());
}

TEST(StreamSnapshotTest, CorruptEmbeddedStreamIsRejectedOnLoad)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    const std::string dir = test::scratchPath("snap-corrupt");
    auto artifact = streamedArtifact("ChaCha20_ct", dir);
    const std::string path = dir + "/corrupt.aw";
    core::saveAnalyzedWorkload(*artifact, path, "ChaCha20_ct");

    // Flip a byte inside the embedded stream's magic: the load must
    // reject the snapshot via the stream's own validation, not hand
    // back a silently-broken artifact.
    std::vector<uint8_t> bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    }
    const char needle[] = "CASSTF";
    auto it = std::search(bytes.begin(), bytes.end(), needle,
                          needle + 6);
    ASSERT_NE(it, bytes.end());
    *it ^= 0xff;
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_THROW(core::loadAnalyzedWorkload(path, resolver),
                 core::ArtifactFormatError);

    // Truncating the embedded stream is caught too.
    std::vector<uint8_t> cut(bytes.begin(), bytes.end() - 64);
    const std::string cut_path = dir + "/cut.aw";
    {
        std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(cut.data()),
                  static_cast<std::streamsize>(cut.size()));
    }
    EXPECT_THROW(core::loadAnalyzedWorkload(cut_path, resolver),
                 std::invalid_argument);
}

TEST(StreamSnapshotTest, ImageSurvivesStreamedSnapshot)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    const std::string dir = test::scratchPath("snap-image");
    auto artifact = streamedArtifact("ChaCha20_ct", dir);
    (void)artifact->traces(); // run Algorithm 2 so it snapshots
    const std::string path = dir + "/image.aw";
    core::saveAnalyzedWorkload(*artifact, path, "ChaCha20_ct");

    const auto before = AnalyzedWorkload::analysisPhaseRuns();
    auto reloaded = core::loadAnalyzedWorkload(path, resolver);
    ASSERT_TRUE(reloaded->streamed());
    ASSERT_TRUE(reloaded->hasTraceImage());
    EXPECT_EQ(reloaded->traces().image.numBranches(),
              artifact->traces().image.numBranches());
    // Adopted verbatim: no Algorithm 2 re-run on load or access.
    EXPECT_EQ(AnalyzedWorkload::analysisPhaseRuns().traceImage,
              before.traceImage);
}

TEST(ArtifactVersionTest, WholeSnapshotsAreFrameCompressed)
{
    // CASSAW4: whole-mode snapshots store their inline ops as CASSTF2
    // codec frames. The dynamic instruction stream is overwhelmingly
    // sequential, so the inline section must beat the historical raw
    // 24 B/op layout by at least 4x.
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto artifact = AnalyzedWorkload::analyze(resolver("ChaCha20_ct"));
    auto bytes = core::packAnalyzedWorkload(*artifact, "ChaCha20_ct");
    EXPECT_LT(bytes.size() * 4, artifact->numOps() * 24)
        << artifact->numOps() << " ops in " << bytes.size()
        << " snapshot bytes";

    // And it still round-trips into identical timing results.
    auto reloaded = core::unpackAnalyzedWorkload(bytes, resolver);
    EXPECT_EQ(reloaded->numOps(), artifact->numOps());
    auto want = Simulation(artifact).run(uarch::Scheme::Cassandra);
    auto got = Simulation(reloaded).run(uarch::Scheme::Cassandra);
    EXPECT_EQ(got.stats.cycles, want.stats.cycles);
}

TEST(ArtifactVersionTest, CorruptInlineFrameIsRejectedOnLoad)
{
    // A whole-mode artifact keeps the inline frames it loads and
    // decodes them only at replay, so each frame must pass the checked
    // decode at load: a corrupt frame fails there, typed.
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto artifact = AnalyzedWorkload::analyze(resolver("DES_ct"));
    auto bytes = core::packAnalyzedWorkload(*artifact, "DES_ct");
    ASSERT_GT(artifact->numOps(), core::traceStreamDefaultFrameOps);

    auto u32at = [&](size_t at) {
        uint32_t v = 0;
        for (int i = 0; i < 4; i++)
            v |= static_cast<uint32_t>(bytes[at + i]) << (8 * i);
        return v;
    };
    // prefix(16) | meta | u8 storage | u64 numOps | u32 frameOps |
    // frames (u8 kind | u32 payloadBytes | payload) ...
    const size_t first = 16 + u32at(12) + 1 + 8 + 4;
    const size_t second = first + 5 + u32at(first + 1);
    ASSERT_LT(second, bytes.size());
    bytes[second] = 0x7f; // neither raw (0) nor delta (1)
    EXPECT_THROW(core::unpackAnalyzedWorkload(bytes, resolver),
                 core::ArtifactFormatError);
}

TEST(ArtifactVersionTest, Cassaw3SnapshotsAreRejectedAndEvicted)
{
    // CASSAW3 stored raw 24 B/op inline ops; readers no longer accept
    // it. Craft one from a CASSAW4 snapshot (the metadata section is
    // layout-identical) plus the artifact's ops.
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto artifact = AnalyzedWorkload::analyze(resolver("ChaCha20_ct"));
    auto v4 = core::packAnalyzedWorkload(*artifact, "ChaCha20_ct");

    auto u32le = [](std::vector<uint8_t> &out, uint32_t v) {
        for (int i = 0; i < 4; i++)
            out.push_back(static_cast<uint8_t>(v >> (8 * i)));
    };
    auto u64le = [&](std::vector<uint8_t> &out, uint64_t v) {
        for (int i = 0; i < 8; i++)
            out.push_back(static_cast<uint8_t>(v >> (8 * i)));
    };
    // metaLen sits at bytes [12, 16); the meta section follows.
    uint32_t meta_len = 0;
    for (int i = 0; i < 4; i++)
        meta_len |= static_cast<uint32_t>(v4[12 + i]) << (8 * i);

    std::vector<uint8_t> v3;
    for (char c : {'C', 'A', 'S', 'S', 'A', 'W', '3', '\n'})
        v3.push_back(static_cast<uint8_t>(c));
    u32le(v3, 3);
    u32le(v3, meta_len);
    v3.insert(v3.end(), v4.begin() + 16, v4.begin() + 16 + meta_len);
    v3.push_back(0); // traceStorageInline
    u64le(v3, artifact->numOps());
    for (const auto &op : test::drainOps(*artifact)) {
        u64le(v3, op.pc);
        u64le(v3, op.memAddr);
        u64le(v3, op.nextPc);
    }
    EXPECT_THROW(core::unpackAnalyzedWorkload(v3, resolver),
                 core::ArtifactFormatError);

    // The bench artifact cache evicts the file and re-analyzes.
    core::ExperimentSpec spec;
    spec.artifactDir = testing::TempDir() + "/cassaw3-" +
        core::processUniqueSuffix();
    core::ensureDirectories(spec.artifactDir);
    const std::string path =
        bench::artifactPath(spec.artifactDir, "ChaCha20_ct");
    writeBytes(path, v3);
    std::vector<std::string> missing;
    auto cache = bench::makeArtifactCache({"ChaCha20_ct"}, spec, missing);
    EXPECT_EQ(missing, std::vector<std::string>{"ChaCha20_ct"});
    EXPECT_FALSE(cache->contains("ChaCha20_ct"));
    EXPECT_FALSE(std::ifstream(path).good()) << path;
    core::removeDirectoryTree(spec.artifactDir);
}

TEST(ArtifactVersionTest, ImagelessSnapshotRoundTripsDemandDriven)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    // A baseline-only artifact has no trace image; packing it must
    // not force Algorithm 2, and reloading keeps the phase lazy.
    auto artifact = AnalyzedWorkload::analyze(resolver("ChaCha20_ct"));
    ASSERT_FALSE(artifact->hasTraceImage());
    const auto before = AnalyzedWorkload::analysisPhaseRuns();
    auto bytes = core::packAnalyzedWorkload(*artifact, "ChaCha20_ct");
    EXPECT_EQ(AnalyzedWorkload::analysisPhaseRuns().traceImage,
              before.traceImage);

    auto reloaded = core::unpackAnalyzedWorkload(bytes, resolver);
    EXPECT_FALSE(reloaded->hasTraceImage());
    EXPECT_EQ(reloaded->numOps(), artifact->numOps());
    // The image still materializes on demand after the round trip.
    EXPECT_GT(reloaded->traces().image.numBranches(), 0u);
    EXPECT_TRUE(reloaded->hasTraceImage());

    // With the image computed, the snapshot carries it verbatim.
    auto full_bytes = core::packAnalyzedWorkload(*reloaded,
                                                 "ChaCha20_ct");
    auto full = core::unpackAnalyzedWorkload(full_bytes, resolver);
    EXPECT_TRUE(full->hasTraceImage());
    EXPECT_EQ(full->traces().image.numBranches(),
              reloaded->traces().image.numBranches());
    EXPECT_EQ(full->traces().image.traceBytes(),
              reloaded->traces().image.traceBytes());
}

} // namespace
