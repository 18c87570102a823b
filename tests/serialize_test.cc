/**
 * @file
 * Round-trip and size-accounting tests for the bit-exact trace-page
 * serialization (the wire format Algorithm 2 embeds in binaries), and
 * AnalyzedWorkload snapshot files: one trace section for both trace
 * modes, every frame checked on load, and version/fingerprint guarding
 * (outdated containers — CASSAW3, CASSAW4 and CASSAW5 snapshots
 * included — raise typed errors so caches evict them), loads into
 * either trace mode, and the bench cache's concurrent loads.
 */

#include <gtest/gtest.h>

#include <dirent.h>

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

/** The u32 at byte `at` of a snapshot. */
uint32_t
u32At(const std::vector<uint8_t> &bytes, size_t at)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; i++)
        v |= static_cast<uint32_t>(bytes[at + i]) << (8 * i);
    return v;
}

/** Offset of a snapshot's trace section: prefix(16) | meta(metaLen). */
size_t
traceSectionAt(const std::vector<uint8_t> &bytes)
{
    return 16 + u32At(bytes, 12);
}

/** Trace section head: u8 storage | u64 numOps | u32 frameOps; the
 * frames (u8 kind | u32 payloadBytes | payload) follow. */
constexpr size_t traceHeadBytes = 13;

TEST(ArtifactVersionTest, OutdatedContainerVersionIsTyped)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto artifact = AnalyzedWorkload::analyze(resolver("ChaCha20_ct"));
    auto bytes = test::snapshotBytes(*artifact);

    // A v1-era snapshot: same "CASSAW" family, older version byte.
    std::vector<uint8_t> old_magic = bytes;
    old_magic[6] = '1';
    EXPECT_THROW(test::loadSnapshotBytes(old_magic, resolver),
                 core::ArtifactFormatError);

    // Bump the explicit format version field behind the magic.
    std::vector<uint8_t> old_version = bytes;
    old_version[8] = static_cast<uint8_t>(core::artifactFormatVersion +
                                          1);
    EXPECT_THROW(test::loadSnapshotBytes(old_version, resolver),
                 core::ArtifactFormatError);

    // Arbitrary non-artifact bytes are a format error too.
    std::vector<uint8_t> garbage(64, 0x5a);
    EXPECT_THROW(test::loadSnapshotBytes(garbage, resolver),
                 core::ArtifactFormatError);
}

TEST(ArtifactVersionTest, FingerprintMismatchIsTyped)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto artifact = AnalyzedWorkload::analyze(resolver("ChaCha20_ct"));
    auto bytes = test::snapshotBytes(*artifact);
    auto wrong = [&](const std::string &) { return resolver("SHAKE"); };
    EXPECT_THROW(test::loadSnapshotBytes(bytes, wrong),
                 core::ArtifactStaleError);
}

// ---------------------------------------------------------------------
// Stream snapshots: the same frames as whole mode, loaded back into a
// stream file, never materializing the op vector.
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

/** Trace stream files directly under `dir`. */
size_t
countTraceFiles(const std::string &dir)
{
    size_t n = 0;
    if (DIR *d = opendir(dir.c_str())) {
        while (dirent *entry = readdir(d)) {
            const std::string name = entry->d_name;
            if (name.size() > 6 &&
                name.compare(name.size() - 6, 6, ".trace") == 0)
                n++;
        }
        closedir(d);
    }
    return n;
}

TEST(StreamSnapshotTest, RoundTripsWithoutMaterializingOps)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    const std::string dir = test::scratchPath("snap-stream");
    auto artifact = streamedArtifact("ChaCha20_ct", dir);
    const std::string path = dir + "/chacha20.aw";

    core::saveAnalyzedWorkload(*artifact, path, "ChaCha20_ct");
    auto reloaded = core::loadAnalyzedWorkload(path, resolver);

    // Rehydrated straight into stream mode, with no frame in memory.
    ASSERT_TRUE(reloaded->streamed());
    EXPECT_EQ(reloaded->heldFrames().bytes(), 0u);
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
    EXPECT_LT(core::readFileBytes(dir + "/stream.aw", "snapshot").size() *
                  2,
              artifact->numOps() * core::traceStreamOpBytes);
}

TEST(StreamSnapshotTest, CorruptFrameFailsTheLoadAndLeavesNoStream)
{
    // Every frame of a stream snapshot passes the checked decode on
    // load, as in whole mode: a corrupt frame fails the load, typed,
    // and the half-written stream file is gone.
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    const std::string dir = test::scratchPath("snap-corrupt");
    auto artifact = streamedArtifact("DES_ct", dir);
    auto bytes = test::snapshotBytes(*artifact, "DES_ct");
    ASSERT_GT(artifact->numOps(), core::traceStreamDefaultFrameOps);

    const size_t first = traceSectionAt(bytes) + traceHeadBytes;
    const size_t second = first + 5 + u32At(bytes, first + 1);
    ASSERT_LT(second, bytes.size());
    std::vector<uint8_t> corrupt = bytes;
    corrupt[second] = 0x7f; // neither raw (0) nor sparse (2)
    const std::string load_dir = test::scratchPath("snap-corrupt-load");
    EXPECT_THROW(test::loadSnapshotBytes(corrupt, resolver, load_dir),
                 core::ArtifactFormatError);
    EXPECT_EQ(countTraceFiles(load_dir), 0u);

    // A truncated section fails as truncated, and leaves no file either.
    std::vector<uint8_t> cut(bytes.begin(), bytes.end() - 64);
    EXPECT_THROW(test::loadSnapshotBytes(cut, resolver, load_dir),
                 std::invalid_argument);
    EXPECT_EQ(countTraceFiles(load_dir), 0u);

    // The intact snapshot loads into that directory.
    auto reloaded = test::loadSnapshotBytes(bytes, resolver, load_dir);
    EXPECT_EQ(reloaded->numOps(), artifact->numOps());
    EXPECT_EQ(countTraceFiles(load_dir), 1u);
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

TEST(ArtifactVersionTest, WholeAndStreamSnapshotsShareTheirFrames)
{
    // One trace section for both modes: the snapshots of a whole and a
    // streamed artifact differ only in the storage byte, and both
    // carry exactly the frames the whole-mode artifact holds.
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto whole = AnalyzedWorkload::analyze(resolver("DES_ct"));
    const std::string dir = test::scratchPath("snap-share");
    auto streamed = streamedArtifact("DES_ct", dir);
    const core::TraceFrames &held = whole->heldFrames();
    ASSERT_EQ(held.frames.size(), 20u);

    const auto whole_bytes = test::snapshotBytes(*whole, "DES_ct");
    const auto stream_bytes = test::snapshotBytes(*streamed, "DES_ct");
    ASSERT_EQ(whole_bytes.size(), stream_bytes.size());
    const size_t storage = traceSectionAt(whole_bytes);
    EXPECT_EQ(whole_bytes[storage], 0);
    EXPECT_EQ(stream_bytes[storage], 1);
    std::vector<uint8_t> relabelled = stream_bytes;
    relabelled[storage] = 0;
    EXPECT_TRUE(relabelled == whole_bytes);

    std::vector<uint8_t> frames;
    for (const std::vector<uint8_t> &frame : held.frames)
        frames.insert(frames.end(), frame.begin(), frame.end());
    EXPECT_EQ(frames.size(), held.bytes());
    for (const auto *bytes : {&whole_bytes, &stream_bytes})
        EXPECT_TRUE(std::equal(frames.begin(), frames.end(),
                               bytes->begin() + storage + traceHeadBytes,
                               bytes->end()));
}

TEST(ArtifactVersionTest, WholeSnapshotsAreFrameCompressed)
{
    // Whole-mode snapshots store their ops as CASSTF3 codec frames.
    // The dynamic instruction stream is overwhelmingly sequential, so
    // the trace section must beat the historical raw 24 B/op layout by
    // at least 4x.
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto artifact = AnalyzedWorkload::analyze(resolver("ChaCha20_ct"));
    auto bytes = test::snapshotBytes(*artifact, "ChaCha20_ct");
    EXPECT_LT(bytes.size() * 4, artifact->numOps() * 24)
        << artifact->numOps() << " ops in " << bytes.size()
        << " snapshot bytes";

    // And it still round-trips into identical timing results.
    auto reloaded = test::loadSnapshotBytes(bytes, resolver);
    EXPECT_EQ(reloaded->numOps(), artifact->numOps());
    auto want = Simulation(artifact).run(uarch::Scheme::Cassandra);
    auto got = Simulation(reloaded).run(uarch::Scheme::Cassandra);
    EXPECT_EQ(got.stats.cycles, want.stats.cycles);
}

TEST(ArtifactVersionTest, CorruptInlineFrameIsRejectedOnLoad)
{
    // A whole-mode artifact keeps the frames it loads and decodes them
    // only at replay, so each frame must pass the checked decode at
    // load: a corrupt frame fails there, typed.
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto artifact = AnalyzedWorkload::analyze(resolver("DES_ct"));
    auto bytes = test::snapshotBytes(*artifact, "DES_ct");
    ASSERT_GT(artifact->numOps(), core::traceStreamDefaultFrameOps);

    const size_t first = traceSectionAt(bytes) + traceHeadBytes;
    const size_t second = first + 5 + u32At(bytes, first + 1);
    ASSERT_LT(second, bytes.size());
    bytes[second] = 0x7f; // neither raw (0) nor sparse (2)
    EXPECT_THROW(test::loadSnapshotBytes(bytes, resolver),
                 core::ArtifactFormatError);
}

TEST(ArtifactVersionTest, Cassaw3SnapshotsAreRejectedAndEvicted)
{
    // Older containers are rejected, and the bench artifact cache
    // evicts them: a CASSAW3 file (raw 24 B/op inline ops), a CASSAW4
    // file of the retired stream layout (the whole stream file
    // embedded) and a CASSAW5 file (the current layout, with raw frames
    // that both revisions read). All are crafted around the metadata
    // section of a current snapshot, whose layout they share.
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto artifact = AnalyzedWorkload::analyze(resolver("ChaCha20_ct"));
    auto current = test::snapshotBytes(*artifact, "ChaCha20_ct");
    const std::string dir = test::scratchPath("snap-cassaw4");
    auto streamed = streamedArtifact("ChaCha20_ct", dir);
    const uint64_t stream_ops = streamed->numOps(); // records the file
    const auto stream_file =
        core::readFileBytes(streamed->streamPath(), "trace stream");

    const uint32_t meta_len = u32At(current, 12);
    auto head = [&](char digit) {
        std::vector<uint8_t> out;
        for (char c : {'C', 'A', 'S', 'S', 'A', 'W', digit, '\n'})
            out.push_back(static_cast<uint8_t>(c));
        test::putLe(out, static_cast<uint32_t>(digit - '0'), 4);
        test::putLe(out, meta_len, 4);
        out.insert(out.end(), current.begin() + 16,
                   current.begin() + 16 + meta_len);
        return out;
    };

    std::vector<uint8_t> v3 = head('3');
    v3.push_back(0); // inline ops
    test::putLe(v3, artifact->numOps(), 8);
    const uarch::OpBatchStorage ops = test::drainOps(*artifact);
    for (size_t i = 0; i < ops.pc.size(); i++) {
        test::putLe(v3, ops.pc[i], 8);
        test::putLe(v3, ops.memAddr[i], 8);
        test::putLe(v3, ops.nextPc[i], 8);
    }
    std::vector<uint8_t> v4 = head('4');
    v4.push_back(1); // embedded stream file
    test::putLe(v4, stream_ops, 8);
    test::putLe(v4, stream_file.size(), 8);
    v4.insert(v4.end(), stream_file.begin(), stream_file.end());
    std::vector<uint8_t> v5 = head('5');
    v5.push_back(0); // frames held in memory
    test::putLe(v5, artifact->numOps(), 8);
    test::putLe(v5, core::traceStreamDefaultFrameOps, 4);
    for (size_t lo = 0; lo < ops.pc.size();
         lo += core::traceStreamDefaultFrameOps)
        test::appendRawFrame(
            v5, ops, lo,
            std::min<size_t>(ops.pc.size(),
                             lo + core::traceStreamDefaultFrameOps));
    // Relabelled as the current revision, the CASSAW5 bytes load: only
    // the container version rejects them.
    std::vector<uint8_t> relabelled = v5;
    relabelled[6] = '0' + core::artifactFormatVersion;
    relabelled[8] = core::artifactFormatVersion;
    EXPECT_EQ(test::loadSnapshotBytes(relabelled, resolver)->numOps(),
              artifact->numOps());

    for (const auto *old : {&v3, &v4, &v5}) {
        SCOPED_TRACE(std::string("CASSAW") + char((*old)[6]));
        EXPECT_THROW(test::loadSnapshotBytes(*old, resolver),
                     core::ArtifactFormatError);

        // The bench artifact cache evicts the file and re-analyzes.
        core::ExperimentSpec spec;
        spec.artifactDir = testing::TempDir() + "/cassaw-old-" +
            core::processUniqueSuffix();
        core::ensureDirectories(spec.artifactDir);
        const std::string path =
            bench::artifactPath(spec.artifactDir, "ChaCha20_ct");
        core::writeFileBytes(path, *old);
        std::vector<std::string> missing;
        auto cache =
            bench::makeArtifactCache({"ChaCha20_ct"}, spec, missing);
        EXPECT_EQ(missing, std::vector<std::string>{"ChaCha20_ct"});
        EXPECT_FALSE(cache->contains("ChaCha20_ct"));
        EXPECT_FALSE(std::ifstream(path).good()) << path;
        core::removeDirectoryTree(spec.artifactDir);
    }
}

TEST(ArtifactVersionTest, FrameOpsAboveTheCeilingIsRejectedBeforeAllocating)
{
    // A small snapshot whose trace head claims traceFrameMaxOps + 1 ops
    // per frame, and as many ops, is one frame either way: only the
    // frame-size bound stops the load from sizing a ~40 MiB decode
    // buffer for it.
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto artifact = AnalyzedWorkload::analyze(resolver("ChaCha20_ct"));
    auto bytes = test::snapshotBytes(*artifact, "ChaCha20_ct");
    const size_t head = traceSectionAt(bytes);
    const uint32_t over = core::traceFrameMaxOps + 1;
    for (int i = 0; i < 8; i++) // u64 numOps
        bytes[head + 1 + i] =
            static_cast<uint8_t>(static_cast<uint64_t>(over) >> (8 * i));
    for (int i = 0; i < 4; i++) // u32 frameOps
        bytes[head + 9 + i] = static_cast<uint8_t>(over >> (8 * i));
    for (uint8_t storage : {0, 1}) {
        SCOPED_TRACE("storage=" + std::to_string(storage));
        bytes[head] = storage;
        try {
            test::loadSnapshotBytes(bytes, resolver,
                                    test::scratchPath("snap-ceiling"));
            ADD_FAILURE() << "loaded";
        } catch (const core::ArtifactFormatError &e) {
            EXPECT_NE(std::string(e.what()).find("frame size"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(SnapshotTraceModeTest, LoadsIntoTheRequestedMode)
{
    // A snapshot of either mode reloads into either trace mode, through
    // the one AnalyzedWorkload::fromParts: a stream load puts the frames
    // in a fresh stream file under the load's directory and holds none,
    // a whole load holds exactly the frames a whole analysis holds, and
    // every scheme replays identically either way.
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto whole = AnalyzedWorkload::analyze(resolver("SHAKE"));
    const std::string dir = test::scratchPath("snap-mode");
    auto streamed = streamedArtifact("SHAKE", dir);
    ASSERT_GT(whole->heldFrames().frames.size(), 1u);
    const std::vector<uint8_t> saved[] = {
        test::snapshotBytes(*whole, "SHAKE"),
        test::snapshotBytes(*streamed, "SHAKE")};
    const uarch::Scheme schemes[] = {
        uarch::Scheme::UnsafeBaseline, uarch::Scheme::Cassandra,
        uarch::Scheme::CassandraStl,   uarch::Scheme::CassandraLite,
        uarch::Scheme::Spt,            uarch::Scheme::Prospect,
        uarch::Scheme::CassandraProspect};
    std::vector<core::ExperimentResult> want;
    for (uarch::Scheme s : schemes)
        want.push_back(Simulation(whole).run(s));

    const std::string load_dir = test::scratchPath("snap-mode-load");
    std::vector<AnalyzedWorkload::Ptr> loaded; // each keeps its file
    for (TraceMode from : {TraceMode::Whole, TraceMode::Stream}) {
        for (TraceMode mode : {TraceMode::Whole, TraceMode::Stream}) {
            SCOPED_TRACE(std::string(core::traceModeName(from)) +
                         " snapshot into " + core::traceModeName(mode));
            loaded.push_back(test::loadSnapshotBytes(
                saved[from == TraceMode::Stream], resolver, load_dir, mode));
            const AnalyzedWorkload &aw = *loaded.back();
            ASSERT_EQ(aw.traceMode(), mode);
            EXPECT_TRUE(aw.hasTimingTrace());
            EXPECT_EQ(aw.numOps(), whole->numOps());
            if (mode == TraceMode::Stream) {
                EXPECT_EQ(aw.heldFrames().bytes(), 0u);
                EXPECT_EQ(aw.streamPath().rfind(load_dir + "/", 0), 0u)
                    << aw.streamPath();
            } else {
                EXPECT_TRUE(aw.streamPath().empty());
                EXPECT_EQ(aw.heldFrames().frames,
                          whole->heldFrames().frames);
            }
            // It now saves exactly as an artifact analyzed in its new
            // mode.
            EXPECT_TRUE(test::snapshotBytes(aw, "SHAKE") ==
                        saved[mode == TraceMode::Stream]);
            for (size_t i = 0; i < std::size(schemes); i++)
                test::expectSameCounters(Simulation(loaded.back()).run(
                                             schemes[i]),
                                         want[i],
                                         uarch::schemeName(schemes[i]));
        }
    }
    // One fresh stream file per stream load.
    EXPECT_EQ(countTraceFiles(load_dir), 2u);
}

TEST(ArtifactCacheTest, LoadsIntoTheSweepsModeAndAppliesInNameOrder)
{
    // The bench cache loads its snapshots concurrently, into the
    // sweep's trace mode, then applies each outcome in name order: good
    // snapshots are cached, an outdated one is evicted, a missing one
    // is left to analyze, and a name listed twice is handled once.
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    core::ExperimentSpec spec;
    spec.artifactDir = test::scratchPath("artifact-cache");
    spec.runner.threads = 4;
    core::ensureDirectories(spec.artifactDir);
    for (const char *name : {"ChaCha20_ct", "SHAKE"})
        core::saveAnalyzedWorkload(
            *AnalyzedWorkload::analyze(resolver(name)),
            bench::artifactPath(spec.artifactDir, name), name);
    auto outdated = test::snapshotBytes(
        *AnalyzedWorkload::analyze(resolver("SHA-256")), "SHA-256");
    outdated[6] = '5';
    outdated[8] = 5;
    const std::string outdated_path =
        bench::artifactPath(spec.artifactDir, "SHA-256");

    const std::vector<std::string> names = {
        "SHAKE", "SHA-256", "Poly1305_ctmul", "ChaCha20_ct", "SHAKE"};
    for (TraceMode mode : {TraceMode::Whole, TraceMode::Stream}) {
        SCOPED_TRACE(core::traceModeName(mode));
        core::writeFileBytes(outdated_path, outdated);
        spec.runner.analyze.traceMode = mode;
        std::vector<std::string> missing;
        auto cache = bench::makeArtifactCache(names, spec, missing);
        EXPECT_EQ(missing, (std::vector<std::string>{"SHA-256",
                                                     "Poly1305_ctmul"}));
        EXPECT_EQ(cache->size(), 2u);
        for (const char *name : {"ChaCha20_ct", "SHAKE"}) {
            ASSERT_TRUE(cache->contains(name)) << name;
            const auto artifact = cache->get(name);
            EXPECT_EQ(artifact->streamed(), mode == TraceMode::Stream)
                << name;
            EXPECT_EQ(artifact->heldFrames().bytes() == 0,
                      mode == TraceMode::Stream)
                << name;
        }
        EXPECT_FALSE(std::ifstream(outdated_path).good());
    }
}

TEST(ArtifactVersionTest, ImagelessSnapshotRoundTripsDemandDriven)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    // A baseline-only artifact has no trace image; saving it must not
    // force Algorithm 2, and reloading keeps the phase lazy.
    auto artifact = AnalyzedWorkload::analyze(resolver("ChaCha20_ct"));
    ASSERT_FALSE(artifact->hasTraceImage());
    const auto before = AnalyzedWorkload::analysisPhaseRuns();
    auto bytes = test::snapshotBytes(*artifact, "ChaCha20_ct");
    EXPECT_EQ(AnalyzedWorkload::analysisPhaseRuns().traceImage,
              before.traceImage);

    auto reloaded = test::loadSnapshotBytes(bytes, resolver);
    EXPECT_FALSE(reloaded->hasTraceImage());
    EXPECT_EQ(reloaded->numOps(), artifact->numOps());
    // The image still materializes on demand after the round trip.
    EXPECT_GT(reloaded->traces().image.numBranches(), 0u);
    EXPECT_TRUE(reloaded->hasTraceImage());

    // With the image computed, the snapshot carries it verbatim.
    auto full_bytes = test::snapshotBytes(*reloaded, "ChaCha20_ct");
    auto full = test::loadSnapshotBytes(full_bytes, resolver);
    EXPECT_TRUE(full->hasTraceImage());
    EXPECT_EQ(full->traces().image.numBranches(),
              reloaded->traces().image.numBranches());
    EXPECT_EQ(full->traces().image.traceBytes(),
              reloaded->traces().image.traceBytes());
}

} // namespace
