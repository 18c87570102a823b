/**
 * @file
 * Tests for the persistent cell-result store: entry round trips, key
 * derivation (every simulation-relevant knob invalidates, every
 * presentation knob does not), eviction of corrupt/truncated/stale
 * entries, readonly mode, the warm-vs-cold byte-identity of full
 * runner sweeps, and cross-run reuse when overlapping sweeps share
 * one store.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "core/byte_io.hh"
#include "core/experiment.hh"
#include "core/result_store.hh"
#include "core/serialize.hh"
#include "core/trace_stream.hh"
#include "crypto/workload_registry.hh"
#include "tests/trace_test_util.hh"

namespace {

using namespace cassandra;
using core::CacheMode;
using core::ExperimentMatrix;
using core::ExperimentResult;
using core::ExperimentRunner;
using core::ResultStore;
using core::ResultStoreKey;
using core::RunnerOptions;
using core::SimConfig;
using uarch::Scheme;

std::shared_ptr<core::AnalysisCache>
registryCache()
{
    return std::make_shared<core::AnalysisCache>(
        crypto::WorkloadRegistry::global().resolver());
}

std::string
jsonReport(const core::Experiment &exp)
{
    std::ostringstream os;
    core::JsonReporter().write(exp, os);
    return os.str();
}

/**
 * A fresh store directory under the test temp dir. Process-unique:
 * directories from prior test runs must not leak cached entries into
 * this run's cold-start assertions.
 */
std::string
freshDir(const char *tag)
{
    static int sequence = 0;
    std::string dir = testing::TempDir() + "/result-store-" +
        core::processUniqueSuffix() + "-" + tag + "-" +
        std::to_string(sequence++);
    return dir;
}

ResultStoreKey
sampleKey()
{
    const auto workload =
        crypto::WorkloadRegistry::global().make("ChaCha20_ct");
    return core::resultStoreKey(workload, Scheme::Cassandra,
                                SimConfig{});
}

ExperimentResult
sampleResult()
{
    ExperimentResult result;
    result.stats.cycles = 123456;
    result.stats.instructions = 65432;
    result.btu.lookups = 777;
    result.bpu.updates = 88;
    result.caches.l3Misses = 9;
    return result;
}

// ---------------------------------------------------------------------
// Round trip + stats
// ---------------------------------------------------------------------

TEST(ResultStoreTest, StoreThenLookupRoundTrips)
{
    ResultStore store(freshDir("roundtrip"));
    const auto key = sampleKey();
    const auto want = sampleResult();

    ExperimentResult out;
    EXPECT_FALSE(store.lookup(key, out)); // cold: miss
    store.store(key, want);
    ASSERT_TRUE(store.lookup(key, out));
    EXPECT_EQ(out.stats.cycles, want.stats.cycles);
    EXPECT_EQ(out.stats.instructions, want.stats.instructions);
    EXPECT_EQ(out.btu.lookups, want.btu.lookups);
    EXPECT_EQ(out.bpu.updates, want.bpu.updates);
    EXPECT_EQ(out.caches.l3Misses, want.caches.l3Misses);

    const auto stats = store.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.stores, 1u);
    EXPECT_EQ(stats.evictions, 0u);
}

TEST(ResultStoreTest, StoreReplacesPreviousEntry)
{
    ResultStore store(freshDir("replace"));
    const auto key = sampleKey();
    auto result = sampleResult();
    store.store(key, result);
    result.stats.cycles = 999;
    store.store(key, result);
    ExperimentResult out;
    ASSERT_TRUE(store.lookup(key, out));
    EXPECT_EQ(out.stats.cycles, 999u);
}

TEST(ResultStoreTest, EntryCounterLayoutIsPinned)
{
    // CASSRS1 entries hold the counters in forEachResultCounter order,
    // and the JSON report names them from the same list. Entries
    // outlive builds, so the list is written out here by hand: a
    // counter renamed, dropped or moved fails this test instead of
    // silently misreading every shared store.
    const std::vector<std::string> pinned = {
        "cycles", "instructions",
        "core.branches", "core.crypto_branches", "core.cond_mispredicts",
        "core.indirect_mispredicts", "core.return_mispredicts",
        "core.decode_redirects", "core.integrity_stalls",
        "core.resolve_stalls", "core.btu_fill_stalls",
        "core.btu_window_stalls", "core.btu_flushes",
        "core.btu_mismatches", "core.loads", "core.stores",
        "core.stl_forwards", "core.scheme_load_delays",
        "core.prospect_blocks", "core.icache_miss_bubbles",
        "btu.lookups", "btu.single_target_hits", "btu.hits", "btu.misses",
        "btu.evictions", "btu.checkpoint_restores", "btu.stall_resolve",
        "btu.window_stalls", "btu.prefetches", "btu.flushes",
        "btu.commits", "btu.squash_rewinds",
        "bpu.cond_lookups", "bpu.cond_mispredicts", "bpu.loop_overrides",
        "bpu.btb_lookups", "bpu.btb_misses", "bpu.indirect_mispredicts",
        "bpu.rsb_pushes", "bpu.rsb_pops", "bpu.return_mispredicts",
        "bpu.updates",
        "caches.l1i.accesses", "caches.l1i.misses",
        "caches.l1d.accesses", "caches.l1d.misses",
        "caches.l2.accesses", "caches.l2.misses",
        "caches.l3.accesses", "caches.l3.misses"};

    // Counter i (from 0) holds i + 1.
    ExperimentResult numbered;
    std::vector<std::string> listed;
    core::forEachResultCounter(
        numbered, [&](const char *section, const char *key, uint64_t &v) {
            listed.push_back(test::counterPath(section, key));
            v = listed.size();
        });
    ASSERT_EQ(listed, pinned);
    ASSERT_EQ(core::experimentResultCounterCount(), pinned.size());
    // The first and last counter of each struct sit on their fields.
    EXPECT_EQ(numbered.stats.cycles, 1u);
    EXPECT_EQ(numbered.stats.icacheMissBubbles, 20u);
    EXPECT_EQ(numbered.btu.lookups, 21u);
    EXPECT_EQ(numbered.btu.squashRewinds, 32u);
    EXPECT_EQ(numbered.bpu.condLookups, 33u);
    EXPECT_EQ(numbered.bpu.updates, 42u);
    EXPECT_EQ(numbered.caches.l1iAccesses, 43u);
    EXPECT_EQ(numbered.caches.l3Misses, 50u);

    core::ByteWriter w;
    core::packExperimentResult(w, numbered);
    const std::vector<uint8_t> bytes = w.take();
    ASSERT_EQ(bytes.size(), 8 * pinned.size());
    for (size_t i = 0; i < pinned.size(); i++) {
        uint64_t v = 0;
        for (size_t b = 0; b < 8; b++)
            v |= static_cast<uint64_t>(bytes[8 * i + b]) << (8 * b);
        EXPECT_EQ(v, i + 1) << "offset " << 8 * i << ": " << pinned[i];
    }
}

// ---------------------------------------------------------------------
// Key derivation: what invalidates and what must not
// ---------------------------------------------------------------------

TEST(ResultStoreKeyTest, EverySimRelevantConfigFieldChangesTheHash)
{
    const SimConfig base;
    const uint64_t base_hash = core::canonicalSimConfigHash(base);

    std::vector<SimConfig> variants;
    auto vary = [&](auto mutate) {
        SimConfig cfg;
        mutate(cfg);
        variants.push_back(cfg);
    };
    vary([](SimConfig &c) { c.core.fetchWidth = 4; });
    vary([](SimConfig &c) { c.core.commitWidth = 4; });
    vary([](SimConfig &c) { c.core.issueWidth = 4; });
    vary([](SimConfig &c) { c.core.robSize = 64; });
    vary([](SimConfig &c) { c.core.iqSize = 48; });
    vary([](SimConfig &c) { c.core.lqSize = 96; });
    vary([](SimConfig &c) { c.core.sqSize = 57; });
    vary([](SimConfig &c) { c.core.intRegs = 140; });
    vary([](SimConfig &c) { c.core.frontendDepth = 6; });
    vary([](SimConfig &c) { c.core.decodeRedirect = 2; });
    vary([](SimConfig &c) { c.core.redirectPenalty = 6; });
    vary([](SimConfig &c) { c.core.numAlu = 3; });
    vary([](SimConfig &c) { c.core.numMul = 1; });
    vary([](SimConfig &c) { c.core.numLsu = 1; });
    vary([](SimConfig &c) { c.core.aluLatency = 2; });
    vary([](SimConfig &c) { c.core.mulLatency = 5; });
    vary([](SimConfig &c) { c.core.storeLatency = 2; });
    vary([](SimConfig &c) { c.core.l1i.sizeBytes = 16 * 1024; });
    vary([](SimConfig &c) { c.core.l1d.lineBytes = 32; });
    vary([](SimConfig &c) { c.core.l2.ways = 8; });
    vary([](SimConfig &c) { c.core.l3.latency = 50; });
    vary([](SimConfig &c) { c.core.memLatency = 100; });
    vary([](SimConfig &c) { c.core.btuFlushPeriod = 12000000; });
    vary([](SimConfig &c) { c.btu.sets = 2; });
    vary([](SimConfig &c) { c.btu.ways = 4; });
    vary([](SimConfig &c) { c.btu.fillLatency = 40; });

    std::vector<uint64_t> hashes{base_hash};
    for (size_t i = 0; i < variants.size(); i++) {
        const uint64_t h = core::canonicalSimConfigHash(variants[i]);
        EXPECT_NE(h, base_hash) << "variant " << i;
        // Distinct variants must not collide with each other either.
        for (size_t j = 0; j < hashes.size(); j++)
            EXPECT_NE(h, hashes[j]) << "variant " << i << " vs " << j;
        hashes.push_back(h);
    }
}

TEST(ResultStoreKeyTest, ConfigHashIsPinned)
{
    // Store keys outlive builds: a shared --cache-dir must keep
    // answering after the hash's implementation changes. The values
    // were produced by the hand-written hash the parameter list
    // replaced, for a BTU scheme (every parameter hashed) and a
    // non-BTU scheme (flush period and BTU geometry skipped).
    const SimConfig plain;
    const SimConfig every = test::everyParamSimConfig();
    EXPECT_EQ(core::canonicalSimConfigHash(plain), 0x918df806b0551feeull);
    EXPECT_EQ(core::canonicalSimConfigHash(every), 0xad5319f0e78ca5beull);
    EXPECT_EQ(core::canonicalSimConfigHash(plain, Scheme::Cassandra),
              0x918df806b0551feeull);
    EXPECT_EQ(core::canonicalSimConfigHash(every, Scheme::Cassandra),
              0xad5319f0e78ca5beull);
    EXPECT_EQ(core::canonicalSimConfigHash(plain, Scheme::UnsafeBaseline),
              0x35fc32cb93843811ull);
    EXPECT_EQ(core::canonicalSimConfigHash(every, Scheme::UnsafeBaseline),
              0x90b3114d0e5ff445ull);
}

TEST(ResultStoreKeyTest, PresentationKnobsDoNotChangeTheHash)
{
    const uint64_t base = core::canonicalSimConfigHash(SimConfig{});

    SimConfig named = SimConfig{}.named("some-report-label");
    EXPECT_EQ(core::canonicalSimConfigHash(named), base);

    SimConfig streamed;
    streamed.traceMode = core::TraceMode::Stream;
    EXPECT_EQ(core::canonicalSimConfigHash(streamed), base);

    // The scheme field of the config is keyed separately (the matrix
    // scheme replaces it per cell), so it must not leak into the
    // config hash.
    SimConfig schemed;
    schemed.scheme = uarch::Scheme::Spt;
    EXPECT_EQ(core::canonicalSimConfigHash(schemed), base);
}

TEST(ResultStoreKeyTest, SchemeAwareHashIgnoresBtuKnobsForNonBtuSchemes)
{
    const SimConfig plain;
    SimConfig btu = SimConfig{}.withBtuGeometry(1, 4);
    btu.core.btuFlushPeriod = 12000000;

    // Schemes that never construct a BTU are byte-identical across
    // BTU geometries, so the scheme-aware hash folds them together…
    for (auto s : {Scheme::UnsafeBaseline, Scheme::Spt,
                   Scheme::Prospect, Scheme::CassandraLite}) {
        EXPECT_EQ(core::canonicalSimConfigHash(plain, s),
                  core::canonicalSimConfigHash(btu, s))
            << uarch::schemeName(s);
    }

    // …while BTU schemes keep the full (reference) hash, geometry
    // included.
    for (auto s : {Scheme::Cassandra, Scheme::CassandraStl,
                   Scheme::CassandraProspect}) {
        EXPECT_EQ(core::canonicalSimConfigHash(plain, s),
                  core::canonicalSimConfigHash(plain))
            << uarch::schemeName(s);
        EXPECT_EQ(core::canonicalSimConfigHash(btu, s),
                  core::canonicalSimConfigHash(btu))
            << uarch::schemeName(s);
        EXPECT_NE(core::canonicalSimConfigHash(plain, s),
                  core::canonicalSimConfigHash(btu, s))
            << uarch::schemeName(s);
    }

    // Non-BTU fields still count for every scheme.
    SimConfig wider;
    wider.core.fetchWidth = 4;
    EXPECT_NE(core::canonicalSimConfigHash(wider, Scheme::Spt),
              core::canonicalSimConfigHash(plain, Scheme::Spt));
}

TEST(ResultStoreKeyTest, FlippingAnyKeyComponentMisses)
{
    ResultStore store(freshDir("keyflip"));
    const auto &reg = crypto::WorkloadRegistry::global();
    const auto key = sampleKey();
    store.store(key, sampleResult());

    ExperimentResult out;
    // Different workload program -> different fingerprint.
    ResultStoreKey other_workload = key;
    other_workload.workloadFingerprint = core::workloadFingerprint(
        reg.make("SHAKE"));
    EXPECT_NE(other_workload.workloadFingerprint,
              key.workloadFingerprint);
    EXPECT_FALSE(store.lookup(other_workload, out));

    // Same workload + config, different scheme.
    ResultStoreKey other_scheme = key;
    other_scheme.scheme = Scheme::Spt;
    EXPECT_FALSE(store.lookup(other_scheme, out));

    // Same workload + scheme, different BTU geometry.
    ResultStoreKey other_config = key;
    other_config.configHash = core::canonicalSimConfigHash(
        SimConfig{}.withBtuGeometry(1, 4));
    EXPECT_FALSE(store.lookup(other_config, out));

    // The original still hits.
    EXPECT_TRUE(store.lookup(key, out));
}

// ---------------------------------------------------------------------
// Eviction of bad entries
// ---------------------------------------------------------------------

std::vector<uint8_t>
readEntryBytes(const std::string &path)
{
    return core::readFileBytes(path, "result-store entry");
}

void
writeEntryBytes(const std::string &path,
                const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

bool
fileExists(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return in.good();
}

TEST(ResultStoreTest, CorruptEntryIsEvictedAndResimulatable)
{
    ResultStore store(freshDir("corrupt"));
    const auto key = sampleKey();
    store.store(key, sampleResult());
    const std::string path = store.entryPath(key);

    auto bytes = readEntryBytes(path);
    bytes[1] ^= 0xff; // break the magic
    writeEntryBytes(path, bytes);

    ExperimentResult out;
    EXPECT_FALSE(store.lookup(key, out));
    EXPECT_EQ(store.stats().evictions, 1u);
    EXPECT_FALSE(fileExists(path)) << "evicted entry must be unlinked";
    // The next lookup is a clean miss, not another eviction.
    EXPECT_FALSE(store.lookup(key, out));
    EXPECT_EQ(store.stats().evictions, 1u);
    // Re-storing (the re-simulated result) heals the entry.
    store.store(key, sampleResult());
    EXPECT_TRUE(store.lookup(key, out));
}

TEST(ResultStoreTest, TruncatedEntryIsEvicted)
{
    ResultStore store(freshDir("truncated"));
    const auto key = sampleKey();
    store.store(key, sampleResult());
    const std::string path = store.entryPath(key);

    auto bytes = readEntryBytes(path);
    bytes.resize(bytes.size() - 13); // torn write
    writeEntryBytes(path, bytes);

    ExperimentResult out;
    EXPECT_FALSE(store.lookup(key, out));
    EXPECT_EQ(store.stats().evictions, 1u);
    EXPECT_FALSE(fileExists(path));
}

TEST(ResultStoreTest, VersionStaleEntryIsEvicted)
{
    ResultStore store(freshDir("stale"));
    const auto key = sampleKey();
    store.store(key, sampleResult());
    const std::string path = store.entryPath(key);

    // Byte 8 is the little-endian u32 store version right after the
    // 8-byte magic; flip it to a future version.
    auto bytes = readEntryBytes(path);
    bytes[8] = 0x7f;
    writeEntryBytes(path, bytes);

    ExperimentResult out;
    EXPECT_FALSE(store.lookup(key, out));
    EXPECT_EQ(store.stats().evictions, 1u);
    EXPECT_FALSE(fileExists(path));
}

// ---------------------------------------------------------------------
// Runner integration: warm runs replay, reports stay byte-identical
// ---------------------------------------------------------------------

ExperimentMatrix
smokeMatrix()
{
    ExperimentMatrix m;
    m.workloads = {"ChaCha20_ct", "SHAKE"};
    m.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra,
                 Scheme::Spt};
    SimConfig base;
    m.configs = {base, base.withBtuGeometry(1, 4).named("btu-1x4")};
    return m;
}

RunnerOptions
cachedOptions(const std::string &dir, CacheMode mode)
{
    RunnerOptions options;
    options.cacheMode = mode;
    options.cacheDir = dir;
    return options;
}

TEST(ResultStoreRunnerTest, WarmInProcessRunReplaysEveryCell)
{
    const std::string dir = freshDir("runner-inproc");
    const ExperimentMatrix matrix = smokeMatrix();

    auto cold = ExperimentRunner(registryCache(),
                                 cachedOptions(dir, CacheMode::On))
                    .run(matrix);
    EXPECT_EQ(cold.telemetry.cachedCells, 0u);
    EXPECT_EQ(cold.telemetry.simulatedCells, cold.cells.size());

    auto warm = ExperimentRunner(registryCache(),
                                 cachedOptions(dir, CacheMode::On))
                    .run(matrix);
    EXPECT_EQ(warm.telemetry.simulatedCells, 0u);
    EXPECT_EQ(warm.telemetry.cachedCells, warm.cells.size());
    EXPECT_EQ(warm.telemetry.cacheHits, warm.cells.size());

    EXPECT_EQ(jsonReport(cold), jsonReport(warm));
}

TEST(ResultStoreRunnerTest, ReadonlyModeNeverWrites)
{
    const std::string dir = freshDir("runner-readonly");
    const ExperimentMatrix matrix = smokeMatrix();

    auto exp = ExperimentRunner(
                   registryCache(),
                   cachedOptions(dir, CacheMode::Readonly))
                   .run(matrix);
    EXPECT_EQ(exp.telemetry.cacheStores, 0u);
    EXPECT_EQ(exp.telemetry.simulatedCells, exp.cells.size());

    // A second readonly run is still all misses: nothing was stored.
    auto again = ExperimentRunner(
                     registryCache(),
                     cachedOptions(dir, CacheMode::Readonly))
                     .run(matrix);
    EXPECT_EQ(again.telemetry.cacheHits, 0u);
    EXPECT_EQ(again.telemetry.simulatedCells, again.cells.size());
    EXPECT_EQ(jsonReport(exp), jsonReport(again));
}

TEST(ResultStoreRunnerTest, PartialInvalidationOnlyResimulatesTheSliver)
{
    const std::string dir = freshDir("runner-partial");
    ExperimentMatrix matrix = smokeMatrix();
    ExperimentRunner(registryCache(), cachedOptions(dir, CacheMode::On))
        .run(matrix);

    // Add one new config variant that only perturbs a BTU knob: the
    // scheme-aware store key makes it a fresh cell only for schemes
    // that actually read the BTU (Cassandra here) — UnsafeBaseline
    // and Spt cells of "slow-fill" hash like the cached base config.
    matrix.configs.push_back(
        SimConfig{}.withBtuFillLatency(40).named("slow-fill"));
    auto exp = ExperimentRunner(registryCache(),
                                cachedOptions(dir, CacheMode::On))
                   .run(matrix);
    uint64_t btu_cells = 0;
    for (Scheme s : matrix.schemes)
        if (uarch::schemeUsesBtu(s))
            btu_cells += matrix.workloads.size();
    ASSERT_GT(btu_cells, 0u);
    EXPECT_EQ(exp.telemetry.simulatedCells, btu_cells);
    EXPECT_EQ(exp.telemetry.cachedCells, exp.cells.size() - btu_cells);
}

TEST(ResultStoreRunnerTest, OverlappingRunsShareOneStore)
{
    // Two sweeps sharing the SHAKE x {baseline, Cassandra} cells, run
    // one after the other on one store: the second replays the shared
    // cells instead of simulating them, so 4 of the 6 cells simulate.
    ExperimentMatrix first;
    first.workloads = {"ChaCha20_ct", "SHAKE"};
    first.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra};
    ExperimentMatrix second = first;
    second.workloads = {"SHAKE"};

    const std::string dir = freshDir("runner-overlap");
    auto a = ExperimentRunner(registryCache(),
                              cachedOptions(dir, CacheMode::On))
                 .run(first);
    EXPECT_EQ(a.telemetry.simulatedCells, 4u);
    EXPECT_EQ(a.telemetry.cachedCells, 0u);

    auto b = ExperimentRunner(registryCache(),
                              cachedOptions(dir, CacheMode::On))
                 .run(second);
    EXPECT_EQ(b.telemetry.simulatedCells, 0u);
    EXPECT_EQ(b.telemetry.cachedCells, 2u);

    // Each report is byte-identical to a direct run without a store.
    EXPECT_EQ(jsonReport(a),
              jsonReport(ExperimentRunner(registryCache()).run(first)));
    EXPECT_EQ(jsonReport(b),
              jsonReport(ExperimentRunner(registryCache()).run(second)));
}

} // namespace
