/**
 * @file
 * Tests for the pluggable cell-execution layer: shard manifest and
 * CASSCR1 cell-result round trips (corrupt files rejected with typed
 * errors), the shards x threads oversubscription cap, the shard
 * schedulers (contiguous blocks vs. LPT bin packing over the recorded
 * cost model), scratch-directory lifetime (removed on success, kept
 * on failure), and the subprocess executor against the real
 * `run_experiment --worker` binary — 1-shard parity with the
 * in-process executor across every scheme, determinism across shard
 * counts, the crashed-worker retry path and the typed WorkerError
 * with captured stderr.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <stdexcept>
#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "core/cell_executor.hh"
#include "core/experiment.hh"
#include "core/experiment_config.hh"
#include "core/result_store.hh"
#include "core/serialize.hh"
#include "crypto/workload_registry.hh"
#include "tests/trace_test_util.hh"

namespace {

using namespace cassandra;
using core::ArtifactMap;
using core::CellResult;
using core::ExecutionMode;
using core::ExperimentMatrix;
using core::ExperimentRunner;
using core::IndexedCellResult;
using core::InProcessExecutor;
using core::PlannedCell;
using core::RunnerOptions;
using core::ShardManifest;
using core::SimConfig;
using core::SubprocessShardExecutor;
using core::WorkerError;
using uarch::Scheme;

constexpr Scheme allSchemes[] = {
    Scheme::UnsafeBaseline, Scheme::Cassandra,  Scheme::CassandraStl,
    Scheme::CassandraLite,  Scheme::Spt,        Scheme::Prospect,
    Scheme::CassandraProspect};

#ifdef CASSANDRA_RUN_EXPERIMENT_BINARY
const char *workerBinary = CASSANDRA_RUN_EXPERIMENT_BINARY;
#else
const char *workerBinary = nullptr;
#endif

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

ExperimentMatrix
allSchemesMatrix()
{
    ExperimentMatrix m;
    m.workloads = {"ChaCha20_ct", "SHAKE"};
    m.schemes.assign(std::begin(allSchemes), std::end(allSchemes));
    SimConfig base;
    m.configs = {base, base.withBtuGeometry(1, 4).named("btu-1x4")};
    return m;
}

RunnerOptions
subprocessOptions(unsigned shards)
{
    RunnerOptions options;
    options.execution = ExecutionMode::Subprocess;
    options.shards = shards;
    options.workerBinary = workerBinary ? workerBinary : "";
    return options;
}

// ---------------------------------------------------------------------
// Shard manifest round trip
// ---------------------------------------------------------------------

TEST(ShardManifestTest, RoundTripsCellsAndConfigs)
{
    ShardManifest manifest;
    manifest.shardIndex = 3;
    manifest.workerThreads = 2;
    manifest.streamDir = "/tmp/scratch";
    manifest.artifacts = {{"ChaCha20_ct", "/tmp/scratch/c.aw"},
                          {"synthetic/aes/25", "/tmp/scratch/s.aw"}};

    PlannedCell cell;
    cell.workload = "synthetic/aes/25";
    cell.scheme = Scheme::CassandraStl;
    cell.config = test::everyParamSimConfig().named("sweep");
    cell.config.traceMode = core::TraceMode::Stream;
    manifest.indices = {17};
    manifest.cells = {cell};

    auto back = core::unpackShardManifest(
        core::packShardManifest(manifest));
    EXPECT_EQ(back.shardIndex, 3u);
    EXPECT_EQ(back.workerThreads, 2u);
    EXPECT_EQ(back.streamDir, "/tmp/scratch");
    EXPECT_EQ(back.artifacts, manifest.artifacts);
    ASSERT_EQ(back.cells.size(), 1u);
    EXPECT_EQ(back.indices, manifest.indices);
    const PlannedCell &c = back.cells[0];
    EXPECT_EQ(c.workload, "synthetic/aes/25");
    EXPECT_EQ(c.scheme, Scheme::CassandraStl);
    EXPECT_EQ(c.config.name, "sweep");
    EXPECT_EQ(c.config.traceMode, core::TraceMode::Stream);

    // All 38 parameters, spelled out independently of the list the
    // codec iterates.
    const uarch::CoreParams &want = cell.config.core;
    const uarch::CoreParams &got = c.config.core;
    EXPECT_EQ(got.fetchWidth, want.fetchWidth);
    EXPECT_EQ(got.commitWidth, want.commitWidth);
    EXPECT_EQ(got.issueWidth, want.issueWidth);
    EXPECT_EQ(got.robSize, want.robSize);
    EXPECT_EQ(got.iqSize, want.iqSize);
    EXPECT_EQ(got.lqSize, want.lqSize);
    EXPECT_EQ(got.sqSize, want.sqSize);
    EXPECT_EQ(got.intRegs, want.intRegs);
    EXPECT_EQ(got.frontendDepth, want.frontendDepth);
    EXPECT_EQ(got.decodeRedirect, want.decodeRedirect);
    EXPECT_EQ(got.redirectPenalty, want.redirectPenalty);
    EXPECT_EQ(got.numAlu, want.numAlu);
    EXPECT_EQ(got.numMul, want.numMul);
    EXPECT_EQ(got.numLsu, want.numLsu);
    EXPECT_EQ(got.aluLatency, want.aluLatency);
    EXPECT_EQ(got.mulLatency, want.mulLatency);
    EXPECT_EQ(got.storeLatency, want.storeLatency);
    const std::pair<const uarch::CacheParams *, const uarch::CacheParams *>
        caches[] = {{&got.l1i, &want.l1i},
                    {&got.l1d, &want.l1d},
                    {&got.l2, &want.l2},
                    {&got.l3, &want.l3}};
    for (const auto &[g, w] : caches) {
        EXPECT_EQ(g->sizeBytes, w->sizeBytes);
        EXPECT_EQ(g->lineBytes, w->lineBytes);
        EXPECT_EQ(g->ways, w->ways);
        EXPECT_EQ(g->latency, w->latency);
    }
    EXPECT_EQ(got.memLatency, want.memLatency);
    EXPECT_EQ(got.btuFlushPeriod, want.btuFlushPeriod);
    EXPECT_EQ(c.config.btu.sets, cell.config.btu.sets);
    EXPECT_EQ(c.config.btu.ways, cell.config.btu.ways);
    EXPECT_EQ(c.config.btu.fillLatency, cell.config.btu.fillLatency);
}

TEST(ShardManifestTest, BytesArePinned)
{
    // A one-cell manifest carrying every SimConfig parameter. The hex
    // was produced by the field-by-field codec the parameter list
    // replaced; manifests must not change by a byte.
    ShardManifest manifest;
    manifest.shardIndex = 1;
    manifest.workerThreads = 2;
    manifest.streamDir = "s";
    manifest.artifacts = {{"SHAKE", "a.aw"}};
    PlannedCell cell;
    cell.workload = "SHAKE";
    cell.scheme = Scheme::Cassandra;
    cell.config = test::everyParamSimConfig();
    cell.config.traceMode = core::TraceMode::Stream;
    manifest.indices = {5};
    manifest.cells = {cell};

    const std::string header = "43415353534d310a" // magic
                               "02000000"         // version
                               "01000000"         // shardIndex
                               "02000000"         // workerThreads
                               "0100000073"       // streamDir
                               "01000000"         // numArtifacts
                               "050000005348414b45"
                               "04000000612e6177"
                               "01000000"          // numCells
                               "05000000"          // global index
                               "050000005348414b45" // workload
                               "0900000043617373616e647261"; // scheme
    const std::string config =
        "0b00000065766572792d706172616d" // name
        "0300000005000000070000002d0100003d0000004700000053000000"
        "bf0000000b000000020000000d000000040000000600000009000000"
        "0a0000000e0000000f000000" // 17 core scalars
        "00400000200000001100000012000000" // l1i
        "00a00000800000001300000014000000" // l1d
        "00000800000100001500000016000000" // l2
        "00008000000200001700000018000000" // l3
        "fa000000"                        // memLatency
        "001bb70000000000"                // btuFlushPeriod
        "1a00000000000000"                // btu sets
        "1b00000000000000"                // btu ways
        "1c000000"                        // btu fillLatency
        "01";                             // trace mode (stream)
    EXPECT_EQ(test::hexBytes(core::packShardManifest(manifest)),
              header + config);
}

TEST(ShardManifestTest, CorruptManifestIsRejected)
{
    ShardManifest manifest;
    manifest.indices = {0};
    manifest.cells = {PlannedCell{"ChaCha20_ct", Scheme::Cassandra,
                                  SimConfig{}}};
    auto bytes = core::packShardManifest(manifest);

    std::vector<uint8_t> bad_magic = bytes;
    bad_magic[0] ^= 0xff;
    EXPECT_THROW(core::unpackShardManifest(bad_magic),
                 core::ArtifactFormatError);

    std::vector<uint8_t> bad_version = bytes;
    bad_version[8] = 9;
    EXPECT_THROW(core::unpackShardManifest(bad_version),
                 core::ArtifactFormatError);

    std::vector<uint8_t> cut(bytes.begin(), bytes.end() - 7);
    EXPECT_THROW(core::unpackShardManifest(cut), std::invalid_argument);
}

// ---------------------------------------------------------------------
// CASSCR1 cell-result sets
// ---------------------------------------------------------------------

std::vector<IndexedCellResult>
sampleResults()
{
    std::vector<IndexedCellResult> cells;
    for (uint32_t i : {7u, 2u, 11u}) { // out-of-order on purpose
        IndexedCellResult entry;
        entry.index = i;
        entry.cell.workload = "w" + std::to_string(i);
        entry.cell.suite = "Suite";
        entry.cell.scheme = Scheme::CassandraProspect;
        entry.cell.config = "cfg";
        entry.cell.result.stats.cycles = 1000 + i;
        entry.cell.result.stats.instructions = 500 + i;
        entry.cell.result.btu.lookups = 40 + i;
        entry.cell.result.bpu.updates = 30 + i;
        entry.cell.result.caches.l3Misses = 20 + i;
        cells.push_back(entry);
    }
    return cells;
}

TEST(CellResultsTest, RoundTripPreservesOrderAndCounters)
{
    auto cells = sampleResults();
    auto back = core::unpackCellResults(core::packCellResults(cells));
    ASSERT_EQ(back.size(), cells.size());
    for (size_t i = 0; i < cells.size(); i++) {
        EXPECT_EQ(back[i].index, cells[i].index);
        EXPECT_EQ(back[i].cell.workload, cells[i].cell.workload);
        EXPECT_EQ(back[i].cell.suite, cells[i].cell.suite);
        EXPECT_EQ(back[i].cell.scheme, cells[i].cell.scheme);
        EXPECT_EQ(back[i].cell.config, cells[i].cell.config);
        EXPECT_EQ(back[i].cell.result.stats.cycles,
                  cells[i].cell.result.stats.cycles);
        EXPECT_EQ(back[i].cell.result.btu.lookups,
                  cells[i].cell.result.btu.lookups);
        EXPECT_EQ(back[i].cell.result.bpu.updates,
                  cells[i].cell.result.bpu.updates);
        EXPECT_EQ(back[i].cell.result.caches.l3Misses,
                  cells[i].cell.result.caches.l3Misses);
    }
}

TEST(CellResultsTest, CorruptSetsAreRejected)
{
    auto bytes = core::packCellResults(sampleResults());

    std::vector<uint8_t> bad_magic = bytes;
    bad_magic[2] ^= 0xff;
    EXPECT_THROW(core::unpackCellResults(bad_magic),
                 core::ArtifactFormatError);

    std::vector<uint8_t> bad_version = bytes;
    bad_version[8] = 9;
    EXPECT_THROW(core::unpackCellResults(bad_version),
                 core::ArtifactFormatError);

    std::vector<uint8_t> cut(bytes.begin(), bytes.end() - 9);
    EXPECT_THROW(core::unpackCellResults(cut), std::invalid_argument);

    std::vector<uint8_t> trailing = bytes;
    trailing.push_back(0);
    EXPECT_THROW(core::unpackCellResults(trailing),
                 std::invalid_argument);

    // File-level loads reject the same way (the coordinator's merge
    // treats this as a shard failure and retries).
    const std::string path = test::scratchPath("corrupt.crs");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bad_magic.data()),
                  static_cast<std::streamsize>(bad_magic.size()));
    }
    EXPECT_THROW(core::loadCellResults(path),
                 core::ArtifactFormatError);
}

// ---------------------------------------------------------------------
// Thread / shard sizing
// ---------------------------------------------------------------------

TEST(RunnerOptionsTest, ShardThreadCapNeverOversubscribes)
{
    // The documented formula: an even split of resolveThreads(work),
    // min 1, clamped to the largest per-shard cell count.
    EXPECT_EQ(RunnerOptions(8).resolveThreads(100, 4), 2u);
    EXPECT_EQ(RunnerOptions(8).resolveThreads(100, 2), 4u);
    EXPECT_EQ(RunnerOptions(2).resolveThreads(100, 4), 1u); // min 1
    // Clamped to per-shard cells: 4 cells over 4 shards -> 1 each.
    EXPECT_EQ(RunnerOptions(64).resolveThreads(4, 4), 1u);
    // shards x threads stays within the machine-wide budget.
    for (unsigned threads : {1u, 2u, 5u, 8u, 16u}) {
        RunnerOptions opts(threads);
        for (unsigned shards : {1u, 2u, 3u, 7u}) {
            EXPECT_LE(shards * opts.resolveThreads(64, shards),
                      std::max(shards, opts.resolveThreads(64)))
                << threads << " threads / " << shards << " shards";
        }
    }
}

TEST(RunnerOptionsTest, ShardCountClampsToWork)
{
    RunnerOptions opts;
    opts.shards = 8;
    EXPECT_EQ(opts.resolveShards(3), 3u);
    EXPECT_EQ(opts.resolveShards(100), 8u);
    opts.shards = 0; // auto stays sane
    EXPECT_GE(opts.resolveShards(100), 1u);
    EXPECT_LE(opts.resolveShards(2), 2u);
}

TEST(SubprocessExecutorTest, WorkerBinaryIsRequired)
{
    EXPECT_THROW(SubprocessShardExecutor(
                     SubprocessShardExecutor::Options{}),
                 std::invalid_argument);
    RunnerOptions options;
    options.execution = ExecutionMode::Subprocess;
    EXPECT_THROW(ExperimentRunner(registryCache(), options),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// Shard schedulers
// ---------------------------------------------------------------------

uint64_t
shardLoad(const std::vector<uint64_t> &costs,
          const std::vector<uint32_t> &indices)
{
    uint64_t load = 0;
    for (uint32_t i : indices)
        load += costs[i];
    return load;
}

uint64_t
maxShardLoad(const std::vector<uint64_t> &costs,
             const std::vector<std::vector<uint32_t>> &shards)
{
    uint64_t max = 0;
    for (const auto &shard : shards)
        max = std::max(max, shardLoad(costs, shard));
    return max;
}

/** Every index 0..n-1 appears exactly once across the shards. */
void
expectCoversAllCells(const std::vector<std::vector<uint32_t>> &shards,
                     size_t n)
{
    std::vector<unsigned> seen(n, 0);
    for (const auto &shard : shards)
        for (uint32_t i : shard) {
            ASSERT_LT(i, n);
            seen[i]++;
        }
    for (size_t i = 0; i < n; i++)
        EXPECT_EQ(seen[i], 1u) << "cell " << i;
}

TEST(ShardSchedulerTest, ContiguousReproducesBlockPartition)
{
    const std::vector<uint64_t> costs(10, 1);
    auto shards = core::scheduleShards(core::ShardScheduler::Contiguous,
                                       costs, 3);
    ASSERT_EQ(shards.size(), 3u);
    // The historical split: 10 cells over 3 shards -> 4 + 3 + 3,
    // in index order.
    EXPECT_EQ(shards[0],
              (std::vector<uint32_t>{0, 1, 2, 3}));
    EXPECT_EQ(shards[1], (std::vector<uint32_t>{4, 5, 6}));
    EXPECT_EQ(shards[2], (std::vector<uint32_t>{7, 8, 9}));
}

TEST(ShardSchedulerTest, LptIsolatesTheHugeCell)
{
    // One cell dwarfs the rest: contiguous buries it with neighbors,
    // LPT gives it a shard of its own.
    const std::vector<uint64_t> costs{100, 1, 1, 1, 1, 1};
    auto contiguous = core::scheduleShards(
        core::ShardScheduler::Contiguous, costs, 2);
    auto lpt =
        core::scheduleShards(core::ShardScheduler::Lpt, costs, 2);
    expectCoversAllCells(contiguous, costs.size());
    expectCoversAllCells(lpt, costs.size());
    EXPECT_EQ(maxShardLoad(costs, contiguous), 102u); // 100+1+1
    EXPECT_EQ(maxShardLoad(costs, lpt), 100u);        // alone
}

TEST(ShardSchedulerTest, LptCoversAllCellsAndLeavesNoShardEmpty)
{
    const std::vector<uint64_t> costs{5, 4, 3, 2, 1};
    auto shards =
        core::scheduleShards(core::ShardScheduler::Lpt, costs, 3);
    ASSERT_EQ(shards.size(), 3u);
    expectCoversAllCells(shards, costs.size());
    for (const auto &shard : shards) {
        EXPECT_FALSE(shard.empty());
        // Within a shard the global indices stay ascending so workers
        // simulate in plan order.
        EXPECT_TRUE(std::is_sorted(shard.begin(), shard.end()));
    }
}

TEST(ShardSchedulerTest, LptIsDeterministicUnderTies)
{
    const std::vector<uint64_t> costs{7, 7, 7, 7, 7, 7, 7, 7};
    auto first =
        core::scheduleShards(core::ShardScheduler::Lpt, costs, 3);
    auto second =
        core::scheduleShards(core::ShardScheduler::Lpt, costs, 3);
    EXPECT_EQ(first, second);
    expectCoversAllCells(first, costs.size());
}

TEST(ShardSchedulerTest, LptNeverWorseThanContiguous)
{
    // A handful of skewed shapes; LPT's max load must never exceed
    // the contiguous split's.
    const std::vector<std::vector<uint64_t>> shapes = {
        {1000, 1, 1, 1, 1, 1, 1, 1},
        {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
        {50, 50, 1, 1, 50, 50, 1, 1},
        {9, 9, 9, 1, 1, 1, 1, 1, 1, 1, 1, 1},
    };
    for (const auto &costs : shapes) {
        for (unsigned shards : {2u, 3u, 4u}) {
            auto contiguous = core::scheduleShards(
                core::ShardScheduler::Contiguous, costs, shards);
            auto lpt = core::scheduleShards(core::ShardScheduler::Lpt,
                                            costs, shards);
            expectCoversAllCells(lpt, costs.size());
            EXPECT_LE(maxShardLoad(costs, lpt),
                      maxShardLoad(costs, contiguous))
                << costs.size() << " cells / " << shards << " shards";
        }
    }
}

TEST(ShardSchedulerTest, CostsFallBackToStaticOpsWithoutAStore)
{
    auto cache = registryCache();
    ArtifactMap artifacts;
    artifacts["ChaCha20_ct"] = cache->get("ChaCha20_ct");
    artifacts["SHAKE"] = cache->get("SHAKE");

    std::vector<PlannedCell> cells;
    for (const char *name : {"ChaCha20_ct", "SHAKE"})
        cells.push_back(
            PlannedCell{name, Scheme::Cassandra, SimConfig{}});
    auto costs = core::estimateCellCosts(cells, artifacts, nullptr);
    ASSERT_EQ(costs.size(), 2u);
    EXPECT_EQ(costs[0], artifacts["ChaCha20_ct"]->numOps());
    EXPECT_EQ(costs[1], artifacts["SHAKE"]->numOps());
}

#ifdef CASSANDRA_CONFIG_DIR

/**
 * Satellite acceptance: on the checked-in skewed smoke config
 * (kyber768 vs. DES_ct — three orders of magnitude apart), LPT's
 * max-shard cost beats the contiguous split on the *recorded* cost
 * model (prior cycles from a warm result store).
 */
TEST(ShardSchedulerTest, LptBeatsContiguousOnSkewedSmokeConfig)
{
    const auto spec = core::loadExperimentSpec(
        std::string(CASSANDRA_CONFIG_DIR) + "/ci_smoke_skewed.json");
    ASSERT_EQ(spec.runner.scheduler, core::ShardScheduler::Lpt);

    // Record the real per-cell cycle counts into a fresh store.
    const std::string dir =
        test::scratchPath("skewed-cost-store");
    RunnerOptions options;
    options.cacheMode = core::CacheMode::On;
    options.cacheDir = dir;
    auto exp = ExperimentRunner(registryCache(), options)
                   .run(spec.matrix);
    core::ResultStore store(dir);

    // The planned cells, in the runner's plan order.
    std::vector<PlannedCell> cells;
    for (const auto &workload : spec.matrix.workloads)
        for (Scheme scheme : spec.matrix.schemes)
            for (const SimConfig &config : spec.matrix.configs) {
                PlannedCell cell;
                cell.workload = workload;
                cell.scheme = scheme;
                cell.config = config;
                cells.push_back(cell);
            }
    ASSERT_EQ(cells.size(), exp.cells.size());

    auto costs = core::estimateCellCosts(cells, exp.artifacts, &store);
    // Every cell was just recorded, so every cost is a real cycle
    // count (the store never returns 0 for a recorded cell).
    for (size_t i = 0; i < cells.size(); i++) {
        PlannedCell &cell = cells[i];
        SimConfig keyed = cell.config;
        keyed.scheme = cell.scheme;
        const auto key = core::resultStoreKey(
            exp.artifacts.at(cell.workload)->workload(), cell.scheme,
            keyed);
        EXPECT_EQ(costs[i], store.peekCycles(key)) << "cell " << i;
        EXPECT_GT(costs[i], 0u);
    }

    auto contiguous = core::scheduleShards(
        core::ShardScheduler::Contiguous, costs, 4);
    auto lpt =
        core::scheduleShards(core::ShardScheduler::Lpt, costs, 4);
    expectCoversAllCells(lpt, costs.size());
    EXPECT_LT(maxShardLoad(costs, lpt), maxShardLoad(costs, contiguous));
}

#endif // CASSANDRA_CONFIG_DIR

// ---------------------------------------------------------------------
// Subprocess execution against the real worker binary
// ---------------------------------------------------------------------

#if !defined(_WIN32)

TEST(SubprocessExecutorTest, OneShardMatchesInProcessAllSchemes)
{
    ASSERT_NE(workerBinary, nullptr);
    const ExperimentMatrix matrix = allSchemesMatrix();
    auto inproc = ExperimentRunner(registryCache()).run(matrix);
    auto subproc =
        ExperimentRunner(registryCache(), subprocessOptions(1))
            .run(matrix);
    // The executor contract: byte-identical reports, not just equal
    // cycle counts.
    EXPECT_EQ(jsonReport(inproc), jsonReport(subproc));
}

TEST(SubprocessExecutorTest, DeterministicAcrossShardCounts)
{
    ASSERT_NE(workerBinary, nullptr);
    ExperimentMatrix matrix;
    matrix.workloads = {"ChaCha20_ct", "SHAKE"};
    matrix.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra,
                      Scheme::Spt};
    const std::string want =
        jsonReport(ExperimentRunner(registryCache()).run(matrix));
    // Different shard counts partition the cells differently; the
    // merge by global index must make that invisible.
    for (unsigned shards : {2u, 3u, 5u}) {
        auto exp =
            ExperimentRunner(registryCache(),
                             subprocessOptions(shards))
                .run(matrix);
        EXPECT_EQ(want, jsonReport(exp)) << shards << " shards";
    }
}

TEST(SubprocessExecutorTest, CrashedWorkerCellsAreRetriedInProcess)
{
    ASSERT_NE(workerBinary, nullptr);
    ExperimentMatrix matrix;
    matrix.workloads = {"ChaCha20_ct", "SHAKE"};
    matrix.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra};
    const std::string want =
        jsonReport(ExperimentRunner(registryCache()).run(matrix));

    SubprocessShardExecutor::Options opts;
    opts.shards = 2;
    opts.workerBinary = workerBinary;
    auto executor = std::make_shared<SubprocessShardExecutor>(opts);
    ASSERT_EQ(setenv("CASSANDRA_TEST_WORKER_CRASH", "1", 1), 0);
    auto exp = ExperimentRunner(registryCache(),
                                subprocessOptions(2), executor)
                   .run(matrix);
    unsetenv("CASSANDRA_TEST_WORKER_CRASH");

    EXPECT_EQ(want, jsonReport(exp));
    EXPECT_EQ(executor->stats().shardsLaunched, 2u);
    EXPECT_EQ(executor->stats().shardsFailed, 1u);
    EXPECT_GT(executor->stats().cellsRetried, 0u);
}

/** Names of the entries (excluding . and ..) in a directory. */
std::vector<std::string>
listDir(const std::string &path)
{
    std::vector<std::string> names;
    if (DIR *dir = opendir(path.c_str())) {
        while (dirent *entry = readdir(dir)) {
            const std::string name = entry->d_name;
            if (name != "." && name != "..")
                names.push_back(name);
        }
        closedir(dir);
    }
    return names;
}

TEST(SubprocessExecutorTest, ScratchDirIsRemovedOnSuccess)
{
    ASSERT_NE(workerBinary, nullptr);
    // Process-unique: kept directories from prior (failed) test runs
    // must not leak into this run's assertions.
    const std::string base = testing::TempDir() + "/scratch-success-" +
        std::to_string(getpid());
    ExperimentMatrix matrix;
    matrix.workloads = {"ChaCha20_ct"};
    matrix.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra};

    SubprocessShardExecutor::Options opts;
    opts.shards = 2;
    opts.workerBinary = workerBinary;
    opts.scratchDir = base;
    auto executor = std::make_shared<SubprocessShardExecutor>(opts);
    ExperimentRunner(registryCache(), subprocessOptions(2), executor)
        .run(matrix);

    // The per-call subdirectory (manifests, result sets, stderr
    // captures) is swept after a successful run.
    EXPECT_TRUE(listDir(base).empty());
}

TEST(SubprocessExecutorTest, ScratchDirIsKeptOnFailure)
{
    ASSERT_NE(workerBinary, nullptr);
    const std::string base = testing::TempDir() + "/scratch-failure-" +
        std::to_string(getpid());
    ExperimentMatrix matrix;
    matrix.workloads = {"ChaCha20_ct"};
    matrix.schemes = {Scheme::UnsafeBaseline};

    SubprocessShardExecutor::Options opts;
    opts.shards = 1;
    opts.workerBinary = workerBinary;
    opts.scratchDir = base;
    opts.retryInProcess = false; // make the crash fatal
    auto executor = std::make_shared<SubprocessShardExecutor>(opts);
    ExperimentRunner runner(registryCache(), subprocessOptions(1),
                            executor);
    ASSERT_EQ(setenv("CASSANDRA_TEST_WORKER_CRASH", "0", 1), 0);
    EXPECT_THROW(runner.run(matrix), WorkerError);
    unsetenv("CASSANDRA_TEST_WORKER_CRASH");

    // The failed run's scratch subdirectory survives, with the
    // manifest and captured stderr inside for debugging.
    const auto kept = listDir(base);
    ASSERT_EQ(kept.size(), 1u);
    EXPECT_FALSE(listDir(base + "/" + kept[0]).empty());
}

TEST(SubprocessExecutorTest, WorkerFailureIsTypedWithStderr)
{
    ASSERT_NE(workerBinary, nullptr);
    ExperimentMatrix matrix;
    matrix.workloads = {"ChaCha20_ct"};
    matrix.schemes = {Scheme::UnsafeBaseline};

    SubprocessShardExecutor::Options opts;
    opts.shards = 1;
    opts.workerBinary = workerBinary;
    opts.retryInProcess = false; // surface the failure directly
    auto executor = std::make_shared<SubprocessShardExecutor>(opts);
    ExperimentRunner runner(registryCache(), subprocessOptions(1),
                            executor);
    ASSERT_EQ(setenv("CASSANDRA_TEST_WORKER_CRASH", "0", 1), 0);
    try {
        runner.run(matrix);
        unsetenv("CASSANDRA_TEST_WORKER_CRASH");
        FAIL() << "expected WorkerError";
    } catch (const WorkerError &e) {
        unsetenv("CASSANDRA_TEST_WORKER_CRASH");
        EXPECT_EQ(e.shard(), 0u);
        // The shard's stderr rides along on the typed error.
        EXPECT_NE(e.stderrText().find("injected crash"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("status 42"),
                  std::string::npos);
    }
}

#endif // !_WIN32

} // namespace
