/**
 * @file
 * Tests for the unified experiment API: SimConfig plumbing through
 * Simulation -> OooCore -> Btu (BTU geometry really reaches the
 * unit), ExperimentRunner determinism across thread counts, parity
 * with fresh single-workload analyses, grouped replay (whole and
 * stream) against per-cell replay, run telemetry, and the structured
 * reporters.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "core/experiment.hh"
#include "core/serialize.hh"
#include "core/sim_config.hh"
#include "core/trace_stream.hh"
#include "crypto/workload_registry.hh"
#include "tests/trace_test_util.hh"

namespace {

using namespace cassandra;
using core::ExperimentMatrix;
using core::ExperimentRunner;
using core::RunnerOptions;
using core::SimConfig;
using uarch::Scheme;

core::Workload
workload(const char *name)
{
    return crypto::WorkloadRegistry::global().make(name);
}

TEST(SimConfigTest, FluentDerivationsOnlyTouchTheirKnob)
{
    SimConfig base;
    SimConfig derived = base.withBtuGeometry(2, 4)
                            .withBtuFillLatency(40)
                            .withScheme(Scheme::Cassandra)
                            .named("sweep");
    EXPECT_EQ(derived.btu.sets, 2u);
    EXPECT_EQ(derived.btu.ways, 4u);
    EXPECT_EQ(derived.btu.fillLatency, 40u);
    EXPECT_EQ(derived.scheme, Scheme::Cassandra);
    EXPECT_EQ(derived.name, "sweep");
    EXPECT_EQ(derived.core.robSize, base.core.robSize);
    // The base is untouched.
    EXPECT_EQ(base.btu.ways, 16u);
    EXPECT_EQ(base.scheme, Scheme::UnsafeBaseline);
    EXPECT_EQ(base.name, "default");
}

TEST(SimConfigTest, BtuGeometryReachesTheUnit)
{
    // A branch-rich workload whose crypto working set exceeds one BTU
    // entry: shrinking to a single entry must force evictions and
    // change the cycle count.
    core::Simulation sys(
        core::AnalyzedWorkload::analyze(workload("SHA-256")));
    SimConfig cass;
    cass.scheme = Scheme::Cassandra;

    auto full = sys.run(cass);
    auto tiny = sys.run(cass.withBtuGeometry(1, 1));

    EXPECT_EQ(full.btu.evictions, 0u);
    EXPECT_GT(tiny.btu.evictions, 0u);
    EXPECT_NE(full.stats.cycles, tiny.stats.cycles);
    EXPECT_LT(full.stats.cycles, tiny.stats.cycles);
    // Replay stays exact regardless of geometry.
    EXPECT_EQ(full.stats.btuMismatches, 0u);
    EXPECT_EQ(tiny.stats.btuMismatches, 0u);
}

TEST(SimConfigTest, FillLatencyReachesTheMissPath)
{
    core::Simulation sys(
        core::AnalyzedWorkload::analyze(workload("SHA-256")));
    SimConfig tiny;
    tiny.scheme = Scheme::Cassandra;
    tiny = tiny.withBtuGeometry(1, 1); // evictions -> refills

    auto fast = sys.run(tiny.withBtuFillLatency(1));
    auto slow = sys.run(tiny.withBtuFillLatency(400));
    EXPECT_LT(fast.stats.cycles, slow.stats.cycles);
}

TEST(SimConfigTest, CoreParamsStillApply)
{
    core::Simulation sys(
        core::AnalyzedWorkload::analyze(workload("ChaCha20_ct")));
    SimConfig wide;
    wide.scheme = Scheme::Cassandra;
    SimConfig narrow = wide;
    narrow.core.fetchWidth = 1;
    narrow.core.issueWidth = 1;
    narrow.core.commitWidth = 1;
    EXPECT_GT(sys.run(narrow).stats.cycles, sys.run(wide).stats.cycles);
}

TEST(SimConfigTest, SchemeOverloadMatchesSimConfig)
{
    core::Simulation sys(
        core::AnalyzedWorkload::analyze(workload("ChaCha20_ct")));
    for (Scheme s : {Scheme::UnsafeBaseline, Scheme::Cassandra,
                     Scheme::CassandraLite, Scheme::Spt}) {
        SimConfig cfg;
        cfg.scheme = s;
        EXPECT_EQ(sys.run(s).stats.cycles, sys.run(cfg).stats.cycles)
            << uarch::schemeName(s);
    }
}

ExperimentMatrix
smallMatrix()
{
    ExperimentMatrix m;
    m.workloads = {"ChaCha20_ct", "SHAKE", "synthetic/chacha20/0"};
    m.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra};
    return m;
}

TEST(ExperimentRunnerTest, DeterministicAcrossThreadCounts)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto one = ExperimentRunner(resolver, RunnerOptions{1})
                   .run(smallMatrix());
    auto four = ExperimentRunner(resolver, RunnerOptions{4})
                    .run(smallMatrix());

    ASSERT_EQ(one.cells.size(), 6u);
    ASSERT_EQ(four.cells.size(), one.cells.size());
    for (size_t i = 0; i < one.cells.size(); i++) {
        EXPECT_EQ(one.cells[i].workload, four.cells[i].workload);
        EXPECT_EQ(one.cells[i].scheme, four.cells[i].scheme);
        EXPECT_EQ(one.cells[i].result.stats.cycles,
                  four.cells[i].result.stats.cycles)
            << one.cells[i].workload;
        EXPECT_EQ(one.cells[i].result.btu.lookups,
                  four.cells[i].result.btu.lookups);
    }
}

TEST(ExperimentRunnerTest, ParityWithFreshAnalyses)
{
    auto exp = ExperimentRunner(
                   crypto::WorkloadRegistry::global().resolver(),
                   RunnerOptions{3})
                   .run(smallMatrix());
    for (const auto &cell : exp.cells) {
        core::Simulation sys(core::AnalyzedWorkload::analyze(
            workload(cell.workload.c_str())));
        auto fresh = sys.run(cell.scheme);
        EXPECT_EQ(cell.result.stats.cycles, fresh.stats.cycles)
            << cell.workload << " / "
            << uarch::schemeName(cell.scheme);
        EXPECT_EQ(cell.result.stats.instructions,
                  fresh.stats.instructions);
    }
}

TEST(ExperimentRunnerTest, MatrixOrderAndFind)
{
    ExperimentMatrix m;
    m.workloads = {"ChaCha20_ct"};
    m.schemes = {Scheme::Cassandra};
    SimConfig base;
    m.configs = {base, base.withBtuGeometry(1, 1).named("ways=1")};
    auto exp = ExperimentRunner(
                   crypto::WorkloadRegistry::global().resolver())
                   .run(m);
    ASSERT_EQ(exp.cells.size(), 2u);
    EXPECT_EQ(exp.cells[0].config, "default");
    EXPECT_EQ(exp.cells[1].config, "ways=1");
    EXPECT_EQ(exp.find("ChaCha20_ct", Scheme::Cassandra, "ways=1"),
              &exp.cells[1]);
    EXPECT_EQ(exp.find("ChaCha20_ct", Scheme::Cassandra),
              &exp.cells[0]);
    EXPECT_EQ(exp.find("ChaCha20_ct", Scheme::Spt), nullptr);
    EXPECT_EQ(exp.find("DES_ct", Scheme::Cassandra), nullptr);
}

TEST(ExperimentRunnerTest, UnknownWorkloadRethrows)
{
    ExperimentMatrix m;
    m.workloads = {"rot13"};
    m.schemes = {Scheme::UnsafeBaseline};
    ExperimentRunner runner(
        crypto::WorkloadRegistry::global().resolver(), RunnerOptions{2});
    EXPECT_THROW(runner.run(m), std::invalid_argument);
}

/** Every counter of a cell, as the result store packs them. */
std::vector<uint8_t>
packed(const core::ExperimentResult &r)
{
    core::ByteWriter w;
    core::packExperimentResult(w, r);
    return w.take();
}

TEST(GroupedReplayTest, MatchesPerCellReplayAndDecodesEachFrameOnce)
{
    for (core::TraceMode mode :
         {core::TraceMode::Whole, core::TraceMode::Stream}) {
        SCOPED_TRACE(core::traceModeName(mode));
        core::AnalyzeOptions analyze;
        analyze.traceMode = mode;
        analyze.streamDir = test::scratchPath("grouped-replay");
        auto cache = std::make_shared<core::AnalysisCache>(
            crypto::WorkloadRegistry::global().resolver(), analyze);
        // DES_ct's trace has 20 frames, so the 8-frame ring wraps and
        // cells interleave over many turns; ChaCha20_ct's has one.
        ExperimentMatrix m;
        m.workloads = {"DES_ct", "ChaCha20_ct"};
        m.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra,
                     Scheme::CassandraStl,   Scheme::CassandraLite,
                     Scheme::Spt,            Scheme::Prospect,
                     Scheme::CassandraProspect};

        // The reference: one Simulation::run per cell, on the same
        // artifacts.
        uint64_t frames = 0;
        std::vector<std::vector<uint8_t>> want;
        for (const std::string &name : m.workloads) {
            const auto aw = cache->get(name, core::allAnalysisPhases);
            frames += aw->openOpSource()->numFrames();
            for (Scheme s : m.schemes)
                want.push_back(packed(core::Simulation(aw).run(s)));
        }
        ASSERT_GT(frames, 16u);

        for (unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            const auto exp =
                ExperimentRunner(cache, RunnerOptions{threads}).run(m);
            ASSERT_EQ(exp.cells.size(), want.size());
            for (size_t i = 0; i < want.size(); i++) {
                EXPECT_EQ(exp.cells[i].workload,
                          m.workloads[i / m.schemes.size()]);
                EXPECT_EQ(exp.cells[i].scheme,
                          m.schemes[i % m.schemes.size()]);
                EXPECT_EQ(packed(exp.cells[i].result), want[i])
                    << exp.cells[i].workload << " / "
                    << uarch::schemeName(exp.cells[i].scheme);
            }
            // Each trace decoded once, each frame replayed once per
            // cell.
            EXPECT_EQ(exp.telemetry.framesDecoded, frames);
            EXPECT_EQ(exp.telemetry.framesReplayed,
                      frames * m.schemes.size());
        }
    }
}

TEST(GroupedReplayTest, EmptyTraceCellsKeepLoneRunResults)
{
    // A snapshot whose trace section holds no op rebuilds an artifact
    // with no frame at all, held in memory or in a stream file. The
    // pool gives its cells no turn and does not wait for a frame that
    // never comes; each keeps the result its slot starts with, which
    // equals a lone Simulation::run.
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto bytes = test::snapshotBytes(
        *core::AnalyzedWorkload::analyze(resolver("ChaCha20_ct")),
        "ChaCha20_ct");
    uint32_t meta_len = 0;
    for (int i = 0; i < 4; i++)
        meta_len |= static_cast<uint32_t>(bytes[12 + i]) << (8 * i);
    bytes.resize(16 + meta_len);
    core::ByteWriter section;
    section.u8(0); // storage: in memory (1: a stream file)
    section.u64(0);
    section.u32(core::traceStreamDefaultFrameOps);
    const std::vector<uint8_t> tail = section.take();
    bytes.insert(bytes.end(), tail.begin(), tail.end());

    for (uint8_t storage : {0, 1}) {
        SCOPED_TRACE("storage=" + std::to_string(storage));
        bytes[16 + meta_len] = storage;
        const auto empty = test::loadSnapshotBytes(
            bytes, resolver, test::scratchPath("empty-trace"));
        ASSERT_EQ(empty->numOps(), 0u);
        ASSERT_EQ(empty->streamed(), storage == 1);

        auto cache = std::make_shared<core::AnalysisCache>(resolver);
        cache->put("ChaCha20_ct", empty);
        ExperimentMatrix m;
        m.workloads = {"ChaCha20_ct"};
        m.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra};
        for (unsigned threads : {1u, 4u}) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            const auto exp =
                ExperimentRunner(cache, RunnerOptions{threads}).run(m);
            ASSERT_EQ(exp.cells.size(), 2u);
            for (const auto &cell : exp.cells) {
                EXPECT_EQ(cell.result.stats.instructions, 0u);
                EXPECT_EQ(packed(cell.result),
                          packed(core::Simulation(empty).run(
                              cell.scheme)));
            }
            EXPECT_EQ(exp.telemetry.framesDecoded, 0u);
        }
    }
}

TEST(RunTelemetryTest, TraceBytesCountWholeModeFramesOnly)
{
    // The ci_smoke matrix: whole mode holds its traces as CASSTF2
    // frames, a few bytes per op; stream mode holds none in memory.
    ExperimentMatrix m;
    m.workloads = {"ChaCha20_ct", "SHAKE", "kyber512"};
    m.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra,
                 Scheme::CassandraStl, Scheme::Spt};
    SimConfig base;
    m.configs = {base, base.withBtuGeometry(1, 4).named("btu-4way")};
    for (core::TraceMode mode :
         {core::TraceMode::Whole, core::TraceMode::Stream}) {
        SCOPED_TRACE(core::traceModeName(mode));
        RunnerOptions options{2};
        options.analyze.traceMode = mode;
        options.analyze.streamDir = test::scratchPath("trace-bytes");
        const auto exp = ExperimentRunner(
                             crypto::WorkloadRegistry::global().resolver(),
                             options)
                             .run(m);
        uint64_t ops = 0;
        for (const auto &[name, aw] : exp.artifacts)
            ops += aw->numOps();
        if (mode == core::TraceMode::Whole) {
            EXPECT_GT(exp.telemetry.traceBytes, 0u);
            EXPECT_LT(exp.telemetry.traceBytes, 8 * ops);
        } else {
            EXPECT_EQ(exp.telemetry.traceBytes, 0u);
        }
        std::ostringstream stats;
        core::writeRunTelemetry(exp.telemetry, stats);
        EXPECT_NE(stats.str().find("\"trace_bytes\": " +
                                   std::to_string(exp.telemetry.traceBytes)),
                  std::string::npos);
    }
}

TEST(ReporterTest, JsonAndCsvCaptureEveryCell)
{
    ExperimentMatrix m;
    m.workloads = {"ChaCha20_ct"};
    m.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra};
    auto exp = ExperimentRunner(
                   crypto::WorkloadRegistry::global().resolver())
                   .run(m);

    std::ostringstream json;
    core::makeReporter("json")->write(exp, json);
    const std::string j = json.str();
    EXPECT_NE(j.find("\"results\""), std::string::npos);
    EXPECT_NE(j.find("\"workload\": \"ChaCha20_ct\""),
              std::string::npos);
    EXPECT_NE(j.find("\"scheme\": \"Cassandra\""), std::string::npos);
    EXPECT_NE(j.find("\"btu\""), std::string::npos);
    EXPECT_NE(j.find("\"caches\""), std::string::npos);
    // Derived metrics: per-cell normalization and the geomean block.
    EXPECT_NE(j.find("\"cycles_vs_baseline\""), std::string::npos);
    EXPECT_NE(j.find("\"geomeans\""), std::string::npos);
    EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
              std::count(j.begin(), j.end(), '}'));
    EXPECT_EQ(std::count(j.begin(), j.end(), '['),
              std::count(j.begin(), j.end(), ']'));

    std::ostringstream csv;
    core::makeReporter("csv")->write(exp, csv);
    const std::string c = csv.str();
    // Header + one row per cell + one geomean row per scheme.
    EXPECT_EQ(std::count(c.begin(), c.end(), '\n'), 5);
    EXPECT_NE(c.find("workload,suite,scheme,config,cycles"),
              std::string::npos);
    EXPECT_NE(c.find(",cycles_vs_baseline"), std::string::npos);
    EXPECT_NE(c.find("geomean,,UnsafeBaseline,default"),
              std::string::npos);
    EXPECT_NE(c.find("geomean,,Cassandra,default"), std::string::npos);

    std::ostringstream table;
    core::makeReporter("table")->write(exp, table);
    EXPECT_NE(table.str().find("ChaCha20_ct"), std::string::npos);
    EXPECT_NE(table.str().find("vs_base"), std::string::npos);
    EXPECT_NE(table.str().find("geomean"), std::string::npos);

    EXPECT_THROW(core::makeReporter("yaml"), std::invalid_argument);
}

TEST(DerivedMetricsTest, NormalizesToBaselineAndGroupsGeomeans)
{
    ExperimentMatrix m;
    m.workloads = {"ChaCha20_ct", "SHAKE"};
    m.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra};
    auto exp = ExperimentRunner(
                   crypto::WorkloadRegistry::global().resolver())
                   .run(m);
    auto derived = core::computeDerived(exp);
    ASSERT_EQ(derived.cyclesVsBaseline.size(), exp.cells.size());

    for (size_t i = 0; i < exp.cells.size(); i++) {
        const auto &cell = exp.cells[i];
        const auto *base =
            exp.find(cell.workload, Scheme::UnsafeBaseline);
        ASSERT_NE(base, nullptr);
        double expected =
            static_cast<double>(cell.result.stats.cycles) /
            base->result.stats.cycles;
        EXPECT_DOUBLE_EQ(derived.cyclesVsBaseline[i], expected)
            << cell.workload;
        if (cell.scheme == Scheme::UnsafeBaseline) {
            EXPECT_DOUBLE_EQ(derived.cyclesVsBaseline[i], 1.0);
        }
    }

    ASSERT_EQ(derived.geomeans.size(), 2u); // one per scheme
    for (const auto &g : derived.geomeans)
        EXPECT_EQ(g.workloads, 2u);
    EXPECT_EQ(derived.geomeans[0].scheme, Scheme::UnsafeBaseline);
    EXPECT_DOUBLE_EQ(derived.geomeans[0].cyclesVsBaseline, 1.0);
    EXPECT_EQ(derived.geomeans[1].scheme, Scheme::Cassandra);
    EXPECT_GT(derived.geomeans[1].cyclesVsBaseline, 0.0);
}

} // namespace
