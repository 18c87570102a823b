/**
 * @file
 * Tests for the two-phase experiment API: shared AnalyzedWorkload
 * artifacts are byte-identical to fresh single-workload analyses
 * across every scheme, the analysis runs exactly once per workload
 * under a multi-threaded matrix, and serialize -> deserialize of an
 * artifact round-trips into identical ExperimentResults.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/experiment.hh"
#include "core/serialize.hh"
#include "crypto/workload_registry.hh"
#include "tests/trace_test_util.hh"

namespace {

using namespace cassandra;
using core::AnalysisCache;
using core::AnalyzedWorkload;
using core::ExperimentMatrix;
using core::ExperimentRunner;
using core::RunnerOptions;
using core::SimConfig;
using core::Simulation;
using uarch::Scheme;

core::Workload
workload(const char *name)
{
    return crypto::WorkloadRegistry::global().make(name);
}

constexpr Scheme allSchemes[] = {
    Scheme::UnsafeBaseline, Scheme::Cassandra,  Scheme::CassandraStl,
    Scheme::CassandraLite,  Scheme::Spt,        Scheme::Prospect,
    Scheme::CassandraProspect};

TEST(AnalyzedWorkloadTest, SharedArtifactMatchesFreshAnalysisAllSchemes)
{
    // One workload without secrets and one synthetic mix with secret
    // regions (the ProSpeCT schemes exercise the precomputed taint
    // trace).
    for (const char *name :
         {"ChaCha20_ct", "synthetic/curve25519/50"}) {
        auto artifact = AnalyzedWorkload::analyze(workload(name));
        Simulation sim(artifact);
        for (Scheme s : allSchemes) {
            Simulation fresh(AnalyzedWorkload::analyze(workload(name)));
            test::expectSameCounters(
                sim.run(s), fresh.run(s),
                std::string(name) + " / " + uarch::schemeName(s));
        }
    }
}

TEST(AnalyzedWorkloadTest, TaintBitmapOnlyForSecretWorkloads)
{
    core::Workload plain = workload("ChaCha20_ct");
    plain.secretRegions.clear();
    auto no_secrets = AnalyzedWorkload::analyze(std::move(plain));
    const auto before = AnalyzedWorkload::analysisPhaseRuns().taint;
    // Secret-free workloads never pay the taint pre-pass: the bitmap
    // stays empty and the phase counter does not move.
    EXPECT_TRUE(no_secrets->taintBitmap().empty());
    EXPECT_EQ(AnalyzedWorkload::analysisPhaseRuns().taint, before);

    auto secret = AnalyzedWorkload::analyze(workload("ChaCha20_ct"));
    EXPECT_FALSE(secret->hasTaintBitmap()); // demand-driven
    EXPECT_EQ(secret->taintBitmap().size(), secret->numOps());
    EXPECT_TRUE(secret->hasTaintBitmap());
    EXPECT_EQ(AnalyzedWorkload::analysisPhaseRuns().taint, before + 1);
}

TEST(AnalysisCacheTest, AnalyzesExactlyOncePerWorkloadUnderThreads)
{
    ExperimentMatrix m;
    m.workloads = {"ChaCha20_ct", "SHAKE", "synthetic/chacha20/0"};
    m.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra};
    SimConfig base;
    m.configs = {base, base.withBtuGeometry(1, 4).named("ways=4")};

    const uint64_t before = AnalyzedWorkload::analysisRuns();
    auto exp = ExperimentRunner(
                   crypto::WorkloadRegistry::global().resolver(),
                   RunnerOptions{4})
                   .run(m);
    const uint64_t after = AnalyzedWorkload::analysisRuns();

    ASSERT_EQ(exp.cells.size(), 12u); // 3 workloads x 2 schemes x 2
    EXPECT_EQ(after - before, 3u);    // one analysis per workload
    EXPECT_EQ(exp.artifacts.size(), 3u);
}

TEST(AnalysisCacheTest, SharedCachePersistsAcrossRuns)
{
    auto cache = std::make_shared<AnalysisCache>(
        crypto::WorkloadRegistry::global().resolver());
    ExperimentRunner runner(cache, RunnerOptions{2});

    ExperimentMatrix m;
    m.workloads = {"ChaCha20_ct"};
    m.schemes = {Scheme::UnsafeBaseline};

    const uint64_t before = AnalyzedWorkload::analysisRuns();
    auto first = runner.run(m);
    m.schemes = {Scheme::Cassandra};
    auto second = runner.run(m);
    EXPECT_EQ(AnalyzedWorkload::analysisRuns() - before, 1u);
    EXPECT_EQ(first.artifacts.at("ChaCha20_ct").get(),
              second.artifacts.at("ChaCha20_ct").get());
}

TEST(AnalysisCacheTest, CaseInsensitiveNamesShareOneArtifact)
{
    AnalysisCache cache(
        crypto::WorkloadRegistry::global().resolver());
    auto a = cache.get("ChaCha20_ct");
    auto b = cache.get("chacha20_ct");
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_TRUE(cache.contains("CHACHA20_CT"));
}

TEST(AnalysisCacheTest, UnknownNameThrowsAndIsNotCached)
{
    AnalysisCache cache(
        crypto::WorkloadRegistry::global().resolver());
    EXPECT_THROW(cache.get("rot13"), std::invalid_argument);
    EXPECT_FALSE(cache.contains("rot13"));
}

TEST(SerializeArtifactTest, RoundTripYieldsIdenticalResults)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    for (const char *name : {"ChaCha20_ct", "synthetic/curve25519/50"}) {
        auto original = AnalyzedWorkload::analyze(resolver(name));
        auto reloaded = test::loadSnapshotBytes(
            test::snapshotBytes(*original, name), resolver);

        // The analysis side survives verbatim.
        ASSERT_EQ(reloaded->traces().records.size(),
                  original->traces().records.size());
        EXPECT_EQ(reloaded->traces().image.traceBytes(),
                  original->traces().image.traceBytes());
        EXPECT_EQ(reloaded->traces().image.numBranches(),
                  original->traces().image.numBranches());
        ASSERT_EQ(reloaded->numOps(), original->numOps());

        // ... and so do the timing results, for every scheme.
        Simulation orig_sim(original), reload_sim(reloaded);
        for (Scheme s : allSchemes) {
            test::expectSameCounters(
                reload_sim.run(s), orig_sim.run(s),
                std::string("reloaded ") + name + " / " +
                    uarch::schemeName(s));
        }
    }
}

TEST(SerializeArtifactTest, CorruptBytesAreRejected)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto artifact = AnalyzedWorkload::analyze(resolver("ChaCha20_ct"));
    auto bytes = test::snapshotBytes(*artifact);

    std::vector<uint8_t> bad_magic = bytes;
    bad_magic[0] ^= 0xff;
    EXPECT_THROW(test::loadSnapshotBytes(bad_magic, resolver),
                 std::invalid_argument);

    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + bytes.size() / 2);
    EXPECT_THROW(test::loadSnapshotBytes(truncated, resolver),
                 std::invalid_argument);
}

TEST(SerializeArtifactTest, FingerprintGuardsAgainstWrongProgram)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto artifact = AnalyzedWorkload::analyze(resolver("ChaCha20_ct"));
    auto bytes = test::snapshotBytes(*artifact);

    // Resolve every name to a different workload: the stored
    // fingerprint must not match.
    auto wrong = [&](const std::string &) {
        return resolver("SHAKE");
    };
    EXPECT_THROW(test::loadSnapshotBytes(bytes, wrong),
                 std::invalid_argument);
}

TEST(SerializeArtifactTest, FileRoundTrip)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto artifact = AnalyzedWorkload::analyze(resolver("ChaCha20_ct"));
    const std::string path = test::scratchPath("chacha20_ct.aw");
    core::saveAnalyzedWorkload(*artifact, path);
    auto reloaded = core::loadAnalyzedWorkload(path, resolver);
    test::expectSameCounters(Simulation(reloaded).run(Scheme::Cassandra),
                             Simulation(artifact).run(Scheme::Cassandra),
                             "file round trip");
}

TEST(SimulationTest, SharedArtifactRunsNoExtraAnalysis)
{
    const uint64_t before = AnalyzedWorkload::analysisRuns();
    auto artifact = AnalyzedWorkload::analyze(workload("ChaCha20_ct"));
    Simulation sim(artifact);
    auto base = sim.run(Scheme::UnsafeBaseline);
    auto cass = sim.run(Scheme::Cassandra);
    // One analysis serves both runs and the accessors.
    EXPECT_EQ(AnalyzedWorkload::analysisRuns() - before, 1u);
    EXPECT_GT(artifact->traces().records.size(), 0u);
    EXPECT_GT(artifact->numOps(), 0u);
    EXPECT_GT(base.stats.cycles, 0u);
    EXPECT_LE(cass.stats.cycles, base.stats.cycles * 2);

    // A second session over the same artifact runs no analysis at all.
    Simulation wrapped(artifact);
    const uint64_t before2 = AnalyzedWorkload::analysisRuns();
    auto again = wrapped.run(Scheme::UnsafeBaseline);
    EXPECT_EQ(AnalyzedWorkload::analysisRuns(), before2);
    EXPECT_EQ(again.stats.cycles, base.stats.cycles);
}

} // namespace
