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
using core::ExperimentResult;
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

/** Field-by-field equality of two full results. */
void
expectEqualResults(const ExperimentResult &a, const ExperimentResult &b,
                   const std::string &what)
{
    SCOPED_TRACE(what);
    const auto &s1 = a.stats, &s2 = b.stats;
    EXPECT_EQ(s1.cycles, s2.cycles);
    EXPECT_EQ(s1.instructions, s2.instructions);
    EXPECT_EQ(s1.branches, s2.branches);
    EXPECT_EQ(s1.cryptoBranches, s2.cryptoBranches);
    EXPECT_EQ(s1.condMispredicts, s2.condMispredicts);
    EXPECT_EQ(s1.indirectMispredicts, s2.indirectMispredicts);
    EXPECT_EQ(s1.returnMispredicts, s2.returnMispredicts);
    EXPECT_EQ(s1.decodeRedirects, s2.decodeRedirects);
    EXPECT_EQ(s1.integrityStalls, s2.integrityStalls);
    EXPECT_EQ(s1.resolveStalls, s2.resolveStalls);
    EXPECT_EQ(s1.btuFillStalls, s2.btuFillStalls);
    EXPECT_EQ(s1.btuWindowStalls, s2.btuWindowStalls);
    EXPECT_EQ(s1.btuFlushes, s2.btuFlushes);
    EXPECT_EQ(s1.btuMismatches, s2.btuMismatches);
    EXPECT_EQ(s1.loads, s2.loads);
    EXPECT_EQ(s1.stores, s2.stores);
    EXPECT_EQ(s1.stlForwards, s2.stlForwards);
    EXPECT_EQ(s1.schemeLoadDelays, s2.schemeLoadDelays);
    EXPECT_EQ(s1.prospectBlocks, s2.prospectBlocks);
    EXPECT_EQ(s1.icacheMissBubbles, s2.icacheMissBubbles);

    const auto &b1 = a.btu, &b2 = b.btu;
    EXPECT_EQ(b1.lookups, b2.lookups);
    EXPECT_EQ(b1.singleTargetHits, b2.singleTargetHits);
    EXPECT_EQ(b1.hits, b2.hits);
    EXPECT_EQ(b1.misses, b2.misses);
    EXPECT_EQ(b1.evictions, b2.evictions);
    EXPECT_EQ(b1.checkpointRestores, b2.checkpointRestores);
    EXPECT_EQ(b1.stallResolve, b2.stallResolve);
    EXPECT_EQ(b1.windowStalls, b2.windowStalls);
    EXPECT_EQ(b1.prefetches, b2.prefetches);
    EXPECT_EQ(b1.flushes, b2.flushes);
    EXPECT_EQ(b1.commits, b2.commits);
    EXPECT_EQ(b1.squashRewinds, b2.squashRewinds);

    const auto &p1 = a.bpu, &p2 = b.bpu;
    EXPECT_EQ(p1.condLookups, p2.condLookups);
    EXPECT_EQ(p1.condMispredicts, p2.condMispredicts);
    EXPECT_EQ(p1.loopOverrides, p2.loopOverrides);
    EXPECT_EQ(p1.btbLookups, p2.btbLookups);
    EXPECT_EQ(p1.btbMisses, p2.btbMisses);
    EXPECT_EQ(p1.indirectMispredicts, p2.indirectMispredicts);
    EXPECT_EQ(p1.rsbPushes, p2.rsbPushes);
    EXPECT_EQ(p1.rsbPops, p2.rsbPops);
    EXPECT_EQ(p1.returnMispredicts, p2.returnMispredicts);
    EXPECT_EQ(p1.updates, p2.updates);

    const auto &c1 = a.caches, &c2 = b.caches;
    EXPECT_EQ(c1.l1iAccesses, c2.l1iAccesses);
    EXPECT_EQ(c1.l1iMisses, c2.l1iMisses);
    EXPECT_EQ(c1.l1dAccesses, c2.l1dAccesses);
    EXPECT_EQ(c1.l1dMisses, c2.l1dMisses);
    EXPECT_EQ(c1.l2Accesses, c2.l2Accesses);
    EXPECT_EQ(c1.l2Misses, c2.l2Misses);
    EXPECT_EQ(c1.l3Accesses, c2.l3Accesses);
    EXPECT_EQ(c1.l3Misses, c2.l3Misses);
}

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
            expectEqualResults(
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
            expectEqualResults(
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
    expectEqualResults(Simulation(reloaded).run(Scheme::Cassandra),
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
