/**
 * @file
 * Composite server workload tests: registry parsing of the
 * server/<mix>/<n> family, build determinism (fingerprint-stable for
 * equal n, distinct across n), the typed instruction-budget error,
 * and stream-mode analysis of a server mix without materializing the
 * whole trace (the io-stats bar serialize_test sets, applied to the
 * composite family).
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/analyzed_workload.hh"
#include "core/serialize.hh"
#include "core/tracegen.hh"
#include "core/workload.hh"
#include "crypto/workload_registry.hh"
#include "tests/trace_test_util.hh"

namespace {

using namespace cassandra;
using core::AnalyzedWorkload;
using core::AnalyzeOptions;
using core::TraceMode;
using crypto::WorkloadRegistry;

TEST(ServerWorkloadTest, RegistryParsesServerFamily)
{
    const auto &reg = WorkloadRegistry::global();
    // Standard sizes are pre-registered...
    for (const char *name :
         {"server/tls/16", "server/tls/64", "server/tls/256"}) {
        EXPECT_TRUE(reg.contains(name)) << name;
        EXPECT_EQ(reg.suiteOf(name), "Server") << name;
    }
    EXPECT_EQ(reg.names("Server").size(), 3u);
    // ...and any other request count parameterizes on demand.
    EXPECT_TRUE(reg.contains("server/tls/7"));
    EXPECT_TRUE(reg.contains("SERVER/TLS/32"));
    EXPECT_EQ(reg.suiteOf("server/tls/999"), "Server");

    // Malformed spellings are not server workloads: zero, leading
    // zeros (one canonical spelling per n), overlong counts, unknown
    // mixes, missing parts.
    for (const char *name :
         {"server/tls/0", "server/tls/007", "server/tls/1000000",
          "server/quic/16", "server/tls/", "server/tls",
          "server//16", "server/tls/16x"}) {
        EXPECT_FALSE(reg.contains(name)) << name;
    }
    EXPECT_THROW(reg.make("server/quic/16"), std::invalid_argument);
}

TEST(ServerWorkloadTest, BuildIsDeterministicPerRequestCount)
{
    const auto &reg = WorkloadRegistry::global();
    core::Workload a = reg.make("server/tls/16");
    core::Workload b = reg.make("server/tls/16");
    EXPECT_EQ(a.name, "server/tls/16");
    EXPECT_EQ(a.suite, "Server");
    // Same n: bit-identical program (cache keys depend on this).
    EXPECT_EQ(core::programFingerprint(a.program),
              core::programFingerprint(b.program));
    EXPECT_EQ(core::workloadFingerprint(a),
              core::workloadFingerprint(b));

    // Different n: the driver loop bound differs, so the fingerprint
    // must too (a tls/64 cell can never replay a tls/16 result).
    core::Workload c = reg.make("server/tls/64");
    EXPECT_NE(core::programFingerprint(a.program),
              core::programFingerprint(c.program));
    // The instruction budget grows with n.
    EXPECT_GT(c.maxDynInsts, a.maxDynInsts);

    // The parameterized fallback builds the same workload as the
    // pre-registered factory.
    EXPECT_EQ(core::workloadFingerprint(reg.make("server/tls/64")),
              core::workloadFingerprint(c));
}

TEST(ServerWorkloadTest, SecretBindingsAnnotateRegions)
{
    core::Workload w =
        WorkloadRegistry::global().make("server/tls/16");
    // Handshake secrets, record secrets, curve work buffers, stack:
    // the mix must carry secret annotations or ProSpeCT-style schemes
    // have nothing to protect.
    EXPECT_GE(w.secretRegions.size(), 8u);
}

TEST(ServerWorkloadTest, BudgetExhaustionThrowsTypedError)
{
    core::Workload w =
        WorkloadRegistry::global().make("server/tls/16");
    w.maxDynInsts = 10'000; // far below one handshake
    try {
        core::generateTraces(w);
        FAIL() << "expected core::InstructionBudgetError";
    } catch (const core::InstructionBudgetError &e) {
        EXPECT_EQ(e.workload(), "server/tls/16");
        EXPECT_GE(e.instCount(), 10'000u);
        // The message carries the name and the count (it surfaces in
        // CLI output verbatim).
        EXPECT_NE(std::string(e.what()).find("server/tls/16"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("instruction budget"),
                  std::string::npos);
    }
    // The typed error is a sim::SimError, so existing catch sites
    // keep working.
    w.maxDynInsts = 10'000;
    EXPECT_THROW(core::generateTraces(w), sim::SimError);
}

TEST(ServerWorkloadTest, StreamAnalysisNeverMaterializesWholeTrace)
{
    AnalyzeOptions opts;
    opts.traceMode = TraceMode::Stream;
    const std::string dir = test::scratchPath("server-stream");
    opts.streamDir = dir;
    auto artifact = AnalyzedWorkload::analyze(
        WorkloadRegistry::global().make("server/tls/64"), opts);
    ASSERT_TRUE(artifact->streamed());
    EXPECT_GT(artifact->numOps(), 0u);

    // Algorithm 2 on the composite mix: bounded accumulators, and a
    // non-trivial mixed image (input-dependent kyber sampling next to
    // folded periodic record loops).
    const core::TraceGenResult &traces = artifact->traces();
    EXPECT_GT(traces.peakAccumBytes, 0u);
    EXPECT_FALSE(traces.records.empty());

    // Snapshot round trip moves stream bytes only — no inline op is
    // ever written or read for a streamed server artifact.
    const std::string path = dir + "/tls64.aw";
    const core::SnapshotIoStats before = core::snapshotIoStats();
    core::saveAnalyzedWorkload(*artifact, path, "server/tls/64");
    auto reloaded = core::loadAnalyzedWorkload(
        path, WorkloadRegistry::global().resolver(), dir);
    const core::SnapshotIoStats after = core::snapshotIoStats();
    EXPECT_EQ(after.inlineOpsWritten, before.inlineOpsWritten);
    EXPECT_EQ(after.inlineOpsRead, before.inlineOpsRead);
    EXPECT_GT(after.streamBytesCopied, before.streamBytesCopied);
    ASSERT_TRUE(reloaded->streamed());
    EXPECT_EQ(reloaded->numOps(), artifact->numOps());
}

TEST(ServerWorkloadTest, AccumulatorPeakIsFlatAcrossRequestCounts)
{
    // The bounded-memory acceptance bar: Algorithm 2's accumulator
    // peak for a 4x longer server trace stays within 2x of the short
    // one (in practice it is flat — the handshake count is fixed and
    // the record loops fold).
    const auto &reg = WorkloadRegistry::global();
    core::TraceGenResult small = core::generateTraces(
        reg.make("server/tls/16"));
    core::TraceGenResult large = core::generateTraces(
        reg.make("server/tls/64"));
    ASSERT_GT(small.peakAccumBytes, 0u);
    EXPECT_LE(large.peakAccumBytes, 2 * small.peakAccumBytes);
}

} // namespace
