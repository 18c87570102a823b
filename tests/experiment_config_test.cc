/**
 * @file
 * Tests for the JSON experiment-config front end: schema mapping into
 * ExperimentMatrix/SimConfig, scheme-name aliases, report/threads/
 * artifacts settings, and loud failures on malformed input.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>

#include "core/experiment_config.hh"
#include "tests/trace_test_util.hh"

namespace {

using namespace cassandra;
using core::ExperimentSpec;
using core::parseExperimentSpec;
using uarch::Scheme;

TEST(ExperimentConfigTest, FullSchemaParses)
{
    const char *json = R"({
      "name": "fig7-smoke",
      "workloads": ["ChaCha20_ct", "kyber768"],
      "suites": ["BearSSL"],
      "schemes": ["UnsafeBaseline", "Cassandra", "cassandra+stl",
                  "SPT"],
      "configs": [
        {"name": "default"},
        {"name": "ways=4",
         "btu": {"sets": 1, "ways": 4, "fill_latency": 40},
         "core": {"rob_size": 256, "fetch_width": 4,
                  "btu_flush_period": 1000000,
                  "l1d": {"size_kb": 32, "ways": 8, "latency": 4}}}
      ],
      "threads": 6,
      "report": {"format": "json", "out": "sweep.json"},
      "artifacts": {"dir": "aw-cache", "save": true}
    })";

    ExperimentSpec spec = parseExperimentSpec(json);
    EXPECT_EQ(spec.name, "fig7-smoke");
    ASSERT_EQ(spec.matrix.workloads.size(), 2u);
    EXPECT_EQ(spec.matrix.workloads[0], "ChaCha20_ct");
    ASSERT_EQ(spec.suites.size(), 1u);
    EXPECT_EQ(spec.suites[0], "BearSSL");
    ASSERT_EQ(spec.matrix.schemes.size(), 4u);
    EXPECT_EQ(spec.matrix.schemes[0], Scheme::UnsafeBaseline);
    EXPECT_EQ(spec.matrix.schemes[2], Scheme::CassandraStl);
    EXPECT_EQ(spec.matrix.schemes[3], Scheme::Spt);

    ASSERT_EQ(spec.matrix.configs.size(), 2u);
    EXPECT_EQ(spec.matrix.configs[0].name, "default");
    const core::SimConfig &sweep = spec.matrix.configs[1];
    EXPECT_EQ(sweep.name, "ways=4");
    EXPECT_EQ(sweep.btu.sets, 1u);
    EXPECT_EQ(sweep.btu.ways, 4u);
    EXPECT_EQ(sweep.btu.fillLatency, 40u);
    EXPECT_EQ(sweep.core.robSize, 256u);
    EXPECT_EQ(sweep.core.fetchWidth, 4u);
    EXPECT_EQ(sweep.core.btuFlushPeriod, 1000000u);
    EXPECT_EQ(sweep.core.l1d.sizeBytes, 32u * 1024);
    EXPECT_EQ(sweep.core.l1d.ways, 8u);
    EXPECT_EQ(sweep.core.l1d.latency, 4u);
    // Untouched knobs keep their defaults.
    EXPECT_EQ(sweep.core.commitWidth, uarch::CoreParams{}.commitWidth);

    EXPECT_EQ(spec.threads, 6u);
    EXPECT_EQ(spec.format, "json");
    EXPECT_EQ(spec.out, "sweep.json");
    EXPECT_EQ(spec.artifactDir, "aw-cache");
    EXPECT_TRUE(spec.artifactSave);
}

TEST(ExperimentConfigTest, MinimalSchemaParses)
{
    ExperimentSpec spec = parseExperimentSpec(
        R"({"workloads": ["SHAKE"], "schemes": ["Cassandra"]})");
    EXPECT_EQ(spec.matrix.workloads.size(), 1u);
    EXPECT_EQ(spec.matrix.schemes.size(), 1u);
    EXPECT_TRUE(spec.matrix.configs.empty());
    EXPECT_EQ(spec.threads, 0u);
    EXPECT_TRUE(spec.format.empty());
}

TEST(ExperimentConfigTest, SchemeDisplayNamesParse)
{
    ExperimentSpec spec = parseExperimentSpec(
        R"({"workloads": ["SHAKE"],
            "schemes": ["Cassandra-lite", "ProSpeCT",
                        "Cassandra+ProSpeCT", "baseline"]})");
    ASSERT_EQ(spec.matrix.schemes.size(), 4u);
    EXPECT_EQ(spec.matrix.schemes[0], Scheme::CassandraLite);
    EXPECT_EQ(spec.matrix.schemes[1], Scheme::Prospect);
    EXPECT_EQ(spec.matrix.schemes[2], Scheme::CassandraProspect);
    EXPECT_EQ(spec.matrix.schemes[3], Scheme::UnsafeBaseline);
}

TEST(ExperimentConfigTest, RejectsMalformedInput)
{
    // Not JSON at all.
    EXPECT_THROW(parseExperimentSpec("not json"),
                 std::invalid_argument);
    // Trailing garbage.
    EXPECT_THROW(parseExperimentSpec(
                     R"({"workloads":["A"],"schemes":["SPT"]} x)"),
                 std::invalid_argument);
    // Unknown top-level key.
    EXPECT_THROW(parseExperimentSpec(
                     R"({"workloads": ["A"], "schemes": ["SPT"],
                         "wrkloads": []})"),
                 std::invalid_argument);
    // Unknown scheme.
    EXPECT_THROW(parseExperimentSpec(
                     R"({"workloads": ["A"], "schemes": ["Meltdown"]})"),
                 std::invalid_argument);
    // Unknown config key.
    EXPECT_THROW(
        parseExperimentSpec(
            R"({"workloads": ["A"], "schemes": ["SPT"],
                "configs": [{"nmae": "x"}]})"),
        std::invalid_argument);
    // Unknown core key.
    EXPECT_THROW(
        parseExperimentSpec(
            R"({"workloads": ["A"], "schemes": ["SPT"],
                "configs": [{"core": {"rob": 1}}]})"),
        std::invalid_argument);
    // No workloads or suites.
    EXPECT_THROW(parseExperimentSpec(R"({"schemes": ["SPT"]})"),
                 std::invalid_argument);
    // No schemes.
    EXPECT_THROW(parseExperimentSpec(R"({"workloads": ["A"]})"),
                 std::invalid_argument);
    // Bad report format.
    EXPECT_THROW(parseExperimentSpec(
                     R"({"workloads": ["A"], "schemes": ["SPT"],
                         "report": {"format": "yaml"}})"),
                 std::invalid_argument);
    // Negative / non-integer numbers.
    EXPECT_THROW(parseExperimentSpec(
                     R"({"workloads": ["A"], "schemes": ["SPT"],
                         "threads": -2})"),
                 std::invalid_argument);
    EXPECT_THROW(parseExperimentSpec(
                     R"({"workloads": ["A"], "schemes": ["SPT"],
                         "threads": 1.5})"),
                 std::invalid_argument);
}

TEST(ExperimentConfigTest, RetiredKeysAreRejected)
{
    // Knobs of removed features — a second stream encoding, the
    // drop-box executor and its agents, the result-store disk bound —
    // fail like any typo instead of being silently ignored.
    for (const char *section :
         {R"("trace_compression": "delta")",
          R"("configs": [{"trace_compression": "none"}])",
          R"("execution": {"mode": "remote"})",
          R"("execution": {"dropbox": "box"})",
          R"("execution": {"agents": 2})",
          R"("execution": {"task_timeout_ms": 1000})",
          R"("cache": {"gc_mb": 256})"}) {
        const std::string json =
            std::string(R"({"workloads": ["A"], "schemes": ["SPT"], )") +
            section + "}";
        EXPECT_THROW(parseExperimentSpec(json), std::invalid_argument)
            << section;
    }
}

TEST(ExperimentConfigTest, CacheAndSchedulerParse)
{
    // Defaults: cache off, contiguous scheduler, nothing spelled.
    ExperimentSpec plain = parseExperimentSpec(
        R"({"workloads": ["A"], "schemes": ["SPT"]})");
    EXPECT_FALSE(plain.cacheModeSet);
    EXPECT_EQ(plain.cacheMode, core::CacheMode::Off);
    EXPECT_TRUE(plain.cacheDir.empty());
    EXPECT_FALSE(plain.schedulerSet);
    EXPECT_EQ(plain.scheduler, core::ShardScheduler::Contiguous);
    EXPECT_TRUE(plain.statsOut.empty());

    ExperimentSpec spec = parseExperimentSpec(R"({
      "workloads": ["A"],
      "schemes": ["SPT"],
      "execution": {"mode": "subprocess", "shards": 4,
                    "scheduler": "lpt"},
      "cache": {"mode": "on", "dir": "my-cache"},
      "report": {"format": "json", "stats_out": "stats.json"}
    })");
    EXPECT_TRUE(spec.cacheModeSet);
    EXPECT_EQ(spec.cacheMode, core::CacheMode::On);
    EXPECT_EQ(spec.cacheDir, "my-cache");
    EXPECT_TRUE(spec.schedulerSet);
    EXPECT_EQ(spec.scheduler, core::ShardScheduler::Lpt);
    EXPECT_EQ(spec.statsOut, "stats.json");

    // Readonly accepts both spellings.
    EXPECT_EQ(parseExperimentSpec(
                  R"({"workloads": ["A"], "schemes": ["SPT"],
                      "cache": {"mode": "readonly"}})")
                  .cacheMode,
              core::CacheMode::Readonly);
    EXPECT_EQ(parseExperimentSpec(
                  R"({"workloads": ["A"], "schemes": ["SPT"],
                      "cache": {"mode": "read-only"}})")
                  .cacheMode,
              core::CacheMode::Readonly);

    // Unknown modes, schedulers and keys fail loudly.
    EXPECT_THROW(parseExperimentSpec(
                     R"({"workloads": ["A"], "schemes": ["SPT"],
                         "cache": {"mode": "maybe"}})"),
                 std::invalid_argument);
    EXPECT_THROW(parseExperimentSpec(
                     R"({"workloads": ["A"], "schemes": ["SPT"],
                         "cache": {"directory": "x"}})"),
                 std::invalid_argument);
    EXPECT_THROW(parseExperimentSpec(
                     R"({"workloads": ["A"], "schemes": ["SPT"],
                         "execution": {"scheduler": "random"}})"),
                 std::invalid_argument);
    EXPECT_THROW(parseExperimentSpec(
                     R"({"workloads": ["A"], "schemes": ["SPT"],
                         "cache": {"mode": 1}})"),
                 std::invalid_argument);
}

TEST(ExperimentConfigTest, LoadFromFile)
{
    const std::string path =
        test::scratchPath("experiment_config_test.json");
    {
        std::ofstream file(path);
        file << R"({"workloads": ["ChaCha20_ct"],
                    "schemes": ["Cassandra"], "threads": 2})";
    }
    ExperimentSpec spec = core::loadExperimentSpec(path);
    EXPECT_EQ(spec.matrix.workloads.size(), 1u);
    EXPECT_EQ(spec.threads, 2u);

    EXPECT_THROW(core::loadExperimentSpec(path + ".missing"),
                 std::runtime_error);
}

} // namespace
