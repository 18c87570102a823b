/**
 * @file
 * Tests for the experiment front end: JSON schema mapping into
 * ExperimentMatrix/SimConfig, scheme-name aliases, report/threads/
 * artifacts settings, loud failures on malformed input, and the
 * run-option table shared by command-line flags and JSON keys.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/experiment_config.hh"
#include "core/result_store.hh"
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
      "trace_mode": "stream",
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

    EXPECT_EQ(spec.runner.threads, 6u);
    EXPECT_EQ(spec.runner.analyze.traceMode, core::TraceMode::Stream);
    // Trace mode is sweep-level; configs keep the library default.
    EXPECT_EQ(sweep.traceMode, core::TraceMode::Whole);
    EXPECT_EQ(spec.format, "json");
    EXPECT_EQ(spec.out, "sweep.json");
    EXPECT_EQ(spec.artifactDir, "aw-cache");
    EXPECT_TRUE(spec.artifactSave);
}

TEST(ExperimentConfigTest, EveryParamKeyReachesItsField)
{
    // All 38 parameter keys spelled by hand, with the values of
    // test::everyParamSimConfig(), which sets the fields by hand: a
    // key mapped onto the wrong field, or not parsed, changes the
    // config hash.
    const char *json = R"({
      "workloads": ["A"],
      "schemes": ["SPT"],
      "configs": [{
        "name": "every-param",
        "core": {
          "fetch_width": 3, "commit_width": 5, "issue_width": 7,
          "rob_size": 301, "iq_size": 61, "lq_size": 71, "sq_size": 83,
          "int_regs": 191, "frontend_depth": 11, "decode_redirect": 2,
          "redirect_penalty": 13, "num_alu": 4, "num_mul": 6,
          "num_lsu": 9, "alu_latency": 10, "mul_latency": 14,
          "store_latency": 15,
          "l1i": {"size_bytes": 16384, "line_bytes": 32, "ways": 17,
                  "latency": 18},
          "l1d": {"size_bytes": 40960, "line_bytes": 128, "ways": 19,
                  "latency": 20},
          "l2": {"size_bytes": 524288, "line_bytes": 256, "ways": 21,
                 "latency": 22},
          "l3": {"size_bytes": 8388608, "line_bytes": 512, "ways": 23,
                 "latency": 24},
          "mem_latency": 250,
          "btu_flush_period": 12000000
        },
        "btu": {"sets": 26, "ways": 27, "fill_latency": 28}
      }]
    })";

    const ExperimentSpec spec = parseExperimentSpec(json);
    ASSERT_EQ(spec.matrix.configs.size(), 1u);
    const core::SimConfig &parsed = spec.matrix.configs[0];
    const core::SimConfig want = test::everyParamSimConfig();
    EXPECT_EQ(parsed.name, want.name);
    EXPECT_EQ(core::canonicalSimConfigHash(parsed),
              core::canonicalSimConfigHash(want));
    EXPECT_EQ(core::canonicalSimConfigHash(parsed, Scheme::UnsafeBaseline),
              core::canonicalSimConfigHash(want, Scheme::UnsafeBaseline));
}

TEST(ExperimentConfigTest, MinimalSchemaParses)
{
    ExperimentSpec spec = parseExperimentSpec(
        R"({"workloads": ["SHAKE"], "schemes": ["Cassandra"]})");
    EXPECT_EQ(spec.matrix.workloads.size(), 1u);
    EXPECT_EQ(spec.matrix.schemes.size(), 1u);
    EXPECT_TRUE(spec.matrix.configs.empty());
    EXPECT_EQ(spec.runner.threads, 0u);
    EXPECT_EQ(spec.format, "table");
    EXPECT_EQ(spec.runner.analyze.traceMode, core::TraceMode::Whole);
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
    // Key paths are nested objects, not dotted keys.
    EXPECT_THROW(
        parseExperimentSpec(
            R"({"workloads": ["A"], "schemes": ["SPT"],
                "configs": [{"core.rob_size": 64}]})"),
        std::invalid_argument);
    EXPECT_THROW(parseExperimentSpec(
                     R"({"workloads": ["A"], "schemes": ["SPT"],
                         "cache.dir": "c"})"),
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
    // A repeated key, at any depth, names its path instead of
    // silently keeping one of the values.
    for (const auto &[json, path] :
         {std::pair{R"({"workloads": ["ChaCha20_ct"], "schemes": ["SPT"],
                        "workloads": ["SHAKE"]})",
                    "duplicate key workloads"},
          std::pair{R"({"trace_mode": "stream", "workloads": ["A"],
                        "schemes": ["SPT"], "trace_mode": "whole"})",
                    "duplicate key trace_mode"},
          std::pair{R"({"workloads": ["A"], "schemes": ["SPT"],
                        "cache": {"dir": "a", "dir": "b"}})",
                    "duplicate key cache.dir"},
          std::pair{R"({"workloads": ["A"], "schemes": ["SPT"],
                        "configs": [{}, {"core": {"rob_size": 64,
                                                  "rob_size": 128}}]})",
                    "duplicate key configs[1].core.rob_size"}}) {
        try {
            parseExperimentSpec(json);
            ADD_FAILURE() << "accepted " << json;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
                << e.what();
        }
    }
}

TEST(ExperimentConfigTest, RetiredKeysAreRejected)
{
    // Knobs of removed features — a second stream encoding, the
    // drop-box executor and its agents, the result-store disk bound,
    // the subprocess shard executor and its scheduler — fail like any
    // typo instead of being silently ignored.
    for (const char *section :
         {R"("trace_compression": "delta")",
          R"("configs": [{"trace_compression": "none"}])",
          R"("configs": [{"trace_mode": "stream"}])",
          R"("execution": {"mode": "remote"})",
          R"("execution": {"dropbox": "box"})",
          R"("execution": {"agents": 2})",
          R"("execution": {"task_timeout_ms": 1000})",
          R"("cache": {"gc_mb": 256})",
          R"("execution": {"mode": "subprocess"})",
          R"("execution": {"mode": "inprocess"})",
          R"("execution": {"shards": 2})",
          R"("execution": {"scheduler": "lpt"})",
          R"("execution": {"worker_binary": "x"})"}) {
        const std::string json =
            std::string(R"({"workloads": ["A"], "schemes": ["SPT"], )") +
            section + "}";
        EXPECT_THROW(parseExperimentSpec(json), std::invalid_argument)
            << section;
    }
}

TEST(ExperimentConfigTest, CacheAndStatsOutParse)
{
    // Defaults: cache off, nothing spelled.
    ExperimentSpec plain = parseExperimentSpec(
        R"({"workloads": ["A"], "schemes": ["SPT"]})");
    EXPECT_EQ(plain.runner.cacheMode, core::CacheMode::Off);
    EXPECT_TRUE(plain.runner.cacheDir.empty());
    EXPECT_TRUE(plain.statsOut.empty());

    ExperimentSpec spec = parseExperimentSpec(R"({
      "workloads": ["A"],
      "schemes": ["SPT"],
      "cache": {"mode": "on", "dir": "my-cache"},
      "report": {"format": "json", "stats_out": "stats.json"}
    })");
    EXPECT_EQ(spec.runner.cacheMode, core::CacheMode::On);
    EXPECT_EQ(spec.runner.cacheDir, "my-cache");
    EXPECT_EQ(spec.statsOut, "stats.json");

    // Readonly accepts both spellings.
    EXPECT_EQ(parseExperimentSpec(
                  R"({"workloads": ["A"], "schemes": ["SPT"],
                      "cache": {"mode": "readonly"}})")
                  .runner.cacheMode,
              core::CacheMode::Readonly);
    EXPECT_EQ(parseExperimentSpec(
                  R"({"workloads": ["A"], "schemes": ["SPT"],
                      "cache": {"mode": "read-only"}})")
                  .runner.cacheMode,
              core::CacheMode::Readonly);

    // Unknown modes and keys fail loudly.
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
    EXPECT_EQ(spec.runner.threads, 2u);

    EXPECT_THROW(core::loadExperimentSpec(path + ".missing"),
                 std::runtime_error);
}

// ---------------------------------------------------------------------
// Run-option table: flags and keys are one declaration
// ---------------------------------------------------------------------

/** Every spec field a run option can write, as one line of text. */
std::string
describe(const ExperimentSpec &s)
{
    const core::RunnerOptions &r = s.runner;
    std::ostringstream os;
    os << "format=" << s.format << " out=" << s.out
       << " stats_out=" << s.statsOut << " threads=" << r.threads
       << " trace_mode=" << core::traceModeName(r.analyze.traceMode)
       << " cache=" << core::cacheModeName(r.cacheMode)
       << " cache_dir=" << r.cacheDir
       << " artifacts=" << s.artifactDir << "," << s.artifactSave
       << " name=" << s.name << " filter=" << s.suiteFilter;
    for (const std::string &w : s.matrix.workloads)
        os << " w:" << w;
    for (const std::string &w : s.workloadFilter)
        os << " f:" << w;
    for (const std::string &w : s.suites)
        os << " s:" << w;
    os << " schemes=" << s.matrix.schemes.size()
       << " configs=" << s.matrix.configs.size();
    return os.str();
}

/** `"a": {"b": literal}` for the key path "a.b". */
std::string
keyed(const std::string &path, const std::string &literal)
{
    const size_t dot = path.find('.');
    if (dot == std::string::npos)
        return "\"" + path + "\": " + literal;
    return "\"" + path.substr(0, dot) + "\": {" +
        keyed(path.substr(dot + 1), literal) + "}";
}

constexpr const char *baseConfig =
    R"({"workloads": ["A"], "schemes": ["SPT"])";

/** The base config plus one key. */
ExperimentSpec
withKey(const std::string &path, const std::string &literal)
{
    return parseExperimentSpec(std::string(baseConfig) + ", " +
                               keyed(path, literal) + "}");
}

/** One flag/key value pair: the config file sets `other`, the flag
 * or key then sets `value`, which shows in describe() as `field`;
 * `bad` is rejected by both front ends (null where any flag text is a
 * valid value). */
struct ParityCase
{
    const char *flag;
    const char *otherJson;
    const char *value;
    const char *valueJson;
    const char *field;
    const char *bad;
    const char *badJson;
};

constexpr ParityCase parityCases[] = {
    {"--format", R"("json")", "csv", R"("csv")", "format=csv", "yaml",
     R"("yaml")"},
    {"--out", R"("a.json")", "b.json", R"("b.json")", "out=b.json",
     nullptr, "5"},
    {"--threads", "5", "3", "3", "threads=3", "1025", "1025"},
    {"--threads", "5", "0", "0", "threads=0", "x", R"("2")"},
    {"--trace-mode", R"("whole")", "stream", R"("stream")",
     "trace_mode=stream", "hybrid", R"("hybrid")"},
    {"--cache", R"("on")", "readonly", R"("readonly")", "cache=readonly",
     "maybe", R"("maybe")"},
    {"--cache-dir", R"("c1")", "c2", R"("c2")", "cache_dir=c2", nullptr,
     "[]"},
    {"--stats-out", R"("s1.json")", "s2.json", R"("s2.json")",
     "stats_out=s2.json", nullptr, "true"},
};

TEST(RunOptionTableTest, FlagsAndKeysProduceTheSameSpec)
{
    const std::string config = test::scratchPath("parity.json");
    for (const core::RunOption &row : core::runOptions()) {
        if (!row.flag || !row.key)
            continue;
        const std::string flag = row.flag;
        bool covered = false;
        for (const ParityCase &c : parityCases) {
            if (flag != c.flag)
                continue;
            covered = true;
            SCOPED_TRACE(flag + " " + c.value);
            {
                std::ofstream file(config);
                file << baseConfig << ", " << keyed(row.key, c.otherJson)
                     << "}";
            }
            const std::string want = describe(withKey(row.key, c.valueJson));
            // The row writes its own field, and the case can tell the
            // config's value from the flag's.
            EXPECT_NE((" " + want + " ").find(" " + std::string(c.field) +
                                              " "),
                      std::string::npos)
                << want;
            ASSERT_NE(describe(withKey(row.key, c.otherJson)), want);
            // Both flag forms, before or after --config: flags apply
            // over the config file.
            EXPECT_EQ(describe(core::parseCommandLine(
                          {"--config=" + config, flag + "=" + c.value})),
                      want);
            EXPECT_EQ(describe(core::parseCommandLine(
                          {flag, c.value, "--config", config})),
                      want);

            if (c.bad) {
                for (const std::vector<std::string> &args :
                     {std::vector<std::string>{flag + "=" + c.bad},
                      std::vector<std::string>{flag, c.bad}}) {
                    try {
                        core::parseCommandLine(args);
                        ADD_FAILURE() << "accepted " << c.bad;
                    } catch (const std::invalid_argument &e) {
                        EXPECT_NE(std::string(e.what()).find(
                                      "invalid " + flag + "=" + c.bad),
                                  std::string::npos)
                            << e.what();
                    }
                }
            }
            EXPECT_THROW(withKey(row.key, c.badJson),
                         std::invalid_argument);
        }
        EXPECT_TRUE(covered) << flag << " has no parity case";
    }
}

TEST(RunOptionTableTest, CommandLineShapes)
{
    const std::string config = test::scratchPath("cli.json");
    {
        std::ofstream file(config);
        file << baseConfig << R"(, "threads": 5})";
    }
    // Flag-only rows filter; the config loads whatever its position.
    ExperimentSpec spec = core::parseCommandLine(
        {"--workloads=ChaCha20_ct,,SHAKE", "--suite", "PQC",
         "--config", config});
    EXPECT_EQ(spec.configPath, config);
    EXPECT_EQ(spec.runner.threads, 5u);
    EXPECT_EQ(spec.workloadFilter,
              (std::vector<std::string>{"ChaCha20_ct", "SHAKE"}));
    EXPECT_EQ(spec.suiteFilter, "PQC");
    ASSERT_EQ(spec.matrix.workloads.size(), 1u);

    // A bare argument is the config only where the caller allows it.
    EXPECT_EQ(core::parseCommandLine({config, "--threads", "2"}, true)
                  .runner.threads,
              2u);
    EXPECT_THROW(core::parseCommandLine({config}), std::invalid_argument);
    EXPECT_THROW(core::parseCommandLine({config, "extra"}, true),
                 std::invalid_argument);

    // No config: the flags alone, over the defaults.
    spec = core::parseCommandLine({"--trace-mode", "stream"});
    EXPECT_TRUE(spec.configPath.empty());
    EXPECT_EQ(spec.runner.analyze.traceMode, core::TraceMode::Stream);

    for (const auto &[args, message] :
         {std::pair{std::vector<std::string>{"--dedup=on"},
                    "unknown option: --dedup=on"},
          std::pair{std::vector<std::string>{"--serve"},
                    "unknown option: --serve"},
          std::pair{std::vector<std::string>{"--threads"},
                    "missing value for --threads"},
          std::pair{std::vector<std::string>{"--config=" + config +
                                             ".missing"},
                    "cannot open experiment config"}}) {
        try {
            core::parseCommandLine(args);
            ADD_FAILURE() << "accepted " << args[0];
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(message),
                      std::string::npos)
                << e.what();
        }
    }
}

} // namespace
