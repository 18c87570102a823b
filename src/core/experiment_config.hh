/**
 * @file
 * Experiment front end: a full sweep described as JSON, command-line
 * flags, or both.
 *
 * An ExperimentSpec is everything one sweep needs — workload names
 * (and/or whole suites), protection schemes, SimConfig variants with
 * core/BTU parameter overrides, reporter settings, runner options and
 * an optional artifact-cache directory. It loads from a JSON file, so
 * sweeps are shareable, versionable artifacts:
 *
 *   {
 *     "name": "fig7",
 *     "suites": ["BearSSL", "OpenSSL", "PQC"],
 *     "schemes": ["UnsafeBaseline", "Cassandra",
 *                 "Cassandra+STL", "SPT"],
 *     "configs": [
 *       {"name": "default"},
 *       {"name": "ways=4", "btu": {"sets": 1, "ways": 4}}
 *     ],
 *     "threads": 8,
 *     "trace_mode": "stream",
 *     "report": {"format": "json", "out": "fig7.json"},
 *     "artifacts": {"dir": "aw-cache", "save": true},
 *     "execution": {"mode": "subprocess", "shards": 4,
 *                   "scheduler": "lpt",
 *                   "worker_binary": "./build/bench/run_experiment"},
 *     "cache": {"mode": "on", "dir": "result-cache"}
 *   }
 *
 * Every run option is declared once, in the run-option table
 * (runOptions()): its JSON key path, its command-line flag, one help
 * line and the one parser that validates the value and writes it into
 * the spec. parseExperimentSpec, parseCommandLine and the benches'
 * --help all read that table, so a flag and its key cannot disagree.
 * `configs[]` entries map onto SimConfig through the parameter list
 * in core/sim_config.hh.
 *
 * Suites expand against the WorkloadRegistry at the bench layer (core
 * stays registry-agnostic); scheme names accept both display and enum
 * spellings ("Cassandra+STL" / "CassandraStl"). Unknown and repeated
 * keys are errors so configs fail loudly instead of silently drifting.
 */

#ifndef CASSANDRA_CORE_EXPERIMENT_CONFIG_HH
#define CASSANDRA_CORE_EXPERIMENT_CONFIG_HH

#include <string>
#include <vector>

#include "core/experiment.hh"

namespace cassandra::core {

/** A declarative sweep: matrix + runner + reporter settings. */
struct ExperimentSpec
{
    /** Informational label. */
    std::string name;
    /** Matrix (workloads hold explicit names; suites are below). */
    ExperimentMatrix matrix;
    /** Suite tags to expand into workload names (bench layer). */
    std::vector<std::string> suites;
    /** Reporter format: table, json or csv. */
    std::string format = "table";
    /** Report output path; empty means stdout. */
    std::string out;
    /** Telemetry JSON path: the cache_stats/schedule document, kept
     * out of the report so warm and cold runs stay byte-identical;
     * empty writes none. */
    std::string statsOut;
    /** Directory of serialized AnalyzedWorkload snapshots (stream
     * files go there too). */
    std::string artifactDir;
    /** Save freshly analyzed artifacts back into artifactDir. */
    bool artifactSave = false;
    /** Threads, trace mode (analyze.traceMode), execution backend,
     * shards, worker binary, result store and scheduler. */
    RunnerOptions runner;

    /** The JSON sweep file the command line named; empty when the
     * bench's built-in matrix runs. */
    std::string configPath;
    /** Command-line filters over the configured (or the bench's
     * default) workload list: names, or one suite. */
    std::vector<std::string> workloadFilter;
    std::string suiteFilter;
};

/** A parsed JSON value (private to experiment_config.cc); a flag's
 * text reaches its row's parser as one too. */
struct JsonValue;

/** How a flag's text becomes the value its row parses. */
enum class FlagValue
{
    Text,  ///< the text itself
    Count, ///< a non-negative decimal integer
    List,  ///< comma-separated names
};

/**
 * One run option: a JSON key, a command-line flag, or both. The
 * parser validates the value (throwing std::invalid_argument with the
 * reason) and writes it into the spec; flags and keys share it.
 */
struct RunOption
{
    /** JSON key path ("execution.shards"); null for flag-only rows. */
    const char *key;
    /** Command-line flag ("--shards"); null for key-only rows. */
    const char *flag;
    /** Placeholder of the flag's value and its one help line. */
    const char *metavar;
    const char *help;
    FlagValue flagValue;
    void (*parse)(ExperimentSpec &spec, const JsonValue &value);
};

/** The run-option table, in --help order. */
const std::vector<RunOption> &runOptions();

/**
 * Parse a spec from JSON text.
 * @throws std::invalid_argument on malformed JSON, unknown or repeated
 *         keys, unknown schemes or out-of-range values.
 */
ExperimentSpec parseExperimentSpec(const std::string &json);

/** Read + parse a JSON spec file (throws on I/O errors too). */
ExperimentSpec loadExperimentSpec(const std::string &path);

/**
 * The spec a command line describes. Every flag of the table takes a
 * value, as `--flag=V` or `--flag V`. The --config file (with
 * `positional_config`, also the first bare argument) loads first;
 * every other flag then overrides it, in command-line order.
 * @throws std::invalid_argument on an unknown option ("unknown
 *         option: ..."), a missing or invalid value ("invalid
 *         --flag=V: reason") or an unloadable config.
 */
ExperimentSpec parseCommandLine(const std::vector<std::string> &args,
                                bool positional_config = false);

} // namespace cassandra::core

#endif // CASSANDRA_CORE_EXPERIMENT_CONFIG_HH
