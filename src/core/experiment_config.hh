/**
 * @file
 * Config-file front end: a full experiment sweep described as JSON.
 *
 * An ExperimentSpec is everything one sweep needs — workload names
 * (and/or whole suites), protection schemes, SimConfig variants with
 * core/BTU parameter overrides, reporter settings, a thread count and
 * an optional artifact-cache directory — loaded from a JSON file via
 * the shared bench CLI's --config flag, so sweeps are shareable,
 * versionable artifacts:
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
 *     "report": {"format": "json", "out": "fig7.json"},
 *     "artifacts": {"dir": "aw-cache", "save": true},
 *     "execution": {"mode": "subprocess", "shards": 4,
 *                   "scheduler": "lpt",
 *                   "worker_binary": "./build/bench/run_experiment"},
 *     "cache": {"mode": "on", "dir": "result-cache"}
 *   }
 *
 * Suites expand against the WorkloadRegistry at the bench layer (core
 * stays registry-agnostic); scheme names accept both display and enum
 * spellings ("Cassandra+STL" / "CassandraStl"). Unknown keys are
 * errors so configs fail loudly instead of silently drifting.
 */

#ifndef CASSANDRA_CORE_EXPERIMENT_CONFIG_HH
#define CASSANDRA_CORE_EXPERIMENT_CONFIG_HH

#include <iosfwd>
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
    /** Worker threads; 0 means decide in the runner. */
    unsigned threads = 0;
    /** Reporter format; empty means the caller's default. */
    std::string format;
    /** Report output path; empty means stdout. */
    std::string out;
    /** Directory of serialized AnalyzedWorkload snapshots. */
    std::string artifactDir;
    /** Save freshly analyzed artifacts back into artifactDir. */
    bool artifactSave = false;
    /**
     * Trace storage of every run of the sweep ("trace_mode": "whole"
     * or "stream"; per-config overrides win). Stream mode spills
     * timing traces to chunked files and replays them from disk, so
     * peak memory stays flat regardless of trace length.
     */
    TraceMode traceMode = TraceMode::Whole;
    /** Whether the config spelled trace_mode (CLI default handling). */
    bool traceModeSet = false;
    /**
     * Phase-2 cell execution backend ("execution": {"mode":
     * "inprocess" | "subprocess"}). Subprocess mode shards the cells
     * across `worker_binary --worker` child processes.
     */
    ExecutionMode executionMode = ExecutionMode::InProcess;
    /** Whether the config spelled execution.mode. */
    bool executionModeSet = false;
    /** Shard count for subprocess execution; 0 = runner decides. */
    unsigned shards = 0;
    /** Whether the config spelled execution.shards. */
    bool shardsSet = false;
    /** Worker binary for subprocess execution; empty = caller's
     * default (run_experiment uses itself). */
    std::string workerBinary;
    /**
     * Persistent cell-result store ("cache": {"mode": "off" | "on" |
     * "readonly"}). On consults the store before dispatch and
     * persists fresh results; Readonly consults without writing.
     */
    CacheMode cacheMode = CacheMode::Off;
    /** Whether the config spelled cache.mode. */
    bool cacheModeSet = false;
    /** Result-store directory ("cache": {"dir": ...}); empty =
     * the runner's default ("result-cache"). */
    std::string cacheDir;
    /**
     * Shard partitioning policy ("execution": {"scheduler":
     * "contiguous" | "lpt"}). Lpt bin-packs cells onto shards by the
     * recorded cost model; reports stay byte-identical either way.
     */
    ShardScheduler scheduler = ShardScheduler::Contiguous;
    /** Whether the config spelled execution.scheduler. */
    bool schedulerSet = false;
    /** Telemetry JSON path ("report": {"stats_out": ...}): the
     * cache_stats/schedule document; empty writes none. */
    std::string statsOut;
};

/**
 * Parse a spec from JSON text.
 * @throws std::invalid_argument on malformed JSON, unknown keys,
 *         unknown schemes or out-of-range values.
 */
ExperimentSpec parseExperimentSpec(const std::string &json);

/** Read + parse a JSON spec file (throws on I/O errors too). */
ExperimentSpec loadExperimentSpec(const std::string &path);

} // namespace cassandra::core

#endif // CASSANDRA_CORE_EXPERIMENT_CONFIG_HH
