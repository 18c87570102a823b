/**
 * @file
 * Shared helpers for the table/figure reproduction binaries: math
 * utilities, the common experiment CLI (--format/--out/--threads/
 * --workloads/--suite/--config/--list) and reporter plumbing.
 *
 * A migrated bench builds an ExperimentMatrix — or takes one straight
 * from a JSON config file via --config — runs it through the shared
 * ExperimentRunner, and either emits the machine-readable report the
 * user asked for (--format=json|csv) or falls through to its own
 * paper-style table:
 *
 *   auto opts = bench::parseCli(argc, argv);
 *   core::ExperimentMatrix matrix;
 *   if (!bench::matrixFromConfig(opts, matrix)) {
 *       ... build the bench's default matrix ...
 *   }
 *   auto exp = bench::runMatrix(matrix, opts);
 *   if (bench::emitReport(exp, opts))
 *       return 0;
 *   ... printf the figure table from exp.cells ...
 *
 * Thread-pool sizing is decided in exactly one place — the runner
 * (RunnerOptions::resolveThreads) — benches only forward the CLI (or
 * config) thread count verbatim.
 */

#ifndef CASSANDRA_BENCH_BENCH_UTIL_HH
#define CASSANDRA_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/experiment_config.hh"
#include "core/serialize.hh"
#include "crypto/workload_registry.hh"

namespace cassandra::bench {

inline double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : xs)
        acc += std::log(x);
    return std::exp(acc / xs.size());
}

inline void
printRule(int width)
{
    for (int i = 0; i < width; i++)
        std::putchar('-');
    std::putchar('\n');
}

/** Options shared by every experiment bench. */
struct CliOptions
{
    std::string format = "table"; ///< table | json | csv
    std::string out;              ///< output path; empty = stdout
    unsigned threads = 0;         ///< 0 = runner decides
    std::vector<std::string> workloads; ///< filter; empty = bench set
    std::string suite;                  ///< filter; empty = all suites
    std::string configPath;             ///< --config JSON sweep file
    /// whole | stream (--trace-mode or the config's "trace_mode").
    core::TraceMode traceMode = core::TraceMode::Whole;

    /// inprocess | subprocess (--execution or "execution.mode").
    core::ExecutionMode execution = core::ExecutionMode::InProcess;
    /// Subprocess shard count (--shards or "execution.shards").
    unsigned shards = 0;
    /// Worker binary for subprocess mode ("execution.worker_binary";
    /// run_experiment defaults it to its own argv[0]).
    std::string workerBinary;

    /// off | on | readonly (--cache or the config's "cache.mode").
    core::CacheMode cacheMode = core::CacheMode::Off;
    /// Result-store directory (--cache-dir or "cache.dir"); empty =
    /// the runner's default ("result-cache").
    std::string cacheDir;
    /// contiguous | lpt (--scheduler or "execution.scheduler").
    core::ShardScheduler scheduler = core::ShardScheduler::Contiguous;
    /// Telemetry JSON path (--stats-out or "report.stats_out"); the
    /// cache_stats/schedule document, kept out of the main report so
    /// warm and cold runs stay byte-identical.
    std::string statsOut;

    /// CLI flags beat config-file settings; track what was spelled.
    bool formatExplicit = false;
    bool outExplicit = false;
    bool threadsExplicit = false;
    bool traceModeExplicit = false;
    bool executionExplicit = false;
    bool shardsExplicit = false;
    bool cacheModeExplicit = false;
    bool cacheDirExplicit = false;
    bool schedulerExplicit = false;
    bool statsOutExplicit = false;

    /// Artifact snapshot directory (from the config file).
    std::string artifactDir;
    bool artifactSave = false;
};

inline void
printCliHelp(const char *prog)
{
    std::printf(
        "usage: %s [options]\n"
        "  --format=F     output format: table (default), json, csv\n"
        "  --out=PATH     write the report to PATH instead of stdout\n"
        "  --threads=N    worker threads (default: hardware "
        "concurrency)\n"
        "  --workloads=A,B  run only the named workloads\n"
        "  --suite=S      run only one suite (BearSSL, OpenSSL, PQC, "
        "Synthetic)\n"
        "  --config=FILE  load the full sweep (workloads, schemes,\n"
        "                 parameter overrides, report settings) from a\n"
        "                 JSON experiment config; CLI flags override\n"
        "  --trace-mode=M timing trace storage: whole (default, in\n"
        "                 memory) or stream (spill to chunked trace\n"
        "                 files, replay from disk; same cycles, flat\n"
        "                 peak memory)\n"
        "  --execution=E  phase-2 cell execution: inprocess (default,\n"
        "                 thread pool) or subprocess (cells sharded\n"
        "                 across worker processes); byte-identical\n"
        "                 reports either way\n"
        "  --shards=N     worker process count for --execution\n"
        "                 subprocess (default: auto)\n"
        "  --cache=M      persistent cell-result store: off (default),\n"
        "                 on (reuse prior results, persist fresh ones)\n"
        "                 or readonly (reuse without writing)\n"
        "  --cache-dir=D  result-store directory (default:\n"
        "                 result-cache)\n"
        "  --scheduler=S  subprocess shard partitioning: contiguous\n"
        "                 (default) or lpt (cost-model bin packing;\n"
        "                 byte-identical reports either way)\n"
        "  --stats-out=F  write the run's cache/scheduler telemetry\n"
        "                 JSON to F (separate from the report, which\n"
        "                 stays byte-identical warm vs. cold)\n"
        "  --list         list selectable workload names and exit\n"
        "  --help         this text\n",
        prog);
}

/**
 * Parse the shared flags; exits on --help/--list/parse errors so
 * benches only see well-formed options.
 */
inline CliOptions
parseCli(int argc, char **argv)
{
    CliOptions opts;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            size_t n = std::strlen(flag);
            if (arg.compare(0, n, flag) != 0 || arg.size() <= n ||
                arg[n] != '=')
                return nullptr;
            return arg.c_str() + n + 1;
        };
        if (arg == "--help" || arg == "-h") {
            printCliHelp(argv[0]);
            std::exit(0);
        } else if (arg == "--list") {
            const auto &reg = crypto::WorkloadRegistry::global();
            for (const std::string &name : reg.names())
                std::printf("%s (%s)\n", name.c_str(),
                            reg.suiteOf(name).c_str());
            std::exit(0);
        } else if (const char *v = value("--format")) {
            opts.format = v;
            opts.formatExplicit = true;
        } else if (const char *v = value("--out")) {
            opts.out = v;
            opts.outExplicit = true;
        } else if (const char *v = value("--threads")) {
            char *end = nullptr;
            unsigned long n = std::strtoul(v, &end, 10);
            if (*v == '\0' || *end != '\0' || v[0] == '-' || n > 1024) {
                std::fprintf(stderr, "invalid --threads=%s\n", v);
                std::exit(2);
            }
            opts.threads = static_cast<unsigned>(n);
            opts.threadsExplicit = true;
        } else if (const char *v = value("--suite")) {
            opts.suite = v;
        } else if (const char *v = value("--trace-mode")) {
            try {
                opts.traceMode = core::traceModeFromName(v);
            } catch (const std::invalid_argument &) {
                std::fprintf(stderr, "invalid --trace-mode=%s "
                                     "(expected whole or stream)\n",
                             v);
                std::exit(2);
            }
            opts.traceModeExplicit = true;
        } else if (const char *v = value("--config")) {
            opts.configPath = v;
        } else if (arg == "--config" && i + 1 < argc) {
            opts.configPath = argv[++i];
        } else if (value("--execution") ||
                   (arg == "--execution" && i + 1 < argc)) {
            const char *v = value("--execution");
            if (!v)
                v = argv[++i];
            try {
                opts.execution = core::executionModeFromName(v);
            } catch (const std::invalid_argument &) {
                std::fprintf(stderr,
                             "invalid --execution=%s (expected "
                             "inprocess or subprocess)\n",
                             v);
                std::exit(2);
            }
            opts.executionExplicit = true;
        } else if (value("--shards") ||
                   (arg == "--shards" && i + 1 < argc)) {
            const char *v = value("--shards");
            if (!v)
                v = argv[++i];
            char *end = nullptr;
            unsigned long n = std::strtoul(v, &end, 10);
            if (*v == '\0' || *end != '\0' || v[0] == '-' || n == 0 ||
                n > 1024) {
                std::fprintf(stderr, "invalid --shards=%s\n", v);
                std::exit(2);
            }
            opts.shards = static_cast<unsigned>(n);
            opts.shardsExplicit = true;
        } else if (value("--cache") ||
                   (arg == "--cache" && i + 1 < argc)) {
            const char *v = value("--cache");
            if (!v)
                v = argv[++i];
            try {
                opts.cacheMode = core::cacheModeFromName(v);
            } catch (const std::invalid_argument &) {
                std::fprintf(stderr,
                             "invalid --cache=%s (expected off, on "
                             "or readonly)\n",
                             v);
                std::exit(2);
            }
            opts.cacheModeExplicit = true;
        } else if (value("--cache-dir") ||
                   (arg == "--cache-dir" && i + 1 < argc)) {
            const char *v = value("--cache-dir");
            if (!v)
                v = argv[++i];
            opts.cacheDir = v;
            opts.cacheDirExplicit = true;
        } else if (value("--scheduler") ||
                   (arg == "--scheduler" && i + 1 < argc)) {
            const char *v = value("--scheduler");
            if (!v)
                v = argv[++i];
            try {
                opts.scheduler = core::shardSchedulerFromName(v);
            } catch (const std::invalid_argument &) {
                std::fprintf(stderr,
                             "invalid --scheduler=%s (expected "
                             "contiguous or lpt)\n",
                             v);
                std::exit(2);
            }
            opts.schedulerExplicit = true;
        } else if (value("--stats-out") ||
                   (arg == "--stats-out" && i + 1 < argc)) {
            const char *v = value("--stats-out");
            if (!v)
                v = argv[++i];
            opts.statsOut = v;
            opts.statsOutExplicit = true;
        } else if (const char *v = value("--workloads")) {
            std::string list = v;
            size_t pos = 0;
            while (pos <= list.size()) {
                size_t comma = list.find(',', pos);
                if (comma == std::string::npos)
                    comma = list.size();
                if (comma > pos)
                    opts.workloads.push_back(
                        list.substr(pos, comma - pos));
                pos = comma + 1;
            }
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            printCliHelp(argv[0]);
            std::exit(2);
        }
    }
    if (opts.format != "table" && opts.format != "json" &&
        opts.format != "csv") {
        std::fprintf(stderr, "unknown --format=%s\n",
                     opts.format.c_str());
        std::exit(2);
    }
    return opts;
}

/** Registry names of the Fig. 7 crypto set (no synthetic mixes). */
inline std::vector<std::string>
cryptoWorkloadNames()
{
    const auto &reg = crypto::WorkloadRegistry::global();
    std::vector<std::string> out;
    for (const char *suite : {"BearSSL", "OpenSSL", "PQC"})
        for (const std::string &name : reg.names(suite))
            out.push_back(name);
    return out;
}

/**
 * Apply the --workloads/--suite filters to a bench's default workload
 * list. Unknown names in --workloads abort with a message.
 */
inline std::vector<std::string>
selectWorkloads(const std::vector<std::string> &defaults,
                const CliOptions &opts)
{
    const auto &reg = crypto::WorkloadRegistry::global();
    std::vector<std::string> out;
    if (!opts.workloads.empty()) {
        for (const std::string &name : opts.workloads) {
            if (!reg.contains(name)) {
                std::fprintf(stderr, "unknown workload: %s\n",
                             name.c_str());
                std::exit(2);
            }
            out.push_back(name);
        }
        return out;
    }
    for (const std::string &name : defaults) {
        if (opts.suite.empty() || reg.suiteOf(name) == opts.suite)
            out.push_back(name);
    }
    if (out.empty()) {
        std::fprintf(stderr, "no workloads selected\n");
        std::exit(2);
    }
    return out;
}

/**
 * Load --config (when given), expand its suites through the registry,
 * fold its report/thread settings into opts (explicit CLI flags win)
 * and fill the matrix. Returns false — leaving matrix untouched —
 * when no config file drives this run. Exits with a message on
 * malformed configs, like the other CLI errors.
 */
inline bool
matrixFromConfig(CliOptions &opts, core::ExperimentMatrix &matrix)
{
    if (opts.configPath.empty())
        return false;
    core::ExperimentSpec spec;
    try {
        spec = core::loadExperimentSpec(opts.configPath);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", opts.configPath.c_str(),
                     e.what());
        std::exit(2);
    }
    const auto &reg = crypto::WorkloadRegistry::global();
    std::vector<std::string> names = spec.matrix.workloads;
    for (const std::string &suite : spec.suites) {
        std::vector<std::string> expanded = reg.names(suite);
        if (expanded.empty()) {
            std::fprintf(stderr, "%s: suite \"%s\" names no workloads\n",
                         opts.configPath.c_str(), suite.c_str());
            std::exit(2);
        }
        names.insert(names.end(), expanded.begin(), expanded.end());
    }
    for (const std::string &name : names) {
        if (!reg.contains(name)) {
            std::fprintf(stderr, "%s: unknown workload \"%s\"\n",
                         opts.configPath.c_str(), name.c_str());
            std::exit(2);
        }
    }
    matrix = spec.matrix;
    // --workloads / --suite filter the configured list like they
    // filter a bench's default list.
    matrix.workloads = selectWorkloads(names, opts);

    if (!opts.formatExplicit && !spec.format.empty())
        opts.format = spec.format;
    if (!opts.outExplicit && !spec.out.empty())
        opts.out = spec.out;
    if (!opts.threadsExplicit && spec.threads != 0)
        opts.threads = spec.threads;
    if (!opts.traceModeExplicit && spec.traceModeSet)
        opts.traceMode = spec.traceMode;
    if (!opts.executionExplicit && spec.executionModeSet)
        opts.execution = spec.executionMode;
    if (!opts.shardsExplicit && spec.shardsSet)
        opts.shards = spec.shards;
    if (opts.workerBinary.empty())
        opts.workerBinary = spec.workerBinary;
    if (!opts.cacheModeExplicit && spec.cacheModeSet)
        opts.cacheMode = spec.cacheMode;
    if (!opts.cacheDirExplicit && !spec.cacheDir.empty())
        opts.cacheDir = spec.cacheDir;
    if (!opts.schedulerExplicit && spec.schedulerSet)
        opts.scheduler = spec.scheduler;
    if (!opts.statsOutExplicit && !spec.statsOut.empty())
        opts.statsOut = spec.statsOut;
    opts.artifactDir = spec.artifactDir;
    opts.artifactSave = spec.artifactSave;
    return true;
}

/** Artifact snapshot path for a workload name ('/' is not a file
 * character; "synthetic/chacha20/75" -> "synthetic_chacha20_75.aw"). */
inline std::string
artifactPath(const std::string &dir, const std::string &name)
{
    std::string file = name;
    for (char &c : file) {
        if (c == '/' || c == '\\')
            c = '_';
    }
    return dir + "/" + file + ".aw";
}

/** Analysis options of one bench run: trace mode from the CLI/config,
 * stream files next to the artifact snapshots (or in the default
 * temp directory when no artifact dir is configured). */
inline core::AnalyzeOptions
analyzeOptions(const CliOptions &opts)
{
    core::AnalyzeOptions options;
    options.traceMode = opts.traceMode;
    if (!opts.artifactDir.empty())
        options.streamDir = opts.artifactDir;
    return options;
}

/**
 * Analysis cache for one bench run, preloaded from opts.artifactDir
 * when the config named one. Workloads without a loadable snapshot
 * analyze fresh; with artifactSave their names land in `missing` so
 * saveArtifacts can snapshot them afterwards. Snapshots with an
 * outdated container version or a mismatched fingerprint are evicted
 * (deleted) — a cache that silently re-analyzes around bad files
 * looks exactly like a working one while paying full analysis cost
 * forever.
 */
inline std::shared_ptr<core::AnalysisCache>
makeArtifactCache(const std::vector<std::string> &names,
                  const CliOptions &opts,
                  std::vector<std::string> &missing)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto cache = std::make_shared<core::AnalysisCache>(
        resolver, analyzeOptions(opts));
    if (opts.artifactDir.empty())
        return cache;
    for (const std::string &name : names) {
        if (cache->contains(name) ||
            std::find(missing.begin(), missing.end(), name) !=
                missing.end())
            continue;
        const std::string path = artifactPath(opts.artifactDir, name);
        try {
            // Rehydrated streams belong where fresh analyses put
            // theirs (the artifact dir), not in $TMPDIR.
            cache->put(name,
                       core::loadAnalyzedWorkload(
                           path, resolver,
                           analyzeOptions(opts).streamDir));
        } catch (const core::ArtifactError &e) {
            // Outdated container version or stale fingerprint: evict
            // the file so the next save rewrites it.
            std::fprintf(stderr, "%s: %s; evicting\n", path.c_str(),
                         e.what());
            std::remove(path.c_str());
            missing.push_back(name);
        } catch (const std::invalid_argument &e) {
            // The file exists but is corrupt (e.g. truncated write):
            // re-analyzing is correct, but say so.
            std::fprintf(stderr, "%s: %s; re-analyzing %s\n",
                         path.c_str(), e.what(), name.c_str());
            missing.push_back(name);
        } catch (const std::exception &) {
            // Not snapshotted yet: analyze fresh, quietly.
            missing.push_back(name);
        }
    }
    return cache;
}

/** Snapshot freshly analyzed artifacts back into opts.artifactDir. */
inline void
saveArtifacts(
    const std::map<std::string, core::AnalyzedWorkload::Ptr> &artifacts,
    const std::vector<std::string> &missing, const CliOptions &opts)
{
    if (opts.artifactDir.empty() || !opts.artifactSave)
        return;
    // Whole-mode sweeps never touch the stream layer, so the artifact
    // directory may not exist yet.
    try {
        core::ensureDirectories(opts.artifactDir);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cannot create artifact dir %s: %s\n",
                     opts.artifactDir.c_str(), e.what());
        return;
    }
    for (const std::string &name : missing) {
        auto it = artifacts.find(name);
        if (it == artifacts.end())
            continue;
        try {
            core::saveAnalyzedWorkload(
                *it->second, artifactPath(opts.artifactDir, name),
                name);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "cannot save artifact for %s: %s\n",
                         name.c_str(), e.what());
        }
    }
}

/**
 * Runner options from the parsed CLI/config options. Exits with a
 * message when subprocess execution has no worker binary.
 */
inline core::RunnerOptions
runnerOptionsFromCli(const CliOptions &opts)
{
    core::RunnerOptions runner_opts;
    runner_opts.threads = opts.threads;
    runner_opts.analyze = analyzeOptions(opts);
    runner_opts.execution = opts.execution;
    runner_opts.shards = opts.shards;
    runner_opts.workerBinary = opts.workerBinary;
    runner_opts.cacheMode = opts.cacheMode;
    runner_opts.cacheDir = opts.cacheDir;
    runner_opts.scheduler = opts.scheduler;
    // Identical cells (same workload, scheme and scheme-aware config
    // hash) simulate once; reports are byte-identical either way.
    runner_opts.dedupCells = true;
    if (runner_opts.execution == core::ExecutionMode::Subprocess &&
        runner_opts.workerBinary.empty()) {
        std::fprintf(stderr,
                     "--execution subprocess needs a worker binary: "
                     "set \"execution\": {\"worker_binary\": ...} in "
                     "the config, or run through run_experiment "
                     "(which shards onto itself)\n");
        std::exit(2);
    }
    return runner_opts;
}

/**
 * Run a batch of matrices with the registry resolver, sharing one
 * analysis cache (and one analysis phase) across all of them; cells
 * concatenate in matrix order. When the config named an artifact
 * directory, snapshots are loaded from it instead of re-analyzing
 * and — with "save": true — freshly analyzed workloads are written
 * back.
 */
inline core::Experiment
runMatrices(const std::vector<core::ExperimentMatrix> &matrices,
            const CliOptions &opts)
{
    std::vector<std::string> names;
    for (const auto &matrix : matrices)
        names.insert(names.end(), matrix.workloads.begin(),
                     matrix.workloads.end());
    std::vector<std::string> missing;
    auto cache = makeArtifactCache(names, opts, missing);

    // An explicit --trace-mode overrides whatever the matrices'
    // configs say, in both directions (config-file settings are
    // already baked into the parsed configs, so they need no forcing).
    std::vector<core::ExperimentMatrix> resolved = matrices;
    if (opts.traceModeExplicit) {
        for (auto &matrix : resolved) {
            if (matrix.configs.empty() &&
                opts.traceMode == core::TraceMode::Stream)
                matrix.configs.push_back(core::SimConfig{});
            for (auto &cfg : matrix.configs)
                cfg.traceMode = opts.traceMode;
        }
    }

    core::RunnerOptions runner_opts = runnerOptionsFromCli(opts);
    core::ExperimentRunner runner(cache, runner_opts);
    core::Experiment exp = runner.run(resolved);
    saveArtifacts(exp.artifacts, missing, opts);
    if (!opts.statsOut.empty()) {
        std::ofstream file(opts.statsOut);
        if (!file) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         opts.statsOut.c_str());
            std::exit(1);
        }
        core::writeRunTelemetry(exp.telemetry, file);
    }
    return exp;
}

/** Run one matrix (see runMatrices). */
inline core::Experiment
runMatrix(const core::ExperimentMatrix &matrix, const CliOptions &opts)
{
    return runMatrices({matrix}, opts);
}

/**
 * Emit the machine-readable report when one was requested. Returns
 * true when the bench is done (json/csv written); false means the
 * caller should print its paper-style table.
 */
inline bool
emitReport(const core::Experiment &exp, const CliOptions &opts)
{
    if (opts.format == "table" && opts.out.empty())
        return false;
    auto reporter = core::makeReporter(opts.format);
    if (opts.out.empty()) {
        reporter->write(exp, std::cout);
        return true;
    }
    std::ofstream file(opts.out);
    if (!file) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     opts.out.c_str());
        std::exit(1);
    }
    reporter->write(exp, file);
    return true;
}

} // namespace cassandra::bench

#endif // CASSANDRA_BENCH_BENCH_UTIL_HH
