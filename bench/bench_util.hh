/**
 * @file
 * Shared helpers for the table/figure reproduction binaries: math
 * utilities, the common experiment CLI and reporter plumbing.
 *
 * The CLI is core's run-option table (core/experiment_config): every
 * bench takes the same flags, a --config JSON sweep file, --list and
 * --help. A bench either runs the matrix the config names or builds
 * its own, runs it through the shared ExperimentRunner, and either
 * emits the machine-readable report the user asked for
 * (--format=json|csv) or falls through to its own paper-style table:
 *
 *   auto spec = bench::parseCli(argc, argv);
 *   core::ExperimentMatrix matrix;
 *   if (!bench::matrixFromConfig(spec, matrix)) {
 *       ... build the bench's default matrix ...
 *   }
 *   auto exp = bench::runMatrix(matrix, spec);
 *   if (bench::emitReport(exp, spec))
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
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cell_executor.hh"
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

inline void
printCliHelp(const char *prog)
{
    std::printf("usage: %s [options]\n", prog);
    auto line = [](const std::string &usage, const char *help) {
        std::printf("  %-18s %s\n", usage.c_str(), help);
    };
    for (const core::RunOption &row : core::runOptions()) {
        if (row.flag)
            line(std::string(row.flag) + "=" + row.metavar, row.help);
    }
    line("--list", "list selectable workload names and exit");
    line("--help", "this text");
}

/**
 * The sweep a bench command line describes: the --config file (when
 * given; with `positional_config`, also a bare argument) with every
 * other flag applied on top. Exits on --help/--list and on errors, so
 * benches only see well-formed specs.
 */
inline core::ExperimentSpec
parseCli(int argc, char **argv, bool positional_config = false)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    for (const std::string &arg : args) {
        if (arg == "--help" || arg == "-h") {
            printCliHelp(argv[0]);
            std::exit(0);
        }
        if (arg == "--list") {
            const auto &reg = crypto::WorkloadRegistry::global();
            for (const std::string &name : reg.names())
                std::printf("%s (%s)\n", name.c_str(),
                            reg.suiteOf(name).c_str());
            std::exit(0);
        }
    }
    try {
        return core::parseCommandLine(args, positional_config);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(2);
    }
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
                const core::ExperimentSpec &spec)
{
    const auto &reg = crypto::WorkloadRegistry::global();
    std::vector<std::string> out;
    if (!spec.workloadFilter.empty()) {
        for (const std::string &name : spec.workloadFilter) {
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
        if (spec.suiteFilter.empty() || reg.suiteOf(name) == spec.suiteFilter)
            out.push_back(name);
    }
    if (out.empty()) {
        std::fprintf(stderr, "no workloads selected\n");
        std::exit(2);
    }
    return out;
}

/**
 * The config file's matrix, when one drives this run: its suites
 * expanded through the registry, then --workloads/--suite applied.
 * Returns false — leaving matrix untouched — when the bench's own
 * matrix runs. Exits with a message on unknown names, like the other
 * CLI errors.
 */
inline bool
matrixFromConfig(const core::ExperimentSpec &spec,
                 core::ExperimentMatrix &matrix)
{
    if (spec.configPath.empty())
        return false;
    const auto &reg = crypto::WorkloadRegistry::global();
    std::vector<std::string> names = spec.matrix.workloads;
    for (const std::string &suite : spec.suites) {
        std::vector<std::string> expanded = reg.names(suite);
        if (expanded.empty()) {
            std::fprintf(stderr, "%s: suite \"%s\" names no workloads\n",
                         spec.configPath.c_str(), suite.c_str());
            std::exit(2);
        }
        names.insert(names.end(), expanded.begin(), expanded.end());
    }
    for (const std::string &name : names) {
        if (!reg.contains(name)) {
            std::fprintf(stderr, "%s: unknown workload \"%s\"\n",
                         spec.configPath.c_str(), name.c_str());
            std::exit(2);
        }
    }
    matrix = spec.matrix;
    // --workloads / --suite filter the configured list like they
    // filter a bench's default list.
    matrix.workloads = selectWorkloads(names, spec);
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

/** Analysis options of one bench run: the spec's trace mode, stream
 * files next to the artifact snapshots (or in the default temp
 * directory when no artifact dir is configured). */
inline core::AnalyzeOptions
analyzeOptions(const core::ExperimentSpec &spec)
{
    core::AnalyzeOptions options = spec.runner.analyze;
    if (!spec.artifactDir.empty())
        options.streamDir = spec.artifactDir;
    return options;
}

/**
 * Analysis cache for one bench run, preloaded from spec.artifactDir
 * when the config named one. The snapshots load concurrently, at the
 * sweep's thread count and into the sweep's trace mode; their outcomes
 * then apply in name order. Workloads without a loadable snapshot
 * analyze fresh; with artifactSave their names land in `missing` so
 * saveArtifacts can snapshot them afterwards. Snapshots with an
 * outdated container version or a mismatched fingerprint are evicted
 * (deleted) — a cache that silently re-analyzes around bad files
 * looks exactly like a working one while paying full analysis cost
 * forever.
 */
inline std::shared_ptr<core::AnalysisCache>
makeArtifactCache(const std::vector<std::string> &names,
                  const core::ExperimentSpec &spec,
                  std::vector<std::string> &missing)
{
    auto resolver = crypto::WorkloadRegistry::global().resolver();
    auto cache = std::make_shared<core::AnalysisCache>(
        resolver, analyzeOptions(spec));
    if (spec.artifactDir.empty())
        return cache;

    // Each distinct spelling loads once; a load's error is kept for the
    // ordered pass below, so one bad file cannot stop the others.
    std::vector<std::string> distinct;
    for (const std::string &name : names) {
        if (std::find(distinct.begin(), distinct.end(), name) ==
            distinct.end())
            distinct.push_back(name);
    }
    struct Loaded
    {
        core::AnalyzedWorkload::Ptr artifact;
        std::exception_ptr error;
    };
    std::vector<Loaded> loaded(distinct.size());
    core::runParallel(
        spec.runner.resolveThreads(distinct.size()), distinct.size(),
        [&](size_t i) {
            try {
                // Rehydrated streams belong where fresh analyses put
                // theirs (the artifact dir), not in $TMPDIR.
                loaded[i].artifact = core::loadAnalyzedWorkload(
                    artifactPath(spec.artifactDir, distinct[i]), resolver,
                    spec.artifactDir, spec.runner.analyze.traceMode);
            } catch (...) {
                loaded[i].error = std::current_exception();
            }
        });

    for (const std::string &name : names) {
        if (cache->contains(name) ||
            std::find(missing.begin(), missing.end(), name) !=
                missing.end())
            continue;
        const std::string path = artifactPath(spec.artifactDir, name);
        const Loaded &load =
            loaded[std::find(distinct.begin(), distinct.end(), name) -
                   distinct.begin()];
        try {
            if (load.error)
                std::rethrow_exception(load.error);
            cache->put(name, load.artifact);
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

/** Snapshot freshly analyzed artifacts back into spec.artifactDir. */
inline void
saveArtifacts(
    const std::map<std::string, core::AnalyzedWorkload::Ptr> &artifacts,
    const std::vector<std::string> &missing,
    const core::ExperimentSpec &spec)
{
    if (spec.artifactDir.empty() || !spec.artifactSave)
        return;
    // Whole-mode sweeps never touch the stream layer, so the artifact
    // directory may not exist yet.
    try {
        core::ensureDirectories(spec.artifactDir);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cannot create artifact dir %s: %s\n",
                     spec.artifactDir.c_str(), e.what());
        return;
    }
    for (const std::string &name : missing) {
        auto it = artifacts.find(name);
        if (it == artifacts.end())
            continue;
        try {
            core::saveAnalyzedWorkload(
                *it->second, artifactPath(spec.artifactDir, name),
                name);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "cannot save artifact for %s: %s\n",
                         name.c_str(), e.what());
        }
    }
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
            const core::ExperimentSpec &spec)
{
    std::vector<std::string> names;
    for (const auto &matrix : matrices)
        names.insert(names.end(), matrix.workloads.begin(),
                     matrix.workloads.end());
    std::vector<std::string> missing;
    auto cache = makeArtifactCache(names, spec, missing);

    core::RunnerOptions options = spec.runner;
    // Identical cells (same workload, scheme and scheme-aware config
    // hash) simulate once; reports are byte-identical either way.
    options.dedupCells = true;
    core::Experiment exp =
        core::ExperimentRunner(cache, options).run(matrices);
    saveArtifacts(exp.artifacts, missing, spec);
    if (!spec.statsOut.empty()) {
        std::ofstream file(spec.statsOut);
        if (!file) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         spec.statsOut.c_str());
            std::exit(1);
        }
        core::writeRunTelemetry(exp.telemetry, file);
    }
    return exp;
}

/** Run one matrix (see runMatrices). */
inline core::Experiment
runMatrix(const core::ExperimentMatrix &matrix,
          const core::ExperimentSpec &spec)
{
    return runMatrices({matrix}, spec);
}

/**
 * Emit the machine-readable report when one was requested. Returns
 * true when the bench is done (json/csv written); false means the
 * caller should print its paper-style table.
 */
inline bool
emitReport(const core::Experiment &exp, const core::ExperimentSpec &spec)
{
    if (spec.format == "table" && spec.out.empty())
        return false;
    auto reporter = core::makeReporter(spec.format);
    if (spec.out.empty()) {
        reporter->write(exp, std::cout);
        return true;
    }
    std::ofstream file(spec.out);
    if (!file) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     spec.out.c_str());
        std::exit(1);
    }
    reporter->write(exp, file);
    return true;
}

} // namespace cassandra::bench

#endif // CASSANDRA_BENCH_BENCH_UTIL_HH
