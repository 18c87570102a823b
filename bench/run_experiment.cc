/**
 * @file
 * Standalone config-file front end: the whole sweep — workloads,
 * schemes, SimConfig variants, trace mode, report settings, artifact
 * cache, execution backend — comes from one JSON experiment config,
 * so experiments are versionable artifacts instead of bench-specific
 * conventions:
 *
 *   run_experiment configs/ci_smoke.json
 *   run_experiment configs/ci_smoke.json --trace-mode=stream \
 *       --format=json --out=smoke.json
 *   run_experiment configs/ci_smoke_stream.json \
 *       --execution subprocess --shards 4
 *
 * The config may be given positionally or via --config=FILE; the
 * other shared CLI flags (--format/--out/--threads/--workloads/
 * --suite/--trace-mode/--execution/--shards/--cache/--cache-dir/
 * --scheduler/--stats-out) override the config file as usual. Unlike
 * the figure benches there is no built-in matrix: no config is an
 * error.
 *
 * The binary doubles as the shard worker of the subprocess executor
 * (it is its own default worker binary):
 *
 *   run_experiment --worker --manifest=shard-0.sm --out=shard-0.crs
 *
 * Worker mode reads a CASSSM1 shard manifest, loads the named
 * artifact snapshots, simulates its cells in-process and writes a
 * CASSCR1 cell-result set; errors go to stderr and a nonzero exit
 * (the coordinator retries the shard in-process).
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "bench/bench_util.hh"
#include "core/cell_executor.hh"
#include "core/experiment.hh"

using namespace cassandra;

namespace {

/**
 * This binary's own path, suitable for execv (which does not search
 * PATH the way the shell that launched us did): /proc/self/exe where
 * available, argv[0] otherwise.
 */
std::string
selfBinaryPath(const char *argv0)
{
#if !defined(_WIN32)
    char buf[4096];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
#endif
    return argv0;
}

/** The `--worker` entry: a shard of someone else's experiment. */
int
workerMain(int argc, char **argv)
{
    std::string manifest, out;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--worker")
            continue;
        if (arg.rfind("--manifest=", 0) == 0)
            manifest = arg.substr(std::strlen("--manifest="));
        else if (arg.rfind("--out=", 0) == 0)
            out = arg.substr(std::strlen("--out="));
        else {
            std::fprintf(stderr, "worker mode: unknown option %s\n",
                         arg.c_str());
            return 2;
        }
    }
    if (manifest.empty() || out.empty()) {
        std::fprintf(stderr,
                     "usage: %s --worker --manifest=FILE --out=FILE\n",
                     argv[0]);
        return 2;
    }
    return core::runShardWorker(
        manifest, out, crypto::WorkloadRegistry::global().resolver(),
        std::cerr);
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--worker") == 0)
            return workerMain(argc, argv);
    }

    // Accept the config file as the first positional argument by
    // rewriting it to the shared CLI's --config=FILE before parsing.
    // Space-form flag values ("--execution subprocess") must not be
    // mistaken for that positional.
    auto takes_space_value = [](const char *arg) {
        return std::strcmp(arg, "--config") == 0 ||
            std::strcmp(arg, "--execution") == 0 ||
            std::strcmp(arg, "--shards") == 0 ||
            std::strcmp(arg, "--cache") == 0 ||
            std::strcmp(arg, "--cache-dir") == 0 ||
            std::strcmp(arg, "--scheduler") == 0 ||
            std::strcmp(arg, "--stats-out") == 0;
    };
    std::vector<std::string> args;
    args.reserve(static_cast<size_t>(argc));
    bool have_positional = false;
    for (int i = 1; i < argc; i++) {
        if (takes_space_value(argv[i])) {
            args.push_back(argv[i]);
            if (i + 1 < argc)
                args.push_back(argv[++i]);
        } else if (argv[i][0] != '-' && !have_positional) {
            args.push_back(std::string("--config=") + argv[i]);
            have_positional = true;
        } else {
            args.push_back(argv[i]);
        }
    }

    std::vector<char *> cargv;
    cargv.push_back(argv[0]);
    for (std::string &arg : args)
        cargv.push_back(arg.data());

    auto opts = bench::parseCli(static_cast<int>(cargv.size()),
                                cargv.data());

    if (opts.configPath.empty()) {
        std::fprintf(stderr,
                     "usage: %s CONFIG.json [options]\n"
                     "       (see --help for the shared options)\n",
                     argv[0]);
        return 2;
    }

    core::ExperimentMatrix matrix;
    bench::matrixFromConfig(opts, matrix); // exits on malformed configs

    // This binary implements the --worker contract, so subprocess
    // execution shards onto itself unless the config names another
    // worker binary.
    if (opts.workerBinary.empty())
        opts.workerBinary = selfBinaryPath(argv[0]);

    auto exp = bench::runMatrix(matrix, opts);
    if (!bench::emitReport(exp, opts))
        core::TableReporter().write(exp, std::cout);
    return 0;
}
