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
 * The config may be given positionally or via --config FILE; the
 * other shared flags (see --help) override the config file as usual.
 * Unlike the figure benches there is no built-in matrix: no config is
 * an error.
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

    // The config file may be given as the first bare argument.
    auto spec = bench::parseCli(argc, argv, /*positional_config=*/true);
    if (spec.configPath.empty()) {
        std::fprintf(stderr,
                     "usage: %s CONFIG.json [options]\n"
                     "       (see --help for the shared options)\n",
                     argv[0]);
        return 2;
    }

    core::ExperimentMatrix matrix;
    bench::matrixFromConfig(spec, matrix); // exits on unknown names

    // This binary implements the --worker contract, so subprocess
    // execution shards onto itself unless the config names another
    // worker binary.
    if (spec.runner.workerBinary.empty())
        spec.runner.workerBinary = selfBinaryPath(argv[0]);

    auto exp = bench::runMatrix(matrix, spec);
    if (!bench::emitReport(exp, spec))
        core::TableReporter().write(exp, std::cout);
    return 0;
}
