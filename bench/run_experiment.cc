/**
 * @file
 * Standalone config-file front end: the whole sweep — workloads,
 * schemes, SimConfig variants, trace mode, report settings, artifact
 * cache, result store — comes from one JSON experiment config, so
 * experiments are versionable artifacts instead of bench-specific
 * conventions:
 *
 *   run_experiment configs/ci_smoke.json
 *   run_experiment configs/ci_smoke.json --trace-mode=stream \
 *       --format=json --out=smoke.json
 *
 * The config may be given positionally or via --config FILE; the
 * other shared flags (see --help) override the config file as usual.
 * Unlike the figure benches there is no built-in matrix: no config is
 * an error.
 */

#include <cstdio>
#include <iostream>

#include "bench/bench_util.hh"
#include "core/experiment.hh"

using namespace cassandra;

int
main(int argc, char **argv)
{
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

    auto exp = bench::runMatrix(matrix, spec);
    if (!bench::emitReport(exp, spec))
        core::TableReporter().write(exp, std::cout);
    return 0;
}
