/**
 * @file
 * Reproduces §8 Q4: the upper-bound cost of flushing the BTU on
 * context switches. The paper flushes at 250 Hz (12M cycles at 3 GHz)
 * and sees the average improvement drop from 1.85% to 1.80%; our runs
 * are shorter, so we additionally sweep much more aggressive periods.
 * The flush period is swept as SimConfig variants of one matrix.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "core/experiment.hh"
#include "crypto/workload_registry.hh"

using namespace cassandra;
using uarch::Scheme;

int
main(int argc, char **argv)
{
    auto spec = bench::parseCli(argc, argv);

    // A --config sweep replaces the built-in flush matrix; its cells
    // go through the generic reporters (the table below needs the
    // built-in "flush=..." config names).
    core::ExperimentMatrix config_matrix;
    if (bench::matrixFromConfig(spec, config_matrix)) {
        auto exp = bench::runMatrix(config_matrix, spec);
        if (!bench::emitReport(exp, spec))
            core::makeReporter("table")->write(exp, std::cout);
        return 0;
    }

    const uint64_t periods[] = {0, 12'000'000, 1'000'000, 100'000,
                                10'000};
    core::SimConfig base_cfg;
    core::ExperimentMatrix matrix;
    matrix.workloads =
        bench::selectWorkloads(bench::cryptoWorkloadNames(), spec);
    matrix.schemes = {Scheme::Cassandra};
    for (uint64_t p : periods) {
        std::string name = p == 0 ? "never" : std::to_string(p);
        matrix.configs.push_back(
            base_cfg.withFlushPeriod(p).named("flush=" + name));
    }
    // The baseline has no BTU to flush: run it once per workload, in
    // the same batch so every workload is analyzed exactly once.
    core::ExperimentMatrix base_matrix;
    base_matrix.workloads = matrix.workloads;
    base_matrix.schemes = {Scheme::UnsafeBaseline};
    base_matrix.configs = {base_cfg.named("flush=never")};

    auto exp = bench::runMatrices({base_matrix, matrix}, spec);
    if (bench::emitReport(exp, spec))
        return 0;

    std::printf("Q4: Cassandra speedup vs baseline under periodic BTU "
                "flushes\n\n");
    std::printf("%-14s", "flush period");
    for (uint64_t p : periods) {
        if (p == 0)
            std::printf("%12s", "never");
        else
            std::printf("%12llu", static_cast<unsigned long long>(p));
    }
    std::printf("\n");
    bench::printRule(14 + 12 * 5);

    std::vector<std::vector<double>> ratios(5);
    for (const std::string &name : matrix.workloads) {
        const auto *base =
            exp.find(name, Scheme::UnsafeBaseline, "flush=never");
        std::printf("%-14s", name.substr(0, 13).c_str());
        for (size_t i = 0; i < 5; i++) {
            std::string cfg = periods[i] == 0
                ? "flush=never"
                : "flush=" + std::to_string(periods[i]);
            const auto *cass = exp.find(name, Scheme::Cassandra, cfg);
            double r = static_cast<double>(cass->result.stats.cycles) /
                base->result.stats.cycles;
            ratios[i].push_back(r);
            std::printf("%12.4f", r);
        }
        std::printf("\n");
    }
    bench::printRule(14 + 12 * 5);
    std::printf("%-14s", "geomean");
    for (size_t i = 0; i < 5; i++)
        std::printf("%12.4f", bench::geomean(ratios[i]));
    std::printf("\n\nPaper reference: flushing at 250 Hz shaves the "
                "1.85%% improvement to 1.80%%; only absurdly\n"
                "aggressive flush periods should visibly hurt.\n");
    return 0;
}
