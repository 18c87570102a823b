/**
 * @file
 * Reproduces Figure 8: execution time overhead of ProSpeCT and
 * Cassandra+ProSpeCT on the SpectreGuard-style synthetic mixes,
 * normalized to the Unsafe Baseline of each benchmark. The chacha20
 * mixes keep the stack public (HACL*-style); the curve25519 mixes
 * annotate the stack and field-element buffers as secret.
 *
 * Mixes are selected through the registry's parameterized names
 * ("synthetic/<kernel>/<sandbox-pct>"), so e.g.
 * --workloads=synthetic/chacha20/60 sweeps points outside the paper's
 * grid.
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

    core::ExperimentMatrix matrix;
    if (!bench::matrixFromConfig(spec, matrix)) {
        matrix.workloads = bench::selectWorkloads(
            crypto::WorkloadRegistry::global().names("Synthetic"), spec);
        matrix.schemes = {Scheme::UnsafeBaseline, Scheme::Prospect,
                          Scheme::CassandraProspect};
    }

    auto exp = bench::runMatrix(matrix, spec);
    if (bench::emitReport(exp, spec))
        return 0;

    std::printf("Figure 8: overhead vs the Unsafe Baseline of each mix "
                "(negative = speedup)\n\n");
    std::printf("%-34s %12s %22s\n", "Mix", "ProSpeCT",
                "Cassandra+ProSpeCT");
    bench::printRule(72);
    std::string last_group;
    for (const std::string &name : matrix.workloads) {
        // "synthetic/<kernel>/<pct>"; other registry names (allowed
        // via --workloads) group under their own plain header.
        size_t a = name.find('/');
        size_t b = name.rfind('/');
        std::string group;
        if (a != std::string::npos && b > a) {
            std::string kernel = name.substr(a + 1, b - a - 1);
            group = kernel + (kernel == "chacha20" ? " (public stack)"
                                                   : " (secret stack)");
        } else {
            group = name;
        }
        if (group != last_group) {
            std::printf("-- %s --\n", group.c_str());
            last_group = group;
        }
        const auto *base = exp.find(name, Scheme::UnsafeBaseline);
        const auto *pros = exp.find(name, Scheme::Prospect);
        const auto *combo = exp.find(name, Scheme::CassandraProspect);
        if (!base || !pros || !combo) {
            std::printf("%-34s   (skipped: figure needs all three "
                        "schemes)\n",
                        name.c_str());
            continue;
        }
        double b_cycles = static_cast<double>(base->result.stats.cycles);
        std::printf("%-34s %11.2f%% %21.2f%%\n", name.c_str(),
                    (pros->result.stats.cycles / b_cycles - 1.0) * 100.0,
                    (combo->result.stats.cycles / b_cycles - 1.0) *
                        100.0);
    }
    std::printf("\nPaper reference: chacha20 0.0..0.8%% (ProSpeCT) vs "
                "-0.2..-2.8%% (Cassandra+ProSpeCT);\n"
                "curve25519 2.5..15.0%% vs -0.6..-6.7%% — ProSpeCT "
                "overhead grows with the crypto fraction when\n"
                "the stack is secret, while Cassandra+ProSpeCT "
                "improves with it.\n");
    return 0;
}
