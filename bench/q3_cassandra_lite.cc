/**
 * @file
 * §8 Q3 grown into the flagship server macro benchmark.
 *
 * Default set: the composite server/<mix>/<n> request mixes under
 * UnsafeBaseline, full Cassandra and Cassandra-lite (single-target
 * hints only, no BTU). Server rows report requests/sec-equivalent
 * throughput — n requests over the simulated cycle count at a nominal
 * 3 GHz core clock — alongside raw cycles, because "how many requests
 * per second does the protected endpoint still serve" is the number a
 * deployment decision needs; cycles_vs_baseline alone buries it.
 *
 * Single-kernel workloads remain selectable (--workloads/--suite) and
 * fall back to the original Q3 lite-vs-full ratio table, so the paper
 * callouts (OpenSSL sha256, kyber512) are still one flag away.
 */

#include <cstdio>
#include <cstdlib>
#include <map>

#include "bench/bench_util.hh"
#include "core/experiment.hh"
#include "crypto/workload_registry.hh"

using namespace cassandra;
using uarch::Scheme;

namespace {

/** Nominal core clock for requests/sec-equivalent throughput. The
 * absolute number is a presentation scale (the simulator has no wall
 * clock); ratios between schemes are clock-independent. */
constexpr double kNominalHz = 3e9;

/** Request count of a server/<mix>/<n> workload name; 0 when the name
 * is not a server mix (single-kernel rows have no request notion). */
uint64_t
serverRequests(const std::string &name)
{
    const std::string prefix = "server/";
    if (name.compare(0, prefix.size(), prefix) != 0)
        return 0;
    size_t slash = name.find('/', prefix.size());
    if (slash == std::string::npos || slash + 1 >= name.size())
        return 0;
    return std::strtoull(name.c_str() + slash + 1, nullptr, 10);
}

double
requestsPerSec(uint64_t requests, uint64_t cycles)
{
    return static_cast<double>(requests) * kNominalHz /
        static_cast<double>(cycles);
}

} // namespace

int
main(int argc, char **argv)
{
    auto spec = bench::parseCli(argc, argv);

    core::ExperimentMatrix matrix;
    if (!bench::matrixFromConfig(spec, matrix)) {
        matrix.workloads = bench::selectWorkloads(
            {"server/tls/16", "server/tls/64"}, spec);
        matrix.schemes = {Scheme::UnsafeBaseline, Scheme::Cassandra,
                          Scheme::CassandraLite};
    }

    auto exp = bench::runMatrix(matrix, spec);
    if (bench::emitReport(exp, spec))
        return 0;

    // --- Server macro table: requests/sec per scheme ----------------
    bool any_server = false;
    for (const std::string &name : matrix.workloads)
        any_server |= serverRequests(name) != 0;
    if (any_server) {
        std::printf("Q3: server request-mix throughput "
                    "(requests/sec at a nominal %.0f GHz)\n\n",
                    kNominalHz / 1e9);
        std::printf("%-18s %-16s %12s %12s %10s\n", "Workload",
                    "Scheme", "cycles", "req/s", "vs base");
        bench::printRule(72);
        std::map<std::string, std::vector<double>> retention;
        for (const std::string &name : matrix.workloads) {
            uint64_t n = serverRequests(name);
            if (n == 0)
                continue;
            const auto *base = exp.find(name, Scheme::UnsafeBaseline);
            if (!base) {
                std::printf("%-18s   (skipped: no UnsafeBaseline "
                            "cell)\n",
                            name.c_str());
                continue;
            }
            for (Scheme s : matrix.schemes) {
                const auto *cell = exp.find(name, s);
                if (!cell)
                    continue;
                uint64_t cycles = cell->result.stats.cycles;
                double ratio = static_cast<double>(cycles) /
                    base->result.stats.cycles;
                std::printf("%-18s %-16s %12llu %12.0f %9.3fx\n",
                            name.c_str(), uarch::schemeName(s),
                            static_cast<unsigned long long>(cycles),
                            requestsPerSec(n, cycles), ratio);
                if (s != Scheme::UnsafeBaseline)
                    retention[std::string(uarch::schemeName(s))]
                        .push_back(1.0 / ratio);
            }
        }
        bench::printRule(72);
        for (const auto &[scheme, kept] : retention)
            std::printf("%-18s geomean throughput retention: "
                        "%.1f%% of baseline\n",
                        scheme.c_str(),
                        bench::geomean(kept) * 100.0);
        std::printf("\n");
        if (!std::getenv("Q3_FULL_TABLE"))
            return 0;
    }

    // --- Original Q3 table: lite slowdown over full Cassandra -------
    std::printf("Q3: Cassandra-lite slowdown over full Cassandra\n\n");
    std::printf("%-22s %10s %10s %10s\n", "Workload", "lite/cass",
                "lite/base", "cass/base");
    bench::printRule(58);

    std::map<std::string, std::vector<double>> suite_ratios;
    for (const std::string &name : matrix.workloads) {
        const auto *base = exp.find(name, Scheme::UnsafeBaseline);
        const auto *cass = exp.find(name, Scheme::Cassandra);
        const auto *lite = exp.find(name, Scheme::CassandraLite);
        if (!base || !cass || !lite) {
            std::printf("%-22s   (skipped: Q3 needs all three "
                        "schemes)\n",
                        name.c_str());
            continue;
        }
        double lc = static_cast<double>(lite->result.stats.cycles) /
            cass->result.stats.cycles;
        std::printf("%-22s %10.4f %10.4f %10.4f\n", name.c_str(), lc,
                    double(lite->result.stats.cycles) /
                        base->result.stats.cycles,
                    double(cass->result.stats.cycles) /
                        base->result.stats.cycles);
        suite_ratios[base->suite].push_back(lc);
    }
    bench::printRule(58);
    for (const auto &[suite, ratios] : suite_ratios) {
        std::printf("%-22s lite slowdown over Cassandra: %+.2f%%\n",
                    suite.c_str(),
                    (bench::geomean(ratios) - 1.0) * 100.0);
    }
    std::printf("\nPaper reference: 2.7%% (BearSSL), 6.7%% (OpenSSL), "
                "4.7%% (PQC) slowdown of lite over full\n"
                "Cassandra, with large outliers (22%% OpenSSL sha256, "
                "8%% kyber512) where conditional branches\n"
                "and returns dominate.\n");
    return 0;
}
