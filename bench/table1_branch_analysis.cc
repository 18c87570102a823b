/**
 * @file
 * Reproduces Table 1: branch analysis of the cryptographic programs.
 * For every workload it reports, over multi-target static branches,
 * the vanilla trace size (avg/max), the k-mers size (avg/max, trace +
 * pattern set) and the per-branch compression rate (avg/max).
 *
 * Analysis-only bench on the two-phase API: ExperimentRunner::analyze
 * runs Algorithm 2 for all selected workloads in parallel (exactly
 * once each), and the shared CLI adds --workloads/--suite/--threads
 * plus JSON/CSV emission of the per-workload aggregates.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <ostream>

#include "bench/bench_util.hh"
#include "core/tracegen.hh"
#include "crypto/workload_registry.hh"

using namespace cassandra;

namespace {

/** Table 1 aggregates of one workload. */
struct BranchSummary
{
    std::string workload;
    std::string suite;
    size_t branches = 0; ///< multi-target, replayable branches
    double vanillaAvg = 0, vanillaMax = 0;
    double kmersAvg = 0, kmersMax = 0;
    double rateAvg = 0, rateMax = 0;
};

BranchSummary
summarize(const std::string &name, const core::AnalyzedWorkload &aw)
{
    BranchSummary s;
    s.workload = name;
    s.suite = aw.workload().suite;
    double v_sum = 0, k_sum = 0, r_sum = 0;
    for (const auto *rec : aw.traces().multiTarget()) {
        if (rec->inputDependent || rec->kmersSize == 0)
            continue;
        s.branches++;
        v_sum += rec->vanillaSize;
        k_sum += rec->kmersSize;
        r_sum += rec->compressionRate();
        s.vanillaMax = std::max(s.vanillaMax, double(rec->vanillaSize));
        s.kmersMax = std::max(s.kmersMax, double(rec->kmersSize));
        s.rateMax = std::max(s.rateMax, rec->compressionRate());
    }
    if (s.branches) {
        s.vanillaAvg = v_sum / s.branches;
        s.kmersAvg = k_sum / s.branches;
        s.rateAvg = r_sum / s.branches;
    }
    return s;
}

void
writeJson(const std::vector<BranchSummary> &rows, std::ostream &os)
{
    os << "{\n  \"results\": [";
    bool first = true;
    for (const BranchSummary &s : rows) {
        if (!first)
            os << ",";
        first = false;
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "\n    {\"workload\": \"%s\", \"suite\": \"%s\", "
            "\"branches\": %zu, \"vanilla_avg\": %.4f, "
            "\"vanilla_max\": %.0f, \"kmers_avg\": %.4f, "
            "\"kmers_max\": %.0f, \"rate_avg\": %.4f, "
            "\"rate_max\": %.4f}",
            s.workload.c_str(), s.suite.c_str(), s.branches,
            s.vanillaAvg, s.vanillaMax, s.kmersAvg, s.kmersMax,
            s.rateAvg, s.rateMax);
        os << buf;
    }
    os << "\n  ]\n}\n";
}

void
writeTable(const std::vector<BranchSummary> &rows, std::ostream &os)
{
    char buf[256];
    auto emit = [&os, &buf](const BranchSummary &s) {
        std::snprintf(buf, sizeof(buf),
                      "%-22s %5zu | %12.1f %12.0f | %8.1f %8.0f | "
                      "%12.1f %14.1f\n",
                      s.workload.c_str(), s.branches, s.vanillaAvg,
                      s.vanillaMax, s.kmersAvg, s.kmersMax, s.rateAvg,
                      s.rateMax);
        os << buf;
    };
    const std::string rule(110, '-');
    os << "Table 1: Branch analysis of cryptographic programs\n"
       << "(per multi-target static branch; single-target branches "
          "excluded as in the paper)\n\n";
    std::snprintf(buf, sizeof(buf),
                  "%-22s %5s | %12s %12s | %8s %8s | %12s %14s\n",
                  "Program", "#br", "vanilla-avg", "vanilla-max",
                  "kmers-avg", "kmers-max", "rate-avg", "rate-max");
    os << buf << rule << "\n";

    std::string last_suite;
    BranchSummary all;
    all.workload = "All";
    double v_sum = 0, k_sum = 0, r_sum = 0;
    for (const BranchSummary &s : rows) {
        if (s.suite != last_suite) {
            os << "-- " << s.suite << " --\n";
            last_suite = s.suite;
        }
        emit(s);
        v_sum += s.vanillaAvg * s.branches;
        k_sum += s.kmersAvg * s.branches;
        r_sum += s.rateAvg * s.branches;
        all.branches += s.branches;
        all.vanillaMax = std::max(all.vanillaMax, s.vanillaMax);
        all.kmersMax = std::max(all.kmersMax, s.kmersMax);
        all.rateMax = std::max(all.rateMax, s.rateMax);
    }
    os << rule << "\n";
    if (all.branches) {
        all.suite.clear();
        all.vanillaAvg = v_sum / all.branches;
        all.kmersAvg = k_sum / all.branches;
        all.rateAvg = r_sum / all.branches;
        emit(all);
    }
    os << "\nPaper reference (x86 gem5 traces, full-size inputs): "
          "vanilla avg 637,425.5, k-mers avg 19.9,\n"
          "compression rate avg 163,370.7x. Our scaled inputs "
          "produce shorter vanilla traces but the same shape:\n"
          "k-mers sizes of a few entries per branch and "
          "compression rates that grow with the trace length.\n";
}

void
writeCsv(const std::vector<BranchSummary> &rows, std::ostream &os)
{
    os << "workload,suite,branches,vanilla_avg,vanilla_max,kmers_avg,"
          "kmers_max,rate_avg,rate_max\n";
    for (const BranchSummary &s : rows) {
        char buf[512];
        std::snprintf(buf, sizeof(buf),
                      "%s,%s,%zu,%.4f,%.0f,%.4f,%.0f,%.4f,%.4f\n",
                      s.workload.c_str(), s.suite.c_str(), s.branches,
                      s.vanillaAvg, s.vanillaMax, s.kmersAvg,
                      s.kmersMax, s.rateAvg, s.rateMax);
        os << buf;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    auto spec = bench::parseCli(argc, argv);

    // Analysis-only: a --config still selects workloads and the
    // artifact snapshot directory (schemes and configs in the file do
    // not apply here).
    core::ExperimentMatrix matrix;
    std::vector<std::string> names;
    if (bench::matrixFromConfig(spec, matrix))
        names = matrix.workloads;
    else
        names = bench::selectWorkloads(bench::cryptoWorkloadNames(),
                                       spec);

    std::vector<std::string> missing;
    core::ExperimentRunner runner(
        bench::makeArtifactCache(names, spec, missing),
        core::RunnerOptions(spec.runner.threads));
    auto artifacts = runner.analyze(names);
    std::map<std::string, core::AnalyzedWorkload::Ptr> by_name;
    for (size_t i = 0; i < names.size(); i++)
        by_name[names[i]] = artifacts[i];
    bench::saveArtifacts(by_name, missing, spec);

    std::vector<BranchSummary> rows;
    for (size_t i = 0; i < names.size(); i++) {
        BranchSummary s = summarize(names[i], *artifacts[i]);
        if (s.branches)
            rows.push_back(std::move(s));
    }

    // One output stream for every format, honoring --out like the
    // other benches.
    std::ofstream file;
    std::ostream *os = &std::cout;
    if (!spec.out.empty()) {
        file.open(spec.out);
        if (!file) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         spec.out.c_str());
            return 1;
        }
        os = &file;
    }
    if (spec.format == "csv") {
        writeCsv(rows, *os);
        return 0;
    }
    if (spec.format == "json") {
        writeJson(rows, *os);
        return 0;
    }
    writeTable(rows, *os);
    return 0;
}
