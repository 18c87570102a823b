/**
 * @file
 * Golden-report regression suite. The run_experiment reports committed
 * under tests/golden/ are the oracle that refactors of the trace,
 * analysis and snapshot layers are held to: every committed config
 * runs through the real run_experiment binary four ways — whole and
 * stream trace mode, each as a cold run that saves artifact snapshots
 * followed by a run that reloads them — and every report must equal
 * the committed one byte for byte. The CLI's rejection of removed
 * flags rides along, since it needs the binary too.
 *
 * A change that is meant to move the numbers regenerates the reports
 * with the documented command, from the repository root:
 *
 *   run_experiment tests/golden/<name>.json \
 *       --out=tests/golden/<name>.report.json
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#if !defined(_WIN32)
#include <dirent.h>
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "core/trace_stream.hh"

namespace {

using namespace cassandra;

#ifdef CASSANDRA_RUN_EXPERIMENT_BINARY
const char *runExperimentBinary = CASSANDRA_RUN_EXPERIMENT_BINARY;
#else
const char *runExperimentBinary = nullptr;
#endif

#ifdef CASSANDRA_GOLDEN_DIR
const char *goldenDir = CASSANDRA_GOLDEN_DIR;
#else
const char *goldenDir = nullptr;
#endif

std::string
readText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
writeText(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

#if !defined(_WIN32)

/**
 * Run run_experiment with `args`, its stderr captured to `err_path`
 * and its stdout discarded. Returns the exit status (-1 when it did
 * not exit normally).
 */
int
runExperiment(const std::vector<std::string> &args,
              const std::string &err_path)
{
    std::vector<std::string> argv_s{runExperimentBinary};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &a : argv_s)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t pid = fork();
    if (pid == 0) {
        const int fd = open(err_path.c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            dup2(fd, STDERR_FILENO);
            close(fd);
        }
        const int null_fd = open("/dev/null", O_WRONLY);
        if (null_fd >= 0) {
            dup2(null_fd, STDOUT_FILENO);
            close(null_fd);
        }
        execv(argv[0], argv.data());
        _exit(127);
    }
    int status = 0;
    if (pid < 0 || waitpid(pid, &status, 0) != pid)
        return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

size_t
countSnapshots(const std::string &dir)
{
    size_t n = 0;
    if (DIR *d = opendir(dir.c_str())) {
        while (dirent *entry = readdir(d)) {
            const std::string name = entry->d_name;
            if (name.size() > 3 &&
                name.compare(name.size() - 3, 3, ".aw") == 0)
                n++;
        }
        closedir(d);
    }
    return n;
}

/** (golden config name, trace mode) */
using GoldenCase = std::tuple<std::string, std::string>;

class GoldenReportTest : public testing::TestWithParam<GoldenCase>
{
};

TEST_P(GoldenReportTest, ColdAndReloadRunsMatchCommittedReport)
{
    ASSERT_NE(runExperimentBinary, nullptr);
    ASSERT_NE(goldenDir, nullptr);
    const auto &[name, mode] = GetParam();
    const std::string golden =
        readText(std::string(goldenDir) + "/" + name + ".report.json");
    const std::string config =
        readText(std::string(goldenDir) + "/" + name + ".json");
    ASSERT_FALSE(golden.empty());
    ASSERT_EQ(config.front(), '{');

    const std::string dir = testing::TempDir() + "/golden-" + name + "-" +
        mode + "-" + core::processUniqueSuffix();
    core::removeDirectoryTree(dir);
    core::ensureDirectories(dir);

    // The committed config plus a snapshot directory: the first run
    // analyzes cold and saves every workload, the second reloads them.
    const std::string snapshots = dir + "/aw";
    const std::string run_config = dir + "/config.json";
    writeText(run_config, "{\n  \"artifacts\": {\"dir\": \"" + snapshots +
                              "\", \"save\": true}," +
                              config.substr(1));

    for (const std::string run : {"cold", "reload"}) {
        const std::string out = dir + "/" + run + ".json";
        const std::string err = dir + "/" + run + ".err";
        const std::string stats = dir + "/" + run + ".stats.json";
        ASSERT_EQ(runExperiment({run_config, "--trace-mode=" + mode,
                                 "--out=" + out, "--stats-out=" + stats},
                                err),
                  0)
            << run << " run failed:\n" << readText(err);
        EXPECT_EQ(readText(err), "") << run;
        EXPECT_TRUE(readText(out) == golden)
            << run << " " << mode << " report differs from " << name
            << ".report.json (see " << out << ")";
        EXPECT_GT(countSnapshots(snapshots), 0u) << run;
        // The cold run analyzes; the reload run serves every workload
        // from the snapshots and runs no analysis pass at all.
        const bool analyzed =
            readText(stats).find("\"analysis_fused_passes\": 0,") ==
            std::string::npos;
        EXPECT_EQ(analyzed, run == "cold") << readText(stats);
    }
    if (!HasFailure())
        core::removeDirectoryTree(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Golden, GoldenReportTest,
    testing::Combine(testing::Values("ci_smoke", "all_schemes"),
                     testing::Values("whole", "stream")),
    [](const testing::TestParamInfo<GoldenCase> &info) {
        return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

TEST(RunExperimentCliTest, RetiredOptionsExitWithStatus2)
{
    ASSERT_NE(runExperimentBinary, nullptr);
    ASSERT_NE(goldenDir, nullptr);
    const std::string config = std::string(goldenDir) + "/ci_smoke.json";
    const std::string err = testing::TempDir() + "/retired-option-" +
        core::processUniqueSuffix() + ".err";
    // Flags of removed features (a second trace encoding, the drop-box
    // executor and its agents, the spool service, the store disk
    // bound, the dedup switch, the subprocess shard executor and its
    // scheduler) are unknown options, not silent no-ops.
    for (const char *flag :
         {"--trace-compression=delta", "--dropbox=D", "--agents=1",
          "--task-timeout-ms=1", "--cache-gc-mb=1", "--dedup=on",
          "--serve", "--agent", "--submit", "--execution=inprocess",
          "--shards=2", "--scheduler=lpt", "--worker"}) {
        EXPECT_EQ(runExperiment({config, flag}, err), 2) << flag;
        EXPECT_NE(readText(err).find("unknown option"), std::string::npos)
            << flag << ": " << readText(err);
    }
    // The remote execution mode is gone too.
    EXPECT_EQ(runExperiment({config, "--execution=remote"}, err), 2);
    EXPECT_NE(readText(err).find("unknown option"), std::string::npos)
        << readText(err);
    std::remove(err.c_str());
}

#endif // !_WIN32

} // namespace
