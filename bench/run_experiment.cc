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
 * --scheduler/--stats-out) override the config file as usual. Unlike the figure benches there
 * is no built-in matrix: no config is an error.
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
 *
 * It is also the remote-execution agent and the experiment service:
 *
 *   run_experiment --agent --inbox=/shared/box        # poll for tasks
 *   run_experiment --serve --spool=/shared/spool \
 *       --cache=on --cache-dir=rc                     # coordinator
 *   run_experiment --submit sweep.json --spool=/shared/spool --wait
 *
 * Agent mode polls an ArtifactStore drop box for shard manifests,
 * fetches the content-addressed snapshots they reference, simulates
 * and publishes CASSCR1 results back. Serve mode claims queued job
 * configs from a spool directory, batches them through one shared
 * runner (cross-job cell dedup, shared analysis/result caches) and
 * writes per-job reports byte-identical to direct runs. Submit mode
 * queues a config and (with --wait) blocks until its status appears.
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
#include "core/experiment_service.hh"
#include "core/remote_executor.hh"

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

/** Parse a non-negative integer flag value or die. */
uint64_t
uintValue(const char *flag, const std::string &text)
{
    char *end = nullptr;
    const unsigned long long n = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || text[0] == '-') {
        std::fprintf(stderr, "invalid %s=%s\n", flag, text.c_str());
        std::exit(2);
    }
    return n;
}

/** The `--agent` entry: poll a drop box for shard tasks, forever (or
 * until the stop flag / idle exit). */
int
agentMain(int argc, char **argv)
{
    core::AgentOptions aopts;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--agent")
            continue;
        if (arg.rfind("--inbox=", 0) == 0)
            aopts.inboxDir = arg.substr(std::strlen("--inbox="));
        else if (arg.rfind("--poll-ms=", 0) == 0)
            aopts.pollMs = uintValue(
                "--poll-ms", arg.substr(std::strlen("--poll-ms=")));
        else if (arg.rfind("--idle-exit-ms=", 0) == 0)
            aopts.idleExitMs = uintValue(
                "--idle-exit-ms",
                arg.substr(std::strlen("--idle-exit-ms=")));
        else if (arg.rfind("--threads=", 0) == 0)
            aopts.threads = static_cast<unsigned>(uintValue(
                "--threads", arg.substr(std::strlen("--threads="))));
        else {
            std::fprintf(stderr, "agent mode: unknown option %s\n",
                         arg.c_str());
            return 2;
        }
    }
    if (aopts.inboxDir.empty()) {
        std::fprintf(stderr,
                     "usage: %s --agent --inbox=DIR [--poll-ms=N]\n"
                     "       [--idle-exit-ms=N] [--threads=N]\n",
                     argv[0]);
        return 2;
    }
    return core::runShardAgent(
        aopts, crypto::WorkloadRegistry::global().resolver(), std::cerr);
}

/** The `--submit` entry: queue a config into a service spool. */
int
submitMain(int argc, char **argv)
{
    std::string config, spool;
    bool wait = false;
    uint64_t timeout_ms = 600000;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--submit")
            continue;
        if (arg.rfind("--spool=", 0) == 0)
            spool = arg.substr(std::strlen("--spool="));
        else if (arg == "--spool" && i + 1 < argc)
            spool = argv[++i];
        else if (arg == "--wait")
            wait = true;
        else if (arg.rfind("--timeout-ms=", 0) == 0)
            timeout_ms = uintValue(
                "--timeout-ms",
                arg.substr(std::strlen("--timeout-ms=")));
        else if (arg.rfind("--config=", 0) == 0)
            config = arg.substr(std::strlen("--config="));
        else if (arg[0] != '-' && config.empty())
            config = arg;
        else {
            std::fprintf(stderr, "submit mode: unknown option %s\n",
                         arg.c_str());
            return 2;
        }
    }
    if (config.empty() || spool.empty()) {
        std::fprintf(stderr,
                     "usage: %s --submit CONFIG.json --spool=DIR "
                     "[--wait] [--timeout-ms=N]\n",
                     argv[0]);
        return 2;
    }
    try {
        const std::string job =
            core::ExperimentService::submit(spool, config);
        std::printf("%s\n", job.c_str());
        if (!wait)
            return 0;
        const std::string status =
            core::ExperimentService::waitForJob(spool, job, timeout_ms);
        if (status.empty()) {
            std::fprintf(stderr, "job %s: no status after %llu ms\n",
                         job.c_str(),
                         static_cast<unsigned long long>(timeout_ms));
            return 1;
        }
        std::fputs(status.c_str(), stderr);
        return status.rfind("ok", 0) == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "submit: %s\n", e.what());
        return 1;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--worker") == 0)
            return workerMain(argc, argv);
        if (std::strcmp(argv[i], "--agent") == 0)
            return agentMain(argc, argv);
        if (std::strcmp(argv[i], "--submit") == 0)
            return submitMain(argc, argv);
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
            std::strcmp(arg, "--cache-gc-mb") == 0 ||
            std::strcmp(arg, "--scheduler") == 0 ||
            std::strcmp(arg, "--dedup") == 0 ||
            std::strcmp(arg, "--stats-out") == 0 ||
            std::strcmp(arg, "--dropbox") == 0 ||
            std::strcmp(arg, "--agents") == 0 ||
            std::strcmp(arg, "--task-timeout-ms") == 0 ||
            std::strcmp(arg, "--spool") == 0;
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

    // `--serve` runs the spool coordinator; its own flags (--spool,
    // --poll-ms, --idle-exit-ms, --max-jobs) are peeled off here and
    // the rest go through the shared CLI as runner settings.
    bool serve = false;
    std::string spool;
    uint64_t serve_poll_ms = 100, serve_idle_exit_ms = 0;
    unsigned serve_max_jobs = 0;
    {
        std::vector<std::string> rest;
        for (size_t i = 0; i < args.size(); i++) {
            const std::string &arg = args[i];
            if (arg == "--serve")
                serve = true;
            else if (arg.rfind("--spool=", 0) == 0)
                spool = arg.substr(std::strlen("--spool="));
            else if (arg == "--spool" && i + 1 < args.size())
                spool = args[++i];
            else if (arg.rfind("--poll-ms=", 0) == 0)
                serve_poll_ms = uintValue(
                    "--poll-ms", arg.substr(std::strlen("--poll-ms=")));
            else if (arg.rfind("--idle-exit-ms=", 0) == 0)
                serve_idle_exit_ms = uintValue(
                    "--idle-exit-ms",
                    arg.substr(std::strlen("--idle-exit-ms=")));
            else if (arg.rfind("--max-jobs=", 0) == 0)
                serve_max_jobs = static_cast<unsigned>(uintValue(
                    "--max-jobs",
                    arg.substr(std::strlen("--max-jobs="))));
            else
                rest.push_back(arg);
        }
        if (serve)
            args = std::move(rest);
    }

    std::vector<char *> cargv;
    cargv.push_back(argv[0]);
    for (std::string &arg : args)
        cargv.push_back(arg.data());

    auto opts = bench::parseCli(static_cast<int>(cargv.size()),
                                cargv.data());

    if (serve) {
        if (spool.empty()) {
            std::fprintf(stderr,
                         "usage: %s --serve --spool=DIR [--poll-ms=N]\n"
                         "       [--idle-exit-ms=N] [--max-jobs=N]\n"
                         "       [shared runner flags: --threads, "
                         "--execution, --cache, ...]\n",
                         argv[0]);
            return 2;
        }
        if (opts.workerBinary.empty())
            opts.workerBinary = selfBinaryPath(argv[0]);
        return bench::serveSpool(spool, opts, serve_poll_ms,
                                 serve_idle_exit_ms, serve_max_jobs);
    }

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
