#include "core/cell_executor.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include <algorithm>
#include <numeric>

#include "core/byte_io.hh"
#include "core/result_store.hh"
#include "core/serialize.hh"
#include "core/trace_stream.hh"

#if !defined(_WIN32)
#define CASSANDRA_POSIX_SPAWN 1
#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace cassandra::core {

void
runParallel(unsigned threads, size_t work,
            const std::function<void(size_t)> &fn)
{
    if (work == 0)
        return;
    std::atomic<size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;

    auto worker = [&] {
        for (;;) {
            size_t i = next.fetch_add(1);
            if (i >= work)
                return;
            {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (first_error)
                    return; // fail fast, keep remaining slots empty
            }
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
                return;
            }
        }
    };

    if (threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; t++)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    if (first_error)
        std::rethrow_exception(first_error);
}

// ---------------------------------------------------------------------
// Cost model + shard scheduling
// ---------------------------------------------------------------------

std::vector<uint64_t>
estimateCellCosts(const std::vector<PlannedCell> &cells,
                  const ArtifactMap &artifacts, const ResultStore *store)
{
    std::vector<uint64_t> costs;
    costs.reserve(cells.size());
    for (const PlannedCell &cell : cells) {
        const AnalyzedWorkload::Ptr &artifact =
            artifacts.at(cell.workload);
        uint64_t cost = 0;
        if (store) {
            SimConfig cfg = cell.config;
            cfg.scheme = cell.scheme;
            cost = store->peekCycles(resultStoreKey(
                artifact->workload(), cell.scheme, cfg));
        }
        if (cost == 0)
            cost = artifact->numOps();
        costs.push_back(std::max<uint64_t>(cost, 1));
    }
    return costs;
}

std::vector<std::vector<uint32_t>>
scheduleShards(ShardScheduler scheduler,
               const std::vector<uint64_t> &costs, unsigned shards)
{
    const size_t work = costs.size();
    const unsigned s =
        std::max(1u, std::min<unsigned>(shards, std::max<size_t>(work, 1)));
    std::vector<std::vector<uint32_t>> partition(s);
    if (work == 0)
        return partition;

    if (scheduler == ShardScheduler::Contiguous) {
        const size_t per_shard = work / s;
        const size_t remainder = work % s;
        size_t begin = 0;
        for (unsigned i = 0; i < s; i++) {
            const size_t count = per_shard + (i < remainder ? 1 : 0);
            for (size_t j = begin; j < begin + count; j++)
                partition[i].push_back(static_cast<uint32_t>(j));
            begin += count;
        }
        return partition;
    }

    // LPT: descending cost (stable: equal costs keep index order),
    // each cell onto the currently least-loaded shard (lowest index
    // on ties) — deterministic, and with work >= s every shard gets
    // at least one cell before any shard gets two.
    std::vector<uint32_t> order(work);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                         return costs[a] > costs[b];
                     });
    std::vector<uint64_t> load(s, 0);
    for (uint32_t index : order) {
        unsigned target = 0;
        for (unsigned i = 1; i < s; i++) {
            if (load[i] < load[target])
                target = i;
        }
        partition[target].push_back(index);
        load[target] += costs[index];
    }
    // Ascending indices inside each shard: manifests stay readable
    // and the assignment is independent of the greedy visit order.
    for (std::vector<uint32_t> &shard : partition)
        std::sort(shard.begin(), shard.end());
    return partition;
}

// ---------------------------------------------------------------------
// InProcessExecutor
// ---------------------------------------------------------------------

InProcessExecutor::InProcessExecutor(unsigned threads) : threads_(threads)
{
}

std::vector<CellResult>
InProcessExecutor::execute(const std::vector<PlannedCell> &cells,
                           const ArtifactMap &artifacts)
{
    std::vector<CellResult> results(cells.size());
    runParallel(
        RunnerOptions(threads_).resolveThreads(cells.size()),
        cells.size(), [&](size_t i) {
            const PlannedCell &cell = cells[i];
            const AnalyzedWorkload::Ptr &artifact =
                artifacts.at(cell.workload);
            CellResult &out = results[i];
            // Keyed by the matrix name (not Workload::name) so
            // Experiment::find works with whatever the caller
            // spelled, parameterized entries included.
            out.workload = cell.workload;
            out.suite = artifact->workload().suite;
            out.scheme = cell.scheme;
            out.config = cell.config.name;
            SimConfig cfg = cell.config;
            cfg.scheme = cell.scheme;
            out.result = Simulation(artifact).run(cfg);
        });
    return results;
}

// ---------------------------------------------------------------------
// Shard manifests (CASSSM1)
// ---------------------------------------------------------------------

namespace {

constexpr char manifestMagic[8] = {'C', 'A', 'S', 'S',
                                   'S', 'M', '1', '\n'};
constexpr uint32_t manifestVersion = 2;

/**
 * SimConfig over the wire: the name, every parameter of the
 * forEachSimParam list at its wire width, then the trace mode. A
 * worker must simulate with exactly the coordinator's parameters or
 * the merged report would silently diverge from the in-process run.
 */
void
packSimConfig(ByteWriter &w, const SimConfig &cfg)
{
    w.str(cfg.name);
    forEachSimParam(cfg, [&](const SimParam &param, const auto &field) {
        if (param.wireBytes == 8)
            w.u64(field);
        else
            w.u32(static_cast<uint32_t>(field));
    });
    w.u8(cfg.traceMode == TraceMode::Stream ? 1 : 0);
}

SimConfig
unpackSimConfig(ByteReader &r)
{
    SimConfig cfg;
    cfg.name = r.str();
    forEachSimParam(cfg, [&](const SimParam &param, auto &field) {
        using Field = std::remove_reference_t<decltype(field)>;
        field = static_cast<Field>(param.wireBytes == 8 ? r.u64()
                                                        : r.u32());
    });
    cfg.traceMode = r.u8() ? TraceMode::Stream : TraceMode::Whole;
    return cfg;
}

} // namespace

std::vector<uint8_t>
packShardManifest(const ShardManifest &manifest)
{
    if (manifest.indices.size() != manifest.cells.size())
        throw std::invalid_argument(
            "shard manifest indices/cells size mismatch");
    ByteWriter w;
    for (char c : manifestMagic)
        w.u8(static_cast<uint8_t>(c));
    w.u32(manifestVersion);
    w.u32(manifest.shardIndex);
    w.u32(manifest.workerThreads);
    w.str(manifest.streamDir);
    w.u32(static_cast<uint32_t>(manifest.artifacts.size()));
    for (const auto &[name, path] : manifest.artifacts) {
        w.str(name);
        w.str(path);
    }
    w.u32(static_cast<uint32_t>(manifest.cells.size()));
    for (size_t i = 0; i < manifest.cells.size(); i++) {
        const PlannedCell &cell = manifest.cells[i];
        w.u32(manifest.indices[i]);
        w.str(cell.workload);
        w.str(uarch::schemeName(cell.scheme));
        packSimConfig(w, cell.config);
    }
    return w.take();
}

ShardManifest
unpackShardManifest(const std::vector<uint8_t> &bytes)
{
    ByteReader r(bytes);
    uint8_t magic[8];
    for (uint8_t &b : magic)
        b = r.u8();
    if (std::memcmp(magic, manifestMagic, 6) != 0)
        throw ArtifactFormatError("not a shard manifest (bad magic)");
    if (std::memcmp(magic, manifestMagic, 8) != 0)
        throw ArtifactFormatError(
            "shard manifest has an unknown container revision");
    const uint32_t version = r.u32();
    if (version != manifestVersion)
        throw ArtifactFormatError(
            "shard manifest has format version " +
            std::to_string(version) + ", expected " +
            std::to_string(manifestVersion));

    ShardManifest m;
    m.shardIndex = r.u32();
    m.workerThreads = r.u32();
    m.streamDir = r.str();
    const uint32_t num_artifacts = r.u32();
    for (uint32_t i = 0; i < num_artifacts; i++) {
        std::string name = r.str();
        std::string path = r.str();
        m.artifacts.emplace_back(std::move(name), std::move(path));
    }
    const uint32_t num_cells = r.u32();
    for (uint32_t i = 0; i < num_cells; i++) {
        m.indices.push_back(r.u32());
        PlannedCell cell;
        cell.workload = r.str();
        cell.scheme = uarch::schemeFromName(r.str());
        cell.config = unpackSimConfig(r);
        m.cells.push_back(std::move(cell));
    }
    if (!r.done())
        throw std::invalid_argument("trailing bytes in shard manifest");
    return m;
}

void
saveShardManifest(const ShardManifest &manifest, const std::string &path)
{
    writeFileBytes(path, packShardManifest(manifest));
}

ShardManifest
loadShardManifest(const std::string &path)
{
    return unpackShardManifest(readFileBytes(path, "shard manifest"));
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

int
runShardWorker(const std::string &manifest_path,
               const std::string &out_path,
               const AnalysisCache::Resolver &resolver, std::ostream &err)
{
    try {
        const ShardManifest manifest = loadShardManifest(manifest_path);
        // Fault-injection hook for the crashed-worker retry tests: a
        // matching shard index dies before doing any work.
        if (const char *crash =
                std::getenv("CASSANDRA_TEST_WORKER_CRASH")) {
            if (std::to_string(manifest.shardIndex) == crash) {
                err << "worker shard " << manifest.shardIndex
                    << ": injected crash (CASSANDRA_TEST_WORKER_CRASH)"
                    << std::endl;
                return 42;
            }
        }
        ArtifactMap artifacts;
        for (const auto &[name, path] : manifest.artifacts)
            artifacts.emplace(name,
                              loadAnalyzedWorkload(path, resolver,
                                                   manifest.streamDir));
        InProcessExecutor executor(manifest.workerThreads);
        std::vector<CellResult> results =
            executor.execute(manifest.cells, artifacts);
        std::vector<IndexedCellResult> indexed;
        indexed.reserve(results.size());
        for (size_t i = 0; i < results.size(); i++)
            indexed.push_back(IndexedCellResult{manifest.indices[i],
                                                std::move(results[i])});
        saveCellResults(indexed, out_path);
        return 0;
    } catch (const std::exception &e) {
        err << "worker failed: " << e.what() << std::endl;
        return 1;
    }
}

// ---------------------------------------------------------------------
// SubprocessShardExecutor
// ---------------------------------------------------------------------

WorkerError::WorkerError(unsigned shard, const std::string &detail,
                         std::string stderr_text)
    : std::runtime_error(
          "shard " + std::to_string(shard) + " failed: " + detail +
          (stderr_text.empty() ? std::string()
                               : "\n--- worker stderr ---\n" +
                                     stderr_text)),
      shard_(shard), stderrText_(std::move(stderr_text))
{
}

SubprocessShardExecutor::SubprocessShardExecutor(Options options)
    : options_(std::move(options))
{
    if (options_.workerBinary.empty())
        throw std::invalid_argument(
            "subprocess execution needs a worker binary (set "
            "RunnerOptions::workerBinary or \"execution\": "
            "{\"worker_binary\": ...})");
}

namespace {

/**
 * Scratch snapshot file stem for a workload: the sanitized name plus
 * the workload fingerprint in hex. Like traceStreamPath, the
 * fingerprint keeps distinct workloads whose names sanitize to the
 * same string ("synthetic/aes/25" vs "synthetic_aes_25") from
 * silently clobbering each other's snapshots.
 */
std::string
scratchFileName(const std::string &name, const Workload &workload)
{
    std::string file = name;
    for (char &c : file) {
        if (c == '/' || c == '\\')
            c = '_';
    }
    char fp[24];
    std::snprintf(fp, sizeof(fp), "-%016llx",
                  static_cast<unsigned long long>(
                      workloadFingerprint(workload)));
    return file + fp;
}

/** Bounded tail of a worker's captured stderr file. */
std::string
stderrTail(const std::string &path)
{
    constexpr size_t maxBytes = 8192;
    std::ifstream file(path, std::ios::binary);
    if (!file)
        return "";
    file.seekg(0, std::ios::end);
    const std::streamoff len = file.tellg();
    const std::streamoff start =
        len > static_cast<std::streamoff>(maxBytes)
            ? len - static_cast<std::streamoff>(maxBytes)
            : 0;
    file.seekg(start);
    std::string text((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
    if (start > 0)
        text = "..." + text;
    while (!text.empty() && text.back() == '\n')
        text.pop_back();
    return text;
}

/**
 * A fresh scratch directory unique across processes and calls — a
 * subdirectory of `base` (or of the temp directory) suffixed with the
 * process-unique token, so two coordinators configured with the same
 * scratch directory never share or unlink each other's files.
 */
std::string
makeScratchDir(const std::string &base)
{
    static std::atomic<uint64_t> sequence{0};
    std::string root = base;
    if (root.empty()) {
        const char *tmp = std::getenv("TMPDIR");
        root = (tmp && *tmp) ? tmp : "/tmp";
    }
    // A coordinator that crashed (or was SIGKILLed) kept its scratch
    // for debugging but can never delete it; reclaim any sibling
    // whose owning pid is gone before adding our own.
    sweepStaleProcessDirs(root, "cassandra-shards-");
    root += "/cassandra-shards-" + processUniqueSuffix() + "-" +
        std::to_string(sequence.fetch_add(1));
    ensureDirectories(root);
    return root;
}

#if defined(CASSANDRA_POSIX_SPAWN)

struct ShardProcess
{
    unsigned shard = 0;
    pid_t pid = -1;
    std::vector<uint32_t> indices; ///< global cell indices (sorted)
    std::string outPath;
    std::string stderrPath;
    bool reaped = false; ///< waitpid collected the child
    bool failed = false;
    std::string detail; ///< failure description (exit status, parse)
};

/** fork/exec one worker with stderr captured to a file. */
pid_t
spawnWorker(const std::string &binary,
            const std::vector<std::string> &args,
            const std::string &stderr_path)
{
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(binary.c_str()));
    for (const std::string &arg : args)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);

    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("cannot fork shard worker");
    if (pid == 0) {
        // Child: only async-signal-safe calls until execv.
        int fd = open(stderr_path.c_str(),
                      O_WRONLY | O_CREAT | O_TRUNC, 0600);
        if (fd >= 0) {
            dup2(fd, 2);
            if (fd != 2)
                close(fd);
        }
        execv(binary.c_str(), argv.data());
        // exec failed: 127 like the shell, reason on the captured fd.
        const char msg[] = "cannot exec worker binary\n";
        ssize_t ignored = write(2, msg, sizeof(msg) - 1);
        (void)ignored;
        _exit(127);
    }
    return pid;
}

/** waitpid + decode the exit status into a human-readable detail. */
bool
waitWorker(ShardProcess &proc)
{
    int status = 0;
    for (;;) {
        const pid_t r = waitpid(proc.pid, &status, 0);
        if (r == proc.pid)
            break;
        if (r < 0 && errno == EINTR)
            continue;
        proc.detail = "waitpid failed";
        return false;
    }
    proc.reaped = true;
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0)
        return true;
    if (WIFEXITED(status))
        proc.detail =
            "worker exited with status " +
            std::to_string(WEXITSTATUS(status));
    else if (WIFSIGNALED(status))
        proc.detail = "worker killed by signal " +
            std::to_string(WTERMSIG(status));
    else
        proc.detail = "worker ended abnormally";
    return false;
}

#endif // CASSANDRA_POSIX_SPAWN

} // namespace

std::vector<CellResult>
SubprocessShardExecutor::execute(const std::vector<PlannedCell> &cells,
                                 const ArtifactMap &artifacts)
{
#if !defined(CASSANDRA_POSIX_SPAWN)
    (void)cells;
    (void)artifacts;
    throw std::runtime_error(
        "subprocess shard execution is not supported on this platform");
#else
    if (cells.empty())
        return {};

    RunnerOptions base(options_.threads);
    base.shards = options_.shards;
    const unsigned shards = base.resolveShards(cells.size());
    const unsigned worker_threads =
        base.resolveThreads(cells.size(), shards);

    const std::string scratch = makeScratchDir(options_.scratchDir);
    std::vector<ShardProcess> procs;
    // Sweep the whole process-unique scratch directory (flat, we
    // created it) after a successful run: a killed worker leaves
    // behind rehydrated trace streams its destructors never deleted,
    // so per-file tracking on the coordinator side would leak them.
    // A failed run keeps the directory — manifests and captured
    // worker stderr are the debugging evidence.
    auto cleanup = [&]() {
        if (DIR *dir = opendir(scratch.c_str())) {
            while (struct dirent *entry = readdir(dir)) {
                const std::string name = entry->d_name;
                if (name != "." && name != "..")
                    std::remove((scratch + "/" + name).c_str());
            }
            closedir(dir);
        }
        rmdir(scratch.c_str());
    };
    // On any escape path, no child may outlive its scratch files:
    // kill and reap every worker not already collected before
    // cleanup() unlinks what they are reading.
    auto reap_all = [&]() {
        for (ShardProcess &proc : procs) {
            if (proc.pid <= 0 || proc.reaped)
                continue;
            kill(proc.pid, SIGKILL);
            int status = 0;
            while (waitpid(proc.pid, &status, 0) < 0 &&
                   errno == EINTR) {
            }
            proc.reaped = true;
        }
    };

    try {
        // Ship each distinct workload once: one .aw snapshot serves
        // every shard that touches the workload.
        std::map<std::string, std::string> snapshot_paths;
        for (const PlannedCell &cell : cells) {
            if (snapshot_paths.count(cell.workload))
                continue;
            const AnalyzedWorkload::Ptr &artifact =
                artifacts.at(cell.workload);
            const std::string path = scratch + "/" +
                scratchFileName(cell.workload, artifact->workload()) +
                ".aw";
            saveAnalyzedWorkload(*artifact, path, cell.workload);
            snapshot_paths.emplace(cell.workload, path);
        }

        // Partition by the configured scheduler (contiguous blocks or
        // LPT over the cost model); merging by global index makes the
        // partition (and completion order) invisible in the result.
        const std::vector<uint64_t> costs = estimateCellCosts(
            cells, artifacts, options_.costSource.get());
        const std::vector<std::vector<uint32_t>> partition =
            scheduleShards(options_.scheduler, costs, shards);
        schedule_ = ScheduleSummary{};
        schedule_.valid = true;
        schedule_.scheduler = options_.scheduler;
        for (const std::vector<uint32_t> &assigned : partition) {
            uint64_t shard_cost = 0;
            for (uint32_t i : assigned)
                shard_cost += costs[i];
            schedule_.shardCosts.push_back(shard_cost);
        }

        for (unsigned s = 0; s < shards; s++) {
            ShardProcess proc;
            proc.shard = s;
            proc.indices = partition[s];

            ShardManifest manifest;
            manifest.shardIndex = s;
            manifest.workerThreads = worker_threads;
            manifest.streamDir = scratch;
            for (uint32_t i : proc.indices) {
                manifest.indices.push_back(i);
                manifest.cells.push_back(cells[i]);
            }
            for (const auto &[name, path] : snapshot_paths) {
                bool used = false;
                for (const PlannedCell &cell : manifest.cells)
                    used = used || cell.workload == name;
                if (used)
                    manifest.artifacts.emplace_back(name, path);
            }

            const std::string stem =
                scratch + "/shard-" + std::to_string(s);
            const std::string manifest_path = stem + ".sm";
            proc.outPath = stem + ".crs";
            proc.stderrPath = stem + ".stderr";
            saveShardManifest(manifest, manifest_path);

            proc.pid = spawnWorker(
                options_.workerBinary,
                {"--worker", "--manifest=" + manifest_path,
                 "--out=" + proc.outPath},
                proc.stderrPath);
            stats_.shardsLaunched++;
            procs.push_back(std::move(proc));
        }

        // Merge by global index: any shard partition, any completion
        // order, identical result vector.
        std::vector<CellResult> results(cells.size());
        std::vector<char> have(cells.size(), 0);
        for (ShardProcess &proc : procs) {
            proc.failed = !waitWorker(proc);
            if (proc.failed)
                continue;
            try {
                std::vector<IndexedCellResult> partial =
                    loadCellResults(proc.outPath);
                if (partial.size() != proc.indices.size())
                    throw std::invalid_argument(
                        "shard returned " +
                        std::to_string(partial.size()) +
                        " cells, expected " +
                        std::to_string(proc.indices.size()));
                for (IndexedCellResult &entry : partial) {
                    if (!std::binary_search(proc.indices.begin(),
                                            proc.indices.end(),
                                            entry.index) ||
                        have[entry.index])
                        throw std::invalid_argument(
                            "shard returned cell index " +
                            std::to_string(entry.index) +
                            " outside its assignment");
                    results[entry.index] = std::move(entry.cell);
                    have[entry.index] = 1;
                }
            } catch (const std::exception &e) {
                proc.failed = true;
                proc.detail = e.what();
            }
        }

        // Crashed shards: one in-process retry before the run fails.
        for (const ShardProcess &proc : procs) {
            if (!proc.failed)
                continue;
            stats_.shardsFailed++;
            const std::string stderr_text = stderrTail(proc.stderrPath);
            if (!options_.retryInProcess)
                throw WorkerError(proc.shard, proc.detail, stderr_text);
            std::fprintf(stderr,
                         "shard %u: %s; retrying its %zu cells "
                         "in-process\n",
                         proc.shard, proc.detail.c_str(),
                         proc.indices.size());
            try {
                std::vector<PlannedCell> retry_cells;
                retry_cells.reserve(proc.indices.size());
                for (uint32_t i : proc.indices)
                    retry_cells.push_back(cells[i]);
                // The other shards are done by the time a retry
                // runs, so it gets the full coordinator budget, not
                // the per-shard cap.
                std::vector<CellResult> retried =
                    InProcessExecutor(options_.threads)
                        .execute(retry_cells, artifacts);
                for (size_t i = 0; i < retried.size(); i++) {
                    results[proc.indices[i]] = std::move(retried[i]);
                    have[proc.indices[i]] = 1;
                }
                stats_.cellsRetried += proc.indices.size();
            } catch (const std::exception &e) {
                throw WorkerError(proc.shard,
                                  proc.detail +
                                      "; in-process retry failed: " +
                                      e.what(),
                                  stderr_text);
            }
        }

        for (size_t i = 0; i < cells.size(); i++) {
            if (!have[i])
                throw std::logic_error(
                    "shard merge left cell " + std::to_string(i) +
                    " unfilled");
        }
        cleanup();
        return results;
    } catch (...) {
        // Keep the scratch directory: its manifests and captured
        // worker stderr are what a failed run gets debugged from.
        reap_all();
        std::fprintf(stderr,
                     "shard run failed; keeping scratch directory %s "
                     "for debugging\n",
                     scratch.c_str());
        throw;
    }
#endif // CASSANDRA_POSIX_SPAWN
}

std::shared_ptr<CellExecutor>
makeCellExecutor(const RunnerOptions &options,
                 std::shared_ptr<const ResultStore> costSource)
{
    if (options.execution == ExecutionMode::Subprocess) {
        SubprocessShardExecutor::Options opts;
        opts.shards = options.shards;
        opts.workerBinary = options.workerBinary;
        opts.threads = options.threads;
        opts.scratchDir = options.scratchDir;
        opts.scheduler = options.scheduler;
        opts.costSource = std::move(costSource);
        return std::make_shared<SubprocessShardExecutor>(opts);
    }
    return std::make_shared<InProcessExecutor>(options.threads);
}

} // namespace cassandra::core
