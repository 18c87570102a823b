/**
 * @file
 * Persistent, content-addressed cache of per-cell simulation results.
 *
 * A finished experiment cell is a pure function of three things: the
 * workload (program + run-shaping parameters), the protection scheme,
 * and the simulation-relevant SimConfig fields. The ResultStore keys
 * each cell by exactly that triple — plus a store format/code version
 * — and persists its 50-counter ExperimentResult to a small on-disk
 * entry, so re-running a sweep replays unchanged cells instead of
 * re-simulating them. Editing one scheme or one workload invalidates
 * only that sliver of the matrix; everything else is a hit.
 *
 * Key derivation
 *   - `workloadFingerprint(Workload)` (core/serialize): FNV-1a over
 *     the program plus maxDynInsts, secret regions and the sandbox
 *     fraction. The setInput/check closures are not hashable — see
 *     the caveat on workloadFingerprint; delete the store after
 *     changing input *data* that leaves the program identical.
 *   - the scheme name (the matrix scheme, which replaces the config's
 *     scheme field per cell).
 *   - `canonicalSimConfigHash(SimConfig)`: FNV-1a over every core and
 *     BTU parameter that feeds the timing model. The report label
 *     (`name`) and the trace storage mode (`traceMode`) are
 *     *excluded*: they are presentation and storage details with
 *     byte-identical cycle results (a CI-enforced invariant), so
 *     "default" and "default-streamed" cells of the same geometry
 *     share one entry.
 *   - `resultStoreVersion`, bumped on any entry-layout or simulator-
 *     semantics change; the counter count is stored per entry as an
 *     extra guard (a counter added to ExperimentResult must not
 *     replay as garbage from old entries).
 *
 * Directory layout: one flat directory, one entry file per key named
 * `<16-hex key hash>.cr` ("CASSRS1\n" magic). The full key components
 * are stored inside each entry and verified on read, so a hash
 * collision degrades to a miss instead of replaying a wrong result.
 *
 * Writes are atomic: entries are written to a process-unique `.tmp`
 * sibling and committed with rename(2), so a crashed or concurrent
 * writer can never leave a torn entry behind. Corrupt, truncated or
 * version-stale entries found by lookup() are evicted (unlinked) and
 * counted, and the cell simply re-simulates.
 *
 * All counters (hits/misses/stores/evictions) are observable through
 * stats() and surface in the run's cache_stats telemetry block.
 */

#ifndef CASSANDRA_CORE_RESULT_STORE_HH
#define CASSANDRA_CORE_RESULT_STORE_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "core/analyzed_workload.hh"
#include "core/sim_config.hh"
#include "core/workload.hh"

namespace cassandra::core {

/**
 * Entry-layout/code version of the store. Bump on any change to the
 * entry format or to simulator semantics that invalidates recorded
 * counters wholesale.
 */
constexpr uint32_t resultStoreVersion = 1;

/**
 * FNV-1a over every simulation-relevant SimConfig field (all core
 * widths/windows/latencies/caches, the BTU geometry and fill latency,
 * the flush period). Excludes `name`, `scheme` (keyed separately) and
 * `traceMode` — see the file comment.
 */
uint64_t canonicalSimConfigHash(const SimConfig &config);

/**
 * Scheme-aware variant: identical to the 1-arg hash for schemes that
 * use the BTU (`uarch::schemeUsesBtu`), but for all other schemes the
 * BTU geometry/fill latency and the flush period are skipped — the
 * simulator never constructs a BTU for them, so cells that differ
 * only in BTU knobs are byte-identical and share one entry. This is
 * the hash the store key and the coordinator's cell dedup use; the
 * 1-arg form remains the scheme-agnostic reference.
 */
uint64_t canonicalSimConfigHash(const SimConfig &config,
                                uarch::Scheme scheme);

/** The content-address of one cell result. */
struct ResultStoreKey
{
    uint64_t workloadFingerprint = 0;
    uarch::Scheme scheme = uarch::Scheme::UnsafeBaseline;
    uint64_t configHash = 0;
};

/** Key for one planned cell: workload fingerprint + matrix scheme +
 * canonical config hash. */
ResultStoreKey resultStoreKey(const Workload &workload,
                              uarch::Scheme scheme,
                              const SimConfig &config);

/** Persistent on-disk cell-result cache (see file comment). */
class ResultStore
{
  public:
    /** Observable lifetime counters. */
    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t stores = 0;
        uint64_t evictions = 0; ///< corrupt/stale entries unlinked
    };

    /**
     * Open (and create, with parents) the store directory.
     * @throws std::runtime_error when the directory cannot be created.
     */
    explicit ResultStore(std::string dir);

    const std::string &dir() const { return dir_; }

    /**
     * Load the entry for `key` into `out`. A well-formed entry whose
     * stored key matches counts a hit; a missing file counts a miss;
     * a corrupt, truncated, version-stale or key-mismatched entry is
     * evicted (unlinked), counts an eviction *and* a miss, and the
     * caller re-simulates.
     */
    bool lookup(const ResultStoreKey &key, ExperimentResult &out);

    /**
     * Persist `result` under `key`: write a process-unique temp file
     * in the store directory, then rename(2) it over the entry path
     * (atomic on POSIX), replacing any previous entry.
     * @throws std::runtime_error on I/O errors.
     */
    void store(const ResultStoreKey &key, const ExperimentResult &result);

    /** Entry file path of a key (`dir/<16-hex hash>.cr`). */
    std::string entryPath(const ResultStoreKey &key) const;

    /** Combined 64-bit content hash of a key (the entry file name). */
    static uint64_t keyHash(const ResultStoreKey &key);

    Stats stats() const;

  private:
    std::string dir_;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> stores_{0};
    std::atomic<uint64_t> evictions_{0};
};

} // namespace cassandra::core

#endif // CASSANDRA_CORE_RESULT_STORE_HH
