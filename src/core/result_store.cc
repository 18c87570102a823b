#include "core/result_store.hh"

#include <cstdio>
#include <stdexcept>
#include <vector>

#include "core/byte_io.hh"
#include "core/serialize.hh"
#include "core/trace_stream.hh"

namespace cassandra::core {

namespace {

constexpr char storeMagic[8] = {'C', 'A', 'S', 'S', 'R', 'S', '1', '\n'};

/** FNV-1a, the same scheme the artifact fingerprints use. */
struct Fnv
{
    uint64_t hash = 1469598103934665603ull;

    void
    mix(uint64_t v)
    {
        for (int i = 0; i < 8; i++) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 1099511628211ull;
        }
    }
};

/**
 * Parse + verify one entry. Returns false on a key mismatch (a hash
 * collision or an overwritten file); throws on corrupt bytes or a
 * stale version, exactly like the other container readers.
 */
bool
parseEntry(const std::vector<uint8_t> &bytes, const ResultStoreKey &key,
           ExperimentResult &out)
{
    ByteReader r(bytes);
    for (char expected : storeMagic) {
        if (r.u8() != static_cast<uint8_t>(expected))
            throw ArtifactFormatError(
                "not a result-store entry (bad magic)");
    }
    const uint32_t version = r.u32();
    if (version != resultStoreVersion)
        throw ArtifactFormatError(
            "result-store entry has version " + std::to_string(version) +
            ", expected " + std::to_string(resultStoreVersion));
    const uint64_t workload_fp = r.u64();
    const std::string scheme = r.str();
    const uint64_t config_hash = r.u64();
    const uint32_t counters = r.u32();
    if (counters != experimentResultCounterCount())
        throw ArtifactFormatError(
            "result-store entry records " + std::to_string(counters) +
            " counters, expected " +
            std::to_string(experimentResultCounterCount()));
    if (workload_fp != key.workloadFingerprint ||
        scheme != uarch::schemeName(key.scheme) ||
        config_hash != key.configHash)
        return false;
    out = unpackExperimentResult(r);
    if (!r.done())
        throw std::invalid_argument(
            "trailing bytes in result-store entry");
    return true;
}

std::vector<uint8_t>
packEntry(const ResultStoreKey &key, const ExperimentResult &result)
{
    ByteWriter w;
    for (char c : storeMagic)
        w.u8(static_cast<uint8_t>(c));
    w.u32(resultStoreVersion);
    w.u64(key.workloadFingerprint);
    w.str(uarch::schemeName(key.scheme));
    w.u64(key.configHash);
    w.u32(static_cast<uint32_t>(experimentResultCounterCount()));
    packExperimentResult(w, result);
    return w.take();
}

uint64_t
hashSimConfig(const SimConfig &config, bool include_btu)
{
    Fnv fnv;
    forEachSimParam(config, [&](const SimParam &param, const auto &field) {
        if (include_btu || !param.btuOnly)
            fnv.mix(field);
    });
    return fnv.hash;
}

} // namespace

uint64_t
canonicalSimConfigHash(const SimConfig &config)
{
    return hashSimConfig(config, true);
}

uint64_t
canonicalSimConfigHash(const SimConfig &config, uarch::Scheme scheme)
{
    return hashSimConfig(config, uarch::schemeUsesBtu(scheme));
}

ResultStoreKey
resultStoreKey(const Workload &workload, uarch::Scheme scheme,
               const SimConfig &config)
{
    ResultStoreKey key;
    key.workloadFingerprint = workloadFingerprint(workload);
    key.scheme = scheme;
    key.configHash = canonicalSimConfigHash(config, scheme);
    return key;
}

uint64_t
ResultStore::keyHash(const ResultStoreKey &key)
{
    Fnv fnv;
    fnv.mix(resultStoreVersion);
    fnv.mix(key.workloadFingerprint);
    for (const char *p = uarch::schemeName(key.scheme); *p; p++)
        fnv.mix(static_cast<uint64_t>(*p));
    fnv.mix(key.configHash);
    return fnv.hash;
}

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir))
{
    if (dir_.empty())
        throw std::invalid_argument(
            "result store needs a directory");
    ensureDirectories(dir_);
}

std::string
ResultStore::entryPath(const ResultStoreKey &key) const
{
    char name[24];
    std::snprintf(name, sizeof(name), "%016llx",
                  static_cast<unsigned long long>(keyHash(key)));
    return dir_ + "/" + name + ".cr";
}

bool
ResultStore::lookup(const ResultStoreKey &key, ExperimentResult &out)
{
    const std::string path = entryPath(key);
    std::vector<uint8_t> bytes;
    try {
        bytes = readFileBytes(path, "result-store entry");
    } catch (const std::exception &) {
        // Not stored yet (or unreadable): a plain miss.
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    try {
        if (parseEntry(bytes, key, out)) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
        // A well-formed entry for a *different* key: a 64-bit hash
        // collision or a clobbered file. Evict it — the store() after
        // re-simulation rewrites the slot for this key.
    } catch (const std::exception &) {
        // Corrupt, truncated or version-stale: evict and re-simulate.
    }
    std::remove(path.c_str());
    evictions_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
}

void
ResultStore::store(const ResultStoreKey &key,
                   const ExperimentResult &result)
{
    static std::atomic<uint64_t> sequence{0};
    const std::string path = entryPath(key);
    const std::string tmp = path + ".tmp-" + processUniqueSuffix() +
        "-" + std::to_string(sequence.fetch_add(1));
    writeFileBytes(tmp, packEntry(key, result));
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw std::runtime_error(
            "cannot commit result-store entry " + path);
    }
    stores_.fetch_add(1, std::memory_order_relaxed);
}

ResultStore::Stats
ResultStore::stats() const
{
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.stores = stores_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    return s;
}

} // namespace cassandra::core
