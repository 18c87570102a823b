#include "uarch/cache.hh"

namespace cassandra::uarch {

namespace {

int
log2Exact(uint64_t v)
{
    if (v == 0 || (v & (v - 1)) != 0)
        return -1;
    int s = 0;
    while ((v >> s) != 1)
        s++;
    return s;
}

} // namespace

/**
 * Per-thread pool of retired tag arrays. A sweep builds one
 * MemoryHierarchy (four Caches) per cell; recycling an array together
 * with its final use clock makes the old contents read as empty
 * (lastUse <= epochBase_) with no clearing at all. Thread-local, so
 * worker threads never contend.
 */
struct Cache::PoolEntry
{
    Lines lines;
    uint64_t useClock = 0;
};

std::vector<Cache::PoolEntry> &
Cache::linePool()
{
    static thread_local std::vector<PoolEntry> pool;
    return pool;
}

Cache::Cache(const CacheParams &params) : params_(params)
{
    numSets_ = params_.sizeBytes / (params_.lineBytes * params_.ways);
    if (numSets_ == 0)
        numSets_ = 1;
    lineShift_ = log2Exact(params_.lineBytes);
    setShift_ = log2Exact(numSets_);
    const size_t need = static_cast<size_t>(numSets_) * params_.ways;
    auto &pool = linePool();
    for (size_t i = 0; i < pool.size(); i++) {
        if (pool[i].lines.size() == need) {
            lines_ = std::move(pool[i].lines);
            useClock_ = epochBase_ = pool[i].useClock;
            pool.erase(pool.begin() + static_cast<ptrdiff_t>(i));
            return;
        }
    }
    lines_.resize(need);
}

Cache::~Cache()
{
    if (lines_.empty())
        return;
    auto &pool = linePool();
    if (pool.size() >= 8)
        return;
    PoolEntry entry;
    entry.lines = std::move(lines_);
    entry.useClock = useClock_;
    pool.push_back(std::move(entry));
}

bool
Cache::probe(uint64_t addr) const
{
    uint64_t line_addr = lineOf(addr);
    uint32_t set = setOf(line_addr);
    uint64_t tag = tagOf(line_addr);
    for (uint32_t w = 0; w < params_.ways; w++) {
        const Line &l = lines_[static_cast<size_t>(set) * params_.ways + w];
        if (l.lastUse > epochBase_ && l.tag == tag)
            return true;
    }
    return false;
}

MemoryHierarchy::MemoryHierarchy(const CoreParams &params)
    : params_(params), l1i_(params.l1i), l1d_(params.l1d), l2_(params.l2),
      l3_(params.l3)
{
}

} // namespace cassandra::uarch
