/**
 * @file
 * Set-associative LRU cache model and a 4-level hierarchy.
 *
 * Tag-array-only model: an access returns the level that hit and the
 * resulting latency; misses allocate in all levels above. This is the
 * standard fidelity for trace-driven pipeline studies — the paper's
 * results depend on hit/miss latency, not coherence.
 *
 * The access path is defined inline: the replay loop performs a few
 * million accesses per cell, so the set/tag split must compile down to
 * shifts (line size and set count are powers of two in every shipped
 * configuration; a division fallback keeps odd geometries correct).
 */

#ifndef CASSANDRA_UARCH_CACHE_HH
#define CASSANDRA_UARCH_CACHE_HH

#include <cstdint>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "uarch/params.hh"

namespace cassandra::uarch {

/** Per-cache activity counters. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t misses = 0;
};

/** One set-associative LRU cache level (tags only). */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    ~Cache();
    Cache(const Cache &) = default;
    Cache &operator=(const Cache &) = default;

    /** True on hit; allocates the line either way. */
    bool
    access(uint64_t addr)
    {
        stats_.accesses++;
        uint64_t line_addr = lineOf(addr);
        uint32_t set = setOf(line_addr);
        uint64_t tag = tagOf(line_addr);
        Line *base = &lines_[static_cast<size_t>(set) * params_.ways];
        Line *victim = base;
        for (uint32_t w = 0; w < params_.ways; w++) {
            Line &l = base[w];
            if (l.lastUse > epochBase_ && l.tag == tag) {
                l.lastUse = ++useClock_;
                return true;
            }
            // Stale lines (lastUse <= epochBase_) sort below every
            // live one, so an empty way is always preferred — and
            // which empty way wins cannot change the hit/miss
            // sequence (set contents are a tag set; ways are
            // interchangeable).
            if (l.lastUse < victim->lastUse)
                victim = &l;
        }
        stats_.misses++;
        victim->tag = tag;
        victim->lastUse = ++useClock_;
        return false;
    }

    /** Probe without allocating or counting. */
    bool probe(uint64_t addr) const;

    const CacheParams &params() const { return params_; }
    const CacheStats &stats() const { return stats_; }

  private:
    // A line is live iff lastUse > epochBase_ — there is no valid
    // flag. The constructor recycles a retired tag array (per-thread
    // pool) and sets epochBase_ to that array's final clock, so every
    // stale line reads as empty without touching the ~130K-line L3
    // array at all. A pool miss takes a fresh array from calloc, whose
    // large blocks are untouched zero pages: a core pays resident
    // memory only for the tag lines its run touches. The no-op default
    // constructor keeps resize from writing the array.
    struct Line
    {
        uint64_t tag;
        uint64_t lastUse;

        Line() {} // zero from calloc (pool miss) or left stale (hit)
    };

    /** Allocates tag arrays with calloc (see Line). */
    template <class T>
    struct ZeroedAlloc
    {
        using value_type = T;

        ZeroedAlloc() = default;
        template <class U>
        ZeroedAlloc(const ZeroedAlloc<U> &)
        {
        }

        T *
        allocate(size_t n)
        {
            if (void *p = std::calloc(n, sizeof(T)))
                return static_cast<T *>(p);
            throw std::bad_alloc();
        }

        void deallocate(T *p, size_t) { std::free(p); }

        template <class U>
        bool operator==(const ZeroedAlloc<U> &) const { return true; }
        template <class U>
        bool operator!=(const ZeroedAlloc<U> &) const { return false; }
    };
    using Lines = std::vector<Line, ZeroedAlloc<Line>>;

    uint64_t
    lineOf(uint64_t addr) const
    {
        return lineShift_ >= 0 ? addr >> lineShift_
                               : addr / params_.lineBytes;
    }

    uint32_t
    setOf(uint64_t line_addr) const
    {
        return setShift_ >= 0
            ? static_cast<uint32_t>(line_addr & (numSets_ - 1))
            : static_cast<uint32_t>(line_addr % numSets_);
    }

    uint64_t
    tagOf(uint64_t line_addr) const
    {
        return setShift_ >= 0 ? line_addr >> setShift_
                              : line_addr / numSets_;
    }

    CacheParams params_;
    uint32_t numSets_;
    int lineShift_ = -1; ///< log2(lineBytes), -1 if not a power of two
    int setShift_ = -1;  ///< log2(numSets), -1 if not a power of two
    struct PoolEntry;
    static std::vector<PoolEntry> &linePool();

    Lines lines_;
    uint64_t useClock_ = 0;
    uint64_t epochBase_ = 0; ///< lastUse values <= this are empty lines
    CacheStats stats_;
};

/** L1I/L1D + shared L2/L3 + memory. */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const CoreParams &params);

    /** Latency of a data access at addr. */
    uint32_t
    accessData(uint64_t addr)
    {
        return accessFrom(l1d_, addr);
    }

    /** Latency of an instruction fetch at pc. */
    uint32_t
    accessInst(uint64_t pc)
    {
        return accessFrom(l1i_, pc);
    }

    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    const Cache &l3() const { return l3_; }

  private:
    uint32_t
    accessFrom(Cache &l1, uint64_t addr)
    {
        if (l1.access(addr))
            return l1.params().latency;
        if (l2_.access(addr))
            return l1.params().latency + l2_.params().latency;
        if (l3_.access(addr))
            return l1.params().latency + l2_.params().latency +
                l3_.params().latency;
        return l1.params().latency + l2_.params().latency +
            l3_.params().latency + params_.memLatency;
    }

    CoreParams params_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    Cache l3_;
};

} // namespace cassandra::uarch

#endif // CASSANDRA_UARCH_CACHE_HH
