/**
 * @file
 * Core configuration (paper Table 3: a Golden-Cove-like OoO core).
 */

#ifndef CASSANDRA_UARCH_PARAMS_HH
#define CASSANDRA_UARCH_PARAMS_HH

#include <cstdint>
#include <cstddef>
#include <string>

namespace cassandra::uarch {

/** Geometry/latency of one cache level. */
struct CacheParams
{
    uint32_t sizeBytes = 0;
    uint32_t lineBytes = 64;
    uint32_t ways = 8;
    uint32_t latency = 5; ///< cycles on hit at this level
};

/** Protection scheme run by the core. */
enum class Scheme
{
    UnsafeBaseline,    ///< speculative BPU everywhere (vulnerable)
    Cassandra,         ///< BTU replay for crypto branches
    CassandraStl,      ///< Cassandra + data-flow (STL) hardening
    CassandraLite,     ///< hints only; multi-target crypto stalls (Q3)
    Spt,               ///< SPT-style: speculative loads delayed
    Prospect,          ///< ProSpeCT-style: tainted ops never speculative
    CassandraProspect, ///< Cassandra + ProSpeCT for non-crypto (Fig. 8)
};

const char *schemeName(Scheme s);

/**
 * Parse a scheme from its display name ("Cassandra+STL") or enum
 * spelling ("CassandraStl"), case-insensitively.
 * @throws std::invalid_argument listing the valid names.
 */
Scheme schemeFromName(const std::string &name);

/** True if the scheme uses the BTU for crypto branches. */
inline bool
schemeUsesBtu(Scheme s)
{
    return s == Scheme::Cassandra || s == Scheme::CassandraStl ||
        s == Scheme::CassandraProspect;
}

/** True if the scheme applies the crypto fetch flow at all. */
inline bool
schemeIsCassandra(Scheme s)
{
    return schemeUsesBtu(s) || s == Scheme::CassandraLite;
}

/** True if the scheme delays ops by the ProSpeCT taint of their
 * operands. */
inline bool
schemeUsesTaint(Scheme s)
{
    return s == Scheme::Prospect || s == Scheme::CassandraProspect;
}

/** Full core configuration. */
struct CoreParams
{
    // Widths (Table 3: 8 F/D/I/C).
    uint32_t fetchWidth = 8;
    uint32_t commitWidth = 8;
    uint32_t issueWidth = 8;

    // Windows (Table 3).
    uint32_t robSize = 512;
    uint32_t iqSize = 96;
    uint32_t lqSize = 192;
    uint32_t sqSize = 114;
    uint32_t intRegs = 280;

    // Frontend.
    uint32_t frontendDepth = 12;  ///< fetch-to-dispatch latency
    uint32_t decodeRedirect = 4;  ///< bubble for decode-time redirects
    uint32_t redirectPenalty = 12;///< resolve-to-refetch bubble

    // Functional units (per-cycle issue bandwidth per class).
    uint32_t numAlu = 6;
    uint32_t numMul = 2;
    uint32_t numLsu = 3;

    // Latencies.
    uint32_t aluLatency = 1;
    uint32_t mulLatency = 3;
    uint32_t storeLatency = 1;

    // Memory hierarchy (Table 3).
    CacheParams l1i{32 * 1024, 64, 8, 5};
    CacheParams l1d{48 * 1024, 64, 12, 5};
    CacheParams l2{1280 * 1024, 64, 16, 14};
    CacheParams l3{30 * 1024 * 1024, 64, 16, 40};
    uint32_t memLatency = 200;

    /**
     * Interrupt-driven BTU flush period in cycles; 0 disables. Q4 uses
     * 250 Hz at a 3 GHz clock = 12M cycles. (BTU geometry and fill
     * latency live in btu::BtuParams, threaded via core::SimConfig.)
     */
    uint64_t btuFlushPeriod = 0;
};

} // namespace cassandra::uarch

#endif // CASSANDRA_UARCH_PARAMS_HH
