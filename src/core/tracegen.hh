/**
 * @file
 * Automatic trace generation (paper §4.3, Algorithm 2).
 *
 * Steps:
 *   A detect all static branches appearing during execution;
 *   B collect raw traces per static branch (both analysis inputs);
 *   C transform to vanilla traces (run-length encoding);
 *   D transform to DNA sequences;
 *   E k-mers compression (Algorithm 1).
 *
 * Branches whose compressed traces differ between the two inputs are
 * input-dependent: they get no trace and the frontend stalls until they
 * resolve (paper footnote 4). Single-target branches get a hint word
 * only. Everything else is encoded into the hardware format and
 * embedded in the trace image.
 */

#ifndef CASSANDRA_CORE_TRACEGEN_HH
#define CASSANDRA_CORE_TRACEGEN_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/branch_trace.hh"
#include "core/kmers.hh"
#include "core/trace_image.hh"
#include "core/workload.hh"

namespace cassandra::core {

/** Per-static-branch analysis record (feeds Table 1). */
struct BranchRecord
{
    uint64_t pc = 0;
    size_t vanillaSize = 0;
    size_t kmersSize = 0; ///< trace size + pattern set size
    bool singleTarget = false;
    bool inputDependent = false;
    TraceRejection rejection = TraceRejection::None;

    /** Per-branch compression rate (vanilla / k-mers). */
    double
    compressionRate() const
    {
        return kmersSize ? static_cast<double>(vanillaSize) / kmersSize
                         : 0.0;
    }
};

/** Wall-clock timings of the Algorithm 2 steps (paper §7.5). */
struct TraceGenTimings
{
    double detectSec = 0;   ///< step A
    double rawSec = 0;      ///< step B
    double vanillaSec = 0;  ///< step C
    double dnaSec = 0;      ///< step D
    double kmersSec = 0;    ///< step E
    double embedSec = 0;    ///< hint embedding
};

/** Result of running Algorithm 2 on a workload. */
struct TraceGenResult
{
    TraceImage image;
    std::vector<BranchRecord> records;
    TraceGenTimings timings;
    /**
     * Peak bytes held by the folded per-branch accumulators across
     * both instrumented runs (steps A-C): the sum of the two runs'
     * peaks, since they may overlap. O(static branches + folded RLE
     * size) by construction — independent of the dynamic instruction
     * count — which makes the bounded-memory claim observable per run
     * (surfaced through RunTelemetry).
     */
    uint64_t peakAccumBytes = 0;

    /** Records of multi-target branches (Table 1 excludes size-1). */
    std::vector<const BranchRecord *> multiTarget() const;
};

/**
 * Run Algorithm 2. The two instrumented collection runs (steps A-C)
 * execute side by side under analysisLaunchPolicy(); both are joined
 * before an error propagates, and input 0's error wins. With `fused`
 * they stream through the batch pipeline's branch probe
 * (runFusedBranchPass) instead of the per-branch std::function probe;
 * the accumulators, the diff, and every downstream step are shared, so
 * the result — image bytes, records, peakAccumBytes — is identical.
 * The default stays on the probe-driven reference path (the parity
 * oracle).
 */
TraceGenResult generateTraces(const Workload &workload,
                              const KmersParams &params = {},
                              bool fused = false);

} // namespace cassandra::core

#endif // CASSANDRA_CORE_TRACEGEN_HH
