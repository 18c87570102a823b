/**
 * @file
 * k-mers branch compression (paper §4.2.1, Algorithm 1).
 *
 * The compressor repeatedly counts all k-mers (substrings of length k,
 * 2 <= k <= maxK) of the DNA sequence, picks the one with the highest
 * coverage (k * frequency / sequence length) among those occurring more
 * than once whose expanded size still fits in maxK base elements, and
 * replaces its non-overlapping occurrences with a fresh letter. The
 * loop stops when the sequence stops shrinking. Discovered patterns may
 * nest (a pattern may contain letters that are themselves patterns);
 * expansion is recursive.
 *
 * This is a from-scratch implementation of the role scikit-bio's k-mers
 * counting plays in the paper; per the paper, results do not depend on
 * the specific tool.
 */

#ifndef CASSANDRA_CORE_KMERS_HH
#define CASSANDRA_CORE_KMERS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/dna.hh"

namespace cassandra::core {

/** Tuning parameters of Algorithm 1. */
struct KmersParams
{
    /**
     * Maximum pattern size in *expanded* base run elements. 16 matches
     * one Pattern Table entry of the BTU.
     */
    int maxK = 16;
    /** Safety bound on compression iterations. */
    int maxIterations = 256;
};

/** One element of the run-length-encoded k-mers trace K. */
struct KmersTraceElement
{
    Symbol symbol = 0;
    uint64_t count = 0;

    bool
    operator==(const KmersTraceElement &o) const
    {
        return symbol == o.symbol && count == o.count;
    }
};

/** Output of Algorithm 1 plus the metrics Table 1 reports. */
struct KmersResult
{
    /** Compressed sequence K over the extended alphabet. */
    DnaSequence seq;
    /**
     * Pattern dictionary: super-symbol (baseAlphabetSize + i) maps to
     * patterns[i], a string over the alphabet that existed when the
     * pattern was discovered (so patterns may nest).
     */
    std::vector<DnaSequence> patterns;
    /** Number of base letters. */
    size_t baseAlphabetSize = 0;
    /** Base-letter meaning (copied from the DNA encoding). */
    std::vector<RunElement> letterTable;

    /** True if s indexes the pattern dictionary. */
    bool
    isPattern(Symbol s) const
    {
        return s >= baseAlphabetSize;
    }

    /** Fully expand a symbol to base run elements. */
    std::vector<RunElement> expandSymbol(Symbol s) const;

    /** Expand the whole result back to the vanilla trace (for tests). */
    VanillaTrace expand() const;

    /** Run-length-encoded K — the paper's "k-mers trace" (p0 x 2 ...). */
    std::vector<KmersTraceElement> traceRle() const;

    /** Number of elements in the RLE'd k-mers trace. */
    size_t traceSize() const { return traceRle().size(); }

    /**
     * Pattern-set size: total expanded run elements across the distinct
     * symbols referenced by K (base letters used directly in K count as
     * one-element patterns, as in the paper's BR1 example).
     */
    size_t patternSetSize() const;

    /** Table 1 "k-mers size": trace size + pattern set size. */
    size_t totalSize() const { return traceSize() + patternSetSize(); }

    /** Pretty form like "p0 x 2 . p1 x 1" for examples. */
    std::string traceToString() const;
    /** Pretty pattern set like "{p0: PCa x 2 . PCb x 5, ...}". */
    std::string patternsToString() const;
};

/** Run Algorithm 1 on a DNA-encoded vanilla trace. */
KmersResult compressKmers(const DnaEncoding &dna,
                          const KmersParams &params = {});

} // namespace cassandra::core

#endif // CASSANDRA_CORE_KMERS_HH
