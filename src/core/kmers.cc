#include "core/kmers.hh"

#include <algorithm>
#include <functional>
#include <sstream>
#include <cstring>
#include <unordered_map>

namespace cassandra::core {

namespace {

/** Byte-string key for a window of symbols (hashable). */
std::string
windowKey(const DnaSequence &seq, size_t pos, size_t k)
{
    return std::string(reinterpret_cast<const char *>(seq.data() + pos),
                       k * sizeof(Symbol));
}

DnaSequence
keyToSymbols(const std::string &key)
{
    DnaSequence out(key.size() / sizeof(Symbol));
    std::memcpy(out.data(), key.data(), key.size());
    return out;
}

/** Expanded size (in base run elements) of one symbol. */
size_t
expandedSize(Symbol s, size_t base, const std::vector<DnaSequence> &patterns,
             std::vector<size_t> &memo)
{
    if (s < base)
        return 1;
    size_t idx = s - base;
    if (memo[idx])
        return memo[idx];
    size_t n = 0;
    for (Symbol t : patterns[idx])
        n += expandedSize(t, base, patterns, memo);
    memo[idx] = n;
    return n;
}

/** Replace non-overlapping occurrences of kmer in seq with letter. */
DnaSequence
replaceAndMerge(const DnaSequence &seq, const DnaSequence &kmer,
                Symbol letter)
{
    DnaSequence out;
    out.reserve(seq.size());
    size_t i = 0;
    while (i < seq.size()) {
        if (i + kmer.size() <= seq.size() &&
            std::equal(kmer.begin(), kmer.end(), seq.begin() + i)) {
            out.push_back(letter);
            i += kmer.size();
        } else {
            out.push_back(seq[i]);
            i++;
        }
    }
    return out;
}

} // namespace

KmersResult
compressKmers(const DnaEncoding &dna, const KmersParams &params)
{
    KmersResult res;
    res.baseAlphabetSize = dna.alphabetSize();
    res.letterTable = dna.letterTable;
    res.seq = dna.seq;

    std::vector<size_t> size_memo; // per pattern, expanded size
    Symbol next_letter = static_cast<Symbol>(res.baseAlphabetSize);

    size_t current_len = res.seq.size() + 1;
    int iterations = 0;
    while (res.seq.size() < current_len &&
           iterations++ < params.maxIterations) {
        current_len = res.seq.size();
        if (current_len < 4)
            break;

        // count_kmers for k = 2..maxK; track the best coverage.
        double best_cov = 0.0;
        std::string best_key;
        size_t max_k = static_cast<size_t>(params.maxK);
        for (size_t k = 2; k <= std::min(max_k, current_len / 2); k++) {
            std::unordered_map<std::string, uint32_t> freqs;
            freqs.reserve(current_len);
            for (size_t i = 0; i + k <= current_len; i++)
                freqs[windowKey(res.seq, i, k)]++;
            for (const auto &[key, freq] : freqs) {
                if (freq <= 1)
                    continue;
                // Size(kmer): expanded length must still fit maxK.
                DnaSequence kmer = keyToSymbols(key);
                // Homogeneous repetitions of one letter are already
                // covered by the run-length trace-counter of the trace
                // elements; compressing them into patterns only wastes
                // pattern-set space.
                if (std::adjacent_find(kmer.begin(), kmer.end(),
                                       std::not_equal_to<>()) ==
                    kmer.end()) {
                    continue;
                }
                size_t exp_size = 0;
                for (Symbol s : kmer) {
                    exp_size += expandedSize(s, res.baseAlphabetSize,
                                             res.patterns, size_memo);
                }
                if (exp_size > max_k)
                    continue;
                // count_kmers counts overlapping windows, so coverage
                // can exceed 1 on periodic sequences; saturate it so
                // that fully covering patterns tie and the smaller one
                // wins below.
                double cov = std::min(
                    1.0, static_cast<double>(k) * freq /
                        static_cast<double>(current_len));
                // Deterministic tie-break: prefer higher coverage, then
                // the smaller and more frequent pattern (paper §4.2.1),
                // then lexicographically smaller key.
                if (cov > best_cov ||
                    (cov == best_cov && (key.size() < best_key.size() ||
                                         (key.size() == best_key.size() &&
                                          key < best_key)))) {
                    best_cov = cov;
                    best_key = key;
                }
            }
        }
        if (best_key.empty())
            break; // no repeating pattern left

        DnaSequence kmer = keyToSymbols(best_key);
        res.patterns.push_back(kmer);
        size_memo.push_back(0);
        res.seq = replaceAndMerge(res.seq, kmer, next_letter);
        next_letter++;
    }
    return res;
}

std::vector<RunElement>
KmersResult::expandSymbol(Symbol s) const
{
    std::vector<RunElement> out;
    if (!isPattern(s)) {
        out.push_back(letterTable[s]);
        return out;
    }
    for (Symbol t : patterns[s - baseAlphabetSize]) {
        auto sub = expandSymbol(t);
        out.insert(out.end(), sub.begin(), sub.end());
    }
    return out;
}

VanillaTrace
KmersResult::expand() const
{
    VanillaTrace out;
    for (Symbol s : seq) {
        for (const RunElement &e : expandSymbol(s)) {
            if (!out.empty() && out.back().target == e.target)
                out.back().count += e.count;
            else
                out.push_back(e);
        }
    }
    return out;
}

std::vector<KmersTraceElement>
KmersResult::traceRle() const
{
    std::vector<KmersTraceElement> out;
    for (Symbol s : seq) {
        if (!out.empty() && out.back().symbol == s)
            out.back().count++;
        else
            out.push_back({s, 1});
    }
    return out;
}

size_t
KmersResult::patternSetSize() const
{
    std::vector<Symbol> distinct;
    for (Symbol s : seq) {
        if (std::find(distinct.begin(), distinct.end(), s) == distinct.end())
            distinct.push_back(s);
    }
    size_t n = 0;
    for (Symbol s : distinct)
        n += expandSymbol(s).size();
    return n;
}

std::string
KmersResult::traceToString() const
{
    // Name the distinct symbols of K p0, p1, ... in first-use order.
    std::vector<Symbol> distinct;
    for (Symbol s : seq) {
        if (std::find(distinct.begin(), distinct.end(), s) == distinct.end())
            distinct.push_back(s);
    }
    std::ostringstream os;
    bool first = true;
    for (const auto &e : traceRle()) {
        size_t idx = std::find(distinct.begin(), distinct.end(), e.symbol) -
            distinct.begin();
        if (!first)
            os << " . ";
        os << "p" << idx << " x " << e.count;
        first = false;
    }
    return os.str();
}

std::string
KmersResult::patternsToString() const
{
    std::vector<Symbol> distinct;
    for (Symbol s : seq) {
        if (std::find(distinct.begin(), distinct.end(), s) == distinct.end())
            distinct.push_back(s);
    }
    std::ostringstream os;
    os << "{";
    for (size_t i = 0; i < distinct.size(); i++) {
        if (i)
            os << ", ";
        os << "p" << i << ": ";
        auto elems = expandSymbol(distinct[i]);
        for (size_t j = 0; j < elems.size(); j++) {
            if (j)
                os << " . ";
            os << "0x" << std::hex << elems[j].target << std::dec << " x "
               << elems[j].count;
        }
    }
    os << "}";
    return os.str();
}

} // namespace cassandra::core
