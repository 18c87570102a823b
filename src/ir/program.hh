/**
 * @file
 * Program container for the Cassandra IR.
 *
 * A Program is the output of the macro-assembler: a code segment
 * (vector of instructions, PC = index * instBytes + codeBase), a data
 * segment initialization image, symbol tables for labels and functions,
 * and the crypto PC ranges that a Cassandra-enabled processor keeps in
 * its Crypto PC Ranges status register (see paper §5.2).
 */

#ifndef CASSANDRA_IR_PROGRAM_HH
#define CASSANDRA_IR_PROGRAM_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/inst.hh"

namespace cassandra::ir {

/** A half-open PC interval [lo, hi) marking crypto-tagged code. */
struct PcRange
{
    uint64_t lo = 0;
    uint64_t hi = 0;

    bool contains(uint64_t pc) const { return pc >= lo && pc < hi; }
};

/** A named function symbol spanning [entry, end) in the code segment. */
struct FuncSymbol
{
    std::string name;
    uint64_t entry = 0;
    uint64_t end = 0;
};

/** An assembled program. */
class Program
{
  public:
    /** Base address of the code segment. */
    static constexpr uint64_t codeBase = 0x10000;
    /** Base address of the data segment. */
    static constexpr uint64_t dataBase = 0x100000;
    /** Base address of the (downward-growing) stack. */
    static constexpr uint64_t stackTop = 0x8000000;

    std::vector<Inst> insts;
    /** Initial contents of the data segment, starting at dataBase. */
    std::vector<uint8_t> dataImage;
    /** Label name -> PC. */
    std::map<std::string, uint64_t> labels;
    /** Function symbols in code order. */
    std::vector<FuncSymbol> functions;
    /** PC ranges tagged as crypto code (paper's @kappa tag). */
    std::vector<PcRange> cryptoRanges;
    /** Entry PC. */
    uint64_t entry = codeBase;

    /** Number of instructions. */
    size_t size() const { return insts.size(); }

    /** True if pc maps to a valid instruction slot. */
    bool
    validPc(uint64_t pc) const
    {
        return pc >= codeBase && pc < codeBase + insts.size() * instBytes &&
            (pc - codeBase) % instBytes == 0;
    }

    /** Instruction at a given PC; pc must be valid. */
    const Inst &
    at(uint64_t pc) const
    {
        return insts[(pc - codeBase) / instBytes];
    }

    /** PC of the i-th instruction. */
    static uint64_t
    pcOf(size_t index)
    {
        return codeBase + index * instBytes;
    }

    /** True if pc lies in any crypto range. */
    bool
    isCryptoPc(uint64_t pc) const
    {
        for (const auto &r : cryptoRanges) {
            if (r.contains(pc))
                return true;
        }
        return false;
    }

    /**
     * isCryptoPc per static instruction, 0/1 indexed like insts: the
     * table every per-op crypto lookup (trace relink, the fused
     * analysis passes, the core's integrity check) reads instead of
     * scanning the ranges.
     */
    std::vector<uint8_t> cryptoPcTable() const;

    /** Name of the function containing pc, or "?" if none. */
    std::string functionAt(uint64_t pc) const;

    /** Full disassembly listing (for debugging and examples). */
    std::string disassemble() const;
};

} // namespace cassandra::ir

#endif // CASSANDRA_IR_PROGRAM_HH
