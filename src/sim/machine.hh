/**
 * @file
 * Functional (architectural) simulator for the Cassandra IR.
 *
 * The Machine executes programs under the sequential execution model —
 * exactly the J.K^seq semantics the paper's constant-time contract is
 * defined over. It exposes three kinds of instrumentation:
 *
 *  - branch probes, a per-event callback and a batch form (used by the
 *    branch-trace collection step B of Algorithm 2, standing in for
 *    Intel Pin / gem5 tracing),
 *  - an instruction batch probe emitting the full dynamic instruction
 *    stream (used to drive the trace-driven OoO timing model), and
 *  - an observation recorder producing the contract trace of the
 *    J.K^seq_ct leakage model (control flow + memory addresses, tagged
 *    with the crypto bit), used by the Appendix A contract checker.
 */

#ifndef CASSANDRA_SIM_MACHINE_HH
#define CASSANDRA_SIM_MACHINE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/program.hh"

namespace cassandra::sim {

/** Error thrown on invalid execution (bad PC, runaway, ...). */
class SimError : public std::runtime_error
{
  public:
    explicit SimError(const std::string &what)
        : std::runtime_error("sim: " + what)
    {}
};

/** Kind of a contract-level observation (paper Appendix A). */
enum class ObsKind : uint8_t
{
    Pc,    ///< pc n    — conditional branch outcome
    Call,  ///< call f  — call target
    Ret,   ///< ret n   — return target
    Jump,  ///< indirect jump target
    Load,  ///< load n  — load address
    Store, ///< store n — store address
};

/** A contract observation tau@t: kind, value, crypto tag. */
struct Obs
{
    ObsKind kind;
    uint64_t value;
    bool crypto;

    bool
    operator==(const Obs &o) const
    {
        return kind == o.kind && value == o.value && crypto == o.crypto;
    }
};

/** Result of Machine::run(). */
struct RunResult
{
    uint64_t instCount = 0;
    bool halted = false;
};

/**
 * The architectural machine: registers, paged memory, and a PC.
 *
 * Memory is a map of 4 KiB pages behind a small direct-mapped cache of
 * page pointers (pages never move, so a cached pointer stays valid
 * until reset() drops the pages and flushes the cache). An access
 * that stays within one page costs one cache probe; page-crossing
 * accesses fall back to byte steps. Const reads fill the cache too,
 * so a Machine is single-threaded: no member, const or not, may run
 * concurrently with another on the same object.
 */
class Machine
{
  public:
    /** Default dynamic instruction budget for run(). */
    static constexpr uint64_t defaultMaxInsts = 1ull << 31;

    /** The machine keeps its own copy of the program. */
    explicit Machine(ir::Program prog);

    // The page cache points into this machine's own page map.
    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** Reset registers, PC and memory to the program's initial image. */
    void reset();

    uint64_t reg(ir::RegId r) const { return regs_[r]; }
    void
    setReg(ir::RegId r, uint64_t v)
    {
        if (r != ir::regZero)
            regs_[r] = v;
    }
    uint64_t pc() const { return pc_; }

    /** Argument registers a0..a7. */
    void setArg(int i, uint64_t v) { setReg(ir::regA0 + i, v); }
    uint64_t arg(int i) const { return regs_[ir::regA0 + i]; }

    // Little-endian memory interface; unmapped pages read as zero
    // (reads never allocate).
    uint8_t read8(uint64_t addr) const;
    void write8(uint64_t addr, uint8_t v);
    uint64_t read(uint64_t addr, int bytes) const;
    void write(uint64_t addr, uint64_t v, int bytes);
    uint64_t read64(uint64_t addr) const { return read(addr, 8); }
    uint32_t
    read32(uint64_t addr) const
    {
        return static_cast<uint32_t>(read(addr, 4));
    }
    void write64(uint64_t addr, uint64_t v) { write(addr, v, 8); }
    void write32(uint64_t addr, uint32_t v) { write(addr, v, 4); }
    void readBytes(uint64_t addr, void *out, size_t len) const;
    void writeBytes(uint64_t addr, const void *in, size_t len);

    /**
     * Execute until Halt or until max_insts instructions retire.
     * @return instruction count and whether Halt was reached.
     */
    RunResult run(uint64_t max_insts = defaultMaxInsts);

    /** Execute exactly one instruction; returns false on Halt. */
    bool step();

    /** Called for every executed control-flow instruction. */
    std::function<void(uint64_t pc, uint64_t target, const ir::Inst &)>
        branchProbe;

    /**
     * SoA batch probe, the fused analysis pipeline's instrumentation.
     * The machine writes straight into the caller-provided columns
     * (three stores and a size bump per event — no per-op
     * std::function dispatch) and calls `full` once `size` reaches
     * `cap`; `full` must leave the probe with size < cap (typically by
     * handing the span to consumers and resetting size, or swapping in
     * fresh columns). The caller drains any partial tail after run()
     * returns. The branch batch probe fires at exactly the branchProbe
     * call site, so its event sequence is identical to branchProbe's
     * by construction.
     */
    struct BatchProbe
    {
        uint64_t *pc = nullptr;
        uint64_t *memAddr = nullptr; ///< unused by the branch probe
        uint64_t *nextPc = nullptr;  ///< branch probe: the target
        size_t size = 0;
        size_t cap = 0;
        std::function<void()> full;
    };

    /** Every executed instruction ({pc, memAddr, nextPc}): memAddr is
     * the effective address of a load or store and 0 otherwise, nextPc
     * the actual next pc (branch target or fall-through). */
    BatchProbe *opBatchProbe = nullptr;
    /** Every executed control-flow instruction ({pc, -, target}). */
    BatchProbe *branchBatchProbe = nullptr;

    /** When true, contract observations are appended to observations. */
    bool recordObservations = false;
    std::vector<Obs> observations;

    const ir::Program &program() const { return prog_; }

  private:
    static constexpr uint64_t pageBits = 12;
    static constexpr uint64_t pageSize = 1ull << pageBits;
    static constexpr size_t pageCacheEntries = 64;
    using Page = std::array<uint8_t, pageSize>;

    /** One direct-mapped cache slot: a page number and its page. */
    struct CachedPage
    {
        uint64_t number = ~0ull;
        Page *page = nullptr;
    };

    /** The page holding `addr`, allocated (zeroed) on first touch. */
    Page &pageFor(uint64_t addr);
    /** The page holding `addr`, or nullptr when it was never written. */
    const Page *pageForRead(uint64_t addr) const;

    const ir::Program prog_;
    std::array<uint64_t, ir::numRegs> regs_{};
    uint64_t pc_ = 0;
    bool halted_ = false;
    std::unordered_map<uint64_t, std::unique_ptr<Page>> mem_;
    mutable std::array<CachedPage, pageCacheEntries> pageCache_{};
};

} // namespace cassandra::sim

#endif // CASSANDRA_SIM_MACHINE_HH
