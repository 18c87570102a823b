/**
 * @file
 * Trace-driven out-of-order core timing model.
 *
 * The model replays the dynamic instruction stream produced by the
 * functional simulator and computes, for every instruction, its fetch,
 * dispatch, issue, completion and commit times under the configured
 * resources (widths, ROB/IQ/LQ/SQ/RF, functional units, caches) and the
 * configured protection scheme:
 *
 *  - UnsafeBaseline: LTAGE + BTB + RSB predict everything; mispredicted
 *    branches stall fetch until they resolve (trace-driven squash
 *    model) and pay a pipeline-refill redirect penalty.
 *  - Cassandra: crypto branches never touch the BPU; the BTU supplies
 *    the exact sequential target (hint word for single-target branches,
 *    TRC/PAT replay otherwise). Input-dependent branches stall fetch
 *    until they resolve. Non-crypto branches whose *predicted* target
 *    lies in a crypto PC range stall until resolved (integrity check,
 *    scenarios 5/6 of the security analysis).
 *  - CassandraStl: Cassandra plus data-flow hardening — loads never
 *    forward from the store queue (they always access memory) and wait
 *    until all older stores have resolved.
 *  - CassandraLite: only single-target hints; multi-target crypto
 *    branches stall until resolve (paper Q3).
 *  - Spt: loads may only issue once every older branch has resolved
 *    (transmitters delayed while speculative under a constant-time
 *    policy, where every register is potentially secret).
 *  - Prospect: instructions with tainted operands may only issue once
 *    every older branch has resolved; taint originates at loads from
 *    annotated secret regions, propagates through registers and memory,
 *    and registers are declassified when execution leaves a crypto
 *    region.
 *  - CassandraProspect: Prospect rules, but crypto branches are
 *    resolved by the BTU and therefore never open a speculation window.
 */

#ifndef CASSANDRA_UARCH_PIPELINE_HH
#define CASSANDRA_UARCH_PIPELINE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "btu/btu.hh"
#include "core/sim_config.hh"
#include "core/trace_image.hh"
#include "core/workload.hh"
#include "uarch/bpu.hh"
#include "uarch/cache.hh"
#include "uarch/params.hh"

namespace cassandra::uarch {

/**
 * Ops per nextBatch() request on the replay hot path: 4K ops keep the
 * five parallel arrays (~130 KiB live) L2-resident while amortizing the
 * per-batch virtual dispatch to nothing.
 */
inline constexpr size_t timingOpBatchOps = 4096;

/**
 * A structure-of-arrays view of a run of consecutive timing ops:
 * parallel `pc`/`memAddr`/`nextPc`/`inst`/`crypto` arrays of `size`
 * elements. The arrays are owned by the producing TimingOpSource and
 * stay valid until its next nextBatch() call.
 */
struct OpBatch
{
    const uint64_t *pc = nullptr;
    const uint64_t *memAddr = nullptr;
    const uint64_t *nextPc = nullptr;
    const ir::Inst *const *inst = nullptr;
    const uint8_t *crypto = nullptr; ///< 0/1 per op
    size_t size = 0;
};

/** Owning backing store for an OpBatch (one array per column). */
struct OpBatchStorage
{
    std::vector<uint64_t> pc;
    std::vector<uint64_t> memAddr;
    std::vector<uint64_t> nextPc;
    std::vector<const ir::Inst *> inst;
    std::vector<uint8_t> crypto;

    void
    resize(size_t n)
    {
        pc.resize(n);
        memAddr.resize(n);
        nextPc.resize(n);
        inst.resize(n);
        crypto.resize(n);
    }

    /** View of elements [offset, offset + n). */
    OpBatch
    view(size_t offset, size_t n) const
    {
        OpBatch b;
        b.pc = pc.data() + offset;
        b.memAddr = memAddr.data() + offset;
        b.nextPc = nextPc.data() + offset;
        b.inst = inst.data() + offset;
        b.crypto = crypto.data() + offset;
        b.size = n;
        return b;
    }
};

/**
 * A forward-only stream of timing ops, served in batches. The timing
 * model and the taint walk consume traces exclusively through this
 * interface, so frames held in memory and a chunked on-disk trace
 * (core/trace_stream TraceCursor) replay through identical code and
 * produce bit-identical results.
 */
class TimingOpSource
{
  public:
    virtual ~TimingOpSource() = default;

    /**
     * Fill `out` with the next run of up to `max_ops` ops and return
     * its size (0 only at end of stream, or when `max_ops` is 0). The
     * view stays valid until the following nextBatch() call.
     */
    virtual size_t nextBatch(OpBatch &out, size_t max_ops) = 0;
};

/**
 * Per-op taint flags at one bit per op, beside the pristine op stream.
 * Bit i holds the ProSpeCT source-operand taint of dynamic op i.
 */
class TaintBitmap
{
  public:
    TaintBitmap() = default;
    explicit TaintBitmap(size_t ops)
        : size_(ops), words_((ops + 63) / 64, 0)
    {
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    void set(size_t i) { words_[i >> 6] |= 1ull << (i & 63); }

    /**
     * Build from preassembled 64-bit words, bit i of word i/64 being
     * op i's taint (the fused analysis pass accumulates words without
     * knowing the final op count). Words are padded/truncated to the
     * op count; bits at or beyond `ops` must be zero.
     */
    static TaintBitmap
    fromWords(size_t ops, std::vector<uint64_t> words)
    {
        TaintBitmap b;
        b.size_ = ops;
        words.resize((ops + 63) / 64, 0);
        b.words_ = std::move(words);
        return b;
    }

    bool
    test(size_t i) const
    {
        return i < size_ && ((words_[i >> 6] >> (i & 63)) & 1) != 0;
    }

    /** Number of tainted ops. */
    uint64_t count() const;

  private:
    size_t size_ = 0;
    std::vector<uint64_t> words_;
};

/**
 * Incremental form of the ProSpeCT taint walk: feed() consumes one
 * executed op and returns its source-operand taint. Taint originates
 * at loads from the secret regions, propagates through registers and
 * memory, and registers are declassified when execution leaves a
 * crypto region. computeTaintBitmap and the fused analysis pipeline's
 * batch consumer drive this one state machine, so their verdicts are
 * bit-for-bit equal by construction. `regions` must outlive the
 * walker.
 */
class TaintWalker
{
  public:
    explicit TaintWalker(const std::vector<core::SecretRegion> &regions)
        : regions_(&regions)
    {
    }

    /** One op in execution order: its instruction, effective memory
     * address (loads/stores) and whether its pc is in a crypto range.
     * Returns the op's source-operand taint; updates the walk state. */
    bool feed(const ir::Inst &inst, uint64_t mem_addr, bool crypto);

  private:
    bool memIsTainted(uint64_t addr, int bytes) const;

    const std::vector<core::SecretRegion> *regions_;
    std::array<bool, ir::numRegs> regTaint_{};
    std::unordered_set<uint64_t> memTaint_; ///< 8-byte granules
    bool prevCrypto_ = false;
};

/**
 * The taint walk as one streaming pass over `src`'s batches, at 1
 * bit/op: bit i is the source-operand taint of op i. An empty
 * `regions` taints nothing and reads no op.
 *
 * @param num_ops op count of the stream (sizes the bitmap)
 */
TaintBitmap
computeTaintBitmap(TimingOpSource &src,
                   const std::vector<core::SecretRegion> &regions,
                   size_t num_ops);

/** Aggregate timing statistics of one run. */
struct CoreStats
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;

    uint64_t branches = 0;
    uint64_t cryptoBranches = 0;
    uint64_t condMispredicts = 0;
    uint64_t indirectMispredicts = 0;
    uint64_t returnMispredicts = 0;
    uint64_t decodeRedirects = 0;
    uint64_t integrityStalls = 0;
    uint64_t resolveStalls = 0; ///< crypto stall-until-resolve events
    uint64_t btuFillStalls = 0;
    uint64_t btuWindowStalls = 0;
    uint64_t btuFlushes = 0;
    /** BTU redirects that disagreed with the sequential target. The
     * Cassandra guarantee is that this is always zero. */
    uint64_t btuMismatches = 0;

    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t stlForwards = 0;
    uint64_t schemeLoadDelays = 0;  ///< SPT/STL delayed loads
    uint64_t prospectBlocks = 0;    ///< tainted ops delayed

    uint64_t icacheMissBubbles = 0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) / cycles : 0.0;
    }
};

/** The out-of-order core. */
class OooCore
{
  public:
    /**
     * @param config full simulation configuration (scheme + core +
     *        BTU geometry); flows into the Btu constructor
     * @param image trace image for Cassandra schemes (may be null for
     *        baseline/SPT/ProSpeCT)
     * @param program the program (crypto ranges, static instructions)
     */
    OooCore(const core::SimConfig &config, const ir::Program &program,
            const core::TraceImage *image = nullptr);

    ~OooCore();

    /**
     * Run the timing model over an op stream. When `taint` is given it
     * supplies the ProSpeCT per-op taint flags (bit i for op i);
     * without it no op is tainted.
     */
    CoreStats run(TimingOpSource &src, const TaintBitmap *taint = nullptr);

    /**
     * The resumable form of run(), which is exactly this loop: begin()
     * a run, consume() the stream's ops as consecutive batches of any
     * sizes, then finish() it for its stats. The calls may come from
     * different threads, one at a time. `taint` is run()'s and must
     * outlive the run.
     */
    void begin(const TaintBitmap *taint = nullptr);
    void consume(const OpBatch &batch);
    CoreStats finish();

    const btu::Btu *btuUnit() const { return btu_.get(); }
    const TagePredictor &tage() const { return tage_; }
    const Btb &btb() const { return btb_; }
    const MemoryHierarchy &memory() const { return memory_; }
    const CoreParams &params() const { return params_; }
    const btu::BtuParams &btuParams() const { return btuParams_; }
    Scheme scheme() const { return scheme_; }

  private:
    /** Per-cycle usage counters with lazy epoch reset. */
    class UsageRing
    {
      public:
        explicit UsageRing(uint32_t limit) : limit_(limit) {}

        /** True if a slot at this cycle is still free. */
        bool
        free(uint64_t cycle)
        {
            Slot &s = slotFor(cycle);
            return s.count < limit_;
        }

        void
        take(uint64_t cycle)
        {
            Slot &s = slotFor(cycle);
            s.count++;
        }

        /** free() + take() with a single slot probe: claim a slot at
         * this cycle if one is still open. */
        bool
        tryTake(uint64_t cycle)
        {
            Slot &s = slotFor(cycle);
            if (s.count >= limit_)
                return false;
            s.count++;
            return true;
        }

        /** Release a slot claimed at this cycle (pair of tryTake, for
         * all-or-nothing claims across two rings). */
        void
        release(uint64_t cycle)
        {
            slotFor(cycle).count--;
        }

      private:
        struct Slot
        {
            uint64_t cycle = ~0ull;
            uint32_t count = 0;
        };

        Slot &
        slotFor(uint64_t cycle)
        {
            Slot &s = slots_[cycle & (size_ - 1)];
            if (s.cycle != cycle) {
                s.cycle = cycle;
                s.count = 0;
            }
            return s;
        }

        /**
         * Ring span in cycles. Live issue/commit timestamps spread at
         * most a few hundred cycles apart (bounded by the ROB window),
         * so 1K slots can never alias two live cycles; at 16 B/slot
         * the five rings of a run stay cache-resident (~80 KiB total)
         * instead of thrashing a multi-MiB working set.
         */
        static constexpr size_t size_ = 1 << 10;
        std::array<Slot, size_> slots_{};
        uint32_t limit_;
    };

    /** History ring of timestamps (for ROB/LQ/SQ/RF occupancy). */
    class TimeRing
    {
      public:
        explicit TimeRing(size_t depth) : times_(depth, 0) {}

        /** Timestamp pushed `depth` entries ago (0 if not yet full). */
        uint64_t
        oldest() const
        {
            return times_[head_];
        }

        void
        push(uint64_t t)
        {
            times_[head_] = t;
            // Conditional wrap: depth is a runtime value, so a modulo
            // here would be an integer division on every push.
            head_ = head_ + 1 == times_.size() ? 0 : head_ + 1;
        }

      private:
        std::vector<uint64_t> times_;
        size_t head_ = 0;
    };

    /** isCryptoPc(pc) for valid pcs, 0/1 per static instruction; the
     * linear crypto-range scan stays as the fallback for pcs outside
     * the code segment. Built once per core for Cassandra schemes. */
    bool predictedCryptoPc(uint64_t pc) const;

    /** The timing state carried from one consume() to the next. */
    struct RunState;

    CoreParams params_;
    btu::BtuParams btuParams_;
    Scheme scheme_;
    const ir::Program &program_;
    const core::TraceImage *image_;
    std::unique_ptr<btu::Btu> btu_;
    TagePredictor tage_;
    Btb btb_;
    Rsb rsb_;
    MemoryHierarchy memory_;
    std::vector<uint8_t> cryptoPcMap_;
    std::unique_ptr<RunState> run_; ///< between begin() and finish()
};

} // namespace cassandra::uarch

#endif // CASSANDRA_UARCH_PIPELINE_HH
