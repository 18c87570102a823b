#include "uarch/pipeline.hh"

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace cassandra::uarch {

using ir::ExecClass;
using ir::Inst;
using ir::Opcode;

const char *
schemeName(Scheme s)
{
    switch (s) {
      case Scheme::UnsafeBaseline: return "UnsafeBaseline";
      case Scheme::Cassandra: return "Cassandra";
      case Scheme::CassandraStl: return "Cassandra+STL";
      case Scheme::CassandraLite: return "Cassandra-lite";
      case Scheme::Spt: return "SPT";
      case Scheme::Prospect: return "ProSpeCT";
      case Scheme::CassandraProspect: return "Cassandra+ProSpeCT";
    }
    return "?";
}

Scheme
schemeFromName(const std::string &name)
{
    auto lowered = [](const std::string &s) {
        std::string out = s;
        for (char &c : out)
            c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        return out;
    };
    static const std::pair<const char *, Scheme> aliases[] = {
        {"unsafebaseline", Scheme::UnsafeBaseline},
        {"baseline", Scheme::UnsafeBaseline},
        {"cassandra", Scheme::Cassandra},
        {"cassandra+stl", Scheme::CassandraStl},
        {"cassandrastl", Scheme::CassandraStl},
        {"cassandra-lite", Scheme::CassandraLite},
        {"cassandralite", Scheme::CassandraLite},
        {"spt", Scheme::Spt},
        {"prospect", Scheme::Prospect},
        {"cassandra+prospect", Scheme::CassandraProspect},
        {"cassandraprospect", Scheme::CassandraProspect},
    };
    const std::string want = lowered(name);
    for (const auto &[alias, scheme] : aliases) {
        if (want == alias)
            return scheme;
    }
    std::string msg = "unknown scheme \"" + name + "\" (expected one of";
    for (Scheme s : {Scheme::UnsafeBaseline, Scheme::Cassandra,
                     Scheme::CassandraStl, Scheme::CassandraLite,
                     Scheme::Spt, Scheme::Prospect,
                     Scheme::CassandraProspect}) {
        msg += " ";
        msg += schemeName(s);
    }
    throw std::invalid_argument(msg + ")");
}

bool
TaintWalker::memIsTainted(uint64_t addr, int bytes) const
{
    for (const auto &r : *regions_) {
        if (addr < r.hi && addr + bytes > r.lo)
            return true;
    }
    return memTaint_.count(addr >> 3) != 0;
}

bool
TaintWalker::feed(const Inst &inst, uint64_t mem_addr, bool crypto)
{
    // Declassification at crypto-region exit: constant-time
    // primitives declassify their register outputs before returning
    // to unsafe code (paper §7.3).
    if (prevCrypto_ && !crypto)
        regTaint_.fill(false);
    prevCrypto_ = crypto;

    bool src_taint = false;
    switch (inst.execClass()) {
      case ExecClass::Load:
        src_taint = regTaint_[inst.rs1];
        break;
      case ExecClass::Store:
        src_taint = regTaint_[inst.rs1] || regTaint_[inst.rs2];
        break;
      case ExecClass::CondBranch:
        src_taint = regTaint_[inst.rs1] || regTaint_[inst.rs2];
        break;
      case ExecClass::IndirectJump:
      case ExecClass::Return:
        src_taint = regTaint_[inst.rs1];
        break;
      default:
        src_taint = regTaint_[inst.rs1] || regTaint_[inst.rs2];
        if (inst.op == Opcode::Li)
            src_taint = false;
        if (inst.op == Opcode::Cmovnz)
            src_taint = src_taint || regTaint_[inst.rd];
        break;
    }

    // Propagate.
    if (inst.isLoad()) {
        bool t = memIsTainted(mem_addr, inst.memBytes());
        if (inst.rd != ir::regZero)
            regTaint_[inst.rd] = t;
    } else if (inst.isStore()) {
        if (regTaint_[inst.rs2])
            memTaint_.insert(mem_addr >> 3);
        else
            memTaint_.erase(mem_addr >> 3);
    } else if (inst.rd != ir::regZero &&
               inst.execClass() != ExecClass::Store) {
        switch (inst.op) {
          case Opcode::Li:
            regTaint_[inst.rd] = false;
            break;
          case Opcode::Cmovnz:
            regTaint_[inst.rd] = regTaint_[inst.rd] ||
                regTaint_[inst.rs1] || regTaint_[inst.rs2];
            break;
          case Opcode::Jal:
          case Opcode::Jalr:
            regTaint_[inst.rd] = false; // link value is a PC
            break;
          default:
            regTaint_[inst.rd] =
                regTaint_[inst.rs1] || regTaint_[inst.rs2];
            break;
        }
    }
    return src_taint;
}

TaintBitmap
computeTaintBitmap(TimingOpSource &src,
                   const std::vector<core::SecretRegion> &regions,
                   size_t num_ops)
{
    TaintBitmap bitmap(num_ops);
    if (regions.empty())
        return bitmap;
    TaintWalker walker(regions);
    OpBatch batch;
    size_t index = 0;
    while (const size_t n = src.nextBatch(batch, timingOpBatchOps)) {
        for (size_t i = 0; i < n; i++, index++) {
            if (walker.feed(*batch.inst[i], batch.memAddr[i],
                            batch.crypto[i] != 0))
                bitmap.set(index);
        }
    }
    return bitmap;
}

uint64_t
TaintBitmap::count() const
{
    uint64_t n = 0;
    for (uint64_t w : words_)
        n += static_cast<uint64_t>(__builtin_popcountll(w));
    return n;
}

OooCore::OooCore(const core::SimConfig &config, const ir::Program &program,
                 const core::TraceImage *image)
    : params_(config.core), btuParams_(config.btu), scheme_(config.scheme),
      program_(program), image_(image), memory_(params_)
{
    if (schemeUsesBtu(scheme_) && image_)
        btu_ = std::make_unique<btu::Btu>(*image_, btuParams_);
    if (schemeIsCassandra(scheme_)) {
        // The integrity check probes isCryptoPc once per BPU-predicted
        // branch; precomputing it per static instruction turns the
        // linear range scan into one table byte on the hot path.
        cryptoPcMap_.resize(program.size());
        for (size_t idx = 0; idx < cryptoPcMap_.size(); idx++)
            cryptoPcMap_[idx] =
                program.isCryptoPc(ir::Program::pcOf(idx)) ? 1 : 0;
    }
}

bool
OooCore::predictedCryptoPc(uint64_t pc) const
{
    const uint64_t off = pc - ir::Program::codeBase;
    if (off < cryptoPcMap_.size() * ir::instBytes &&
        off % ir::instBytes == 0)
        return cryptoPcMap_[off / ir::instBytes] != 0;
    return program_.isCryptoPc(pc);
}

namespace {

/**
 * Most recent older store per 8-byte granule: an open-addressing map
 * (power-of-two slots, linear probing) supporting only find and
 * insert-or-assign — all the replay loop needs. Replaces
 * std::unordered_map on the hot path, where the per-access node
 * indirection dominated the store/forwarding bookkeeping.
 */
class StoreMap
{
  public:
    struct Slot
    {
        uint64_t key = 0;
        uint64_t traceIdx = 0;
        uint64_t ready = 0;
        bool used = false;
    };

    StoreMap() : slots_(1u << 12) {}

    const Slot *
    find(uint64_t key) const
    {
        const size_t mask = slots_.size() - 1;
        for (size_t idx = hashOf(key) & mask;; idx = (idx + 1) & mask) {
            const Slot &s = slots_[idx];
            if (!s.used)
                return nullptr;
            if (s.key == key)
                return &s;
        }
    }

    void
    put(uint64_t key, uint64_t trace_idx, uint64_t ready)
    {
        if (count_ * 10 >= slots_.size() * 7)
            grow();
        const size_t mask = slots_.size() - 1;
        size_t idx = hashOf(key) & mask;
        while (slots_[idx].used && slots_[idx].key != key)
            idx = (idx + 1) & mask;
        Slot &s = slots_[idx];
        count_ += s.used ? 0 : 1;
        s.key = key;
        s.traceIdx = trace_idx;
        s.ready = ready;
        s.used = true;
    }

  private:
    static size_t
    hashOf(uint64_t key)
    {
        return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> 32);
    }

    void
    grow()
    {
        std::vector<Slot> old(slots_.size() * 2);
        old.swap(slots_);
        count_ = 0;
        for (const Slot &s : old) {
            if (s.used)
                put(s.key, s.traceIdx, s.ready);
        }
    }

    std::vector<Slot> slots_;
    size_t count_ = 0;
};

} // namespace

struct OooCore::RunState
{
    explicit RunState(const CoreParams &p)
        : issueRing(p.issueWidth), commitRing(p.commitWidth),
          aluRing(p.numAlu), mulRing(p.numMul), lsuRing(p.numLsu),
          robRing(p.robSize), iqRing(p.iqSize), lqRing(p.lqSize),
          sqRing(p.sqSize),
          rfRing(p.intRegs > ir::numRegs ? p.intRegs - ir::numRegs : 1),
          fetchSlots(p.fetchWidth),
          nextBtuFlush(p.btuFlushPeriod ? p.btuFlushPeriod : ~0ull)
    {
        // Fetch-line arithmetic runs once per dynamic op; a division by
        // the runtime-configured line size cannot be strength-reduced
        // by the compiler, so pre-derive the shift for power-of-two
        // lines.
        for (uint32_t s = 0; s < 32; s++) {
            if (p.l1i.lineBytes == (1u << s)) {
                l1iLineShift = static_cast<int>(s);
                break;
            }
        }
    }

    const TaintBitmap *taint = nullptr;
    CoreStats stats;
    UsageRing issueRing, commitRing, aluRing, mulRing, lsuRing;
    TimeRing robRing, iqRing, lqRing, sqRing, rfRing;
    // Completion time of the last architectural writer of each register.
    std::array<uint64_t, ir::numRegs> regReady{};
    // Running maxima for the scheme constraints.
    uint64_t lastBranchResolve = 0;   // SPT / ProSpeCT
    uint64_t lastNcBranchResolve = 0; // Cassandra+ProSpeCT
    uint64_t lastStoreResolve = 0;    // Cassandra+STL
    // STL forwarding: most recent older store per 8-byte granule.
    StoreMap storeMap;
    uint64_t fetchClock = 1;
    uint32_t fetchSlots;
    uint64_t lastFetchLine = ~0ull;
    uint64_t prevDispatch = 0;
    uint64_t prevCommit = 0;
    uint64_t nextBtuFlush;
    int l1iLineShift = -1;
    size_t index = 0; ///< dynamic index of the next op
};

OooCore::~OooCore() = default;

CoreStats
OooCore::run(TimingOpSource &src, const TaintBitmap *taint)
{
    // The stream is consumed in SoA batches: one virtual call per
    // timingOpBatchOps ops, with every per-op column read straight out
    // of the batch's parallel arrays.
    begin(taint);
    OpBatch batch;
    while (src.nextBatch(batch, timingOpBatchOps) != 0)
        consume(batch);
    return finish();
}

void
OooCore::begin(const TaintBitmap *taint)
{
    run_ = std::make_unique<RunState>(params_);
    run_->taint = taint;
}

CoreStats
OooCore::finish()
{
    if (!run_)
        throw std::logic_error("OooCore::finish without begin");
    CoreStats stats = run_->stats;
    // Commit times are monotone (commit >= prev_commit by
    // construction), so the final commit is the makespan.
    stats.cycles = run_->prevCommit;
    run_.reset();
    return stats;
}

void
OooCore::consume(const OpBatch &batch)
{
    if (!run_)
        throw std::logic_error("OooCore::consume without begin");
    RunState &s = *run_;
    // The scalar state lives in locals for the batch, as it would for a
    // whole run, and is stored back after it.
    CoreStats stats = s.stats;
    UsageRing &issue_ring = s.issueRing;
    UsageRing &commit_ring = s.commitRing;
    UsageRing &alu_ring = s.aluRing;
    UsageRing &mul_ring = s.mulRing;
    UsageRing &lsu_ring = s.lsuRing;
    TimeRing &rob_ring = s.robRing;
    TimeRing &iq_ring = s.iqRing;
    TimeRing &lq_ring = s.lqRing;
    TimeRing &sq_ring = s.sqRing;
    TimeRing &rf_ring = s.rfRing;
    std::array<uint64_t, ir::numRegs> reg_ready = s.regReady;
    uint64_t last_branch_resolve = s.lastBranchResolve;
    uint64_t last_nc_branch_resolve = s.lastNcBranchResolve;
    uint64_t last_store_resolve = s.lastStoreResolve;
    StoreMap &store_map = s.storeMap;
    uint64_t fetch_clock = s.fetchClock;
    uint32_t fetch_slots = s.fetchSlots;
    uint64_t last_fetch_line = s.lastFetchLine;
    uint64_t prev_dispatch = s.prevDispatch;
    uint64_t prev_commit = s.prevCommit;
    uint64_t next_btu_flush = s.nextBtuFlush;
    const TaintBitmap *taint = s.taint;
    const int l1i_line_shift = s.l1iLineShift;
    size_t i = s.index;

    const bool cassandra = schemeIsCassandra(scheme_);
    const bool uses_btu = btu_ != nullptr;

    // Per-op loop invariants, hoisted into locals: params_ fields are
    // otherwise reloaded through `this` after every opaque store, and
    // the taint bitmap only matters to the ProSpeCT schemes.
    const uint32_t fetch_width = params_.fetchWidth;
    const uint32_t frontend_depth = params_.frontendDepth;
    const uint32_t l1i_latency = params_.l1i.latency;
    const uint32_t decode_redirect = params_.decodeRedirect;
    const uint32_t redirect_penalty = params_.redirectPenalty;
    const uint32_t alu_latency = params_.aluLatency;
    const uint32_t mul_latency = params_.mulLatency;
    const uint32_t store_latency = params_.storeLatency;
    const uint64_t rob_size = params_.robSize;
    const bool prospect_scheme = scheme_ == Scheme::Prospect ||
        scheme_ == Scheme::CassandraProspect;

    for (size_t b = 0; b < batch.size; b++, i++) {
        const uint64_t op_pc = batch.pc[b];
        const uint64_t op_memAddr = batch.memAddr[b];
        const uint64_t op_nextPc = batch.nextPc[b];
        const Inst &inst = *batch.inst[b];
        const bool op_crypto = batch.crypto[b] != 0;
        ExecClass cls = inst.execClass();
        const bool is_load = cls == ExecClass::Load;
        const bool is_store = cls == ExecClass::Store;
        stats.instructions++;

        // ------------------------------------------------------ fetch
        if (fetch_slots == 0) {
            fetch_clock++;
            fetch_slots = fetch_width;
        }
        if (fetch_clock >= next_btu_flush) {
            if (btu_) {
                btu_->flush();
                stats.btuFlushes++;
            }
            next_btu_flush += params_.btuFlushPeriod;
        }
        uint64_t line = l1i_line_shift >= 0 ? op_pc >> l1i_line_shift
                                            : op_pc / params_.l1i.lineBytes;
        if (line != last_fetch_line) {
            uint32_t lat = memory_.accessInst(op_pc);
            if (lat > l1i_latency) {
                fetch_clock += lat - l1i_latency;
                fetch_slots = fetch_width;
                stats.icacheMissBubbles++;
            }
            last_fetch_line = line;
        }
        uint64_t fetch_time = fetch_clock;
        fetch_slots--;

        bool taken = op_nextPc != op_pc + ir::instBytes;
        bool end_group = false;
        bool resolve_redirect = false; ///< stall fetch until op resolves
        // Deliberate stalls (integrity checks, traceless crypto
        // branches) park the frontend at the branch: resuming costs a
        // short redirect, not a full mispredict flush + refill.
        bool stall_not_squash = false;
        bool is_branch = inst.isControlFlow();

        if (is_branch) {
            stats.branches++;
            if (op_crypto)
                stats.cryptoBranches++;

            if (op_crypto && cassandra) {
                // ---- crypto fetch flow (paper §5.3) ----
                if (uses_btu) {
                    auto res = btu_->fetchLookup(op_pc);
                    switch (res.outcome) {
                      case btu::Btu::Outcome::SingleTarget:
                      case btu::Btu::Outcome::Hit:
                        // Exact sequential redirect, no bubble.
                        if (res.target != op_nextPc)
                            stats.btuMismatches++;
                        break;
                      case btu::Btu::Outcome::MissFill:
                        fetch_clock += btuParams_.fillLatency;
                        stats.btuFillStalls++;
                        if (res.target != op_nextPc)
                            stats.btuMismatches++;
                        break;
                      case btu::Btu::Outcome::StallResolve:
                        resolve_redirect = true;
                        stall_not_squash = true;
                        stats.resolveStalls++;
                        break;
                      case btu::Btu::Outcome::WindowStall:
                        // Paper: never observed; charge one redirect.
                        fetch_clock += redirect_penalty;
                        stats.btuWindowStalls++;
                        break;
                    }
                } else {
                    // Cassandra-lite: hints only (paper Q3).
                    const core::HintInfo *hint =
                        image_ ? image_->hint(op_pc) : nullptr;
                    if (hint && hint->singleTarget) {
                        // redirect from the hint, no bubble
                    } else {
                        resolve_redirect = true;
                        stall_not_squash = true;
                        stats.resolveStalls++;
                    }
                }
                end_group = taken;
            } else {
                // ---- BPU fetch flow ----
                uint64_t predicted = 0;
                bool mispredict = false;
                switch (cls) {
                  case ExecClass::CondBranch:
                  {
                    bool pred_taken = tage_.predict(op_pc);
                    tage_.update(op_pc, taken);
                    if (pred_taken) {
                        uint64_t t = btb_.predict(op_pc);
                        if (t == 0) {
                            // Predicted taken, target unknown until
                            // decode: direct target, decode redirect.
                            fetch_clock += decode_redirect;
                            stats.decodeRedirects++;
                            predicted =
                                static_cast<uint64_t>(inst.imm);
                        } else {
                            predicted = t;
                        }
                        btb_.update(op_pc,
                                    static_cast<uint64_t>(inst.imm));
                    } else {
                        predicted = op_pc + ir::instBytes;
                    }
                    if (pred_taken != taken) {
                        mispredict = true;
                        stats.condMispredicts++;
                    }
                    break;
                  }
                  case ExecClass::DirectJump:
                  {
                    uint64_t t = btb_.predict(op_pc);
                    if (t == 0) {
                        fetch_clock += decode_redirect;
                        stats.decodeRedirects++;
                    }
                    btb_.update(op_pc, op_nextPc);
                    if (inst.isCall())
                        rsb_.push(op_pc + ir::instBytes);
                    predicted = op_nextPc;
                    break;
                  }
                  case ExecClass::IndirectJump:
                  {
                    predicted = btb_.predict(op_pc);
                    btb_.update(op_pc, op_nextPc);
                    if (inst.rd != ir::regZero)
                        rsb_.push(op_pc + ir::instBytes);
                    if (predicted != op_nextPc) {
                        mispredict = true;
                        stats.indirectMispredicts++;
                    }
                    break;
                  }
                  case ExecClass::Return:
                  {
                    predicted = rsb_.pop();
                    if (predicted != op_nextPc) {
                        mispredict = true;
                        stats.returnMispredicts++;
                    }
                    break;
                  }
                  default:
                    break;
                }

                // Cassandra integrity check: never speculatively
                // redirect fetch into crypto code (scenarios 5/6).
                // Direct unconditional targets are architectural, not
                // speculative, so only predictions can violate this.
                if (cassandra && cls != ExecClass::DirectJump &&
                    predicted != 0 && predictedCryptoPc(predicted)) {
                    resolve_redirect = true;
                    stall_not_squash = true;
                    stats.integrityStalls++;
                } else if (mispredict) {
                    resolve_redirect = true;
                }
                end_group = taken;
            }
        }

        // ------------------------------------------- dispatch & issue
        uint64_t dispatch = fetch_time + frontend_depth;
        dispatch = std::max(dispatch, prev_dispatch);
        dispatch = std::max(dispatch, rob_ring.oldest()); // ROB space
        dispatch = std::max(dispatch, iq_ring.oldest());  // IQ space
        if (is_load)
            dispatch = std::max(dispatch, lq_ring.oldest());
        if (is_store)
            dispatch = std::max(dispatch, sq_ring.oldest());
        if (inst.rd != ir::regZero)
            dispatch = std::max(dispatch, rf_ring.oldest());
        prev_dispatch = dispatch;

        // Operand readiness.
        uint64_t ready = dispatch;
        auto use_src = [&](ir::RegId r) {
            if (r != ir::regZero)
                ready = std::max(ready, reg_ready[r]);
        };
        switch (cls) {
          case ExecClass::Load:
          case ExecClass::IndirectJump:
          case ExecClass::Return:
            use_src(inst.rs1);
            break;
          default:
            use_src(inst.rs1);
            use_src(inst.rs2);
            if (inst.op == Opcode::Cmovnz)
                use_src(inst.rd);
            break;
        }

        // Scheme issue constraints. An instruction held back by a
        // speculation barrier re-enters the scheduler once the barrier
        // lifts and pays a delayed-wakeup replay penalty (SPT-style
        // delayed transmitters re-issue through the IQ).
        constexpr uint64_t replay_penalty = 8;
        if (is_load) {
            uint64_t lb = ready;
            if (scheme_ == Scheme::Spt)
                lb = std::max(lb, last_branch_resolve + replay_penalty);
            if (lb > ready)
                stats.schemeLoadDelays++;
            ready = lb;
        }
        const bool op_tainted =
            prospect_scheme && taint && taint->test(i);
        if (op_tainted) {
            uint64_t barrier = scheme_ == Scheme::Prospect
                ? last_branch_resolve
                : last_nc_branch_resolve;
            if (barrier > ready) {
                stats.prospectBlocks++;
                ready = barrier + replay_penalty;
            }
        }

        // Functional unit + issue bandwidth.
        UsageRing *fu = &alu_ring;
        uint32_t latency = alu_latency;
        switch (cls) {
          case ExecClass::IntMul:
            fu = &mul_ring;
            latency = mul_latency;
            break;
          case ExecClass::Load:
          case ExecClass::Store:
            fu = &lsu_ring;
            latency = store_latency;
            break;
          default:
            break;
        }
        uint64_t issue = ready;
        for (;; issue++) {
            if (!issue_ring.tryTake(issue))
                continue;
            if (fu->tryTake(issue))
                break;
            issue_ring.release(issue);
        }
        iq_ring.push(issue);

        // ------------------------------------------------- completion
        uint64_t complete;
        if (is_load) {
            stats.loads++;
            const StoreMap::Slot *st = store_map.find(op_memAddr >> 3);
            bool in_flight = st && i - st->traceIdx < rob_size;
            if (in_flight) {
                // Store-to-load forwarding.
                complete = std::max(issue + 1, st->ready);
                stats.stlForwards++;
                if (scheme_ == Scheme::CassandraStl) {
                    // Paper §7.2: a memory request is always sent for
                    // verification (one extra cycle on the forwarding
                    // path). The dependents-restricted-until-stores-
                    // resolve rule never binds here: store addresses
                    // are base+immediate off early-ready pointers, the
                    // paper's own "easy-to-resolve address
                    // computations" argument.
                    memory_.accessData(op_memAddr);
                    complete = complete + 1;
                    stats.schemeLoadDelays++;
                }
            } else {
                uint32_t lat = memory_.accessData(op_memAddr);
                complete = issue + lat;
            }
        } else if (is_store) {
            stats.stores++;
            complete = issue + latency;
            store_map.put(op_memAddr >> 3, i, complete);
            last_store_resolve = std::max(last_store_resolve, complete);
            memory_.accessData(op_memAddr);
        } else {
            complete = issue + latency;
        }
        if (inst.rd != ir::regZero)
            reg_ready[inst.rd] = complete;

        uint64_t resolve = complete;
        if (is_branch) {
            // Branches resolve in program order through a single
            // resolution port (1/cycle): a branch cannot be declared
            // resolved before all older branches are.
            resolve = std::max(complete, last_branch_resolve + 1);
            last_branch_resolve = resolve;
            bool counts_nc = !(op_crypto && cassandra);
            if (counts_nc) {
                last_nc_branch_resolve =
                    std::max(last_nc_branch_resolve, resolve);
            }
        }

        // ----------------------------------------------------- commit
        uint64_t commit = std::max(complete + 1, prev_commit);
        while (!commit_ring.tryTake(commit))
            commit++;
        prev_commit = commit;
        rob_ring.push(commit);
        if (is_load)
            lq_ring.push(commit);
        if (is_store)
            sq_ring.push(commit);
        if (inst.rd != ir::regZero)
            rf_ring.push(commit);

        if (op_crypto && uses_btu && is_branch)
            btu_->commitBranch(op_pc);

        // --------------------------------------- post-op fetch effects
        if (resolve_redirect) {
            uint64_t bubble =
                stall_not_squash ? decode_redirect : redirect_penalty;
            fetch_clock = std::max(fetch_clock, resolve + bubble);
            fetch_slots = fetch_width;
            last_fetch_line = ~0ull;
        } else if (end_group) {
            fetch_slots = 0;
            last_fetch_line = ~0ull;
        }
        // Fetch cannot run unboundedly ahead of dispatch back-pressure.
        if (fetch_clock + frontend_depth + 64 < dispatch)
            fetch_clock = dispatch - frontend_depth;
    }
    s.stats = stats;
    s.regReady = reg_ready;
    s.lastBranchResolve = last_branch_resolve;
    s.lastNcBranchResolve = last_nc_branch_resolve;
    s.lastStoreResolve = last_store_resolve;
    s.fetchClock = fetch_clock;
    s.fetchSlots = fetch_slots;
    s.lastFetchLine = last_fetch_line;
    s.prevDispatch = prev_dispatch;
    s.prevCommit = prev_commit;
    s.nextBtuFlush = next_btu_flush;
    s.index = i;
}

} // namespace cassandra::uarch
