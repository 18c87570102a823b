#include "sim/machine.hh"

#include <algorithm>
#include <cstring>

namespace cassandra::sim {

using ir::Inst;
using ir::Opcode;

namespace {

/** The little-endian value of the N bytes at `src`. */
template <int N>
uint64_t
loadLe(const uint8_t *src)
{
    uint64_t v = 0;
    for (int i = 0; i < N; i++)
        v |= static_cast<uint64_t>(src[i]) << (8 * i);
    return v;
}

/** Store the low N bytes of `v` at `dst`, little-endian. */
template <int N>
void
storeLe(uint8_t *dst, uint64_t v)
{
    for (int i = 0; i < N; i++)
        dst[i] = static_cast<uint8_t>(v >> (8 * i));
}

} // namespace

Machine::Machine(ir::Program prog) : prog_(std::move(prog))
{
    reset();
}

void
Machine::reset()
{
    regs_.fill(0);
    // Dropping the pages invalidates every cached page pointer.
    mem_.clear();
    pageCache_.fill(CachedPage{});
    pc_ = prog_.entry;
    halted_ = false;
    observations.clear();
    setReg(ir::regSp, ir::Program::stackTop);
    if (!prog_.dataImage.empty())
        writeBytes(ir::Program::dataBase, prog_.dataImage.data(),
                   prog_.dataImage.size());
}

Machine::Page &
Machine::pageFor(uint64_t addr)
{
    const uint64_t number = addr >> pageBits;
    CachedPage &slot = pageCache_[number % pageCacheEntries];
    if (slot.number == number)
        return *slot.page;
    auto &owned = mem_[number];
    if (!owned) {
        owned = std::make_unique<Page>();
        owned->fill(0);
    }
    slot = {number, owned.get()};
    return *owned;
}

const Machine::Page *
Machine::pageForRead(uint64_t addr) const
{
    const uint64_t number = addr >> pageBits;
    CachedPage &slot = pageCache_[number % pageCacheEntries];
    if (slot.number == number)
        return slot.page;
    auto it = mem_.find(number);
    if (it == mem_.end())
        return nullptr;
    slot = {number, it->second.get()};
    return slot.page;
}

uint8_t
Machine::read8(uint64_t addr) const
{
    const Page *p = pageForRead(addr);
    return p ? (*p)[addr & (pageSize - 1)] : 0;
}

void
Machine::write8(uint64_t addr, uint8_t v)
{
    pageFor(addr)[addr & (pageSize - 1)] = v;
}

uint64_t
Machine::read(uint64_t addr, int bytes) const
{
    const uint64_t off = addr & (pageSize - 1);
    if (off + bytes <= pageSize) {
        const Page *p = pageForRead(addr);
        if (!p)
            return 0;
        const uint8_t *src = p->data() + off;
        switch (bytes) {
          case 1: return src[0];
          case 2: return loadLe<2>(src);
          case 4: return loadLe<4>(src);
          case 8: return loadLe<8>(src);
          default: break;
        }
    }
    uint64_t v = 0;
    for (int i = 0; i < bytes; i++)
        v |= static_cast<uint64_t>(read8(addr + i)) << (8 * i);
    return v;
}

void
Machine::write(uint64_t addr, uint64_t v, int bytes)
{
    const uint64_t off = addr & (pageSize - 1);
    if (off + bytes <= pageSize) {
        uint8_t *dst = pageFor(addr).data() + off;
        switch (bytes) {
          case 1: dst[0] = static_cast<uint8_t>(v); return;
          case 2: storeLe<2>(dst, v); return;
          case 4: storeLe<4>(dst, v); return;
          case 8: storeLe<8>(dst, v); return;
          default: break;
        }
    }
    for (int i = 0; i < bytes; i++)
        write8(addr + i, static_cast<uint8_t>(v >> (8 * i)));
}

void
Machine::readBytes(uint64_t addr, void *out, size_t len) const
{
    auto *dst = static_cast<uint8_t *>(out);
    while (len > 0) {
        const uint64_t off = addr & (pageSize - 1);
        const size_t run =
            static_cast<size_t>(std::min<uint64_t>(len, pageSize - off));
        if (const Page *p = pageForRead(addr))
            std::memcpy(dst, p->data() + off, run);
        else
            std::memset(dst, 0, run);
        addr += run;
        dst += run;
        len -= run;
    }
}

void
Machine::writeBytes(uint64_t addr, const void *in, size_t len)
{
    const auto *src = static_cast<const uint8_t *>(in);
    while (len > 0) {
        const uint64_t off = addr & (pageSize - 1);
        const size_t run =
            static_cast<size_t>(std::min<uint64_t>(len, pageSize - off));
        std::memcpy(pageFor(addr).data() + off, src, run);
        addr += run;
        src += run;
        len -= run;
    }
}

bool
Machine::step()
{
    if (halted_)
        return false;
    if (!prog_.validPc(pc_))
        throw SimError("invalid PC 0x" + std::to_string(pc_));

    const Inst &inst = prog_.at(pc_);
    uint64_t cur_pc = pc_;
    uint64_t next_pc = pc_ + ir::instBytes;
    uint64_t mem_addr = 0;
    // The crypto tag only labels contract observations.
    const bool crypto = recordObservations && prog_.isCryptoPc(cur_pc);

    uint64_t a = regs_[inst.rs1];
    uint64_t b = regs_[inst.rs2];
    int64_t sa = static_cast<int64_t>(a);
    int64_t sb = static_cast<int64_t>(b);
    uint64_t imm = static_cast<uint64_t>(inst.imm);

    auto set_rd = [&](uint64_t v) { setReg(inst.rd, v); };

    switch (inst.op) {
      case Opcode::Add: set_rd(a + b); break;
      case Opcode::Sub: set_rd(a - b); break;
      case Opcode::And: set_rd(a & b); break;
      case Opcode::Or: set_rd(a | b); break;
      case Opcode::Xor: set_rd(a ^ b); break;
      case Opcode::Shl: set_rd(a << (b & 63)); break;
      case Opcode::Shr: set_rd(a >> (b & 63)); break;
      case Opcode::Sar: set_rd(static_cast<uint64_t>(sa >> (b & 63))); break;
      case Opcode::Rotl:
      {
        unsigned s = b & 63;
        set_rd(s ? (a << s) | (a >> (64 - s)) : a);
        break;
      }
      case Opcode::Rotr:
      {
        unsigned s = b & 63;
        set_rd(s ? (a >> s) | (a << (64 - s)) : a);
        break;
      }
      case Opcode::Mul: set_rd(a * b); break;
      case Opcode::Mulh:
        set_rd(static_cast<uint64_t>(
            (static_cast<__int128>(sa) * static_cast<__int128>(sb)) >> 64));
        break;
      case Opcode::Mulhu:
        set_rd(static_cast<uint64_t>(
            (static_cast<unsigned __int128>(a) *
             static_cast<unsigned __int128>(b)) >> 64));
        break;
      case Opcode::Slt: set_rd(sa < sb ? 1 : 0); break;
      case Opcode::Sltu: set_rd(a < b ? 1 : 0); break;
      case Opcode::Addw: set_rd((a + b) & 0xffffffffull); break;
      case Opcode::Subw: set_rd((a - b) & 0xffffffffull); break;
      case Opcode::Mulw: set_rd((a * b) & 0xffffffffull); break;

      case Opcode::Addi: set_rd(a + imm); break;
      case Opcode::Andi: set_rd(a & imm); break;
      case Opcode::Ori: set_rd(a | imm); break;
      case Opcode::Xori: set_rd(a ^ imm); break;
      case Opcode::Shli: set_rd(a << (imm & 63)); break;
      case Opcode::Shri: set_rd(a >> (imm & 63)); break;
      case Opcode::Sari:
        set_rd(static_cast<uint64_t>(sa >> (imm & 63)));
        break;
      case Opcode::Rotli:
      {
        unsigned s = imm & 63;
        set_rd(s ? (a << s) | (a >> (64 - s)) : a);
        break;
      }
      case Opcode::Slti:
        set_rd(sa < static_cast<int64_t>(imm) ? 1 : 0);
        break;
      case Opcode::Sltiu: set_rd(a < imm ? 1 : 0); break;
      case Opcode::Addiw: set_rd((a + imm) & 0xffffffffull); break;
      case Opcode::Rotlwi:
      {
        uint32_t w = static_cast<uint32_t>(a);
        unsigned s = imm & 31;
        set_rd(s ? ((w << s) | (w >> (32 - s))) : w);
        break;
      }

      case Opcode::Li: set_rd(imm); break;
      case Opcode::Cmovnz:
        if (a != 0)
            set_rd(b);
        break;

      case Opcode::Ld: case Opcode::Lw: case Opcode::Lh: case Opcode::Lb:
        mem_addr = a + imm;
        set_rd(read(mem_addr, inst.memBytes()));
        if (recordObservations)
            observations.push_back({ObsKind::Load, mem_addr, crypto});
        break;
      case Opcode::Sd: case Opcode::Sw: case Opcode::Sh: case Opcode::Sb:
        mem_addr = a + imm;
        write(mem_addr, b, inst.memBytes());
        if (recordObservations)
            observations.push_back({ObsKind::Store, mem_addr, crypto});
        break;

      case Opcode::Beq: if (a == b) next_pc = imm; break;
      case Opcode::Bne: if (a != b) next_pc = imm; break;
      case Opcode::Blt: if (sa < sb) next_pc = imm; break;
      case Opcode::Bge: if (sa >= sb) next_pc = imm; break;
      case Opcode::Bltu: if (a < b) next_pc = imm; break;
      case Opcode::Bgeu: if (a >= b) next_pc = imm; break;

      case Opcode::Jal:
        set_rd(cur_pc + ir::instBytes);
        next_pc = imm;
        break;
      case Opcode::Jalr:
        next_pc = a + imm;
        set_rd(cur_pc + ir::instBytes);
        break;
      case Opcode::Ret:
        next_pc = a;
        break;

      case Opcode::Nop: break;
      case Opcode::Halt:
        halted_ = true;
        break;
    }

    if (inst.isControlFlow()) {
        if (branchProbe)
            branchProbe(cur_pc, next_pc, inst);
        if (branchBatchProbe) {
            BatchProbe &b = *branchBatchProbe;
            b.pc[b.size] = cur_pc;
            b.nextPc[b.size] = next_pc;
            if (++b.size == b.cap)
                b.full();
        }
        if (recordObservations) {
            ObsKind kind = ObsKind::Pc;
            switch (inst.execClass()) {
              case ir::ExecClass::DirectJump:
                kind = inst.isCall() ? ObsKind::Call : ObsKind::Pc;
                break;
              case ir::ExecClass::IndirectJump: kind = ObsKind::Jump; break;
              case ir::ExecClass::Return: kind = ObsKind::Ret; break;
              default: kind = ObsKind::Pc; break;
            }
            observations.push_back({kind, next_pc, crypto});
        }
    }

    if (opBatchProbe) {
        BatchProbe &b = *opBatchProbe;
        b.pc[b.size] = cur_pc;
        b.memAddr[b.size] = mem_addr;
        b.nextPc[b.size] = next_pc;
        if (++b.size == b.cap)
            b.full();
    }

    pc_ = next_pc;
    return !halted_;
}

RunResult
Machine::run(uint64_t max_insts)
{
    RunResult res;
    while (res.instCount < max_insts) {
        bool more = step();
        res.instCount++;
        if (!more) {
            res.halted = true;
            break;
        }
    }
    return res;
}

} // namespace cassandra::sim
