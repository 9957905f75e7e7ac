#include "isasim/sim.h"

#include "riscv/decode.h"

namespace chatfuzz::sim {

using riscv::Decoded;
using riscv::Exception;
using riscv::Opcode;
using riscv::Priv;

namespace {
std::int64_t s64(std::uint64_t v) { return static_cast<std::int64_t>(v); }
std::uint64_t sext32(std::uint64_t v) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(static_cast<std::int32_t>(v)));
}
unsigned mem_size_of(Opcode op) {
  switch (op) {
    case Opcode::kLb: case Opcode::kLbu: case Opcode::kSb: return 1;
    case Opcode::kLh: case Opcode::kLhu: case Opcode::kSh: return 2;
    case Opcode::kLw: case Opcode::kLwu: case Opcode::kSw: return 4;
    default: return 8;
  }
}
}  // namespace

IsaSim::IsaSim(Platform plat)
    : plat_(plat), mem_(plat.ram_base, plat.ram_size) {}

void IsaSim::reset(std::span<const std::uint32_t> program) {
  mem_.clear();
  mem_.load_words(plat_.ram_base, program);
  regs_ = initial_regs(plat_);
  pc_ = plat_.ram_base;
  priv_ = Priv::kMachine;
  csrs_ = CsrFile{};
  csrs_.mtvec = plat_.ram_base;  // trampoline; see platform.h
  clint_.reset();
  reservation_.reset();
  program_end_ = plat_.ram_base + 4 * program.size();
  flush_tlb();
  trace_.clear();
  // One reservation up front: the commit trace grows to max_steps on every
  // step-limited test, and mid-campaign reallocation of a vector this hot
  // shows up in profiles. Skipped entirely while a sink is attached — the
  // streaming path keeps the trace empty.
  if (sink_ == nullptr) trace_.reserve(plat_.max_steps);
  stopped_ = false;
  stop_reason_ = StopReason::kStepLimit;
  steps_ = 0;
}

RunResult IsaSim::run() {
  while (!stopped_) step();
  RunResult r;
  r.trace = trace_;
  r.stop = stop_reason_;
  r.steps = steps_;
  r.final_pc = pc_;
  return r;
}

std::uint64_t IsaSim::csr_value(std::uint16_t addr) const {
  // Testbench-level inspection: reads with an M-mode view regardless of the
  // privilege the run ended in.
  std::uint64_t v = 0;
  csr_read(addr, v, riscv::Priv::kMachine);
  return v;
}

bool IsaSim::csr_read(std::uint16_t addr, std::uint64_t& value,
                      riscv::Priv view) const {
  namespace c = riscv::csr;
  if (static_cast<int>(view) < static_cast<int>(c::min_priv(addr))) return false;
  switch (addr) {
    case c::kMstatus: value = csrs_.mstatus; return true;
    case c::kMisa: value = kMisaValue; return true;
    case c::kMedeleg: value = csrs_.medeleg; return true;
    case c::kMideleg: value = csrs_.mideleg; return true;
    case c::kMie: value = csrs_.mie; return true;
    case c::kMtvec: value = csrs_.mtvec; return true;
    case c::kMcounteren: value = csrs_.mcounteren; return true;
    case c::kMscratch: value = csrs_.mscratch; return true;
    case c::kMepc: value = csrs_.mepc; return true;
    case c::kMcause: value = csrs_.mcause; return true;
    case c::kMtval: value = csrs_.mtval; return true;
    case c::kMip: value = csrs_.mip; return true;
    case c::kMcycle: case c::kCycle: value = csrs_.cycle; return true;
    case c::kTime: value = csrs_.cycle / 100; return true;
    case c::kMinstret: case c::kInstret: value = csrs_.instret; return true;
    case c::kMvendorid: case c::kMarchid: case c::kMimpid: case c::kMhartid:
      value = 0;
      return true;
    case c::kSstatus:
      value = csrs_.mstatus &
              (mstatus::kSie | mstatus::kSpie | mstatus::kSpp |
               mstatus::kSum | mstatus::kMxr);
      return true;
    case c::kSie: value = csrs_.mie & 0x222; return true;
    case c::kSip: value = csrs_.mip & 0x222; return true;
    case c::kStvec: value = csrs_.stvec; return true;
    case c::kScounteren: value = csrs_.scounteren; return true;
    case c::kSscratch: value = csrs_.sscratch; return true;
    case c::kSepc: value = csrs_.sepc; return true;
    case c::kScause: value = csrs_.scause; return true;
    case c::kStval: value = csrs_.stval; return true;
    case c::kSatp: value = csrs_.satp; return true;
    default: return false;
  }
}

bool IsaSim::csr_write(std::uint16_t addr, std::uint64_t value) {
  namespace c = riscv::csr;
  if (static_cast<int>(priv_) < static_cast<int>(c::min_priv(addr))) return false;
  if (c::is_read_only(addr)) return false;
  constexpr std::uint64_t kStatusMask =
      mstatus::kSie | mstatus::kMie | mstatus::kSpie | mstatus::kMpie |
      mstatus::kSpp | mstatus::kMppMask | mstatus::kSum | mstatus::kMxr;
  switch (addr) {
    case c::kMstatus: {
      std::uint64_t v = value & kStatusMask;
      // WARL: MPP==0b10 is reserved; fold to U.
      if (((v & mstatus::kMppMask) >> mstatus::kMppShift) == 2) {
        v &= ~mstatus::kMppMask;
      }
      csrs_.mstatus = v;
      return true;
    }
    case c::kMisa: return true;  // WARL: writes ignored
    case c::kMedeleg: csrs_.medeleg = value & c::kMedelegMask; return true;
    case c::kMideleg: csrs_.mideleg = value & c::kMidelegMask; return true;
    case c::kMie: csrs_.mie = value & 0xaaa; return true;
    case c::kMtvec: csrs_.mtvec = value & ~3ull; return true;
    case c::kMcounteren: csrs_.mcounteren = value & 7; return true;
    case c::kMscratch: csrs_.mscratch = value; return true;
    case c::kMepc: csrs_.mepc = value & ~3ull; return true;
    case c::kMcause: csrs_.mcause = value; return true;
    case c::kMtval: csrs_.mtval = value; return true;
    case c::kMip: csrs_.mip = value & 0x222; return true;
    case c::kMcycle: csrs_.cycle = value; return true;
    case c::kMinstret: csrs_.instret = value; return true;
    case c::kSstatus: {
      constexpr std::uint64_t kSMask =
          mstatus::kSie | mstatus::kSpie | mstatus::kSpp | mstatus::kSum |
          mstatus::kMxr;
      csrs_.mstatus = (csrs_.mstatus & ~kSMask) | (value & kSMask);
      return true;
    }
    case c::kSie:
      csrs_.mie = (csrs_.mie & ~0x222ull) | (value & 0x222);
      return true;
    case c::kSip:
      csrs_.mip = (csrs_.mip & ~0x222ull) | (value & 0x222);
      return true;
    case c::kStvec: csrs_.stvec = value & ~3ull; return true;
    case c::kScounteren: csrs_.scounteren = value & 7; return true;
    case c::kSscratch: csrs_.sscratch = value; return true;
    case c::kSepc: csrs_.sepc = value & ~3ull; return true;
    case c::kScause: csrs_.scause = value; return true;
    case c::kStval: csrs_.stval = value; return true;
    case c::kSatp:
      // WARL MODE (Bare/Sv39 only); any accepted write is an implicit
      // translation-context switch, so the TLB drops everything.
      csrs_.satp = c::legalize_satp(csrs_.satp, value);
      flush_tlb();
      return true;
    default: return false;
  }
}

void IsaSim::raise(CommitRecord& rec, Exception cause, std::uint64_t tval) {
  rec.exception = cause;
  // Squash any architectural effect recorded so far for this instruction.
  rec.has_rd_write = false;
  rec.has_mem = false;
  // Delegation: traps taken below M with the medeleg bit set go to the
  // S-mode trampoline (see platform.h); traps in M never delegate.
  if (priv_ != Priv::kMachine &&
      (csrs_.medeleg >> static_cast<unsigned>(cause)) & 1) {
    csrs_.sepc = pc_;
    csrs_.scause = static_cast<std::uint64_t>(cause);
    csrs_.stval = tval;
    // sstatus trap entry: SPIE<=SIE, SIE<=0, SPP<=priv.
    const bool sie = (csrs_.mstatus & mstatus::kSie) != 0;
    csrs_.mstatus &= ~(mstatus::kSie | mstatus::kSpie | mstatus::kSpp);
    if (sie) csrs_.mstatus |= mstatus::kSpie;
    if (priv_ == Priv::kSupervisor) csrs_.mstatus |= mstatus::kSpp;
    priv_ = Priv::kSupervisor;
    pc_ = csrs_.sepc + 4;
    return;
  }
  csrs_.mepc = pc_;
  csrs_.mcause = static_cast<std::uint64_t>(cause);
  csrs_.mtval = tval;
  // mstatus trap entry: MPIE<=MIE, MIE<=0, MPP<=priv.
  const bool mie = (csrs_.mstatus & mstatus::kMie) != 0;
  csrs_.mstatus &= ~(mstatus::kMie | mstatus::kMpie | mstatus::kMppMask);
  if (mie) csrs_.mstatus |= mstatus::kMpie;
  csrs_.mstatus |=
      static_cast<std::uint64_t>(priv_) << mstatus::kMppShift;
  priv_ = Priv::kMachine;
  // Magic trampoline (see platform.h): resume after the faulting instruction.
  pc_ = csrs_.mepc + 4;
}

void IsaSim::write_rd(CommitRecord& rec, std::uint8_t rd, std::uint64_t value) {
  if (rd != 0) regs_[rd] = value;
  rec.has_rd_write = rd != 0;
  rec.rd = rd;
  rec.rd_value = rd != 0 ? value : 0;
}

void IsaSim::service_interrupts() {
  clint_.tick();
  csrs_.mip = (csrs_.mip & ~mip::kMachineBits) | clint_.pending_mip();
  const std::uint64_t ready = csrs_.mie & csrs_.mip & mip::kMachineBits;
  if (ready == 0) return;
  // M-mode interrupts are taken when executing below M, or in M with
  // mstatus.MIE set. Priority: software above timer (privileged spec).
  const bool enabled =
      priv_ != Priv::kMachine || (csrs_.mstatus & mstatus::kMie) != 0;
  if (!enabled) return;
  const std::uint64_t cause =
      (ready & mip::kMsip) != 0 ? mip::kCauseMsi : mip::kCauseMti;
  csrs_.mepc = pc_;
  csrs_.mcause = mip::kInterruptFlag | cause;
  csrs_.mtval = 0;
  const bool mie = (csrs_.mstatus & mstatus::kMie) != 0;
  csrs_.mstatus &= ~(mstatus::kMie | mstatus::kMpie | mstatus::kMppMask);
  if (mie) csrs_.mstatus |= mstatus::kMpie;
  csrs_.mstatus |= static_cast<std::uint64_t>(priv_) << mstatus::kMppShift;
  priv_ = Priv::kMachine;
  // Magic trampoline: the testbench handler acknowledges the source at the
  // CLINT and resumes at the interrupted instruction (pc_ unchanged).
  clint_.clear_source(cause);
  csrs_.mip = (csrs_.mip & ~mip::kMachineBits) | clint_.pending_mip();
}

bool IsaSim::translation_active() const {
  return priv_ != Priv::kMachine &&
         (csrs_.satp >> riscv::csr::kSatpModeShift) == riscv::csr::kSatpModeSv39;
}

void IsaSim::flush_tlb() { tlb_.fill(TlbEntry{}); }

Exception IsaSim::check_leaf(std::uint64_t pte, Access access) const {
  namespace pv = riscv::sv39;
  const Exception fault = access == Access::kFetch  ? Exception::kInstrPageFault
                          : access == Access::kLoad ? Exception::kLoadPageFault
                                                    : Exception::kStorePageFault;
  const bool user_page = (pte & pv::kPteU) != 0;
  if (access == Access::kFetch) {
    if ((pte & pv::kPteX) == 0) return fault;
    if (priv_ == Priv::kUser && !user_page) return fault;
    // S-mode fetch from a U page always faults (SUM covers data only).
    if (priv_ == Priv::kSupervisor && user_page) return fault;
  } else {
    if (priv_ == Priv::kUser && !user_page) return fault;
    if (priv_ == Priv::kSupervisor && user_page &&
        (csrs_.mstatus & mstatus::kSum) == 0) {
      return fault;
    }
    if (access == Access::kLoad) {
      const bool readable =
          (pte & pv::kPteR) != 0 ||
          ((csrs_.mstatus & mstatus::kMxr) != 0 && (pte & pv::kPteX) != 0);
      if (!readable) return fault;
    } else if ((pte & pv::kPteW) == 0) {
      return fault;
    }
  }
  // Svade scheme: the walker never sets A/D in memory; an access needing an
  // update faults so software (here: the fuzzed program) does it instead.
  if ((pte & pv::kPteA) == 0) return fault;
  if (access == Access::kStore && (pte & pv::kPteD) == 0) return fault;
  return Exception::kNone;
}

Exception IsaSim::translate(std::uint64_t vaddr, Access access,
                            std::uint64_t& paddr) {
  namespace pv = riscv::sv39;
  const Exception fault = access == Access::kFetch  ? Exception::kInstrPageFault
                          : access == Access::kLoad ? Exception::kLoadPageFault
                                                    : Exception::kStorePageFault;
  if (!pv::canonical(vaddr)) return fault;
  const std::uint64_t vpn = vaddr >> pv::kPageShift;
  TlbEntry& e = tlb_[vpn % kTlbEntries];
  std::uint64_t pte;
  unsigned level;
  if (e.valid && e.vpn == vpn) {
    ++obs_tlb_hits_;
    pte = e.pte;
    level = e.level;
  } else {
    ++obs_tlb_misses_;
    std::uint64_t base = (csrs_.satp & riscv::csr::kSatpPpnMask)
                         << pv::kPageShift;
    int lvl = pv::kLevels - 1;
    for (;; --lvl) {
      if (lvl < 0) return fault;
      const std::uint64_t pte_addr =
          base + pv::vpn_slice(vaddr, static_cast<unsigned>(lvl)) * 8;
      if (!mem_.in_ram(pte_addr, 8)) return fault;
      pte = mem_.read(pte_addr, 8);
      if ((pte & pv::kPteV) == 0) return fault;
      if ((pte & pv::kPteW) != 0 && (pte & pv::kPteR) == 0) return fault;
      if ((pte & (pv::kPteR | pv::kPteX)) != 0) break;  // leaf
      base = pv::pte_ppn(pte) << pv::kPageShift;
    }
    level = static_cast<unsigned>(lvl);
    // Misaligned superpage: a leaf above level 0 must have zero low PPN bits.
    if (level > 0 && (pv::pte_ppn(pte) & ((1ull << (9 * level)) - 1)) != 0) {
      return fault;
    }
    e = TlbEntry{true, vpn, pte, static_cast<std::uint8_t>(level)};
  }
  // Permission checks run against *current* privilege and mstatus on every
  // access, hit or refill — the TLB caches the PTE, not the verdict.
  if (const Exception f = check_leaf(pte, access); f != Exception::kNone) {
    return f;
  }
  const std::uint64_t low = (1ull << (9 * level)) - 1;
  const std::uint64_t ppn = (pv::pte_ppn(pte) & ~low) | (vpn & low);
  paddr = (ppn << pv::kPageShift) | (vaddr & ((1ull << pv::kPageShift) - 1));
  return Exception::kNone;
}

std::optional<CommitRecord> IsaSim::step() {
  if (stopped_) return std::nullopt;
  if (steps_ >= plat_.max_steps) {
    stopped_ = true;
    stop_reason_ = StopReason::kStepLimit;
    return std::nullopt;
  }
  std::uint64_t fetch_pa = pc_;
  if (translation_active()) {
    if (const Exception f = translate(pc_, Access::kFetch, fetch_pa);
        f != Exception::kNone) {
      ++steps_;
      ++csrs_.cycle;
      CommitRecord rec;
      rec.pc = pc_;
      rec.instr = 0;  // nothing was fetched
      rec.priv = priv_;
      raise(rec, f, pc_);
      if (sink_ != nullptr) {
        sink_->on_commit(rec);
      } else {
        trace_.push_back(rec);
      }
      return rec;
    }
  }
  if (!mem_.in_ram(fetch_pa, 4)) {
    stopped_ = true;
    stop_reason_ = StopReason::kPcEscape;
    return std::nullopt;
  }
  const auto raw = static_cast<std::uint32_t>(mem_.read(fetch_pa, 4));
  if (raw == 0) {
    // All-zero word: guaranteed-illegal in RISC-V; used as the end-of-
    // program marker by the harness (padding after the loaded image).
    stopped_ = true;
    stop_reason_ = StopReason::kProgramEnd;
    return std::nullopt;
  }
  const Decoded d = riscv::decode(raw);
  ++steps_;
  ++csrs_.cycle;
  if (plat_.clint_enabled) service_interrupts();

  CommitRecord rec;
  rec.pc = pc_;
  rec.instr = raw;
  rec.priv = priv_;

  execute(d, rec);
  if (rec.exception == Exception::kNone) ++csrs_.instret;
  if (sink_ != nullptr) {
    sink_->on_commit(rec);
  } else {
    trace_.push_back(rec);
  }
  return rec;
}

void IsaSim::execute(const Decoded& d, CommitRecord& rec) {
  const std::uint64_t next_pc = pc_ + 4;
  if (!d.valid()) {
    raise(rec, Exception::kIllegalInstruction, d.raw);
    return;
  }
  const std::uint64_t a = regs_[d.rs1];
  const std::uint64_t b = regs_[d.rs2];

  switch (d.op) {
    // ---- U / J ------------------------------------------------------------
    case Opcode::kLui:
      write_rd(rec, d.rd, static_cast<std::uint64_t>(d.imm));
      break;
    case Opcode::kAuipc:
      write_rd(rec, d.rd, pc_ + static_cast<std::uint64_t>(d.imm));
      break;
    case Opcode::kJal: {
      const std::uint64_t target = pc_ + static_cast<std::uint64_t>(d.imm);
      if (target & 3) {
        raise(rec, Exception::kInstrAddrMisaligned, target);
        return;
      }
      write_rd(rec, d.rd, next_pc);
      pc_ = target;
      return;
    }
    case Opcode::kJalr: {
      const std::uint64_t target =
          (a + static_cast<std::uint64_t>(d.imm)) & ~1ull;
      if (target & 3) {
        raise(rec, Exception::kInstrAddrMisaligned, target);
        return;
      }
      write_rd(rec, d.rd, next_pc);
      pc_ = target;
      return;
    }
    // ---- Branches ----------------------------------------------------------
    case Opcode::kBeq: case Opcode::kBne: case Opcode::kBlt:
    case Opcode::kBge: case Opcode::kBltu: case Opcode::kBgeu: {
      bool taken = false;
      switch (d.op) {
        case Opcode::kBeq: taken = a == b; break;
        case Opcode::kBne: taken = a != b; break;
        case Opcode::kBlt: taken = s64(a) < s64(b); break;
        case Opcode::kBge: taken = s64(a) >= s64(b); break;
        case Opcode::kBltu: taken = a < b; break;
        default: taken = a >= b; break;
      }
      if (taken) {
        const std::uint64_t target = pc_ + static_cast<std::uint64_t>(d.imm);
        if (target & 3) {
          raise(rec, Exception::kInstrAddrMisaligned, target);
          return;
        }
        pc_ = target;
        return;
      }
      break;
    }
    // ---- Loads ---------------------------------------------------------------
    case Opcode::kLb: case Opcode::kLh: case Opcode::kLw: case Opcode::kLd:
    case Opcode::kLbu: case Opcode::kLhu: case Opcode::kLwu: {
      const std::uint64_t addr = a + static_cast<std::uint64_t>(d.imm);
      const unsigned size = mem_size_of(d.op);
      // Spec priority: misaligned outranks access fault (paper Finding1),
      // and is checked on the virtual address, before translation.
      if (addr % size != 0) {
        raise(rec, Exception::kLoadAddrMisaligned, addr);
        return;
      }
      std::uint64_t pa = addr;
      if (translation_active()) {
        if (const Exception f = translate(addr, Access::kLoad, pa);
            f != Exception::kNone) {
          raise(rec, f, addr);
          return;
        }
      }
      if (clint_.contains(plat_, pa)) {
        std::uint64_t mmio = 0;
        if (!clint_.read(plat_, pa, size, mmio)) {
          raise(rec, Exception::kLoadAccessFault, addr);
          return;
        }
        rec.has_mem = true;
        rec.mem_is_store = false;
        rec.mem_addr = addr;
        rec.mem_value = mmio;
        rec.mem_size = static_cast<std::uint8_t>(size);
        write_rd(rec, d.rd, d.op == Opcode::kLw ? sext32(mmio) : mmio);
        break;
      }
      if (!mem_.in_ram(pa, size)) {
        raise(rec, Exception::kLoadAccessFault, addr);
        return;
      }
      const std::uint64_t bits = mem_.read(pa, size);
      std::uint64_t value = bits;
      switch (d.op) {
        case Opcode::kLb: value = static_cast<std::uint64_t>(static_cast<std::int64_t>(static_cast<std::int8_t>(bits))); break;
        case Opcode::kLh: value = static_cast<std::uint64_t>(static_cast<std::int64_t>(static_cast<std::int16_t>(bits))); break;
        case Opcode::kLw: value = sext32(bits); break;
        default: break;  // ld/lbu/lhu/lwu: already correct
      }
      rec.has_mem = true;
      rec.mem_is_store = false;
      rec.mem_addr = addr;
      rec.mem_value = bits;
      rec.mem_size = static_cast<std::uint8_t>(size);
      write_rd(rec, d.rd, value);
      break;
    }
    // ---- Stores ---------------------------------------------------------------
    case Opcode::kSb: case Opcode::kSh: case Opcode::kSw: case Opcode::kSd: {
      const std::uint64_t addr = a + static_cast<std::uint64_t>(d.imm);
      const unsigned size = mem_size_of(d.op);
      if (addr % size != 0) {
        raise(rec, Exception::kStoreAddrMisaligned, addr);
        return;
      }
      std::uint64_t pa = addr;
      if (translation_active()) {
        if (const Exception f = translate(addr, Access::kStore, pa);
            f != Exception::kNone) {
          raise(rec, f, addr);
          return;
        }
      }
      if (clint_.contains(plat_, pa)) {
        const std::uint64_t mmio =
            size == 8 ? b : (b & ((1ull << (8 * size)) - 1));
        if (!clint_.write(plat_, pa, size, mmio)) {
          raise(rec, Exception::kStoreAccessFault, addr);
          return;
        }
        csrs_.mip = (csrs_.mip & ~mip::kMachineBits) | clint_.pending_mip();
        rec.has_mem = true;
        rec.mem_is_store = true;
        rec.mem_addr = addr;
        rec.mem_value = mmio;
        rec.mem_size = static_cast<std::uint8_t>(size);
        break;
      }
      if (!mem_.in_ram(pa, size)) {
        raise(rec, Exception::kStoreAccessFault, addr);
        return;
      }
      const std::uint64_t bits =
          size == 8 ? b : (b & ((1ull << (8 * size)) - 1));
      mem_.write(pa, bits, size);
      rec.has_mem = true;
      rec.mem_is_store = true;
      rec.mem_addr = addr;
      rec.mem_value = bits;
      rec.mem_size = static_cast<std::uint8_t>(size);
      break;
    }
    // ---- ALU immediate -------------------------------------------------------
    case Opcode::kAddi: write_rd(rec, d.rd, a + static_cast<std::uint64_t>(d.imm)); break;
    case Opcode::kSlti: write_rd(rec, d.rd, s64(a) < d.imm ? 1 : 0); break;
    case Opcode::kSltiu: write_rd(rec, d.rd, a < static_cast<std::uint64_t>(d.imm) ? 1 : 0); break;
    case Opcode::kXori: write_rd(rec, d.rd, a ^ static_cast<std::uint64_t>(d.imm)); break;
    case Opcode::kOri: write_rd(rec, d.rd, a | static_cast<std::uint64_t>(d.imm)); break;
    case Opcode::kAndi: write_rd(rec, d.rd, a & static_cast<std::uint64_t>(d.imm)); break;
    case Opcode::kSlli: write_rd(rec, d.rd, a << d.imm); break;
    case Opcode::kSrli: write_rd(rec, d.rd, a >> d.imm); break;
    case Opcode::kSrai: write_rd(rec, d.rd, static_cast<std::uint64_t>(s64(a) >> d.imm)); break;
    // ---- ALU register -------------------------------------------------------
    case Opcode::kAdd: write_rd(rec, d.rd, a + b); break;
    case Opcode::kSub: write_rd(rec, d.rd, a - b); break;
    case Opcode::kSll: write_rd(rec, d.rd, a << (b & 63)); break;
    case Opcode::kSlt: write_rd(rec, d.rd, s64(a) < s64(b) ? 1 : 0); break;
    case Opcode::kSltu: write_rd(rec, d.rd, a < b ? 1 : 0); break;
    case Opcode::kXor: write_rd(rec, d.rd, a ^ b); break;
    case Opcode::kSrl: write_rd(rec, d.rd, a >> (b & 63)); break;
    case Opcode::kSra: write_rd(rec, d.rd, static_cast<std::uint64_t>(s64(a) >> (b & 63))); break;
    case Opcode::kOr: write_rd(rec, d.rd, a | b); break;
    case Opcode::kAnd: write_rd(rec, d.rd, a & b); break;
    // ---- RV64 *W ------------------------------------------------------------
    case Opcode::kAddiw: write_rd(rec, d.rd, sext32(a + static_cast<std::uint64_t>(d.imm))); break;
    case Opcode::kSlliw: write_rd(rec, d.rd, sext32(a << d.imm)); break;
    case Opcode::kSrliw: write_rd(rec, d.rd, sext32(static_cast<std::uint32_t>(a) >> d.imm)); break;
    case Opcode::kSraiw: write_rd(rec, d.rd, static_cast<std::uint64_t>(static_cast<std::int64_t>(static_cast<std::int32_t>(a) >> d.imm))); break;
    case Opcode::kAddw: write_rd(rec, d.rd, sext32(a + b)); break;
    case Opcode::kSubw: write_rd(rec, d.rd, sext32(a - b)); break;
    case Opcode::kSllw: write_rd(rec, d.rd, sext32(a << (b & 31))); break;
    case Opcode::kSrlw: write_rd(rec, d.rd, sext32(static_cast<std::uint32_t>(a) >> (b & 31))); break;
    case Opcode::kSraw: write_rd(rec, d.rd, static_cast<std::uint64_t>(static_cast<std::int64_t>(static_cast<std::int32_t>(a) >> (b & 31)))); break;
    // ---- M extension ----------------------------------------------------------
    case Opcode::kMul: write_rd(rec, d.rd, a * b); break;
    case Opcode::kMulh:
      write_rd(rec, d.rd, static_cast<std::uint64_t>(
          (static_cast<__int128>(s64(a)) * static_cast<__int128>(s64(b))) >> 64));
      break;
    case Opcode::kMulhsu:
      write_rd(rec, d.rd, static_cast<std::uint64_t>(
          (static_cast<__int128>(s64(a)) * static_cast<unsigned __int128>(b)) >> 64));
      break;
    case Opcode::kMulhu:
      write_rd(rec, d.rd, static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b)) >> 64));
      break;
    case Opcode::kDiv:
      if (b == 0) write_rd(rec, d.rd, ~0ull);
      else if (s64(a) == INT64_MIN && s64(b) == -1) write_rd(rec, d.rd, a);
      else write_rd(rec, d.rd, static_cast<std::uint64_t>(s64(a) / s64(b)));
      break;
    case Opcode::kDivu:
      write_rd(rec, d.rd, b == 0 ? ~0ull : a / b);
      break;
    case Opcode::kRem:
      if (b == 0) write_rd(rec, d.rd, a);
      else if (s64(a) == INT64_MIN && s64(b) == -1) write_rd(rec, d.rd, 0);
      else write_rd(rec, d.rd, static_cast<std::uint64_t>(s64(a) % s64(b)));
      break;
    case Opcode::kRemu:
      write_rd(rec, d.rd, b == 0 ? a : a % b);
      break;
    case Opcode::kMulw: write_rd(rec, d.rd, sext32(a * b)); break;
    case Opcode::kDivw: {
      const auto x = static_cast<std::int32_t>(a);
      const auto y = static_cast<std::int32_t>(b);
      std::int32_t q;
      if (y == 0) q = -1;
      else if (x == INT32_MIN && y == -1) q = x;
      else q = x / y;
      write_rd(rec, d.rd, static_cast<std::uint64_t>(static_cast<std::int64_t>(q)));
      break;
    }
    case Opcode::kDivuw: {
      const auto x = static_cast<std::uint32_t>(a);
      const auto y = static_cast<std::uint32_t>(b);
      write_rd(rec, d.rd, sext32(y == 0 ? ~0u : x / y));
      break;
    }
    case Opcode::kRemw: {
      const auto x = static_cast<std::int32_t>(a);
      const auto y = static_cast<std::int32_t>(b);
      std::int32_t r;
      if (y == 0) r = x;
      else if (x == INT32_MIN && y == -1) r = 0;
      else r = x % y;
      write_rd(rec, d.rd, static_cast<std::uint64_t>(static_cast<std::int64_t>(r)));
      break;
    }
    case Opcode::kRemuw: {
      const auto x = static_cast<std::uint32_t>(a);
      const auto y = static_cast<std::uint32_t>(b);
      write_rd(rec, d.rd, sext32(y == 0 ? x : x % y));
      break;
    }
    // ---- Fences ---------------------------------------------------------------
    case Opcode::kFence:
      break;  // no reordering to fence in a sequential model
    case Opcode::kFenceI:
      break;  // every fetch reads memory, so stores are already visible
    // ---- System ---------------------------------------------------------------
    case Opcode::kEcall:
      raise(rec,
            priv_ == Priv::kMachine ? Exception::kEcallFromM
            : priv_ == Priv::kSupervisor ? Exception::kEcallFromS
                                         : Exception::kEcallFromU,
            0);
      return;
    case Opcode::kEbreak:
      raise(rec, Exception::kBreakpoint, pc_);
      return;
    case Opcode::kWfi:
      if (priv_ == Priv::kUser) {
        raise(rec, Exception::kIllegalInstruction, d.raw);
        return;
      }
      stopped_ = true;
      stop_reason_ = StopReason::kWfi;
      break;
    case Opcode::kMret: {
      if (priv_ != Priv::kMachine) {
        raise(rec, Exception::kIllegalInstruction, d.raw);
        return;
      }
      const auto mpp = static_cast<Priv>(
          (csrs_.mstatus & mstatus::kMppMask) >> mstatus::kMppShift);
      const bool mpie = (csrs_.mstatus & mstatus::kMpie) != 0;
      csrs_.mstatus &= ~(mstatus::kMie | mstatus::kMpie | mstatus::kMppMask);
      if (mpie) csrs_.mstatus |= mstatus::kMie;
      csrs_.mstatus |= mstatus::kMpie;
      priv_ = mpp;
      pc_ = csrs_.mepc;
      return;
    }
    case Opcode::kSret: {
      if (priv_ == Priv::kUser) {
        raise(rec, Exception::kIllegalInstruction, d.raw);
        return;
      }
      const bool spp = (csrs_.mstatus & mstatus::kSpp) != 0;
      const bool spie = (csrs_.mstatus & mstatus::kSpie) != 0;
      csrs_.mstatus &= ~(mstatus::kSie | mstatus::kSpie | mstatus::kSpp);
      if (spie) csrs_.mstatus |= mstatus::kSie;
      csrs_.mstatus |= mstatus::kSpie;
      priv_ = spp ? Priv::kSupervisor : Priv::kUser;
      pc_ = csrs_.sepc;
      return;
    }
    // ---- Zicsr ---------------------------------------------------------------
    case Opcode::kCsrrw: case Opcode::kCsrrs: case Opcode::kCsrrc:
    case Opcode::kCsrrwi: case Opcode::kCsrrsi: case Opcode::kCsrrci: {
      const bool imm_form = d.op == Opcode::kCsrrwi ||
                            d.op == Opcode::kCsrrsi || d.op == Opcode::kCsrrci;
      const std::uint64_t operand = imm_form ? d.rs1 : a;
      const bool is_write_op = d.op == Opcode::kCsrrw || d.op == Opcode::kCsrrwi;
      // csrrs/c with rs1=x0 (or zimm=0) reads without writing.
      const bool do_write = is_write_op || d.rs1 != 0;
      std::uint64_t old = 0;
      if (!csr_read(d.csr, old, priv_)) {
        raise(rec, Exception::kIllegalInstruction, d.raw);
        return;
      }
      if (do_write) {
        std::uint64_t next = operand;
        if (d.op == Opcode::kCsrrs || d.op == Opcode::kCsrrsi) next = old | operand;
        if (d.op == Opcode::kCsrrc || d.op == Opcode::kCsrrci) next = old & ~operand;
        if (!csr_write(d.csr, next)) {
          raise(rec, Exception::kIllegalInstruction, d.raw);
          return;
        }
      }
      write_rd(rec, d.rd, old);
      break;
    }
    // ---- A extension ----------------------------------------------------------
    case Opcode::kSfenceVma:
      if (priv_ == Priv::kUser) {
        raise(rec, Exception::kIllegalInstruction, d.raw);
        return;
      }
      // The selective rs1/rs2 forms flush everything too — both simulators
      // over-approximate identically, so the differential stays quiet.
      flush_tlb();
      break;
    case Opcode::kLrW: case Opcode::kLrD: {
      const unsigned size = d.op == Opcode::kLrW ? 4 : 8;
      if (regs_[d.rs1] % size != 0) {
        raise(rec, Exception::kLoadAddrMisaligned, a);
        return;
      }
      std::uint64_t pa = a;
      if (translation_active()) {
        if (const Exception f = translate(a, Access::kLoad, pa);
            f != Exception::kNone) {
          raise(rec, f, a);
          return;
        }
      }
      if (!mem_.in_ram(pa, size)) {
        raise(rec, Exception::kLoadAccessFault, a);
        return;
      }
      const std::uint64_t bits = mem_.read(pa, size);
      reservation_ = pa;
      rec.has_mem = true;
      rec.mem_is_store = false;
      rec.mem_addr = a;
      rec.mem_value = bits;
      rec.mem_size = static_cast<std::uint8_t>(size);
      write_rd(rec, d.rd, size == 4 ? sext32(bits) : bits);
      break;
    }
    case Opcode::kScW: case Opcode::kScD: {
      const unsigned size = d.op == Opcode::kScW ? 4 : 8;
      if (a % size != 0) {
        raise(rec, Exception::kStoreAddrMisaligned, a);
        return;
      }
      std::uint64_t pa = a;
      if (translation_active()) {
        if (const Exception f = translate(a, Access::kStore, pa);
            f != Exception::kNone) {
          raise(rec, f, a);
          return;
        }
      }
      if (!mem_.in_ram(pa, size)) {
        raise(rec, Exception::kStoreAccessFault, a);
        return;
      }
      // The reservation is held on the physical address, as LR recorded it.
      if (reservation_ && *reservation_ == pa) {
        const std::uint64_t bits =
            size == 8 ? b : (b & 0xffffffffull);
        mem_.write(pa, bits, size);
        rec.has_mem = true;
        rec.mem_is_store = true;
        rec.mem_addr = a;
        rec.mem_value = bits;
        rec.mem_size = static_cast<std::uint8_t>(size);
        write_rd(rec, d.rd, 0);
      } else {
        write_rd(rec, d.rd, 1);
      }
      reservation_.reset();
      break;
    }
    default: {
      // Remaining opcodes are all AMOs.
      const unsigned size =
          (static_cast<std::uint32_t>(riscv::spec(d.op).match) & 0x7000u) == 0x2000u
              ? 4
              : 8;
      if (a % size != 0) {
        raise(rec, Exception::kStoreAddrMisaligned, a);
        return;
      }
      std::uint64_t pa = a;
      if (translation_active()) {
        // AMOs translate as stores: the read-modify-write needs W (+D).
        if (const Exception f = translate(a, Access::kStore, pa);
            f != Exception::kNone) {
          raise(rec, f, a);
          return;
        }
      }
      if (!mem_.in_ram(pa, size)) {
        raise(rec, Exception::kStoreAccessFault, a);
        return;
      }
      const std::uint64_t old_bits = mem_.read(pa, size);
      const std::uint64_t old_val = size == 4 ? sext32(old_bits) : old_bits;
      const std::uint64_t src = size == 4 ? sext32(b) : b;
      std::uint64_t result = 0;
      switch (d.op) {
        case Opcode::kAmoSwapW: case Opcode::kAmoSwapD: result = src; break;
        case Opcode::kAmoAddW: case Opcode::kAmoAddD: result = old_val + src; break;
        case Opcode::kAmoXorW: case Opcode::kAmoXorD: result = old_val ^ src; break;
        case Opcode::kAmoAndW: case Opcode::kAmoAndD: result = old_val & src; break;
        case Opcode::kAmoOrW: case Opcode::kAmoOrD: result = old_val | src; break;
        case Opcode::kAmoMinW: case Opcode::kAmoMinD:
          result = s64(old_val) < s64(src) ? old_val : src;
          break;
        case Opcode::kAmoMaxW: case Opcode::kAmoMaxD:
          result = s64(old_val) > s64(src) ? old_val : src;
          break;
        case Opcode::kAmoMinuW:
          result = static_cast<std::uint32_t>(old_bits) < static_cast<std::uint32_t>(b)
                       ? old_bits : b;
          break;
        case Opcode::kAmoMinuD: result = old_bits < b ? old_bits : b; break;
        case Opcode::kAmoMaxuW:
          result = static_cast<std::uint32_t>(old_bits) > static_cast<std::uint32_t>(b)
                       ? old_bits : b;
          break;
        case Opcode::kAmoMaxuD: result = old_bits > b ? old_bits : b; break;
        default:
          raise(rec, Exception::kIllegalInstruction, d.raw);
          return;
      }
      const std::uint64_t store_bits =
          size == 8 ? result : (result & 0xffffffffull);
      mem_.write(pa, store_bits, size);
      rec.has_mem = true;
      rec.mem_is_store = true;
      rec.mem_addr = a;
      rec.mem_value = store_bits;
      rec.mem_size = static_cast<std::uint8_t>(size);
      write_rd(rec, d.rd, old_val);
      break;
    }
  }
  pc_ = next_pc;
}

}  // namespace chatfuzz::sim
