#include "rtlsim/ooo_core.h"

#include <algorithm>
#include <stdexcept>

#include "riscv/alu.h"
#include "riscv/csr.h"
#include "riscv/decode.h"

namespace chatfuzz::rtl {

using riscv::Decoded;
using riscv::Exception;
using riscv::Opcode;
using riscv::Priv;
using sim::CommitRecord;

namespace {
std::uint64_t sext32(std::uint64_t v) {
  return static_cast<std::uint64_t>(
      static_cast<std::int64_t>(static_cast<std::int32_t>(v)));
}

unsigned mem_size_of(Opcode op) {
  switch (op) {
    case Opcode::kLb: case Opcode::kLbu: case Opcode::kSb: return 1;
    case Opcode::kLh: case Opcode::kLhu: case Opcode::kSh: return 2;
    case Opcode::kLw: case Opcode::kLwu: case Opcode::kSw: return 4;
    case Opcode::kLrW: case Opcode::kScW: return 4;
    default: return 8;
  }
}

bool is_load_op(Opcode op) {
  switch (op) {
    case Opcode::kLb: case Opcode::kLh: case Opcode::kLw: case Opcode::kLd:
    case Opcode::kLbu: case Opcode::kLhu: case Opcode::kLwu:
      return true;
    default:
      return false;
  }
}
bool is_store_op(Opcode op) {
  switch (op) {
    case Opcode::kSb: case Opcode::kSh: case Opcode::kSw: case Opcode::kSd:
      return true;
    default:
      return false;
  }
}
bool is_branch_op(Opcode op) {
  switch (op) {
    case Opcode::kBeq: case Opcode::kBne: case Opcode::kBlt:
    case Opcode::kBge: case Opcode::kBltu: case Opcode::kBgeu:
      return true;
    default:
      return false;
  }
}
bool is_amo_op(Opcode op) {
  const auto& s = riscv::spec(op);
  return s.ext == riscv::Ext::kA && s.format == riscv::Format::kAmo &&
         op != Opcode::kScW && op != Opcode::kScD;
}
bool is_alu_imm_op(Opcode op) {
  switch (op) {
    case Opcode::kAddi: case Opcode::kSlti: case Opcode::kSltiu:
    case Opcode::kXori: case Opcode::kOri: case Opcode::kAndi:
    case Opcode::kSlli: case Opcode::kSrli: case Opcode::kSrai:
    case Opcode::kAddiw: case Opcode::kSlliw: case Opcode::kSrliw:
    case Opcode::kSraiw:
      return true;
    default:
      return false;
  }
}
bool is_alu_reg_op(Opcode op) {
  const auto& s = riscv::spec(op);
  return s.format == riscv::Format::kR && s.ext == riscv::Ext::kI;
}

/// The commit stage / front end can drain at most this many cycles without
/// retiring anything before the model declares itself wedged. Generous:
/// the worst legitimate stall is a page-walk-free chain of dependent D$
/// misses plus a divider, far under a thousand cycles.
constexpr std::uint64_t kDeadlockFuse = 1u << 17;
}  // namespace

OooCore::OooCore(const CoreConfig& cfg, cov::CoverageDB& db, sim::Platform plat)
    : cfg_(cfg),
      db_(db),
      plat_(plat),
      mem_(plat.ram_base, plat.ram_size),
      icache_(cfg.icache_sets, cfg.icache_ways, cfg.icache_line),
      dcache_(cfg.dcache_sets, cfg.dcache_ways, cfg.dcache_line),
      predictor_(cfg.btb_entries) {
  // Structure sizing floors: 32 architectural mappings plus at least two
  // rename targets, a pdst that fits the uint8 tags, and non-degenerate
  // ROB/SQ/width values.
  cfg_.phys_regs = std::clamp(cfg_.phys_regs, 34u, 256u);
  cfg_.rob_size = std::max(cfg_.rob_size, 4u);
  cfg_.sq_size = std::max(cfg_.sq_size, 2u);
  cfg_.fetch_width = std::clamp(cfg_.fetch_width, 1u, 8u);
  prf_.assign(cfg_.phys_regs, 0);
  prf_ready_.assign(cfg_.phys_regs, 1);
  rob_.assign(cfg_.rob_size, RobEntry{});
  sq_.assign(cfg_.sq_size, SqEntry{});
  register_points();
}

bool OooCore::rename_invariants_ok() const {
  std::vector<unsigned> refs(cfg_.phys_regs, 0);
  for (unsigned r = 0; r < 32; ++r) ++refs[rrat_[r]];
  for (const std::uint8_t p : free_) ++refs[p];
  for (std::size_t i = 0; i < rob_count_; ++i) {
    const RobEntry& e = rob_[(rob_head_ + i) % rob_.size()];
    if (e.has_rd) ++refs[e.pdst];
  }
  std::size_t total = 0;
  for (const unsigned n : refs) {
    if (n > 1) return false;  // double-owned physical register
    total += n;
  }
  if (total != cfg_.phys_regs) return false;  // leaked physical register
  for (unsigned r = 0; r < 32; ++r) {
    std::uint8_t expect = rrat_[r];
    for (std::size_t i = 0; i < rob_count_; ++i) {
      const RobEntry& e = rob_[(rob_head_ + i) % rob_.size()];
      if (e.has_rd && e.d.rd == r) expect = e.pdst;
    }
    if (rat_[r] != expect) return false;
  }
  return true;
}

void OooCore::register_points() {
  p_rename_alloc_ = db_.register_cond("ooo.rename.alloc");
  p_rename_stall_freelist_ = db_.register_cond("ooo.rename.stall_freelist");
  p_rename_src_inflight_ = db_.register_cond("ooo.rename.src_inflight");
  p_rob_full_ = db_.register_cond("ooo.rob.full");
  p_rob_commit2_ = db_.register_cond("ooo.rob.commit2");
  p_rob_head_wait_ = db_.register_cond("ooo.rob.head_wait");
  p_lsu_fwd_ = db_.register_cond("ooo.lsu.fwd");
  p_lsu_alias_ = db_.register_cond("ooo.lsu.alias");
  p_lsu_sq_full_ = db_.register_cond("ooo.lsu.sq_full");
  p_lsu_wait_store_ = db_.register_cond("ooo.lsu.wait_store");
  p_lsu_drain_ = db_.register_cond("ooo.lsu.drain");
  p_squash_branch_ = db_.register_cond("ooo.squash.branch");
  p_squash_inflight_load_ = db_.register_cond("ooo.squash.inflight_load");
  p_squash_store_ = db_.register_cond("ooo.squash.store");
  p_squash_trap_ = db_.register_cond("ooo.squash.trap");
  p_squash_selfmod_ = db_.register_cond("ooo.squash.selfmod");
}

void OooCore::reset(std::span<const std::uint32_t> program) {
  mem_.clear();
  mem_.load_words(plat_.ram_base, program);
  const auto init = sim::initial_regs(plat_);
  std::fill(prf_.begin(), prf_.end(), 0);
  std::fill(prf_ready_.begin(), prf_ready_.end(), 1);
  for (unsigned r = 0; r < 32; ++r) {
    rat_[r] = static_cast<std::uint8_t>(r);
    rrat_[r] = static_cast<std::uint8_t>(r);
    prf_[r] = init[r];
  }
  free_.clear();
  for (unsigned p = cfg_.phys_regs; p-- > 32;) {
    free_.push_back(static_cast<std::uint8_t>(p));
  }
  rob_head_ = rob_count_ = 0;
  sq_head_ = sq_count_ = 0;
  inflight_.clear();
  next_seq_ = 1;
  pc_ = plat_.ram_base;
  fetch_pc_ = plat_.ram_base;
  priv_ = Priv::kMachine;
  csrs_ = CsrFile{};
  csrs_.mtvec = plat_.ram_base;
  clint_.reset();
  reservation_.reset();
  icache_.flush();
  dcache_.flush();
  predictor_.flush();
  flush_tlb();
  cycles_ = 0;
  last_commit_cycle_ = 0;
  last_ctrl_pack_ = 0;
  stall_serial_ = stall_jalr_ = stall_marker_ = false;
  trace_.clear();
  if (sink_ == nullptr) trace_.reserve(plat_.max_steps);
  stopped_ = false;
  stop_reason_ = sim::StopReason::kStepLimit;
  steps_ = 0;
}

sim::RunResult OooCore::run() {
  while (!stopped_) {
    // Both fallbacks only flip while the pipeline is drained (the CLINT
    // flag is per-run; satp/priv changes execute serially at an empty ROB
    // head), so this check never strands speculative state.
    if (plat_.clint_enabled || translation_active()) {
      serial_step();
      // Keep the front end anchored: if this step dropped back to Bare
      // translation (trap to M), the next iteration resumes pipelined
      // fetch and must start at the committed pc, not a stale fetch_pc_.
      fetch_pc_ = pc_;
    } else {
      cycle_once();
    }
  }
  if (bbv_ != nullptr) bbv_->on_stop();
  sim::RunResult r;
  r.trace = trace_;
  r.stop = stop_reason_;
  r.steps = steps_;
  r.final_pc = pc_;
  return r;
}

// ---------------------------------------------------------------------------
// OOO pipeline
// ---------------------------------------------------------------------------

void OooCore::cycle_once() {
  ++cycles_;
  do_complete();
  do_commit();
  if (stopped_) return;
  do_execute();
  do_fetch();
  if (rob_count_ > 0 && cycles_ - last_commit_cycle_ > kDeadlockFuse) {
    throw std::logic_error("OooCore: no commit in " +
                           std::to_string(kDeadlockFuse) + " cycles");
  }
}

std::uint8_t OooCore::alloc_preg() {
  const std::uint8_t p = free_.back();
  free_.pop_back();
  prf_ready_[p] = 0;
  return p;
}

void OooCore::push_entry(RobEntry e) {
  rob_[(rob_head_ + rob_count_) % rob_.size()] = e;
  ++rob_count_;
}

void OooCore::do_complete() {
  if (inflight_.empty()) return;
  // Retire latency-unit results oldest-first so a zombie that collides with
  // a re-issued producer loses deterministically.
  std::sort(inflight_.begin(), inflight_.end(),
            [](const Inflight& a, const Inflight& b) { return a.seq < b.seq; });
  std::size_t kept = 0;
  for (std::size_t i = 0; i < inflight_.size(); ++i) {
    Inflight& f = inflight_[i];
    if (f.done_cycle > cycles_) {
      inflight_[kept++] = f;
      continue;
    }
    if (f.write_prf) {
      // For a zombie this lands in a register the squash already freed —
      // and possibly re-allocated: the injected missing-squash escape.
      prf_[f.pdst] = f.value;
      prf_ready_[f.pdst] = 1;
    }
    if (!f.zombie) {
      for (std::size_t j = 0; j < rob_count_; ++j) {
        RobEntry& e = rob_at(j);
        if (e.seq == f.seq) {
          e.completed = true;
          break;
        }
      }
    }
  }
  inflight_.resize(kept);
}

void OooCore::drain_store(RobEntry& e) {
  const SqEntry& s = sq_[e.sq_slot];
  if (cc(p_lsu_drain_, !s.drained)) {
    mem_.write(s.pa, s.data, s.size);
    icache_.invalidate_addr(s.pa);
    dcache_.access(s.pa, true);
  }
}

void OooCore::do_commit() {
  unsigned committed = 0;
  while (committed < cfg_.fetch_width && rob_count_ > 0) {
    if (steps_ >= plat_.max_steps) {
      stopped_ = true;
      stop_reason_ = sim::StopReason::kStepLimit;
      return;
    }
    RobEntry& e = rob_at(0);
    if (e.kind == EKind::kEscape) {
      stopped_ = true;
      stop_reason_ = sim::StopReason::kPcEscape;
      return;
    }
    if (e.kind == EKind::kEnd) {
      stopped_ = true;
      stop_reason_ = sim::StopReason::kProgramEnd;
      return;
    }

    if (e.kind == EKind::kSerial) {
      // All older work has retired, so committed state is exactly the
      // architectural state: execute here, in order, like the golden model.
      CommitRecord rec;
      rec.pc = pc_;
      rec.instr = e.raw;
      rec.priv = priv_;
      arch_execute(e.d, rec);
      if (rec.exception == Exception::kNone) ++csrs_.instret;
      ++steps_;
      emit_record(rec, e.icache_hit);
      if (bbv_ != nullptr) {
        bbv_->on_commit(rec.pc, pc_, rec.exception != Exception::kNone);
      }
      rob_head_ = (rob_head_ + 1) % rob_.size();
      --rob_count_;
      stall_serial_ = false;
      fetch_pc_ = pc_;
      ++committed;
      if (stopped_) break;  // wfi retired
      continue;
    }

    if (cc(p_rob_head_wait_, !e.completed)) break;

    if (e.exc != Exception::kNone) {
      cc(p_squash_trap_, true);
      CommitRecord rec;
      rec.pc = e.pc;
      rec.instr = e.raw;
      rec.priv = priv_;
      raise(rec, e.exc, e.tval);
      ++steps_;
      emit_record(rec, e.icache_hit);
      if (bbv_ != nullptr) bbv_->on_commit(rec.pc, pc_, true);
      // Flush: younger entries first (exact rename undo), then this
      // entry's own speculative resources — it retired no architectural
      // write, so its mapping rolls back too.
      squash_younger(e.seq);
      if (e.kind == EKind::kStore && e.sq_slot >= 0) {
        sq_head_ = (sq_head_ + 1) % sq_.size();
        --sq_count_;
      }
      if (e.has_rd) {
        rat_[e.d.rd] = e.prev_pdst;
        free_.push_back(e.pdst);
      }
      rob_head_ = (rob_head_ + 1) % rob_.size();
      --rob_count_;
      recompute_stalls();
      fetch_pc_ = pc_;
      ++committed;
      break;
    }
    cc(p_squash_trap_, false);

    // Normal retirement.
    CommitRecord rec;
    rec.pc = e.pc;
    rec.instr = e.raw;
    rec.priv = priv_;
    const std::uint64_t seq = e.seq;
    const std::uint64_t st_addr = e.mem_addr;
    const unsigned st_size = e.mem_size;
    const bool is_store = e.kind == EKind::kStore;
    if (is_store) {
      drain_store(e);
      sq_head_ = (sq_head_ + 1) % sq_.size();
      --sq_count_;
    }
    if (e.has_rd) {
      rec.has_rd_write = true;
      rec.rd = e.d.rd;
      rec.rd_value = e.rd_value;
      free_.push_back(rrat_[e.d.rd]);
      rrat_[e.d.rd] = e.pdst;
    } else if (e.kind == EKind::kAlu || e.kind == EKind::kLoad ||
               e.kind == EKind::kJal || e.kind == EKind::kJalr) {
      rec.rd = e.d.rd;  // rd=x0 form: record mirrors write_rd's shape
    }
    if (e.has_mem) {
      rec.has_mem = true;
      rec.mem_is_store = is_store;
      rec.mem_addr = e.mem_addr;
      rec.mem_value = e.mem_value;
      rec.mem_size = e.mem_size;
    }
    ++csrs_.instret;
    ++steps_;
    pc_ = e.next_pc;
    emit_record(rec, e.icache_hit);
    if (bbv_ != nullptr) bbv_->on_commit(rec.pc, pc_, false);
    rob_head_ = (rob_head_ + 1) % rob_.size();
    --rob_count_;
    ++committed;

    // Self-modifying code: a retiring store that overlaps any in-flight
    // fetch has made those cached fetch bytes stale — refetch.
    if (is_store) {
      bool selfmod = false;
      for (std::size_t i = 0; i < rob_count_; ++i) {
        const RobEntry& y = rob_at(i);
        if (y.pc + 4 > st_addr && y.pc < st_addr + st_size) {
          selfmod = true;
          break;
        }
      }
      if (cc(p_squash_selfmod_, selfmod)) {
        squash_younger(seq);
        fetch_pc_ = pc_;
        break;
      }
    }
  }
  if (committed > 0) {
    last_commit_cycle_ = cycles_;
    cc(p_rob_commit2_, committed >= 2);
  }
}

void OooCore::do_execute() {
  unsigned issued = 0;
  const std::size_t n = rob_count_;
  for (std::size_t i = 0; i < n && i < rob_count_ && issued < cfg_.fetch_width;
       ++i) {
    RobEntry& e = rob_at(i);
    if (e.completed || e.issued) continue;
    if (e.kind == EKind::kSerial || e.kind == EKind::kEscape ||
        e.kind == EKind::kEnd) {
      continue;
    }
    if (e.use_rs1 && !prf_ready_[e.psrc1]) continue;
    if (e.use_rs2 && !prf_ready_[e.psrc2]) continue;
    const std::uint64_t seq = e.seq;
    if (execute_entry(e)) ++issued;
    // A mispredicted branch squashed everything younger: the scan indices
    // are stale, and nothing younger is left to issue anyway.
    if (rob_count_ == 0 || rob_at(rob_count_ - 1).seq <= seq) break;
  }
}

bool OooCore::execute_entry(RobEntry& e) {
  const std::uint64_t a = e.use_rs1 ? prf_[e.psrc1] : 0;
  const std::uint64_t b = e.use_rs2 ? prf_[e.psrc2] : 0;
  switch (e.kind) {
    case EKind::kAlu: {
      std::uint64_t v = 0;
      if (e.d.op == Opcode::kLui) {
        v = static_cast<std::uint64_t>(e.d.imm);
      } else if (e.d.op == Opcode::kAuipc) {
        v = e.pc + static_cast<std::uint64_t>(e.d.imm);
      } else {
        const bool imm_form = is_alu_imm_op(e.d.op);
        v = riscv::alu_eval(e.d.op, a,
                            imm_form ? static_cast<std::uint64_t>(e.d.imm) : b);
      }
      e.rd_value = v;
      e.next_pc = e.pc + 4;
      if (riscv::is_muldiv(e.d.op)) {
        // Long-latency unit: the PRF write lands at done_cycle.
        e.issued = true;
        Inflight f;
        f.seq = e.seq;
        f.done_cycle =
            cycles_ + (riscv::is_div(e.d.op) ? cfg_.div_latency : 3);
        f.write_prf = e.has_rd;
        f.pdst = e.pdst;
        f.value = v;
        inflight_.push_back(f);
      } else {
        if (e.has_rd) {
          prf_[e.pdst] = v;
          prf_ready_[e.pdst] = 1;
        }
        e.completed = true;
      }
      return true;
    }
    case EKind::kJal: {
      const std::uint64_t target = e.pc + static_cast<std::uint64_t>(e.d.imm);
      predictor_.update(e.pc, true, target);
      if ((target & 3) != 0) {
        e.exc = Exception::kInstrAddrMisaligned;
        e.tval = target;
        e.completed = true;
        return true;
      }
      e.rd_value = e.pc + 4;
      e.next_pc = target;
      if (e.has_rd) {
        prf_[e.pdst] = e.rd_value;
        prf_ready_[e.pdst] = 1;
      }
      e.completed = true;
      return true;
    }
    case EKind::kJalr: {
      const std::uint64_t target =
          (a + static_cast<std::uint64_t>(e.d.imm)) & ~1ull;
      predictor_.update(e.pc, true, target);
      if ((target & 3) != 0) {
        // Fetch stays stalled; the trap at commit redirects it.
        e.exc = Exception::kInstrAddrMisaligned;
        e.tval = target;
        e.completed = true;
        return true;
      }
      e.rd_value = e.pc + 4;
      e.next_pc = target;
      if (e.has_rd) {
        prf_[e.pdst] = e.rd_value;
        prf_ready_[e.pdst] = 1;
      }
      e.completed = true;
      fetch_pc_ = target;
      stall_jalr_ = false;
      return true;
    }
    case EKind::kBranch: {
      bool taken = false;
      switch (e.d.op) {
        case Opcode::kBeq: taken = a == b; break;
        case Opcode::kBne: taken = a != b; break;
        case Opcode::kBlt:
          taken = static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
          break;
        case Opcode::kBge:
          taken = static_cast<std::int64_t>(a) >= static_cast<std::int64_t>(b);
          break;
        case Opcode::kBltu: taken = a < b; break;
        default: taken = a >= b; break;
      }
      const std::uint64_t target = e.pc + static_cast<std::uint64_t>(e.d.imm);
      predictor_.update(e.pc, taken, target);
      if (taken && (target & 3) != 0) {
        e.exc = Exception::kInstrAddrMisaligned;
        e.tval = target;
        e.completed = true;
        return true;
      }
      e.next_pc = taken ? target : e.pc + 4;
      e.completed = true;
      if (cc(p_squash_branch_, e.next_pc != e.pred_next)) {
        squash_younger(e.seq);
        fetch_pc_ = e.next_pc;
      }
      return true;
    }
    case EKind::kLoad:
      // May refuse: older stores with unresolved addresses block issue.
      if (!prf_ready_[e.psrc1]) return false;
      for (std::size_t i = 0; i < sq_count_; ++i) {
        const SqEntry& s = sq_at(i);
        if (s.seq < e.seq && !s.resolved) {
          cc(p_lsu_wait_store_, true);
          return false;
        }
      }
      cc(p_lsu_wait_store_, false);
      execute_load(e);
      return true;
    case EKind::kStore:
      execute_store(e);
      return true;
    default:
      return false;
  }
}

void OooCore::execute_load(RobEntry& e) {
  const std::uint64_t addr =
      prf_[e.psrc1] + static_cast<std::uint64_t>(e.d.imm);
  const unsigned size = mem_size_of(e.d.op);
  if (addr % size != 0) {
    e.exc = Exception::kLoadAddrMisaligned;
    e.tval = addr;
    e.completed = true;
    return;
  }
  const std::uint64_t pa = addr;  // OOO mode runs with translation off (Bare)
  if (!mem_.in_ram(pa, size)) {
    e.exc = Exception::kLoadAccessFault;
    e.tval = addr;
    e.completed = true;
    return;
  }
  // Byte-wise store-to-load forwarding: per byte, the youngest older
  // resolved store covering it wins; uncovered bytes come from memory.
  std::uint64_t bits = 0;
  bool any_fwd = false, any_mem = false;
  for (unsigned j = 0; j < size; ++j) {
    const std::uint64_t ba = pa + j;
    bool fwd = false;
    std::uint8_t byte = 0;
    for (std::size_t i = sq_count_; i-- > 0;) {
      const SqEntry& s = sq_at(i);
      if (s.seq >= e.seq || !s.resolved) continue;
      if (ba >= s.pa && ba < s.pa + s.size) {
        byte = static_cast<std::uint8_t>(s.data >> (8 * (ba - s.pa)));
        fwd = true;
        break;
      }
    }
    if (!fwd) {
      byte = static_cast<std::uint8_t>(mem_.read(ba, 1));
      any_mem = true;
    } else {
      any_fwd = true;
    }
    bits |= static_cast<std::uint64_t>(byte) << (8 * j);
  }
  cc(p_lsu_fwd_, any_fwd);
  cc(p_lsu_alias_, any_fwd && any_mem);
  if (any_fwd && cfg_.bugs.ooo_broken_fwd) {
    // Bug site: the forwarding mux reads stale memory bytes instead of the
    // in-flight store data.
    bits = mem_.read(pa, size);
  }
  std::uint64_t value = bits;
  switch (e.d.op) {
    case Opcode::kLb:
      value = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(static_cast<std::int8_t>(bits)));
      break;
    case Opcode::kLh:
      value = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(static_cast<std::int16_t>(bits)));
      break;
    case Opcode::kLw: value = sext32(bits); break;
    default: break;
  }
  e.has_mem = true;
  e.mem_addr = addr;
  e.mem_value = bits;
  e.mem_size = static_cast<std::uint8_t>(size);
  e.rd_value = value;
  e.next_pc = e.pc + 4;
  const CacheAccess dacc = dcache_.access(pa, false);
  e.issued = true;
  Inflight f;
  f.seq = e.seq;
  f.done_cycle = cycles_ + 2 + (dacc.hit ? 0 : cfg_.miss_penalty);
  f.write_prf = e.has_rd;
  f.pdst = e.pdst;
  f.value = value;
  inflight_.push_back(f);
}

void OooCore::execute_store(RobEntry& e) {
  const std::uint64_t addr =
      prf_[e.psrc1] + static_cast<std::uint64_t>(e.d.imm);
  const unsigned size = mem_size_of(e.d.op);
  e.next_pc = e.pc + 4;
  if (addr % size != 0) {
    e.exc = Exception::kStoreAddrMisaligned;
    e.tval = addr;
    e.completed = true;
    return;
  }
  const std::uint64_t pa = addr;
  if (!mem_.in_ram(pa, size)) {
    e.exc = Exception::kStoreAccessFault;
    e.tval = addr;
    e.completed = true;
    return;
  }
  const std::uint64_t b = prf_[e.psrc2];
  const std::uint64_t bits = size == 8 ? b : (b & ((1ull << (8 * size)) - 1));
  SqEntry& s = sq_[e.sq_slot];
  s.pa = pa;
  s.size = size;
  s.data = bits;
  s.resolved = true;
  s.drained = false;
  if (cfg_.bugs.ooo_early_store_drain) {
    // Bug site: the queue writes memory at execute. A later squash cannot
    // take the bytes back.
    mem_.write(pa, bits, size);
    icache_.invalidate_addr(pa);
    dcache_.access(pa, true);
    s.drained = true;
  }
  e.has_mem = true;
  e.mem_addr = addr;
  e.mem_value = bits;
  e.mem_size = static_cast<std::uint8_t>(size);
  e.completed = true;
}

void OooCore::squash_younger(std::uint64_t seq) {
  while (rob_count_ > 0) {
    RobEntry& e = rob_at(rob_count_ - 1);
    if (e.seq <= seq) break;
    if (e.kind == EKind::kStore && e.sq_slot >= 0) {
      cc(p_squash_store_, sq_[e.sq_slot].resolved);
      sq_[e.sq_slot] = SqEntry{};
      --sq_count_;  // this entry is the SQ tail: allocation is in seq order
    }
    for (auto it = inflight_.begin(); it != inflight_.end();) {
      if (it->seq == e.seq && !it->zombie) {
        const bool load_inflight = e.kind == EKind::kLoad;
        cc(p_squash_inflight_load_, load_inflight);
        if (load_inflight && it->write_prf && cfg_.bugs.ooo_missing_squash) {
          // Bug site: the issued load is not cancelled. Its completion
          // will write a register the undo below hands back to the free
          // list — and that the very next rename is first in line to reuse.
          it->zombie = true;
          ++it;
        } else {
          it = inflight_.erase(it);
        }
      } else {
        ++it;
      }
    }
    if (e.has_rd) {
      // Exact LIFO inverse of rename: youngest-first restore re-stacks the
      // free list in its pre-rename order.
      rat_[e.d.rd] = e.prev_pdst;
      free_.push_back(e.pdst);
    }
    --rob_count_;
  }
  recompute_stalls();
}

void OooCore::recompute_stalls() {
  stall_serial_ = stall_jalr_ = stall_marker_ = false;
  for (std::size_t i = 0; i < rob_count_; ++i) {
    const RobEntry& e = rob_at(i);
    if (e.kind == EKind::kSerial) stall_serial_ = true;
    if (e.kind == EKind::kJalr &&
        (!e.completed || e.exc != Exception::kNone)) {
      stall_jalr_ = true;
    }
    if (e.kind == EKind::kEscape || e.kind == EKind::kEnd) {
      stall_marker_ = true;
    }
  }
}

void OooCore::do_fetch() {
  // A serial op that just committed may have turned Sv39 on (satp write,
  // mret/sret into S/U): stop fetching — the run loop flips to the serial
  // path next iteration.
  if (translation_active()) return;
  unsigned fetched = 0;
  while (fetched < cfg_.fetch_width) {
    if (stall_serial_ || stall_jalr_ || stall_marker_) break;
    if ((fetch_pc_ & 3) != 0) break;  // predicted misaligned target
    if (cc(p_rob_full_, rob_count_ == rob_.size())) break;

    if (!mem_.in_ram(fetch_pc_, 4)) {
      RobEntry m;
      m.seq = next_seq_++;
      m.kind = EKind::kEscape;
      m.pc = fetch_pc_;
      m.completed = true;
      push_entry(m);
      stall_marker_ = true;
      break;
    }
    CacheAccess iacc;
    const std::uint32_t raw = icache_.fetch(fetch_pc_, mem_, iacc);
    if (raw == 0) {
      RobEntry m;
      m.seq = next_seq_++;
      m.kind = EKind::kEnd;
      m.pc = fetch_pc_;
      m.completed = true;
      push_entry(m);
      stall_marker_ = true;
      break;
    }
    const Decoded d = riscv::decode(raw);

    RobEntry e;
    e.seq = next_seq_;
    e.d = d;
    e.pc = fetch_pc_;
    e.raw = raw;
    e.icache_hit = iacc.hit;

    if (!d.valid()) {
      e.kind = EKind::kSerial;
    } else if (d.op == Opcode::kLui || d.op == Opcode::kAuipc ||
               is_alu_imm_op(d.op) || is_alu_reg_op(d.op) ||
               riscv::is_muldiv(d.op)) {
      e.kind = EKind::kAlu;
      e.use_rs1 = d.op != Opcode::kLui && d.op != Opcode::kAuipc;
      e.use_rs2 = is_alu_reg_op(d.op) || riscv::is_muldiv(d.op);
    } else if (is_load_op(d.op)) {
      e.kind = EKind::kLoad;
      e.use_rs1 = true;
    } else if (is_store_op(d.op)) {
      e.kind = EKind::kStore;
      e.use_rs1 = e.use_rs2 = true;
    } else if (is_branch_op(d.op)) {
      e.kind = EKind::kBranch;
      e.use_rs1 = e.use_rs2 = true;
    } else if (d.op == Opcode::kJal) {
      e.kind = EKind::kJal;
    } else if (d.op == Opcode::kJalr) {
      e.kind = EKind::kJalr;
      e.use_rs1 = true;
    } else {
      e.kind = EKind::kSerial;
    }

    if (e.kind == EKind::kSerial) {
      // Serializing op: dispatch it alone and stall fetch — it executes
      // architecturally once it is the only thing left in the machine.
      ++next_seq_;
      push_entry(e);
      stall_serial_ = true;
      break;
    }

    // Structural resources (checked before any rename state moves).
    if (e.kind == EKind::kStore &&
        cc(p_lsu_sq_full_, sq_count_ == sq_.size())) {
      break;  // retry next cycle
    }
    const bool wants_rd =
        d.rd != 0 && (e.kind == EKind::kAlu || e.kind == EKind::kLoad ||
                      e.kind == EKind::kJal || e.kind == EKind::kJalr);
    if (wants_rd && cc(p_rename_stall_freelist_, free_.empty())) {
      break;  // retry next cycle
    }

    // Rename.
    e.psrc1 = rat_[d.rs1 & 31];
    e.psrc2 = rat_[d.rs2 & 31];
    cc(p_rename_src_inflight_, (e.use_rs1 && !prf_ready_[e.psrc1]) ||
                                   (e.use_rs2 && !prf_ready_[e.psrc2]));
    if (cc(p_rename_alloc_, wants_rd)) {
      e.prev_pdst = rat_[d.rd];
      e.pdst = alloc_preg();
      rat_[d.rd] = e.pdst;
      e.has_rd = true;
    }
    if (e.kind == EKind::kStore) {
      e.sq_slot = static_cast<int>((sq_head_ + sq_count_) % sq_.size());
      sq_[e.sq_slot] = SqEntry{};
      sq_[e.sq_slot].seq = e.seq;
      ++sq_count_;
    }

    // Next fetch pc: jal targets resolve at decode, branches follow the
    // predictor, jalr stalls until execute.
    if (e.kind == EKind::kJal) {
      e.pred_next = e.pc + static_cast<std::uint64_t>(d.imm);
      fetch_pc_ = e.pred_next;
    } else if (e.kind == EKind::kBranch) {
      const Predictor::Prediction pred = predictor_.predict(e.pc);
      e.pred_next = (pred.btb_hit && pred.predict_taken) ? pred.target
                                                         : e.pc + 4;
      fetch_pc_ = e.pred_next;
    } else if (e.kind == EKind::kJalr) {
      stall_jalr_ = true;
    } else {
      fetch_pc_ = e.pc + 4;
    }

    ++next_seq_;
    push_entry(e);
    ++fetched;
    if (e.kind == EKind::kJalr) break;
    if (!iacc.hit) break;  // refill port: one fetch this cycle
  }
}

void OooCore::emit_record(const CommitRecord& rec, bool icache_hit) {
  // Same control-state packing as the in-order backend: decoded opcode +
  // the commit-stage flags, XOR-chained with the previous state for the
  // sequence-sensitive half of the DifuzzRTL metric.
  const riscv::Decoded d = riscv::decode(rec.instr);
  std::uint64_t pack = 0;
  pack |= d.valid() ? static_cast<std::uint64_t>(d.op) : 0x7f;
  pack |= static_cast<std::uint64_t>(icache_hit) << 7;
  pack |= static_cast<std::uint64_t>(rec.has_mem) << 8;
  pack |= static_cast<std::uint64_t>(rec.exception != Exception::kNone) << 9;
  pack |= static_cast<std::uint64_t>(static_cast<unsigned>(priv_)) << 10;
  pack |= static_cast<std::uint64_t>(rec.has_rd_write) << 12;
  ctrl_cov_.observe(pack);
  ctrl_cov_.observe(pack ^ (last_ctrl_pack_ << 13));
  last_ctrl_pack_ = pack;
  if (sink_ != nullptr) {
    sink_->on_commit(rec);
  } else {
    trace_.push_back(rec);
  }
}

// ---------------------------------------------------------------------------
// Serial (architectural) path — transcribed from the in-order model's
// trap/CSR/MMU semantics so the privileged surface is bit-exact against the
// golden model. Legacy (in-order) bug injections are deliberately absent.
// ---------------------------------------------------------------------------

void OooCore::serial_step() {
  if (!inflight_.empty()) inflight_.clear();  // drop stragglers at the seam
  if (steps_ >= plat_.max_steps) {
    stopped_ = true;
    stop_reason_ = sim::StopReason::kStepLimit;
    return;
  }
  std::uint64_t fetch_pa = pc_;
  if (translation_active()) {
    if (const Exception pf = translate(pc_, MemAccess::kFetch, fetch_pa);
        pf != Exception::kNone) {
      // Fetch page fault: nothing was fetched; the record carries instr=0.
      ++steps_;
      ++cycles_;
      CommitRecord rec;
      rec.pc = pc_;
      rec.instr = 0;
      rec.priv = priv_;
      raise(rec, pf, pc_);
      std::uint64_t pack = 0x7f;
      pack |= 1ull << 9;  // trapped
      pack |= static_cast<std::uint64_t>(static_cast<unsigned>(priv_)) << 10;
      ctrl_cov_.observe(pack);
      ctrl_cov_.observe(pack ^ (last_ctrl_pack_ << 13));
      last_ctrl_pack_ = pack;
      if (sink_ != nullptr) {
        sink_->on_commit(rec);
      } else {
        trace_.push_back(rec);
      }
      if (bbv_ != nullptr) bbv_->on_commit(rec.pc, pc_, true);
      return;
    }
  }
  if (!mem_.in_ram(fetch_pa, 4)) {
    stopped_ = true;
    stop_reason_ = sim::StopReason::kPcEscape;
    return;
  }
  CacheAccess iacc;
  const std::uint32_t raw = icache_.fetch(fetch_pa, mem_, iacc);
  if (!iacc.hit) cycles_ += cfg_.miss_penalty;
  if (raw == 0) {
    stopped_ = true;
    stop_reason_ = sim::StopReason::kProgramEnd;
    return;
  }
  ++steps_;
  ++cycles_;
  if (plat_.clint_enabled) service_interrupts();

  CommitRecord rec;
  rec.pc = pc_;
  rec.instr = raw;
  rec.priv = priv_;
  const Decoded d = riscv::decode(raw);
  arch_execute(d, rec);
  if (rec.exception == Exception::kNone) ++csrs_.instret;
  emit_record(rec, iacc.hit);
  if (bbv_ != nullptr) {
    bbv_->on_commit(rec.pc, pc_, rec.exception != Exception::kNone);
  }
}

void OooCore::arch_write_rd(CommitRecord& rec, std::uint8_t rd,
                            std::uint64_t value) {
  if (rd != 0) prf_[rrat_[rd]] = value;
  rec.has_rd_write = rd != 0;
  rec.rd = rd;
  rec.rd_value = rd != 0 ? value : 0;
}

void OooCore::arch_execute(const Decoded& d, CommitRecord& rec) {
  const std::uint64_t next_pc = pc_ + 4;
  if (!d.valid()) {
    raise(rec, Exception::kIllegalInstruction, d.raw);
    return;
  }
  const std::uint64_t a = areg(d.rs1);
  const std::uint64_t b = areg(d.rs2);

  switch (d.op) {
    case Opcode::kLui:
      arch_write_rd(rec, d.rd, static_cast<std::uint64_t>(d.imm));
      break;
    case Opcode::kAuipc:
      arch_write_rd(rec, d.rd, pc_ + static_cast<std::uint64_t>(d.imm));
      break;

    case Opcode::kJal: case Opcode::kJalr: {
      std::uint64_t target;
      if (d.op == Opcode::kJal) {
        target = pc_ + static_cast<std::uint64_t>(d.imm);
      } else {
        target = (a + static_cast<std::uint64_t>(d.imm)) & ~1ull;
      }
      if (predictor_.update(pc_, true, target)) {
        cycles_ += cfg_.mispredict_penalty;
      }
      if ((target & 3) != 0) {
        raise(rec, Exception::kInstrAddrMisaligned, target);
        return;
      }
      arch_write_rd(rec, d.rd, next_pc);
      pc_ = target;
      return;
    }

    case Opcode::kBeq: case Opcode::kBne: case Opcode::kBlt:
    case Opcode::kBge: case Opcode::kBltu: case Opcode::kBgeu: {
      bool taken = false;
      switch (d.op) {
        case Opcode::kBeq: taken = a == b; break;
        case Opcode::kBne: taken = a != b; break;
        case Opcode::kBlt:
          taken = static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
          break;
        case Opcode::kBge:
          taken = static_cast<std::int64_t>(a) >= static_cast<std::int64_t>(b);
          break;
        case Opcode::kBltu: taken = a < b; break;
        default: taken = a >= b; break;
      }
      const std::uint64_t target = pc_ + static_cast<std::uint64_t>(d.imm);
      if (predictor_.update(pc_, taken, target)) {
        cycles_ += cfg_.mispredict_penalty;
      }
      if (taken) {
        if ((target & 3) != 0) {
          raise(rec, Exception::kInstrAddrMisaligned, target);
          return;
        }
        pc_ = target;
        return;
      }
      break;
    }

    case Opcode::kLb: case Opcode::kLh: case Opcode::kLw: case Opcode::kLd:
    case Opcode::kLbu: case Opcode::kLhu: case Opcode::kLwu:
    case Opcode::kSb: case Opcode::kSh: case Opcode::kSw: case Opcode::kSd: {
      const bool is_store = is_store_op(d.op);
      const std::uint64_t addr = a + static_cast<std::uint64_t>(d.imm);
      const unsigned size = mem_size_of(d.op);
      const bool misaligned = addr % size != 0;
      const bool xlate = translation_active();
      std::uint64_t pa = addr;
      Exception pgf = Exception::kNone;
      if (xlate && !misaligned) {
        pgf = translate(addr, is_store ? MemAccess::kStore : MemAccess::kLoad,
                        pa);
      }
      const bool is_clint =
          pgf == Exception::kNone && clint_.contains(plat_, pa);
      const bool fault =
          pgf == Exception::kNone && !mem_.in_ram(pa, size) && !is_clint;
      // Spec exception priority: misaligned outranks translation outranks
      // the PMA range check.
      if (misaligned) {
        raise(rec, is_store ? Exception::kStoreAddrMisaligned
                            : Exception::kLoadAddrMisaligned, addr);
        return;
      }
      if (pgf != Exception::kNone) {
        raise(rec, pgf, addr);
        return;
      }
      if (fault) {
        raise(rec, is_store ? Exception::kStoreAccessFault
                            : Exception::kLoadAccessFault, addr);
        return;
      }
      if (is_clint) {
        // MMIO bypasses the D$ (the CLINT sits on the uncached port).
        if (is_store) {
          const std::uint64_t bits =
              size == 8 ? b : (b & ((1ull << (8 * size)) - 1));
          if (!clint_.write(plat_, pa, size, bits)) {
            raise(rec, Exception::kStoreAccessFault, addr);
            return;
          }
          csrs_.mip =
              (csrs_.mip & ~sim::mip::kMachineBits) | clint_.pending_mip();
          rec.has_mem = true;
          rec.mem_is_store = true;
          rec.mem_addr = addr;
          rec.mem_value = bits;
          rec.mem_size = static_cast<std::uint8_t>(size);
        } else {
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
          arch_write_rd(rec, d.rd, d.op == Opcode::kLw ? sext32(mmio) : mmio);
        }
        break;
      }
      const CacheAccess dacc = dcache_.access(pa, is_store);
      if (!dacc.hit) cycles_ += cfg_.miss_penalty;
      if (is_store) {
        const std::uint64_t bits =
            size == 8 ? b : (b & ((1ull << (8 * size)) - 1));
        mem_.write(pa, bits, size);
        icache_.invalidate_addr(pa);
        rec.has_mem = true;
        rec.mem_is_store = true;
        rec.mem_addr = addr;
        rec.mem_value = bits;
        rec.mem_size = static_cast<std::uint8_t>(size);
      } else {
        const std::uint64_t bits = mem_.read(pa, size);
        std::uint64_t value = bits;
        switch (d.op) {
          case Opcode::kLb:
            value = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(static_cast<std::int8_t>(bits)));
            break;
          case Opcode::kLh:
            value = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(static_cast<std::int16_t>(bits)));
            break;
          case Opcode::kLw: value = sext32(bits); break;
          default: break;
        }
        rec.has_mem = true;
        rec.mem_is_store = false;
        rec.mem_addr = addr;
        rec.mem_value = bits;
        rec.mem_size = static_cast<std::uint8_t>(size);
        arch_write_rd(rec, d.rd, value);
      }
      break;
    }

    case Opcode::kFence:
      break;
    case Opcode::kFenceI:
      icache_.flush();
      cycles_ += cfg_.miss_penalty / 2;
      break;

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
      stop_reason_ = sim::StopReason::kWfi;
      break;

    case Opcode::kSfenceVma:
      if (priv_ == Priv::kUser) {
        raise(rec, Exception::kIllegalInstruction, d.raw);
        return;
      }
      flush_tlb();
      cycles_ += cfg_.mispredict_penalty;
      break;

    case Opcode::kMret: {
      namespace ms = sim::mstatus;
      if (priv_ != Priv::kMachine) {
        raise(rec, Exception::kIllegalInstruction, d.raw);
        return;
      }
      const auto mpp = static_cast<Priv>(
          (csrs_.mstatus & ms::kMppMask) >> ms::kMppShift);
      const bool mpie = (csrs_.mstatus & ms::kMpie) != 0;
      csrs_.mstatus &= ~(ms::kMie | ms::kMpie | ms::kMppMask);
      if (mpie) csrs_.mstatus |= ms::kMie;
      csrs_.mstatus |= ms::kMpie;
      priv_ = mpp;
      pc_ = csrs_.mepc;
      cycles_ += cfg_.mispredict_penalty;
      return;
    }
    case Opcode::kSret: {
      namespace ms = sim::mstatus;
      if (priv_ == Priv::kUser) {
        raise(rec, Exception::kIllegalInstruction, d.raw);
        return;
      }
      const bool spp = (csrs_.mstatus & ms::kSpp) != 0;
      const bool spie = (csrs_.mstatus & ms::kSpie) != 0;
      csrs_.mstatus &= ~(ms::kSie | ms::kSpie | ms::kSpp);
      if (spie) csrs_.mstatus |= ms::kSie;
      csrs_.mstatus |= ms::kSpie;
      priv_ = spp ? Priv::kSupervisor : Priv::kUser;
      pc_ = csrs_.sepc;
      cycles_ += cfg_.mispredict_penalty;
      return;
    }

    case Opcode::kCsrrw: case Opcode::kCsrrs: case Opcode::kCsrrc:
    case Opcode::kCsrrwi: case Opcode::kCsrrsi: case Opcode::kCsrrci: {
      const bool imm_form = d.op == Opcode::kCsrrwi ||
                            d.op == Opcode::kCsrrsi || d.op == Opcode::kCsrrci;
      const std::uint64_t operand = imm_form ? d.rs1 : a;
      const bool is_write_op =
          d.op == Opcode::kCsrrw || d.op == Opcode::kCsrrwi;
      const bool do_write = is_write_op || d.rs1 != 0;
      std::uint64_t old = 0;
      if (!csr_read(d.csr, old, priv_)) {
        raise(rec, Exception::kIllegalInstruction, d.raw);
        return;
      }
      if (do_write) {
        std::uint64_t next = operand;
        if (d.op == Opcode::kCsrrs || d.op == Opcode::kCsrrsi) {
          next = old | operand;
        }
        if (d.op == Opcode::kCsrrc || d.op == Opcode::kCsrrci) {
          next = old & ~operand;
        }
        if (!csr_write(d.csr, next)) {
          raise(rec, Exception::kIllegalInstruction, d.raw);
          return;
        }
      }
      arch_write_rd(rec, d.rd, old);
      break;
    }

    case Opcode::kLrW: case Opcode::kLrD: {
      const unsigned size = d.op == Opcode::kLrW ? 4 : 8;
      const bool misaligned = a % size != 0;
      const bool xlate = translation_active();
      std::uint64_t pa = a;
      Exception pgf = Exception::kNone;
      if (xlate && !misaligned) pgf = translate(a, MemAccess::kLoad, pa);
      const bool fault = pgf == Exception::kNone && !mem_.in_ram(pa, size);
      if (misaligned || fault || pgf != Exception::kNone) {
        raise(rec, misaligned                ? Exception::kLoadAddrMisaligned
                   : pgf != Exception::kNone ? pgf
                                             : Exception::kLoadAccessFault,
              a);
        return;
      }
      const CacheAccess dacc = dcache_.access(pa, false);
      if (!dacc.hit) cycles_ += cfg_.miss_penalty;
      const std::uint64_t bits = mem_.read(pa, size);
      reservation_ = pa;  // held on the physical address
      rec.has_mem = true;
      rec.mem_is_store = false;
      rec.mem_addr = a;
      rec.mem_value = bits;
      rec.mem_size = static_cast<std::uint8_t>(size);
      arch_write_rd(rec, d.rd, size == 4 ? sext32(bits) : bits);
      break;
    }
    case Opcode::kScW: case Opcode::kScD: {
      const unsigned size = d.op == Opcode::kScW ? 4 : 8;
      const bool misaligned = a % size != 0;
      const bool xlate = translation_active();
      std::uint64_t pa = a;
      Exception pgf = Exception::kNone;
      if (xlate && !misaligned) pgf = translate(a, MemAccess::kStore, pa);
      const bool fault = pgf == Exception::kNone && !mem_.in_ram(pa, size);
      if (misaligned || fault || pgf != Exception::kNone) {
        raise(rec, misaligned                ? Exception::kStoreAddrMisaligned
                   : pgf != Exception::kNone ? pgf
                                             : Exception::kStoreAccessFault,
              a);
        return;
      }
      const bool ok = reservation_ && *reservation_ == pa;
      if (ok) {
        const CacheAccess dacc = dcache_.access(pa, true);
        if (!dacc.hit) cycles_ += cfg_.miss_penalty;
        const std::uint64_t bits = size == 8 ? b : (b & 0xffffffffull);
        mem_.write(pa, bits, size);
        icache_.invalidate_addr(pa);
        rec.has_mem = true;
        rec.mem_is_store = true;
        rec.mem_addr = a;
        rec.mem_value = bits;
        rec.mem_size = static_cast<std::uint8_t>(size);
        arch_write_rd(rec, d.rd, 0);
      } else {
        arch_write_rd(rec, d.rd, 1);
      }
      reservation_.reset();
      break;
    }

    default: {
      if (is_amo_op(d.op)) {
        const unsigned size =
            (riscv::spec(d.op).match & 0x7000u) == 0x2000u ? 4 : 8;
        const bool misaligned = a % size != 0;
        const bool xlate = translation_active();
        std::uint64_t pa = a;
        Exception pgf = Exception::kNone;
        if (xlate && !misaligned) {
          // AMOs translate as stores: the read-modify-write needs W (+D).
          pgf = translate(a, MemAccess::kStore, pa);
        }
        const bool fault = pgf == Exception::kNone && !mem_.in_ram(pa, size);
        if (misaligned || fault || pgf != Exception::kNone) {
          raise(rec,
                misaligned                ? Exception::kStoreAddrMisaligned
                : pgf != Exception::kNone ? pgf
                                          : Exception::kStoreAccessFault,
                a);
          return;
        }
        const CacheAccess dacc = dcache_.access(pa, true);
        if (!dacc.hit) cycles_ += cfg_.miss_penalty;
        const std::uint64_t old_bits = mem_.read(pa, size);
        const std::uint64_t old_val = size == 4 ? sext32(old_bits) : old_bits;
        const std::uint64_t src = size == 4 ? sext32(b) : b;
        std::uint64_t result = 0;
        switch (d.op) {
          case Opcode::kAmoSwapW: case Opcode::kAmoSwapD: result = src; break;
          case Opcode::kAmoAddW: case Opcode::kAmoAddD:
            result = old_val + src;
            break;
          case Opcode::kAmoXorW: case Opcode::kAmoXorD:
            result = old_val ^ src;
            break;
          case Opcode::kAmoAndW: case Opcode::kAmoAndD:
            result = old_val & src;
            break;
          case Opcode::kAmoOrW: case Opcode::kAmoOrD:
            result = old_val | src;
            break;
          case Opcode::kAmoMinW: case Opcode::kAmoMinD:
            result = static_cast<std::int64_t>(old_val) <
                             static_cast<std::int64_t>(src)
                         ? old_val
                         : src;
            break;
          case Opcode::kAmoMaxW: case Opcode::kAmoMaxD:
            result = static_cast<std::int64_t>(old_val) >
                             static_cast<std::int64_t>(src)
                         ? old_val
                         : src;
            break;
          case Opcode::kAmoMinuW:
            result = static_cast<std::uint32_t>(old_bits) <
                             static_cast<std::uint32_t>(b)
                         ? old_bits
                         : b;
            break;
          case Opcode::kAmoMinuD: result = old_bits < b ? old_bits : b; break;
          case Opcode::kAmoMaxuW:
            result = static_cast<std::uint32_t>(old_bits) >
                             static_cast<std::uint32_t>(b)
                         ? old_bits
                         : b;
            break;
          case Opcode::kAmoMaxuD: result = old_bits > b ? old_bits : b; break;
          default: break;
        }
        const std::uint64_t store_bits =
            size == 8 ? result : (result & 0xffffffffull);
        mem_.write(pa, store_bits, size);
        icache_.invalidate_addr(pa);
        rec.has_mem = true;
        rec.mem_is_store = true;
        rec.mem_addr = a;
        rec.mem_value = store_bits;
        rec.mem_size = static_cast<std::uint8_t>(size);
        arch_write_rd(rec, d.rd, old_val);
        break;
      }

      // ---- ALU / M-extension ops (shared arithmetic table) ----
      const bool imm_form = is_alu_imm_op(d.op);
      const std::uint64_t operand_b =
          imm_form ? static_cast<std::uint64_t>(d.imm) : b;
      const std::uint64_t result = riscv::alu_eval(d.op, a, operand_b);
      if (riscv::is_div(d.op)) cycles_ += cfg_.div_latency;
      arch_write_rd(rec, d.rd, result);
      break;
    }
  }
  pc_ = next_pc;
}

void OooCore::raise(CommitRecord& rec, Exception cause, std::uint64_t tval) {
  rec.exception = cause;
  rec.has_rd_write = false;
  rec.has_mem = false;
  namespace ms = sim::mstatus;
  // Delegation mux: a trap from below M whose medeleg bit is set vectors to
  // the S-mode trampoline.
  const bool deleg =
      priv_ != Priv::kMachine &&
      ((csrs_.medeleg >> static_cast<unsigned>(cause)) & 1) != 0;
  if (deleg) {
    csrs_.sepc = pc_;
    csrs_.scause = static_cast<std::uint64_t>(cause);
    csrs_.stval = tval;
    const bool sie = (csrs_.mstatus & ms::kSie) != 0;
    csrs_.mstatus &= ~(ms::kSie | ms::kSpie | ms::kSpp);
    if (sie) csrs_.mstatus |= ms::kSpie;
    if (priv_ == Priv::kSupervisor) csrs_.mstatus |= ms::kSpp;
    priv_ = Priv::kSupervisor;
    pc_ = csrs_.sepc + 4;  // S-mode magic trampoline (platform.h)
    cycles_ += cfg_.mispredict_penalty;
    return;
  }
  csrs_.mepc = pc_;
  csrs_.mcause = static_cast<std::uint64_t>(cause);
  csrs_.mtval = tval;
  const bool mie = (csrs_.mstatus & ms::kMie) != 0;
  csrs_.mstatus &= ~(ms::kMie | ms::kMpie | ms::kMppMask);
  if (mie) csrs_.mstatus |= ms::kMpie;
  csrs_.mstatus |= static_cast<std::uint64_t>(priv_) << ms::kMppShift;
  priv_ = Priv::kMachine;
  pc_ = csrs_.mepc + 4;  // magic trampoline (platform.h)
  cycles_ += cfg_.mispredict_penalty;  // redirect costs a flush
}

void OooCore::service_interrupts() {
  namespace ms = sim::mstatus;
  clint_.tick();
  csrs_.mip = (csrs_.mip & ~sim::mip::kMachineBits) | clint_.pending_mip();
  const std::uint64_t ready = csrs_.mie & csrs_.mip & sim::mip::kMachineBits;
  if (ready == 0) return;
  const bool enabled =
      priv_ != Priv::kMachine || (csrs_.mstatus & ms::kMie) != 0;
  if (!enabled) return;
  // Software interrupts outrank timer interrupts (privileged spec).
  const std::uint64_t cause = (ready & sim::mip::kMsip) != 0
                                  ? sim::mip::kCauseMsi
                                  : sim::mip::kCauseMti;
  csrs_.mepc = pc_;
  csrs_.mcause = sim::mip::kInterruptFlag | cause;
  csrs_.mtval = 0;
  const bool mie = (csrs_.mstatus & ms::kMie) != 0;
  csrs_.mstatus &= ~(ms::kMie | ms::kMpie | ms::kMppMask);
  if (mie) csrs_.mstatus |= ms::kMpie;
  csrs_.mstatus |= static_cast<std::uint64_t>(priv_) << ms::kMppShift;
  priv_ = Priv::kMachine;
  cycles_ += cfg_.mispredict_penalty;  // pipeline redirect
  // Magic trampoline: acknowledge at the device, resume at the interrupted
  // instruction (pc_ unchanged). See platform.h.
  clint_.clear_source(cause);
  csrs_.mip = (csrs_.mip & ~sim::mip::kMachineBits) | clint_.pending_mip();
}

bool OooCore::csr_read(std::uint16_t addr, std::uint64_t& value,
                       Priv view) const {
  namespace c = riscv::csr;
  if (static_cast<int>(view) < static_cast<int>(c::min_priv(addr))) {
    return false;
  }
  switch (addr) {
    case c::kMstatus: value = csrs_.mstatus; return true;
    case c::kMisa: value = sim::kMisaValue; return true;
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
    case c::kMcycle: case c::kCycle: value = cycles_; return true;
    case c::kTime: value = cycles_ / 100; return true;
    case c::kMinstret: case c::kInstret: value = csrs_.instret; return true;
    case c::kMvendorid: case c::kMarchid: case c::kMimpid: case c::kMhartid:
      value = 0;
      return true;
    case c::kSstatus:
      value = csrs_.mstatus &
              (sim::mstatus::kSie | sim::mstatus::kSpie | sim::mstatus::kSpp |
               sim::mstatus::kSum | sim::mstatus::kMxr);
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

bool OooCore::csr_write(std::uint16_t addr, std::uint64_t value) {
  namespace c = riscv::csr;
  namespace ms = sim::mstatus;
  if (static_cast<int>(priv_) < static_cast<int>(c::min_priv(addr))) {
    return false;
  }
  if (c::is_read_only(addr)) return false;
  constexpr std::uint64_t kStatusMask = ms::kSie | ms::kMie | ms::kSpie |
                                        ms::kMpie | ms::kSpp | ms::kMppMask |
                                        ms::kSum | ms::kMxr;
  switch (addr) {
    case c::kMstatus: {
      std::uint64_t v = value & kStatusMask;
      if (((v & ms::kMppMask) >> ms::kMppShift) == 2) v &= ~ms::kMppMask;
      csrs_.mstatus = v;
      return true;
    }
    case c::kMisa: return true;
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
    case c::kMcycle: cycles_ = value; return true;
    case c::kMinstret: csrs_.instret = value; return true;
    case c::kSstatus: {
      constexpr std::uint64_t kSMask =
          ms::kSie | ms::kSpie | ms::kSpp | ms::kSum | ms::kMxr;
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
      // WARL MODE (Bare/Sv39 only). An accepted write switches the
      // translation context, so the TLB drops its cached leaves.
      csrs_.satp = c::legalize_satp(csrs_.satp, value);
      flush_tlb();
      return true;
    default: return false;
  }
}

bool OooCore::translation_active() const {
  namespace c = riscv::csr;
  return priv_ != Priv::kMachine &&
         (csrs_.satp >> c::kSatpModeShift) == c::kSatpModeSv39;
}

void OooCore::flush_tlb() {
  for (auto& e : tlb_) e = TlbEntry{};
}

riscv::Exception OooCore::leaf_permissions(std::uint64_t pte,
                                           MemAccess kind) const {
  namespace pv = riscv::sv39;
  namespace ms = sim::mstatus;
  const Exception fault = kind == MemAccess::kFetch  ? Exception::kInstrPageFault
                          : kind == MemAccess::kLoad ? Exception::kLoadPageFault
                                                     : Exception::kStorePageFault;
  const bool u_page = (pte & pv::kPteU) != 0;
  switch (kind) {
    case MemAccess::kFetch:
      if ((pte & pv::kPteX) == 0) return fault;
      // U needs the U bit; S fetching from a U page always faults (SUM
      // gates data accesses only).
      if ((priv_ == Priv::kUser) != u_page) return fault;
      break;
    case MemAccess::kLoad: {
      if (priv_ == Priv::kUser && !u_page) return fault;
      if (priv_ == Priv::kSupervisor && u_page &&
          (csrs_.mstatus & ms::kSum) == 0) {
        return fault;
      }
      const bool mxr = (csrs_.mstatus & ms::kMxr) != 0;
      if ((pte & pv::kPteR) == 0 && !(mxr && (pte & pv::kPteX) != 0)) {
        return fault;
      }
      break;
    }
    case MemAccess::kStore:
      if (priv_ == Priv::kUser && !u_page) return fault;
      if (priv_ == Priv::kSupervisor && u_page &&
          (csrs_.mstatus & ms::kSum) == 0) {
        return fault;
      }
      if ((pte & pv::kPteW) == 0) return fault;
      break;
  }
  // Svade: the walker never updates A/D; accesses needing an update fault.
  if ((pte & pv::kPteA) == 0) return fault;
  if (kind == MemAccess::kStore && (pte & pv::kPteD) == 0) return fault;
  return Exception::kNone;
}

riscv::Exception OooCore::translate(std::uint64_t vaddr, MemAccess kind,
                                    std::uint64_t& paddr) {
  namespace c = riscv::csr;
  namespace pv = riscv::sv39;
  const Exception fault = kind == MemAccess::kFetch  ? Exception::kInstrPageFault
                          : kind == MemAccess::kLoad ? Exception::kLoadPageFault
                                                     : Exception::kStorePageFault;
  if (!pv::canonical(vaddr)) return fault;
  const std::uint64_t vpn = vaddr >> pv::kPageShift;
  TlbEntry& slot = tlb_[vpn % tlb_.size()];
  const bool hit = slot.valid && slot.vpn == vpn;
  if (hit) {
    ++obs_.tlb_hits;
  } else {
    ++obs_.tlb_misses;
  }
  if (!hit) {
    // Page-table walk, root first, one PTE read per level.
    std::uint64_t table = (csrs_.satp & c::kSatpPpnMask) << pv::kPageShift;
    int level = static_cast<int>(pv::kLevels) - 1;
    std::uint64_t pte = 0;
    while (true) {
      if (level < 0) return fault;
      const std::uint64_t pte_addr =
          table + pv::vpn_slice(vaddr, static_cast<unsigned>(level)) * 8;
      if (!mem_.in_ram(pte_addr, 8)) return fault;
      pte = mem_.read(pte_addr, 8);
      const bool valid = (pte & pv::kPteV) != 0 &&
                         !((pte & pv::kPteW) != 0 && (pte & pv::kPteR) == 0);
      if (!valid) return fault;
      if ((pte & (pv::kPteR | pv::kPteX)) != 0) break;  // leaf PTE
      table = pv::pte_ppn(pte) << pv::kPageShift;
      --level;
    }
    // Superpage leaves must be PPN-aligned to their span.
    if (level > 0 &&
        (pv::pte_ppn(pte) &
         ((1ull << (9 * static_cast<unsigned>(level))) - 1)) != 0) {
      return fault;
    }
    slot.valid = true;
    slot.vpn = vpn;
    slot.pte = pte;
    slot.level = static_cast<std::uint8_t>(level);
    cycles_ += cfg_.miss_penalty;  // walk stalls like a cache miss
  }
  // The TLB caches the PTE, not the verdict: permissions re-check against
  // the current privilege/mstatus on every access.
  if (const Exception f = leaf_permissions(slot.pte, kind);
      f != Exception::kNone) {
    return f;
  }
  const std::uint64_t span = (1ull << (9 * slot.level)) - 1;
  const std::uint64_t ppn = (pv::pte_ppn(slot.pte) & ~span) | (vpn & span);
  paddr = (ppn << pv::kPageShift) | (vaddr & ((1ull << pv::kPageShift) - 1));
  return Exception::kNone;
}

}  // namespace chatfuzz::rtl
