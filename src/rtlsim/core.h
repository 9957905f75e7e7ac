// RTL-level DUT model ("RocketCore"/"BOOM" role): an instruction-driven
// microarchitectural model of an in-order RV64IMA pipeline with I$/D$,
// branch prediction, an iterative divider, its own CSR/trap unit with M/S/U
// privilege + delegation, an Sv39 MMU (direct-mapped TLB + page-table
// walker), and a commit tracer. Every boolean control condition in the model is a
// registered condition-coverage point, mirroring what `vcs -cm cond`
// instruments in the real RTL.
//
// The model deliberately re-implements execution semantics (it shares only
// the pure ALU arithmetic table with nothing else); together with the
// switchable bug injections in config.h this gives the Mismatch Detector a
// genuinely independent second implementation to diff against the golden
// model — the same structure the paper's VCS-vs-Spike setup has.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "coverage/cover.h"
#include "coverage/multi.h"
#include "isasim/memory.h"
#include "isasim/platform.h"
#include "isasim/trace.h"
#include "riscv/bbv.h"
#include "riscv/instr.h"
#include "rtlsim/caches.h"
#include "rtlsim/config.h"
#include "rtlsim/dut.h"

namespace chatfuzz::rtl {

class RtlCore final : public DutCore {
 public:
  /// Points are registered into `db` at construction; the DB must outlive
  /// the core. One DB accumulates coverage across a whole campaign.
  RtlCore(const CoreConfig& cfg, cov::CoverageDB& db, sim::Platform plat = {});

  /// Reset architectural + microarchitectural state and load the program.
  /// Coverage in the shared DB is NOT reset (campaign-cumulative).
  void reset(std::span<const std::uint32_t> program) override;

  sim::RunResult run() override;
  std::optional<sim::CommitRecord> step();

  bool stopped() const override { return stopped_; }
  std::uint64_t pc() const override { return pc_; }
  std::uint64_t reg(unsigned i) const override { return regs_[i & 31]; }
  riscv::Priv priv() const override { return priv_; }
  std::uint64_t cycles() const override { return cycles_; }
  /// Architectural CSR value as an M-mode read would see it (tests,
  /// examples); 0 for unimplemented addresses.
  std::uint64_t csr_value(std::uint16_t addr) const override {
    std::uint64_t v = 0;
    csr_read(addr, v, riscv::Priv::kMachine);
    return v;
  }
  const sim::Trace& trace() const override { return trace_; }
  const sim::Memory& memory() const override { return mem_; }
  cov::CtrlRegCoverage& ctrl_cov() override { return ctrl_cov_; }
  const CoreConfig& config() const override { return cfg_; }

  /// Optionally attach the multi-metric suite (toggle/FSM/statement
  /// coverage); the suite must outlive the core. Pass nullptr to detach.
  void attach_metrics(cov::MetricSuite* metrics) override {
    metrics_ = metrics;
  }

  /// Change the initial-register-file seed used by subsequent reset() calls
  /// (campaigns that give every test a distinct deterministic register file).
  void set_reg_seed(std::uint64_t seed) override { plat_.reg_seed = seed; }

  /// Stream commits to `sink` instead of the internal trace (nullptr
  /// restores trace collection). While a sink is attached, trace() stays
  /// empty and run() returns an empty RunResult::trace — the streaming path
  /// never materializes one.
  void set_sink(sim::CommitSink* sink) override { sink_ = sink; }

  /// Attach a basic-block-vector recorder; every committed instruction is
  /// reported as (pc, next_pc) so the recorder can close blocks on control
  /// transfer. The recorder must outlive the run; nullptr detaches. run()
  /// calls on_stop() when the run ends (manual step() loops must do so
  /// themselves).
  void set_bbv(riscv::BbvRecorder* bbv) override { bbv_ = bbv; }

  obs::SimCounters take_obs_counters() override {
    obs::SimCounters c = obs_;
    obs_ = {};
    return c;
  }

 private:
  // -- coverage plumbing ----------------------------------------------------
  /// Record an evaluation of condition `id` with value `v`; returns `v` so
  /// conditions stay readable: if (cc(p_hit_, acc.hit)) {...}
  bool cc(cov::PointId id, bool v) {
    db_.hit(id, v);
    return v;
  }
  void register_points();

  /// Flush the select-chain histograms into the coverage DB. Called
  /// whenever the run stops and at reset, so any state a test observes
  /// after a run holds every comparator evaluation of that run.
  void fold_deferred_chains();

  // -- trap unit -------------------------------------------------------------
  void raise(sim::CommitRecord& rec, riscv::Exception cause, std::uint64_t tval);
  bool csr_read(std::uint16_t addr, std::uint64_t& value,
                riscv::Priv view) const;
  bool csr_write(std::uint16_t addr, std::uint64_t value);

  // -- MMU (Sv39 TLB + page-table walker) ------------------------------------
  // Deliberately a second implementation of the walk (see the header note on
  // independence); only the PTE field constants come from riscv/csr.h.
  enum class MemAccess { kFetch, kLoad, kStore };
  struct TlbEntry {
    bool valid = false;
    std::uint64_t vpn = 0;   // full 27-bit virtual page number
    std::uint64_t pte = 0;   // cached leaf PTE
    std::uint8_t level = 0;  // leaf level (0 = 4K page)
  };
  /// Sv39 in effect: satp.MODE==8 and the hart is below M.
  bool translation_active() const;
  /// TLB lookup + walk + permission check; fills `paddr` on success. The
  /// permission check runs on every access, hit or refill, against current
  /// privilege/mstatus. Records tlb.*/ptw.* coverage. Bug sites:
  /// skip_perm_check (store W/D checks skipped).
  riscv::Exception translate(std::uint64_t vaddr, MemAccess kind,
                             std::uint64_t& paddr);
  riscv::Exception leaf_permissions(std::uint64_t pte, MemAccess kind);
  void flush_tlb();
  void write_rd(sim::CommitRecord& rec, std::uint8_t rd, std::uint64_t value);
  void execute(const riscv::Decoded& d, sim::CommitRecord& rec);
  void evaluate_background_units(const riscv::Decoded& d);
  /// Poll the CLINT and enter a pending M-mode interrupt if enabled.
  void service_interrupts();

  // Telemetry tallies (see take_obs_counters); never read architecturally.
  obs::SimCounters obs_;
  riscv::BbvRecorder* bbv_ = nullptr;

  CoreConfig cfg_;
  cov::CoverageDB& db_;
  sim::Platform plat_;
  sim::Memory mem_;
  sim::ClintState clint_;
  ICache icache_;
  DCache dcache_;
  Predictor predictor_;
  cov::CtrlRegCoverage ctrl_cov_;
  cov::MetricSuite* metrics_ = nullptr;

  // Architectural state.
  std::array<std::uint64_t, 32> regs_{};
  std::uint64_t pc_ = 0;
  riscv::Priv priv_ = riscv::Priv::kMachine;
  std::optional<std::uint64_t> reservation_;
  struct CsrFile {
    std::uint64_t mstatus = 0;
    std::uint64_t medeleg = 0, mideleg = 0;
    std::uint64_t mie = 0, mip = 0;
    std::uint64_t mtvec = 0, mscratch = 0, mepc = 0, mcause = 0, mtval = 0;
    std::uint64_t mcounteren = ~0ull, scounteren = ~0ull;
    std::uint64_t stvec = 0, sscratch = 0, sepc = 0, scause = 0, stval = 0;
    std::uint64_t satp = 0;
    std::uint64_t instret = 0;
  } csrs_;

  // Microarchitectural state.
  std::array<TlbEntry, 16> tlb_{};  // direct-mapped, indexed by vpn % 16
  std::uint64_t cycles_ = 0;
  std::uint8_t last_rd_ = 0;        // writeback reg of previous instruction
  bool last_was_load_ = false;      // for load-use stall condition
  bool last_was_short_alu_ = false; // for BOOM dual-issue condition
  std::uint64_t last_ctrl_pack_ = 0;

  // Run state.
  std::uint64_t program_end_ = 0;
  sim::Trace trace_;
  sim::CommitSink* sink_ = nullptr;
  bool stopped_ = true;
  sim::StopReason stop_reason_ = sim::StopReason::kStepLimit;
  std::uint64_t steps_ = 0;

  // ---- condition points -----------------------------------------------------
  // Fetch / front end.
  cov::PointId p_ic_hit_, p_ic_evict_, p_btb_hit_, p_pred_taken_,
      p_mispredict_, p_fencei_flush_, p_fetch_cross_;
  std::vector<cov::PointId> p_ic_set_evict_;  // per-set eviction
  // Decode: instruction-class signals + per-opcode select chain.
  cov::PointId p_dec_valid_, p_dec_load_, p_dec_store_, p_dec_branch_,
      p_dec_jal_, p_dec_jalr_, p_dec_aluimm_, p_dec_alureg_, p_dec_wform_,
      p_dec_muldiv_, p_dec_div_, p_dec_amo_, p_dec_lr_, p_dec_sc_, p_dec_csr_,
      p_dec_fence_, p_dec_system_, p_dec_rd_x0_, p_dec_rs1_x0_;
  std::vector<cov::PointId> p_dec_op_;  // one per opcode
  // Execute / hazards.
  cov::PointId p_ex_bypass_rs1_, p_ex_bypass_rs2_, p_ex_load_use_,
      p_ex_res_zero_, p_ex_res_neg_, p_ex_same_src_, p_ex_shamt_zero_,
      p_ex_br_taken_, p_ex_br_backward_, p_ex_target_misaligned_;
  // Mul/div unit.
  cov::PointId p_md_busy_, p_md_div0_, p_md_overflow_, p_md_sign_mix_,
      p_md_word_, p_md_high_;
  // Memory unit / D$.
  cov::PointId p_dc_hit_, p_dc_evict_valid_, p_dc_evict_dirty_,
      p_mem_misaligned_, p_mem_fault_, p_mem_store_, p_mem_size8_,
      p_mem_sc_ok_, p_mem_resv_valid_, p_mem_amo_min_, p_mem_amo_logic_;
  std::vector<cov::PointId> p_dc_set_evict_;  // per-set eviction
  // CSR / trap unit.
  cov::PointId p_csr_illegal_addr_, p_csr_priv_fail_, p_csr_ro_write_,
      p_csr_machine_, p_csr_super_, p_csr_counter_, p_csr_satp_,
      p_csr_write_side_;
  std::vector<cov::PointId> p_trap_cause_;  // per exception cause
  cov::PointId p_trap_from_u_, p_trap_from_s_, p_mret_, p_sret_,
      p_sret_to_u_, p_mret_to_u_, p_mret_to_s_, p_wfi_, p_deleg_,
      p_deleg_taken_, p_sfence_;
  // Background units evaluated every instruction (interrupt/debug) and per
  // access (PMP/ECC/PTW) — the realistic "hard tail" of the RTL.
  std::vector<cov::PointId> p_irq_pending_;  // 6 causes; true unreachable
  cov::PointId p_debug_halt_, p_debug_step_, p_ecc_ic_, p_ecc_dc_,
      p_pmp_hit_, p_pmp_fault_, p_ptw_active_, p_ptw_level_, p_ptw_fault_,
      p_ctr_overflow_;
  // BOOM-only points.
  cov::PointId p_b_dual_issue_, p_b_rename_alloc_, p_b_rob_full_,
      p_b_flush_, p_b_wakeup_;
  std::vector<cov::PointId> p_b_rename_bank_;  // physical-register banks
  std::vector<cov::PointId> p_b_rob_window_;   // occupancy quartiles
  std::vector<cov::PointId> p_b_pair_;         // dual-issue pair classes

  // ---- cross / sequence instrumentation -------------------------------------
  // Per-instruction event record used to evaluate cross conditions; mirrors
  // the pipeline-state terms that appear in real RTL condition expressions.
  struct StepEvents {
    bool is_load = false, is_store = false, is_amo = false, is_lrsc = false,
         is_csr = false, is_muldiv = false, is_div = false, is_branch = false,
         is_fencei = false, is_jump = false;
    bool taken = false, taken_backward = false, mispredict = false;
    bool icache_miss = false, dcache_miss = false, dcache_hit_dirty = false;
    bool dcache_access = false, dcache_evict_valid = false,
         dcache_evict_dirty = false;
    bool trap = false;
    riscv::Exception cause = riscv::Exception::kNone;
    riscv::Priv priv = riscv::Priv::kMachine;  // privilege at issue
    bool has_mem_addr = false;
    std::uint64_t mem_addr = 0;
    bool csr_write = false;
    std::uint16_t csr_addr = 0;
    bool store_hits_reservation = false;  // store overlapped the LR address
    bool sc_success = false;
  };
  void evaluate_cross_units();

  StepEvents ev_;       // current instruction
  StepEvents prev_ev_;  // previous instruction
  std::size_t cur_op_index_ = 0;  // decoded opcode index (kNumOpcodes = invalid)
  std::uint64_t mtvec_reset_value_ = 0;

  // Select-chain accounting: the opcode-indexed comparator chains
  // (decode.sel.*, cross.{user,super}.op.*, cross.{user,super}.<class>)
  // are never evaluated comparator by comparator. Exactly one comparator of
  // a chain is true per instruction, so per-run opcode/privilege histograms
  // fold into the DB in one pass (fold_deferred_chains()) with the same
  // counts and stand-alone bins. The +1 slot is the invalid decode.
  std::uint64_t chain_steps_ = 0;
  std::vector<std::uint64_t> op_count_;       // [kNumOpcodes + 1]
  std::vector<std::uint64_t> op_priv_count_;  // [2][kNumOpcodes + 1]
  std::array<std::uint64_t, 16> priv_class_count_{};  // [2 priv][8 class]

  // Privilege x instruction-class crosses (deep: need a privilege
  // transition followed by the specific class).
  std::vector<cov::PointId> p_cross_priv_class_;  // [2 priv][8 class]
  // Privilege x opcode select chain (depth 2): the decode comparators are
  // replicated per privilege domain in the real RTL's privilege-gated
  // datapaths; sustained U/S-mode execution of the whole ISA is required to
  // close these — the dominant uncovered mass in a 24 h RocketCore campaign.
  std::vector<cov::PointId> p_cross_op_priv_;  // [2 priv][kNumOpcodes]
  // Exception cause x origin privilege (evaluated in the trap unit).
  std::vector<cov::PointId> p_cross_cause_priv_;  // [7 cause][2 priv]
  // Sequence pairs over consecutive instructions.
  std::vector<cov::PointId> p_seq_;
  // Cache/memory state crosses.
  std::vector<cov::PointId> p_cache_cross_;
  // Per-CSR write-performed points.
  std::vector<cov::PointId> p_csr_write_addr_;
  std::vector<std::uint16_t> csr_write_addrs_;
  // Mul/div operand crosses.
  std::vector<cov::PointId> p_md_cross_;
  // TLB unit: consulted only when Sv39 is live (satp.MODE==8 outside
  // M-mode — requires a satp write plus an mret/sret transition first).
  // Wired to the real TLB/walker: lookup, hit, superpage leaf, store
  // permission path, ASID bits, refill walk.
  std::vector<cov::PointId> p_tlb_;
};

}  // namespace chatfuzz::rtl
