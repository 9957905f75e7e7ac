// Out-of-order DUT model (the second backend behind the DutCore seam): a
// 2-wide superscalar core with register renaming onto a physical register
// file, a reorder buffer, an LSU with a store queue + byte-wise
// store-to-load forwarding, and branch speculation with squash-on-mispredict.
//
// Architecturally it retires the exact same commit stream as the golden
// model (and the bug-free in-order core): records leave the ROB in program
// order, stores drain to memory at commit, and every serializing op (CSR,
// trap-return, fences, AMO/LR-SC, illegal decode) executes at the ROB head
// against committed state. What is genuinely out of order is the execution
// of ALU/branch/load/store ops through the PRF — which is exactly the
// machinery the three `ooo_*` bug injections in config.h corrupt, so their
// mismatches are real memory-ordering escapes, not trace artifacts.
//
// Two whole-run serial fallbacks keep the privileged surface bit-exact
// without modeling a speculative MMU or interrupt shadow:
//  - plat.clint_enabled: every instruction steps architecturally (interrupt
//    delivery points match the golden model cycle-for-cycle);
//  - translation_active(): Sv39 fetch/loads/stores walk page tables against
//    committed memory, so while satp selects Sv39 below M the core steps
//    architecturally too. Translation state only changes via serializing
//    ops, so the mode check at the top of the run loop is stable.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

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

class OooCore final : public DutCore {
 public:
  /// Points (the ooo.* groups) are registered into `db` at construction;
  /// the DB must outlive the core.
  OooCore(const CoreConfig& cfg, cov::CoverageDB& db, sim::Platform plat = {});

  void reset(std::span<const std::uint32_t> program) override;
  sim::RunResult run() override;

  bool stopped() const override { return stopped_; }
  std::uint64_t pc() const override { return pc_; }
  /// Committed architectural register value (reads through the retirement
  /// rename table).
  std::uint64_t reg(unsigned i) const override {
    return prf_[rrat_[i & 31]];
  }
  riscv::Priv priv() const override { return priv_; }
  std::uint64_t cycles() const override { return cycles_; }
  std::uint64_t csr_value(std::uint16_t addr) const override {
    std::uint64_t v = 0;
    csr_read(addr, v, riscv::Priv::kMachine);
    return v;
  }
  const sim::Trace& trace() const override { return trace_; }
  const sim::Memory& memory() const override { return mem_; }
  cov::CtrlRegCoverage& ctrl_cov() override { return ctrl_cov_; }
  const CoreConfig& config() const override { return cfg_; }

  /// The multi-metric suite instruments the in-order backend only; in a
  /// multi-DUT stack it attaches to the primary DUT (see sim_worker.cpp).
  void attach_metrics(cov::MetricSuite*) override {}
  void set_reg_seed(std::uint64_t seed) override { plat_.reg_seed = seed; }
  void set_sink(sim::CommitSink* sink) override { sink_ = sink; }
  void set_bbv(riscv::BbvRecorder* bbv) override { bbv_ = bbv; }

  obs::SimCounters take_obs_counters() override {
    obs::SimCounters c = obs_;
    obs_ = {};
    return c;
  }

  // Microarchitectural probes for the ooo unit tests.
  std::size_t rob_occupancy() const { return rob_count_; }
  std::size_t sq_occupancy() const { return sq_count_; }
  std::size_t free_pregs() const { return free_.size(); }
  /// Rename bookkeeping invariants: the retirement map, the free list and
  /// the in-flight destinations partition the physical register file
  /// exactly, and the speculative RAT equals the youngest in-flight mapping
  /// (falling back to the retirement map). Always true with the ooo_* bug
  /// injections off; the missing-squash bug deliberately breaks the
  /// partition (a zombie's register is freed while its write is pending).
  bool rename_invariants_ok() const;

 private:
  // ---- ROB / rename / LSU structures ---------------------------------------
  enum class EKind : std::uint8_t {
    kAlu,     // ALU/M ops incl. lui/auipc (executes in the OOO window)
    kLoad,
    kStore,
    kBranch,  // conditional branch
    kJal,
    kJalr,
    kSerial,  // executes architecturally at the ROB head (CSR, system, A-ext)
    kEscape,  // fetch left RAM: stop marker, commits no record
    kEnd,     // fetched a zero word: stop marker, commits no record
  };
  struct RobEntry {
    std::uint64_t seq = 0;
    EKind kind = EKind::kAlu;
    riscv::Decoded d{};
    std::uint64_t pc = 0;
    std::uint32_t raw = 0;
    bool icache_hit = false;
    // Front-end predicted next pc (branch direction / jal target); the
    // actual next pc is filled at execute.
    std::uint64_t pred_next = 0;
    std::uint64_t next_pc = 0;
    // Rename state. prev_pdst is the speculative-RAT mapping this entry
    // displaced — squash restores it (exact LIFO inverse of rename).
    bool has_rd = false;
    bool use_rs1 = false, use_rs2 = false;
    std::uint8_t pdst = 0, prev_pdst = 0;
    std::uint8_t psrc1 = 0, psrc2 = 0;
    // Execution state.
    bool issued = false;     // handed to a latency unit (load / mul / div)
    bool completed = false;
    riscv::Exception exc = riscv::Exception::kNone;
    std::uint64_t tval = 0;
    // Commit-record payload (loads/stores fill the mem_* fields).
    bool has_mem = false;
    std::uint64_t mem_addr = 0, mem_value = 0;
    std::uint8_t mem_size = 0;
    std::uint64_t rd_value = 0;
    int sq_slot = -1;  // ring index of this store's queue entry
  };
  struct SqEntry {
    std::uint64_t seq = 0;
    std::uint64_t pa = 0;
    unsigned size = 0;
    std::uint64_t data = 0;  // store bits, masked to size
    bool resolved = false;   // address+data known (store executed)
    bool drained = false;    // bug site ooo_early_store_drain wrote memory
  };
  // Latency unit (loads, mul/div): the physical-register write happens at
  // done_cycle, not at issue — which is what makes the missing-squash bug's
  // zombie completions able to corrupt a re-allocated register.
  struct Inflight {
    std::uint64_t seq = 0;
    std::uint64_t done_cycle = 0;
    bool write_prf = false;
    std::uint8_t pdst = 0;
    std::uint64_t value = 0;
    bool zombie = false;  // squashed but kept alive (ooo_missing_squash)
  };

  bool cc(cov::PointId id, bool v) {
    db_.hit(id, v);
    return v;
  }
  void register_points();

  // ---- pipeline stages (one call each per cycle, commit-first order) -------
  void cycle_once();
  void do_complete();
  void do_commit();
  void do_execute();
  void do_fetch();
  /// Execute one entry whose operands are ready; returns false if it had to
  /// wait (loads blocked on unresolved older stores).
  bool execute_entry(RobEntry& e);
  void execute_load(RobEntry& e);
  void execute_store(RobEntry& e);
  /// Remove every ROB entry younger than `seq` (rename undo walk, store
  /// queue truncation, in-flight cancellation / zombie conversion) and
  /// recompute the fetch stalls.
  void squash_younger(std::uint64_t seq);
  void recompute_stalls();
  void drain_store(RobEntry& e);
  void emit_record(const sim::CommitRecord& rec, bool icache_hit);

  // ---- ROB / SQ ring helpers ----------------------------------------------
  RobEntry& rob_at(std::size_t i) { return rob_[(rob_head_ + i) % rob_.size()]; }
  SqEntry& sq_at(std::size_t i) { return sq_[(sq_head_ + i) % sq_.size()]; }
  std::uint8_t alloc_preg();
  void push_entry(RobEntry e);

  // ---- architectural (serial) execution ------------------------------------
  // Transcribed from the in-order model's trap/CSR/MMU units (minus its
  // legacy bug injections — this backend carries only the ooo_* classes):
  // the privileged surface must stay bit-exact against the golden model.
  std::uint64_t areg(unsigned r) const { return prf_[rrat_[r & 31]]; }
  void arch_write_rd(sim::CommitRecord& rec, std::uint8_t rd,
                     std::uint64_t value);
  void raise(sim::CommitRecord& rec, riscv::Exception cause,
             std::uint64_t tval);
  bool csr_read(std::uint16_t addr, std::uint64_t& value,
                riscv::Priv view) const;
  bool csr_write(std::uint16_t addr, std::uint64_t value);
  bool translation_active() const;
  enum class MemAccess { kFetch, kLoad, kStore };
  riscv::Exception translate(std::uint64_t vaddr, MemAccess kind,
                             std::uint64_t& paddr);
  riscv::Exception leaf_permissions(std::uint64_t pte, MemAccess kind) const;
  void flush_tlb();
  void service_interrupts();
  /// One full architectural step (fetch + execute + commit): the serial-mode
  /// path for clint/Sv39 runs, mirroring the in-order core's step() shape.
  void serial_step();
  /// Architectural execute for a serial-class entry at the ROB head (the
  /// instruction is already fetched/decoded); advances pc_ itself.
  void arch_execute(const riscv::Decoded& d, sim::CommitRecord& rec);

  CoreConfig cfg_;
  cov::CoverageDB& db_;
  sim::Platform plat_;
  sim::Memory mem_;
  sim::ClintState clint_;
  ICache icache_;
  DCache dcache_;
  Predictor predictor_;
  cov::CtrlRegCoverage ctrl_cov_;
  riscv::BbvRecorder* bbv_ = nullptr;

  // Telemetry tallies (see take_obs_counters); never read architecturally.
  obs::SimCounters obs_;

  // Architectural state. pc_ is the committed pc (next instruction to
  // retire); the front end runs ahead on fetch_pc_.
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
  struct TlbEntry {
    bool valid = false;
    std::uint64_t vpn = 0;
    std::uint64_t pte = 0;
    std::uint8_t level = 0;
  };
  std::array<TlbEntry, 16> tlb_{};

  // Rename state: speculative RAT (fetch-side), retirement RAT
  // (committed-side), physical register file + ready bits, free stack.
  std::array<std::uint8_t, 32> rat_{};
  std::array<std::uint8_t, 32> rrat_{};
  std::vector<std::uint64_t> prf_;
  std::vector<std::uint8_t> prf_ready_;
  std::vector<std::uint8_t> free_;  // LIFO: squash pushes back exactly

  // ROB / SQ rings + latency units.
  std::vector<RobEntry> rob_;
  std::size_t rob_head_ = 0, rob_count_ = 0;
  std::vector<SqEntry> sq_;
  std::size_t sq_head_ = 0, sq_count_ = 0;
  std::vector<Inflight> inflight_;
  std::uint64_t next_seq_ = 0;

  // Front end.
  std::uint64_t fetch_pc_ = 0;
  bool stall_serial_ = false;   // serial-class entry waiting at/for the head
  bool stall_jalr_ = false;     // jalr target unresolved
  bool stall_marker_ = false;   // stop marker dispatched
  std::uint64_t cycles_ = 0;
  std::uint64_t last_commit_cycle_ = 0;
  std::uint64_t last_ctrl_pack_ = 0;

  // Run state.
  sim::Trace trace_;
  sim::CommitSink* sink_ = nullptr;
  bool stopped_ = true;
  sim::StopReason stop_reason_ = sim::StopReason::kStepLimit;
  std::uint64_t steps_ = 0;

  // ---- ooo.* condition points ----------------------------------------------
  cov::PointId p_rename_alloc_, p_rename_stall_freelist_, p_rename_src_inflight_;
  cov::PointId p_rob_full_, p_rob_commit2_, p_rob_head_wait_;
  cov::PointId p_lsu_fwd_, p_lsu_alias_, p_lsu_sq_full_, p_lsu_wait_store_,
      p_lsu_drain_;
  cov::PointId p_squash_branch_, p_squash_inflight_load_, p_squash_store_,
      p_squash_trap_, p_squash_selfmod_;
};

}  // namespace chatfuzz::rtl
