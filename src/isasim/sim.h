// Golden-model ISA simulator ("Spike" role in the paper): a functional
// RV64IMA+Zicsr interpreter with M/S/U privilege, trap delegation, Sv39
// address translation, precise synchronous exceptions, and a commit trace.
// It is intentionally implemented independently of rtlsim — differential
// testing needs two implementations.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "isasim/memory.h"
#include "isasim/platform.h"
#include "isasim/trace.h"
#include "obs/sim_counters.h"
#include "riscv/instr.h"

namespace chatfuzz::sim {

class IsaSim {
 public:
  explicit IsaSim(Platform plat = {});

  /// Reset architectural state and load `program` at ram_base.
  void reset(std::span<const std::uint32_t> program);

  /// Run to completion (bounded by Platform::max_steps); returns the trace.
  RunResult run();

  /// Execute a single instruction; appends to the internal trace and returns
  /// the committed record, or std::nullopt if the run has stopped.
  std::optional<CommitRecord> step();

  bool stopped() const { return stopped_; }
  StopReason stop_reason() const { return stop_reason_; }

  // ---- state inspection (tests, examples) ---------------------------------
  std::uint64_t pc() const { return pc_; }
  std::uint64_t reg(unsigned i) const { return regs_[i & 31]; }
  riscv::Priv priv() const { return priv_; }
  std::uint64_t csr_value(std::uint16_t addr) const;
  const Memory& memory() const { return mem_; }
  /// Mutable memory access flushes the TLB: external writes may have
  /// edited page tables, so assume any byte may have been a PTE. The flush
  /// happens at accessor time — write through the freshly returned
  /// reference; do NOT keep a stored Memory& across run()/step() calls and
  /// write page tables through it later, or the next access may use a
  /// stale translation.
  Memory& memory() {
    flush_tlb();
    return mem_;
  }
  const Trace& trace() const { return trace_; }

  // No-op; its only caller is the frozen benchmark driver perfbench/driver.cpp.
  void set_superblocks(bool) {}

  /// Change the initial-register-file seed used by subsequent reset() calls.
  /// Both sides of a co-simulation must be given the same seed.
  void set_reg_seed(std::uint64_t seed) { plat_.reg_seed = seed; }

  /// Stream commits to `sink` instead of the internal trace (nullptr
  /// restores trace collection). While a sink is attached, trace() stays
  /// empty and run() returns an empty RunResult::trace — the streaming path
  /// never materializes one.
  void set_sink(CommitSink* sink) { sink_ = sink; }

  /// Telemetry counters accumulated since the last take (TLB hit rate);
  /// taking zeroes them. Observation-only.
  obs::SimCounters take_obs_counters() {
    obs::SimCounters c;
    c.tlb_hits = obs_tlb_hits_;
    c.tlb_misses = obs_tlb_misses_;
    obs_tlb_hits_ = obs_tlb_misses_ = 0;
    return c;
  }

 private:
  struct CsrFile {
    std::uint64_t mstatus = 0;
    std::uint64_t medeleg = 0, mideleg = 0;
    std::uint64_t mie = 0, mip = 0;
    std::uint64_t mtvec = 0, mscratch = 0, mepc = 0, mcause = 0, mtval = 0;
    std::uint64_t mcounteren = ~0ull, scounteren = ~0ull;
    std::uint64_t stvec = 0, sscratch = 0, sepc = 0, scause = 0, stval = 0;
    std::uint64_t satp = 0;
    std::uint64_t cycle = 0, instret = 0;
  };

  // CSR access returns false (→ illegal instruction) on unknown address,
  // insufficient privilege, or write to a read-only CSR.
  bool csr_read(std::uint16_t addr, std::uint64_t& value,
                riscv::Priv view) const;
  bool csr_write(std::uint16_t addr, std::uint64_t value);

  /// Memory access classes for Sv39 translation.
  enum class Access { kFetch, kLoad, kStore };

  /// Direct-mapped TLB entry: one cached leaf PTE per 4K virtual page
  /// (superpages occupy one entry per accessed page).
  struct TlbEntry {
    bool valid = false;
    std::uint64_t vpn = 0;   // full 27-bit virtual page number
    std::uint64_t pte = 0;   // cached leaf PTE
    std::uint8_t level = 0;  // 0 = 4K, 1 = 2M, 2 = 1G leaf
  };
  static constexpr std::size_t kTlbEntries = 16;

  /// Sv39 is in effect: satp.MODE==8 and the hart is below M.
  bool translation_active() const;
  /// Translate `vaddr` for `access`; returns kNone and fills `paddr`, or
  /// the page-fault cause. Walks the tables through the TLB; permission
  /// checks run on every access (hit or refill) against current privilege.
  riscv::Exception translate(std::uint64_t vaddr, Access access,
                             std::uint64_t& paddr);
  riscv::Exception check_leaf(std::uint64_t pte, Access access) const;
  void flush_tlb();

  void raise(CommitRecord& rec, riscv::Exception cause, std::uint64_t tval);
  void write_rd(CommitRecord& rec, std::uint8_t rd, std::uint64_t value);
  void execute(const riscv::Decoded& d, CommitRecord& rec);

  /// Poll the CLINT and enter a pending M-mode interrupt if enabled.
  void service_interrupts();

  Platform plat_;
  Memory mem_;
  ClintState clint_;
  std::array<std::uint64_t, 32> regs_{};
  std::uint64_t pc_ = 0;
  riscv::Priv priv_ = riscv::Priv::kMachine;
  CsrFile csrs_;
  std::array<TlbEntry, kTlbEntries> tlb_{};
  std::optional<std::uint64_t> reservation_;  // LR/SC reservation address
  std::uint64_t program_end_ = 0;

  // Telemetry tallies (see take_obs_counters); never read architecturally.
  std::uint64_t obs_tlb_hits_ = 0;
  std::uint64_t obs_tlb_misses_ = 0;

  Trace trace_;
  CommitSink* sink_ = nullptr;
  bool stopped_ = true;
  StopReason stop_reason_ = StopReason::kStepLimit;
  std::uint64_t steps_ = 0;
};

}  // namespace chatfuzz::sim
