// The DUT seam of the campaign engine: every simulated core backend — the
// in-order RtlCore and the out-of-order OooCore — implements this interface,
// and the multi-DUT campaign mode drives one golden ISS against any list of
// DutCore configs per generated test. The surface is exactly what the
// campaign/worker/bench layers already used on RtlCore; tests that poke
// backend-specific state keep constructing the concrete classes.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "coverage/cover.h"
#include "coverage/multi.h"
#include "isasim/memory.h"
#include "obs/sim_counters.h"
#include "isasim/platform.h"
#include "isasim/trace.h"
#include "riscv/bbv.h"
#include "riscv/instr.h"
#include "rtlsim/config.h"

namespace chatfuzz::rtl {

class DutCore {
 public:
  virtual ~DutCore() = default;

  /// Reset architectural + microarchitectural state and load the program.
  /// Coverage in the shared DB is NOT reset (campaign-cumulative).
  virtual void reset(std::span<const std::uint32_t> program) = 0;
  virtual sim::RunResult run() = 0;

  virtual bool stopped() const = 0;
  virtual std::uint64_t pc() const = 0;
  virtual std::uint64_t reg(unsigned i) const = 0;
  virtual riscv::Priv priv() const = 0;
  virtual std::uint64_t cycles() const = 0;
  /// Architectural CSR value as an M-mode read would see it; 0 for
  /// unimplemented addresses.
  virtual std::uint64_t csr_value(std::uint16_t addr) const = 0;
  virtual const sim::Trace& trace() const = 0;
  virtual const sim::Memory& memory() const = 0;
  virtual cov::CtrlRegCoverage& ctrl_cov() = 0;
  virtual const CoreConfig& config() const = 0;

  /// Attach the multi-metric suite (nullptr detaches). Backends without
  /// suite instrumentation accept and ignore the pointer.
  virtual void attach_metrics(cov::MetricSuite* metrics) = 0;
  virtual void set_reg_seed(std::uint64_t seed) = 0;
  virtual void set_sink(sim::CommitSink* sink) = 0;
  virtual void set_bbv(riscv::BbvRecorder* bbv) = 0;
  // No-op; its only caller is the frozen benchmark driver perfbench/driver.cpp.
  void set_superblocks(bool) {}

  /// Telemetry counters (TLB hit rate) accumulated since the last take;
  /// taking zeroes them. Observation-only — default zero for backends
  /// without instrumentation.
  virtual obs::SimCounters take_obs_counters() { return {}; }
};

/// Construct the backend selected by `cfg.out_of_order`. Registers the
/// backend's condition points into `db` — callers that fold coverage across
/// processes must build their registrar DBs with the same config list in
/// the same order (see campaign.cpp).
std::unique_ptr<DutCore> make_dut(const CoreConfig& cfg, cov::CoverageDB& db,
                                  sim::Platform plat = {});

/// Parse a `--dut` list entry ("inorder"/"rocket", "boom", "ooo") into a
/// CoreConfig preset; returns false on an unknown name.
bool dut_preset(const std::string& name, CoreConfig& out);

}  // namespace chatfuzz::rtl
