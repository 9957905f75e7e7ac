// Self-modifying code: a store over an instruction must reach the next
// fetch of that address in every coherent model — the golden IsaSim, the
// in-order RtlCore with its stale-I$ injection off, and the OooCore (whose
// commit squashes in-flight fetches a store overlaps) — whether the store
// lands ahead of the pc or over code that already ran, with or without
// fence.i, bare or under Sv39. RtlCore's Bug1 injection (bugs.stale_icache)
// is the deliberate exception: it runs the stale bytes until fence.i, and
// lockstep must flag the divergence.
#include <vector>

#include <gtest/gtest.h>

#include "coverage/cover.h"
#include "isasim/sim.h"
#include "mismatch/detect.h"
#include "mismatch/lockstep.h"
#include "riscv/builder.h"
#include "riscv/csr.h"
#include "riscv/encode.h"
#include "rtlsim/dut.h"

namespace chatfuzz {
namespace {

using Program = std::vector<std::uint32_t>;
using riscv::Opcode;
using riscv::ProgramBuilder;
using sim::IsaSim;

const std::uint32_t kOldWord = riscv::enc_i(Opcode::kAddi, 5, 0, 1);
const std::uint32_t kNewWord = riscv::enc_i(Opcode::kAddi, 5, 0, 99);

/// Sv39 identity map of RAM (S-mode RWX gigapage) and a drop to S, so the
/// program body runs with translated fetches and stores. Clobbers x5-x7.
void enter_sv39(ProgramBuilder& b) {
  namespace pv = riscv::sv39;
  const auto rwx = pv::kPteV | pv::kPteR | pv::kPteW | pv::kPteX |
                   pv::kPteA | pv::kPteD;
  b.sv39_identity_map(b.base_pc(), b.base_pc() + 0xff000,
                      static_cast<std::uint32_t>(rwx));
  b.enter_priv(1);
}

struct Patch {
  int before = 0, after = 0;  // filler instructions around the slot
  bool fence_i = false;       // fence.i after the patching store
  bool sv39 = false;          // run the loop in S-mode under Sv39
  bool cross_page = false;    // the slot is the first word of a page
};

/// A loop whose first pass runs kOldWord at a slot, then stores kNewWord
/// over the slot and runs the span again. Coherent models end with
/// x5 == 99 and the pass counter x10 == 2.
Program patch_loop(const Patch& p) {
  ProgramBuilder b;
  if (p.sv39) enter_sv39(b);
  b.li(1, static_cast<std::int32_t>(kNewWord));
  b.addi(10, 0, 0);  // pass counter
  b.addi(11, 0, 2);
  if (p.cross_page) {
    b.jal_to(0, "again");
    while ((b.pc() + 4 * (p.before + 1)) % 0x1000 != 0) b.addi(0, 0, 0);
  }
  b.label("again");
  const std::uint64_t anchor = b.pc();
  b.auipc(2, 0);
  for (int i = 0; i < p.before; ++i) b.addi(6, 6, 1);
  const std::uint64_t slot = b.pc();
  b.raw(kOldWord);
  for (int i = 0; i < p.after; ++i) b.addi(7, 7, 1);
  b.addi(10, 10, 1);
  b.branch_to(Opcode::kBeq, 10, 11, "done");
  b.sw(2, 1, static_cast<std::int32_t>(slot - anchor));
  if (p.fence_i) b.fence_i();
  b.jal_to(0, "again");
  b.label("done");
  b.wfi();
  return b.seal();
}

/// A store over the next instruction, which has not run yet. The store and
/// the slot share one 32-byte I$ line, so the line is already filled when
/// the store executes. Coherent models end with x5 == 99.
Program forward_patch() {
  ProgramBuilder b;
  b.li(1, static_cast<std::int32_t>(kNewWord));
  b.auipc(2, 0);
  const std::uint64_t anchor = b.pc() - 4;
  while (b.pc() % 32 != 16) b.addi(0, 0, 0);
  const std::uint64_t slot = b.pc() + 4;
  b.sw(2, 1, static_cast<std::int32_t>(slot - anchor));
  b.raw(kOldWord);
  b.wfi();
  return b.seal();
}

struct Cosim {
  mismatch::Report rep;
  std::uint64_t dut_x5 = 0;
};

/// Stream `prog` through the DUT against the golden ISS.
Cosim cosim(const rtl::CoreConfig& cfg, const Program& prog,
            const sim::Platform& plat, cov::CoverageDB& db) {
  const auto dut = rtl::make_dut(cfg, db, plat);
  IsaSim golden(plat);
  mismatch::MismatchDetector det;
  det.install_default_filters();
  mismatch::LockstepComparator cmp;
  Cosim out;
  golden.reset(prog);
  cmp.begin(det, golden, out.rep);
  dut->set_sink(&cmp);
  dut->reset(prog);
  dut->run();
  cmp.finish();
  out.dut_x5 = dut->reg(5);
  return out;
}

rtl::CoreConfig clean(rtl::CoreConfig c) {
  c.bugs = rtl::BugInjections::none();
  return c;
}

/// Every coherent DUT, on the bare platform and with the CLINT on (which
/// sends the OooCore down its whole-run serial path), must agree with the
/// golden ISS commit for commit and end with the patched x5. In patch_loop
/// that value is only written by the second pass.
void expect_coherent_duts_agree(const Program& prog) {
  for (const rtl::CoreConfig& cfg :
       {clean(rtl::CoreConfig::rocket()), clean(rtl::CoreConfig::ooo())}) {
    for (const bool clint : {false, true}) {
      sim::Platform plat;
      plat.clint_enabled = clint;
      SCOPED_TRACE(cfg.name + (clint ? " +clint" : ""));
      cov::CoverageDB db;
      const Cosim r = cosim(cfg, prog, plat, db);
      EXPECT_EQ(r.rep.raw_count, 0u);
      EXPECT_EQ(r.dut_x5, 99u);
    }
  }
}

// ---- Golden ISS ------------------------------------------------------------

void expect_iss_patched(const Program& prog) {
  IsaSim sim;
  for (int run = 0; run < 2; ++run) {  // a second reset replays the patch
    sim.reset(prog);
    sim.run();
    EXPECT_EQ(sim.reg(5), 99u) << "run " << run;
    EXPECT_EQ(sim.reg(10), 2u) << "run " << run;
  }
}

TEST(IsaSimSelfModifyingCode, SelfModifyingStoreIsHonoredOnNextFetch) {
  expect_iss_patched(patch_loop({}));
}

TEST(IsaSimSelfModifyingCode, RepeatedResetsReplayIdentically) {
  ProgramBuilder b;
  b.li(1, 0);
  b.li(2, 400);
  b.label("loop");
  b.addi(1, 1, 1);
  b.branch_to(Opcode::kBne, 1, 2, "loop");
  b.wfi();
  const Program prog = b.seal();

  IsaSim sim;
  sim.reset(prog);
  const auto r1 = sim.run();
  sim.reset(prog);
  const auto r2 = sim.run();
  ASSERT_EQ(r1.trace.size(), r2.trace.size());
  EXPECT_GT(r1.trace.size(), 800u);
  for (std::size_t i = 0; i < r1.trace.size(); ++i) {
    EXPECT_EQ(r1.trace[i].pc, r2.trace[i].pc);
    EXPECT_EQ(r1.trace[i].instr, r2.trace[i].instr);
    EXPECT_EQ(r1.trace[i].rd_value, r2.trace[i].rd_value);
  }
}

TEST(IsaSimSelfModifyingCode, StoreIntoMiddleOfExecutedSpanIsHonored) {
  expect_iss_patched(patch_loop({.before = 6, .after = 6}));
}

TEST(IsaSimSelfModifyingCode, StoreToSecondPageOfCrossPageSpanIsHonored) {
  expect_iss_patched(patch_loop({.before = 8, .after = 4, .cross_page = true}));
}

TEST(IsaSimSelfModifyingCode, FenceIAfterPartialSpanOverwrite) {
  expect_iss_patched(patch_loop({.before = 4, .after = 4, .fence_i = true}));
}

TEST(IsaSimSelfModifyingCode, ExternalMemoryWriteIsVisibleToFetch) {
  // Code written through the mutable memory() accessor, not a store, must
  // be what the next fetch of that pc runs.
  ProgramBuilder b;
  b.label("top");
  b.raw(kOldWord);
  b.jal_to(0, "top");
  IsaSim sim;
  sim.reset(b.seal());
  for (int i = 0; i < 4; ++i) sim.step();  // two loop iterations
  EXPECT_EQ(sim.reg(5), 1u);
  sim.memory().write(b.base_pc(), kNewWord, 4);
  sim.step();
  EXPECT_EQ(sim.reg(5), 99u);
}

// ---- DUTs in lockstep with the golden ISS -----------------------------------

TEST(DutSelfModifyingCode, StoreOverLaterInstruction) {
  expect_coherent_duts_agree(forward_patch());
  // The OooCore has already fetched the slot when the store retires, so
  // the patch lands through its self-modifying-code squash and refetch.
  cov::CoverageDB db;
  cosim(clean(rtl::CoreConfig::ooo()), forward_patch(), {}, db);
  std::size_t i = 0;
  while (i < db.num_points() &&
         db.point_name(static_cast<cov::PointId>(i)) != "ooo.squash.selfmod") {
    ++i;
  }
  ASSERT_LT(i, db.num_points());
  EXPECT_GT(db.bin_hits(2 * i + 1), 0u);
}

TEST(DutSelfModifyingCode, StoreIntoExecutedSpan) {
  expect_coherent_duts_agree(patch_loop({}));
  expect_coherent_duts_agree(patch_loop({.before = 6, .after = 6}));
  expect_coherent_duts_agree(
      patch_loop({.before = 8, .after = 4, .cross_page = true}));
}

TEST(DutSelfModifyingCode, StoreIntoExecutedSpanThenFenceI) {
  expect_coherent_duts_agree(
      patch_loop({.before = 4, .after = 4, .fence_i = true}));
}

TEST(DutSelfModifyingCode, StoreIntoExecutedSpanUnderSv39) {
  expect_coherent_duts_agree(
      patch_loop({.before = 4, .after = 4, .sv39 = true}));
  expect_coherent_duts_agree(
      patch_loop({.before = 4, .after = 4, .fence_i = true, .sv39 = true}));
}

TEST(DutSelfModifyingCode, StaleICacheRunsOldBytesUntilFenceI) {
  rtl::CoreConfig cfg = clean(rtl::CoreConfig::rocket());
  cfg.bugs.stale_icache = true;
  for (const Program& prog :
       {forward_patch(), patch_loop({.before = 4, .after = 4})}) {
    cov::CoverageDB db;
    const Cosim r = cosim(cfg, prog, {}, db);
    ASSERT_FALSE(r.rep.mismatches.empty());
    const mismatch::Mismatch& m = r.rep.mismatches.front();
    EXPECT_EQ(m.kind, mismatch::Kind::kStaleInstr);
    EXPECT_EQ(m.finding, mismatch::Finding::kBug1CacheCoherency);
    EXPECT_EQ(m.dut.pc, m.golden.pc);
    EXPECT_EQ(m.dut.instr, kOldWord);
    EXPECT_EQ(m.golden.instr, kNewWord);
    EXPECT_EQ(r.dut_x5, 1u);
  }
  // fence.i drops the stale line, so the same patch then agrees.
  cov::CoverageDB db;
  const Cosim r =
      cosim(cfg, patch_loop({.before = 4, .after = 4, .fence_i = true}), {},
            db);
  EXPECT_EQ(r.rep.raw_count, 0u);
  EXPECT_EQ(r.dut_x5, 99u);
}

}  // namespace
}  // namespace chatfuzz
