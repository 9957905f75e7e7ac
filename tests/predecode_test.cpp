// Predecode-cache semantics (riscv/predecode.h): cached decodes must be
// indistinguishable from calling riscv::decode() on the bytes currently in
// memory — across refills, collisions, stores over code, fence.i, and
// external memory writes.
#include <vector>

#include <gtest/gtest.h>

#include "isasim/sim.h"
#include "riscv/builder.h"
#include "riscv/decode.h"
#include "riscv/encode.h"
#include "riscv/predecode.h"
#include "util/rng.h"

using chatfuzz::Rng;
using chatfuzz::riscv::Decoded;
using chatfuzz::riscv::Opcode;
using chatfuzz::riscv::PredecodeCache;
using chatfuzz::riscv::ProgramBuilder;
using chatfuzz::sim::IsaSim;

namespace {

void expect_same_decode(const Decoded& a, const Decoded& b) {
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.rd, b.rd);
  EXPECT_EQ(a.rs1, b.rs1);
  EXPECT_EQ(a.rs2, b.rs2);
  EXPECT_EQ(a.imm, b.imm);
  EXPECT_EQ(a.csr, b.csr);
  EXPECT_EQ(a.raw, b.raw);
}

}  // namespace

TEST(PredecodeCache, LookupMatchesDecodeOnRandomWords) {
  PredecodeCache cache;
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    const auto raw = static_cast<std::uint32_t>(rng.next_u64());
    const std::uint64_t pc = 0x8000'0000ull + (rng.next_u64() % 4096) * 4;
    expect_same_decode(cache.lookup(pc, raw), chatfuzz::riscv::decode(raw));
  }
}

TEST(PredecodeCache, HitServesCachedEntryAndTagChecksWord) {
  PredecodeCache cache;
  const std::uint64_t pc = 0x8000'0100ull;
  const std::uint32_t addi = chatfuzz::riscv::enc_i(Opcode::kAddi, 1, 2, 42);
  const std::uint32_t xori = chatfuzz::riscv::enc_i(Opcode::kXori, 3, 4, -1);
  EXPECT_EQ(cache.lookup(pc, addi).op, Opcode::kAddi);
  const PredecodeCache::Entry* e = cache.find(pc);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->raw, addi);
  EXPECT_EQ(e->d.op, Opcode::kAddi);
  // Same pc, different bytes (stale-I$-style fetch): must re-decode.
  EXPECT_EQ(cache.lookup(pc, xori).op, Opcode::kXori);
}

TEST(PredecodeCache, DirectMappedCollisionEvicts) {
  PredecodeCache cache(4);  // tiny: pcs 16 bytes apart collide
  const std::uint64_t pc_a = 0x8000'0000ull;
  const std::uint64_t pc_b = pc_a + 4 * 4;  // same index, different tag
  const std::uint32_t addi = chatfuzz::riscv::enc_i(Opcode::kAddi, 1, 0, 1);
  const std::uint32_t andi = chatfuzz::riscv::enc_i(Opcode::kAndi, 2, 0, 3);
  cache.insert(pc_a, addi);
  ASSERT_NE(cache.find(pc_a), nullptr);
  cache.insert(pc_b, andi);
  EXPECT_EQ(cache.find(pc_a), nullptr) << "collision must evict";
  const PredecodeCache::Entry* e = cache.find(pc_b);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->d.op, Opcode::kAndi);
}

TEST(PredecodeCache, StoreInvalidatesOverlappingWords) {
  PredecodeCache cache;
  const std::uint64_t pc = 0x8000'0200ull;
  cache.insert(pc, chatfuzz::riscv::enc_i(Opcode::kAddi, 1, 0, 1));
  cache.insert(pc + 4, chatfuzz::riscv::enc_i(Opcode::kAddi, 2, 0, 2));
  // Unaligned 4-byte store straddling both words.
  cache.invalidate(pc + 2, 4);
  EXPECT_EQ(cache.find(pc), nullptr);
  EXPECT_EQ(cache.find(pc + 4), nullptr);
  // A byte store touches exactly one word.
  cache.insert(pc, chatfuzz::riscv::enc_i(Opcode::kAddi, 1, 0, 1));
  cache.insert(pc + 4, chatfuzz::riscv::enc_i(Opcode::kAddi, 2, 0, 2));
  cache.invalidate(pc + 5, 1);
  EXPECT_NE(cache.find(pc), nullptr);
  EXPECT_EQ(cache.find(pc + 4), nullptr);
}

TEST(PredecodeCache, InvalidateAtAddressSpaceTopDoesNotWrap) {
  // The simulators' in_ram check wraps at 2^64, so stores to the top few
  // bytes of the address space do reach the invalidation path. The word
  // walk must terminate (regression: a `pc <= last` loop wrapped around
  // and spun for ~2^62 iterations) and still clear the covered words.
  PredecodeCache cache;
  const std::uint64_t top = ~7ull;  // 0xFFFF...FFF8
  cache.insert(top, chatfuzz::riscv::enc_i(Opcode::kAddi, 1, 0, 1));
  cache.insert(top + 4, chatfuzz::riscv::enc_i(Opcode::kAddi, 2, 0, 2));
  cache.invalidate(top, 8);
  EXPECT_EQ(cache.find(top), nullptr);
  EXPECT_EQ(cache.find(top + 4), nullptr);
}

TEST(PredecodeCache, FlushDropsEverything) {
  PredecodeCache cache;
  cache.insert(0x8000'0000ull, chatfuzz::riscv::enc_i(Opcode::kAddi, 1, 0, 1));
  cache.flush();
  EXPECT_EQ(cache.find(0x8000'0000ull), nullptr);
}

// ---- IsaSim integration ----------------------------------------------------

TEST(PredecodeIsaSim, SelfModifyingStoreIsHonoredOnNextFetch) {
  // Execute `addi x5, x0, 1` once (so its decode is cached), patch it in
  // place to `addi x5, x0, 99` with a store, loop back and execute the same
  // pc again. A predecode cache without store invalidation would replay the
  // stale decode and leave x5 == 1.
  const std::uint64_t base = 0x8000'0000ull;
  const std::uint32_t patched =
      chatfuzz::riscv::enc_i(Opcode::kAddi, 5, 0, 99);
  ProgramBuilder b(base);
  b.li(1, static_cast<std::int32_t>(patched));  // x1 = new instruction word
  const std::uint64_t anchor = b.pc();
  b.auipc(2, 0);                                // x2 = anchor
  b.addi(10, 0, 0);                             // x10 = pass counter
  const std::uint64_t target = b.pc();
  b.label("again");
  b.raw(chatfuzz::riscv::enc_i(Opcode::kAddi, 5, 0, 1));  // the target slot
  b.addi(10, 10, 1);
  b.addi(11, 0, 2);
  b.branch_to(Opcode::kBeq, 10, 11, "done");
  b.sw(2, 1, static_cast<std::int32_t>(target - anchor));  // patch the slot
  b.jal_to(0, "again");
  b.label("done");
  b.raw(chatfuzz::riscv::enc_sys(Opcode::kWfi));
  const std::vector<std::uint32_t> prog = b.seal();

  IsaSim sim;
  for (int run = 0; run < 2; ++run) {
    sim.reset(prog);
    sim.run();
    EXPECT_EQ(sim.reg(5), 99u) << "run " << run;
    EXPECT_EQ(sim.reg(10), 2u) << "run " << run;
  }
}

TEST(PredecodeIsaSim, RepeatedResetsReplayIdentically) {
  // A tight loop executes the same pcs thousands of times (maximum cache
  // reuse); two fresh resets must produce identical traces.
  ProgramBuilder b;
  b.li(1, 0);
  b.li(2, 400);
  b.label("loop");
  b.addi(1, 1, 1);
  b.branch_to(Opcode::kBne, 1, 2, "loop");
  b.raw(chatfuzz::riscv::enc_sys(Opcode::kWfi));
  const std::vector<std::uint32_t> prog = b.seal();

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

// ---- Self-modifying code through the dispatch loop -------------------------
//
// These drive IsaSim's run() loop over straight-line runs of ALU ops that
// execute more than once, so every word is served from the predecode cache
// on the second pass; the tests check that a store (or fence.i) over code
// already cached retires exactly the stale decodes.

TEST(PredecodeIsaSim, StoreIntoMiddleOfCachedSpanIsHonored) {
  // Pass 1 executes (and caches) a straight-line run, then a store patches
  // an instruction in the MIDDLE of the run. Pass 2 must re-decode, not
  // replay the stale slot.
  const std::uint64_t base = 0x8000'0000ull;
  const std::uint32_t patched =
      chatfuzz::riscv::enc_i(Opcode::kAddi, 5, 0, 99);
  ProgramBuilder b(base);
  b.li(1, static_cast<std::int32_t>(patched));
  const std::uint64_t anchor = b.pc();
  b.auipc(2, 0);
  b.addi(10, 0, 0);  // pass counter
  b.addi(11, 0, 2);
  b.label("again");
  for (int i = 0; i < 6; ++i) b.addi(6, 6, 1);  // span body before the slot
  const std::uint64_t slot = b.pc();
  b.raw(chatfuzz::riscv::enc_i(Opcode::kAddi, 5, 0, 1));  // mid-span slot
  for (int i = 0; i < 6; ++i) b.addi(7, 7, 1);  // span body after the slot
  b.addi(10, 10, 1);
  b.branch_to(Opcode::kBeq, 10, 11, "done");
  b.sw(2, 1, static_cast<std::int32_t>(slot - anchor));
  b.jal_to(0, "again");
  b.label("done");
  b.wfi();
  const std::vector<std::uint32_t> prog = b.seal();

  IsaSim sim;
  sim.reset(prog);
  sim.run();
  EXPECT_EQ(sim.reg(5), 99u);
  EXPECT_EQ(sim.reg(10), 2u);
}

TEST(PredecodeIsaSim, CrossPageSpanInvalidatedByStoreToSecondPage) {
  // The run starts in the last words of one 4 KiB page and continues into
  // the next. Patching the slot in the SECOND page must be honored even
  // though the run's start pc lives in the first page.
  const std::uint64_t base = 0x8000'0000ull;
  const std::uint32_t patched =
      chatfuzz::riscv::enc_i(Opcode::kAddi, 5, 0, 99);
  ProgramBuilder b(base);
  b.li(1, static_cast<std::int32_t>(patched));
  b.addi(10, 0, 0);
  b.addi(11, 0, 2);
  b.jal_to(0, "body");
  while (b.pc() < base + 0x1000 - 4 * 9) {
    b.raw(chatfuzz::riscv::enc_i(Opcode::kAddi, 0, 0, 0));  // never executed
  }
  b.label("body");
  // The anchor lives in the body so the store offset to the second-page
  // slot fits an S-type immediate.
  const std::uint64_t anchor = b.pc();
  b.auipc(2, 0);
  for (int i = 0; i < 8; ++i) b.addi(6, 6, 1);  // fills page 0's tail
  const std::uint64_t slot = b.pc();
  b.raw(chatfuzz::riscv::enc_i(Opcode::kAddi, 5, 0, 1));
  for (int i = 0; i < 4; ++i) b.addi(7, 7, 1);
  b.addi(10, 10, 1);
  b.branch_to(Opcode::kBeq, 10, 11, "done");
  b.sw(2, 1, static_cast<std::int32_t>(slot - anchor));
  b.jal_to(0, "body");
  b.label("done");
  b.wfi();
  const std::vector<std::uint32_t> prog = b.seal();
  ASSERT_EQ(slot, base + 0x1000) << "slot must be the second page's first word";

  IsaSim sim;
  sim.reset(prog);
  sim.run();
  EXPECT_EQ(sim.reg(5), 99u);
  EXPECT_EQ(sim.reg(10), 2u);
}

TEST(PredecodeIsaSim, FenceIAfterPartialSpanOverwrite) {
  // Overwrite one word of a cached run, then fence.i (which flushes the
  // whole predecode cache) before re-entering it; the re-entry must decode
  // the new bytes.
  const std::uint64_t base = 0x8000'0000ull;
  const std::uint32_t patched =
      chatfuzz::riscv::enc_i(Opcode::kAddi, 5, 0, 99);
  ProgramBuilder b(base);
  b.li(1, static_cast<std::int32_t>(patched));
  const std::uint64_t anchor = b.pc();
  b.auipc(2, 0);
  b.addi(10, 0, 0);
  b.addi(11, 0, 2);
  b.label("again");
  for (int i = 0; i < 4; ++i) b.addi(6, 6, 1);
  const std::uint64_t slot = b.pc();
  b.raw(chatfuzz::riscv::enc_i(Opcode::kAddi, 5, 0, 1));
  for (int i = 0; i < 4; ++i) b.addi(7, 7, 1);
  b.addi(10, 10, 1);
  b.branch_to(Opcode::kBeq, 10, 11, "done");
  b.sw(2, 1, static_cast<std::int32_t>(slot - anchor));
  b.fence_i();
  b.jal_to(0, "again");
  b.label("done");
  b.wfi();
  const std::vector<std::uint32_t> prog = b.seal();

  IsaSim sim;
  sim.reset(prog);
  sim.run();
  EXPECT_EQ(sim.reg(5), 99u);
  EXPECT_EQ(sim.reg(10), 2u);
}

TEST(PredecodeIsaSim, ExternalMemoryWriteIsVisibleToFetch) {
  // Writing code through the mutable memory() accessor bypasses the store
  // path; the accessor conservatively flushes the predecode cache so the
  // next fetch sees the new bytes — even for a pc that is already cached.
  ProgramBuilder b;
  b.label("top");
  b.addi(5, 0, 1);
  b.jal_to(0, "top");
  const std::vector<std::uint32_t> prog = b.seal();

  IsaSim sim;
  sim.reset(prog);
  for (int i = 0; i < 4; ++i) sim.step();  // two loop iterations: pc cached
  EXPECT_EQ(sim.reg(5), 1u);
  sim.memory().write(0x8000'0000ull,
                     chatfuzz::riscv::enc_i(Opcode::kAddi, 5, 0, 31), 4);
  sim.step();  // re-fetch of the patched pc must see the new bytes
  EXPECT_EQ(sim.reg(5), 31u);
}
