// Basic-block vectors (riscv/bbv.h, core/bbv.h): the recorder must be a
// pure function of the committed instruction stream, its phase signature
// must separate distinct streams, and the on-disk BBV log must round-trip.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/bbv.h"
#include "riscv/bbv.h"

namespace chatfuzz {
namespace {

using riscv::BbvRecorder;
using riscv::bbv_phase_hash;

// ---- BbvRecorder ----------------------------------------------------------

TEST(BbvRecorder, StraightLineRunIsOneBlock) {
  BbvRecorder r;
  r.begin();
  const std::uint64_t base = 0x8000'0000ull;
  for (int i = 0; i < 5; ++i) {
    r.on_commit(base + 4 * i, base + 4 * (i + 1), false);
  }
  r.on_stop();
  ASSERT_EQ(r.blocks().size(), 1u);
  EXPECT_EQ(r.blocks()[0].first, base);
  EXPECT_EQ(r.blocks()[0].second, 1u);
  EXPECT_EQ(r.ends()[0], base + 20);
}

TEST(BbvRecorder, LoopBodyCountsIterations) {
  BbvRecorder r;
  r.begin();
  const std::uint64_t body = 0x8000'0010ull;
  for (int iter = 0; iter < 3; ++iter) {
    r.on_commit(body, body + 4, false);
    r.on_commit(body + 4, body, false);  // backward branch: closes block
  }
  r.on_stop();
  ASSERT_EQ(r.blocks().size(), 1u);
  EXPECT_EQ(r.blocks()[0], std::make_pair(body, std::uint64_t{3}));
  EXPECT_EQ(r.ends()[0], body + 8);
}

TEST(BbvRecorder, TrapClosesBlockEvenWhenResumingAtFallThrough) {
  // The magic trampoline resumes trapped tests at pc + 4, so next_pc alone
  // cannot see the architectural redirect — the trap flag must close the
  // block, splitting it from an untrapped run over the same pcs.
  const std::uint64_t base = 0x8000'0000ull;
  BbvRecorder trapped;
  trapped.begin();
  trapped.on_commit(base, base + 4, false);
  trapped.on_commit(base + 4, base + 8, true);  // traps, resumes fall-through
  trapped.on_commit(base + 8, base + 12, false);
  trapped.on_stop();
  ASSERT_EQ(trapped.blocks().size(), 2u);
  EXPECT_EQ(trapped.ends()[0], base + 8);

  BbvRecorder clean;
  clean.begin();
  clean.on_commit(base, base + 4, false);
  clean.on_commit(base + 4, base + 8, false);
  clean.on_commit(base + 8, base + 12, false);
  clean.on_stop();
  ASSERT_EQ(clean.blocks().size(), 1u);
  EXPECT_NE(trapped.phase_hash(), clean.phase_hash());
}

TEST(BbvRecorder, SameStartDifferentEndAreDistinctBlocks) {
  // A block re-entered at the same pc but exited earlier (e.g. a trap on a
  // later visit) must get its own id, not fold into the longer block.
  const std::uint64_t base = 0x8000'0000ull;
  BbvRecorder r;
  r.begin();
  r.on_commit(base, base + 4, false);
  r.on_commit(base + 4, base, false);  // (base, base+8)
  r.on_commit(base, base + 4, true);   // (base, base+4): trap cut it short
  r.on_stop();
  ASSERT_EQ(r.blocks().size(), 2u);
  EXPECT_EQ(r.blocks()[0].first, base);
  EXPECT_EQ(r.blocks()[1].first, base);
  EXPECT_EQ(r.ends()[0], base + 8);
  EXPECT_EQ(r.ends()[1], base + 4);
  EXPECT_EQ(r.blocks()[0].second, 1u);
  EXPECT_EQ(r.blocks()[1].second, 1u);
}

TEST(BbvRecorder, PhaseHashSeparatesStraightLineLengths) {
  // Fuzz tests are often a single straight-line block; the signature must
  // still tell a 4-instruction test from an 8-instruction one.
  const std::uint64_t base = 0x8000'0000ull;
  const auto hash_of_line = [&](int n) {
    BbvRecorder r;
    r.begin();
    for (int i = 0; i < n; ++i) {
      r.on_commit(base + 4 * i, base + 4 * (i + 1), false);
    }
    r.on_stop();
    return r.phase_hash();
  };
  EXPECT_NE(hash_of_line(4), hash_of_line(8));
  EXPECT_NE(hash_of_line(4), 0u);          // 0 is the "unset" sentinel
  EXPECT_EQ(hash_of_line(6), hash_of_line(6));  // pure function of the stream
}

TEST(BbvRecorder, BeginResetsBetweenTests) {
  BbvRecorder r;
  r.begin();
  r.on_commit(0x8000'0000ull, 0x8000'0004ull, false);
  r.on_stop();
  ASSERT_EQ(r.blocks().size(), 1u);
  r.begin();
  EXPECT_TRUE(r.blocks().empty());
  r.on_commit(0x8000'0100ull, 0x8000'0104ull, false);
  r.on_stop();
  ASSERT_EQ(r.blocks().size(), 1u);
  EXPECT_EQ(r.blocks()[0].first, 0x8000'0100ull);
}

TEST(BbvPhaseHash, NonZeroAndOrderSensitive) {
  using Blocks = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  const Blocks a = {{0x8000'0000ull, 3}, {0x8000'0040ull, 1}};
  const Blocks b = {{0x8000'0040ull, 1}, {0x8000'0000ull, 3}};
  EXPECT_NE(bbv_phase_hash(a), 0u);
  EXPECT_NE(bbv_phase_hash(a), bbv_phase_hash(b));
  EXPECT_EQ(bbv_phase_hash(a), bbv_phase_hash(a));
}

// ---- BBV file round trip --------------------------------------------------

TEST(BbvFile, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/roundtrip.bbv";
  std::vector<core::BbvEntry> entries(3);
  for (std::uint64_t i = 0; i < entries.size(); ++i) {
    entries[i].test_index = i;
    entries[i].blocks = {{0x8000'0000ull + i * 64, i + 1},
                         {0x8000'0800ull, 2 * i + 1}};
  }
  ASSERT_TRUE(core::save_bbv(path, entries).ok());
  std::vector<core::BbvEntry> back;
  ASSERT_TRUE(core::load_bbv(path, &back).ok());
  ASSERT_EQ(back.size(), entries.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].test_index, entries[i].test_index);
    EXPECT_EQ(back[i].blocks, entries[i].blocks);
  }
  std::remove(path.c_str());
  EXPECT_FALSE(core::load_bbv(path, &back).ok());  // missing file fails clean
}

}  // namespace
}  // namespace chatfuzz
