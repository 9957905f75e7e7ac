// Sparse-coverage equivalence suite: the dirty-bin journals that make
// begin_test / reset_hits / extraction O(bins touched) must be observably
// identical to the full-scan implementations they replaced. Each test
// drives a journaled structure and an explicit full-scan shadow model with
// the same randomized hit pattern and checks every count and extracted bin
// list after every round — including across resets, save/restore, and bulk
// (add_bin_hits / cover_bin) mutation paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "corpus/generator.h"
#include "coverage/cover.h"
#include "coverage/merge.h"
#include "coverage/multi.h"
#include "riscv/decode.h"
#include "rtlsim/core.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace chatfuzz::cov {
namespace {

using chatfuzz::Rng;

// ---- CoverageDB -------------------------------------------------------------

struct DbShadow {
  std::vector<std::uint64_t> hits;
  std::vector<std::uint8_t> test;

  std::size_t total_covered() const {
    std::size_t n = 0;
    for (std::uint64_t h : hits) n += h != 0 ? 1 : 0;
    return n;
  }
  std::size_t test_covered() const {
    std::size_t n = 0;
    for (std::uint8_t b : test) n += b;
    return n;
  }
  std::vector<BinDelta> extract() const {
    std::vector<BinDelta> out;
    for (std::size_t b = 0; b < hits.size(); ++b) {
      if (hits[b] != 0) out.push_back({static_cast<std::uint32_t>(b), hits[b]});
    }
    return out;
  }
};

void expect_db_matches_shadow(const CoverageDB& db, const DbShadow& sh) {
  ASSERT_EQ(db.num_bins(), sh.hits.size());
  EXPECT_EQ(db.total_covered(), sh.total_covered());
  EXPECT_EQ(db.test_covered(), sh.test_covered());
  for (std::size_t b = 0; b < sh.hits.size(); ++b) {
    ASSERT_EQ(db.bin_hits(b), sh.hits[b]) << "bin " << b;
    ASSERT_EQ(db.test_bin_hit(b), sh.test[b] != 0) << "bin " << b;
  }
  // Journal-driven extraction vs. the full scan, including order.
  const std::vector<BinDelta> got = extract_bins(db);
  const std::vector<BinDelta> want = sh.extract();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].bin, want[i].bin) << "slice entry " << i;
    EXPECT_EQ(got[i].hits, want[i].hits) << "slice entry " << i;
  }
}

TEST(SparseCoverage, JournaledDbMatchesFullScanShadow) {
  Rng rng(0xc0ffee);
  CoverageDB db;
  const std::size_t kPoints = 203;
  for (std::size_t i = 0; i < kPoints; ++i) {
    db.register_cond("p" + std::to_string(i));
  }
  DbShadow sh{std::vector<std::uint64_t>(2 * kPoints, 0),
              std::vector<std::uint8_t>(2 * kPoints, 0)};

  for (int round = 0; round < 300; ++round) {
    // A burst of hits, skewed so some bins repeat and most stay untouched.
    const unsigned burst = 1 + static_cast<unsigned>(rng.below(40));
    for (unsigned h = 0; h < burst; ++h) {
      const auto id = static_cast<PointId>(rng.below(kPoints));
      const bool outcome = rng.chance(0.5);
      db.hit(id, outcome);
      const std::size_t bin = 2 * id + (outcome ? 1 : 0);
      ++sh.hits[bin];
      sh.test[bin] = 1;
    }
    if (rng.chance(0.3)) {  // bulk path (coverage merging / artifact fold)
      const std::size_t bin = rng.below(2 * kPoints);
      const std::uint64_t n = rng.below(3);  // exercises the n == 0 edge
      db.add_bin_hits(bin, n);
      sh.hits[bin] += n;
    }
    expect_db_matches_shadow(db, sh);

    if (rng.chance(0.3)) {
      db.begin_test();
      std::fill(sh.test.begin(), sh.test.end(), 0);
      expect_db_matches_shadow(db, sh);
    }
    if (rng.chance(0.1)) {
      db.reset_hits();
      std::fill(sh.hits.begin(), sh.hits.end(), 0);
      std::fill(sh.test.begin(), sh.test.end(), 0);
      expect_db_matches_shadow(db, sh);
    }
    if (rng.chance(0.1)) {
      // Round-trip through the snapshot path: the journal must be rebuilt
      // so later reset_hits()/extraction still see every nonzero bin.
      ser::Writer w;
      db.save_state(w);
      const auto blob = w.take();
      ser::Reader r(blob);
      ASSERT_TRUE(db.restore_state(r));
      std::fill(sh.test.begin(), sh.test.end(), 0);  // per-test is transient
      expect_db_matches_shadow(db, sh);
    }
  }
}

TEST(SparseCoverage, ApplyExtractedSliceReproducesAggregateCounts) {
  // Worker-shard flow: reset, hit, extract, apply into an aggregate —
  // aggregate covered counts must equal a full scan at every step.
  Rng rng(42);
  CoverageDB shard, agg;
  const std::size_t kPoints = 64;
  for (std::size_t i = 0; i < kPoints; ++i) {
    shard.register_cond("p" + std::to_string(i));
    agg.register_cond("p" + std::to_string(i));
  }
  std::vector<std::uint64_t> agg_shadow(2 * kPoints, 0);
  std::vector<BinDelta> slice;
  for (int test = 0; test < 100; ++test) {
    shard.reset_hits();
    const unsigned burst = static_cast<unsigned>(rng.below(30));
    for (unsigned h = 0; h < burst; ++h) {
      shard.hit(static_cast<PointId>(rng.below(kPoints)), rng.chance(0.5));
    }
    extract_bins(shard, slice);
    // The pooled overload must agree with the allocating one.
    const std::vector<BinDelta> fresh = extract_bins(shard);
    ASSERT_EQ(slice.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(slice[i].bin, fresh[i].bin);
      EXPECT_EQ(slice[i].hits, fresh[i].hits);
    }
    apply_bins(agg, slice);
    for (const BinDelta& d : slice) agg_shadow[d.bin] += d.hits;
    std::size_t want_covered = 0;
    for (std::uint64_t h : agg_shadow) want_covered += h != 0 ? 1 : 0;
    ASSERT_EQ(agg.total_covered(), want_covered);
    for (std::size_t b = 0; b < agg_shadow.size(); ++b) {
      ASSERT_EQ(agg.bin_hits(b), agg_shadow[b]);
    }
  }
}

// ---- ToggleCoverage ---------------------------------------------------------

TEST(SparseCoverage, ToggleJournalMatchesFullScanShadow) {
  Rng rng(99);
  const unsigned kRegs = 8;
  ToggleCoverage tc(kRegs);
  std::vector<std::uint8_t> cum(kRegs * 128, 0), test(kRegs * 128, 0);

  for (int round = 0; round < 400; ++round) {
    const unsigned reg = static_cast<unsigned>(rng.below(kRegs + 1));  // +1:
    const std::uint64_t oldv = rng.next_u64() & rng.next_u64();  // sparse
    const std::uint64_t newv = rng.next_u64() & rng.next_u64();
    tc.observe_write(reg, oldv, newv);  // reg == kRegs exercises the guard
    if (reg < kRegs) {
      const std::uint64_t changed = oldv ^ newv;
      for (unsigned bit = 0; bit < 64; ++bit) {
        if (((changed >> bit) & 1) == 0) continue;
        const std::size_t idx =
            static_cast<std::size_t>(reg) * 128 + 2 * bit +
            ((newv >> bit) & 1);
        cum[idx] = 1;
        test[idx] = 1;
      }
    }
    if (rng.chance(0.1)) {
      const std::size_t idx = rng.below(cum.size());
      tc.cover_bin(idx);
      cum[idx] = 1;
    }

    std::size_t want_cov = 0, want_test = 0;
    for (std::uint8_t b : cum) want_cov += b;
    for (std::uint8_t b : test) want_test += b;
    ASSERT_EQ(tc.covered(), want_cov);
    ASSERT_EQ(tc.test_covered(), want_test);

    std::vector<std::size_t> got, want;
    tc.append_test_bins(got);
    for (std::size_t i = 0; i < test.size(); ++i) {
      if (test[i]) want.push_back(i);
    }
    ASSERT_EQ(got, want);  // same bins, same (ascending) order

    if (rng.chance(0.25)) {
      tc.begin_test();
      std::fill(test.begin(), test.end(), 0);
      std::vector<std::size_t> after;
      tc.append_test_bins(after);
      ASSERT_TRUE(after.empty());
      ASSERT_EQ(tc.test_covered(), 0u);
    }
  }
}

// ---- FsmCoverage ------------------------------------------------------------

TEST(SparseCoverage, FsmJournalMatchesFullScanShadow) {
  Rng rng(7);
  FsmCoverage fc;
  // Two FSMs so the universe has a nonzero base offset for the second.
  const auto f0 = fc.register_fsm("a", 3, {{0, 1}, {1, 2}, {2, 0}, {1, 1}});
  const auto f1 = fc.register_fsm("b", 4, {{0, 3}, {3, 0}, {2, 2}});
  const std::size_t kUniverse = (3 + 4) + (4 + 3);
  ASSERT_EQ(fc.universe(), kUniverse);
  struct ShadowFsm {
    unsigned num_states;
    std::vector<std::pair<unsigned, unsigned>> arcs;
    std::vector<std::uint8_t> s_cum, s_test, t_cum, t_test;
  };
  ShadowFsm sh[2] = {
      {3, {{0, 1}, {1, 2}, {2, 0}, {1, 1}}, {}, {}, {}, {}},
      {4, {{0, 3}, {3, 0}, {2, 2}}, {}, {}, {}, {}},
  };
  for (ShadowFsm& f : sh) {
    f.s_cum.assign(f.num_states, 0);
    f.s_test.assign(f.num_states, 0);
    f.t_cum.assign(f.arcs.size(), 0);
    f.t_test.assign(f.arcs.size(), 0);
  }

  for (int round = 0; round < 500; ++round) {
    const std::size_t which = rng.below(2);
    const ShadowFsm& ref = sh[which];
    // Deliberately includes out-of-range targets and undeclared arcs.
    const unsigned from = static_cast<unsigned>(rng.below(ref.num_states + 1));
    const unsigned to = static_cast<unsigned>(rng.below(ref.num_states + 1));
    fc.observe(which == 0 ? f0 : f1, from, to);
    ShadowFsm& f = sh[which];
    if (to < f.num_states) {
      f.s_cum[to] = 1;
      f.s_test[to] = 1;
    }
    for (std::size_t t = 0; t < f.arcs.size(); ++t) {
      if (f.arcs[t].first == from && f.arcs[t].second == to) {
        f.t_cum[t] = 1;
        f.t_test[t] = 1;
        break;
      }
    }

    std::size_t want_cov = 0, want_test = 0;
    std::vector<std::size_t> want;
    std::size_t base = 0;
    for (const ShadowFsm& g : sh) {
      for (std::size_t s = 0; s < g.s_cum.size(); ++s) {
        want_cov += g.s_cum[s];
        want_test += g.s_test[s];
        if (g.s_test[s]) want.push_back(base + s);
      }
      for (std::size_t t = 0; t < g.t_cum.size(); ++t) {
        want_cov += g.t_cum[t];
        want_test += g.t_test[t];
        if (g.t_test[t]) want.push_back(base + g.num_states + t);
      }
      base += g.num_states + g.arcs.size();
    }
    ASSERT_EQ(fc.covered(), want_cov);
    ASSERT_EQ(fc.test_covered(), want_test);
    std::vector<std::size_t> got;
    fc.append_test_bins(got);
    ASSERT_EQ(got, want);

    if (rng.chance(0.2)) {
      fc.begin_test();
      for (ShadowFsm& g : sh) {
        std::fill(g.s_test.begin(), g.s_test.end(), 0);
        std::fill(g.t_test.begin(), g.t_test.end(), 0);
      }
    }
  }
}

// ---- StatementCoverage ------------------------------------------------------

TEST(SparseCoverage, StatementJournalMatchesFullScanShadow) {
  Rng rng(5);
  StatementCoverage sc;
  const std::size_t kStmts = 37;
  for (std::size_t i = 0; i < kStmts; ++i) {
    sc.register_stmt("s" + std::to_string(i));
  }
  std::vector<std::uint8_t> cum(kStmts, 0), test(kStmts, 0);
  for (int round = 0; round < 400; ++round) {
    const std::size_t id = rng.below(kStmts);
    sc.hit(id);
    cum[id] = 1;
    test[id] = 1;
    if (rng.chance(0.1)) {
      const std::size_t b = rng.below(kStmts);
      sc.cover_bin(b);
      cum[b] = 1;
    }

    std::size_t want_cov = 0, want_test = 0;
    std::vector<std::size_t> want;
    for (std::size_t i = 0; i < kStmts; ++i) {
      want_cov += cum[i];
      want_test += test[i];
      if (test[i]) want.push_back(i);
    }
    ASSERT_EQ(sc.covered(), want_cov);
    ASSERT_EQ(sc.test_covered(), want_test);
    std::vector<std::size_t> got;
    sc.append_test_bins(got);
    ASSERT_EQ(got, want);

    if (rng.chance(0.25)) {
      sc.begin_test();
      std::fill(test.begin(), test.end(), 0);
    }
  }
}

// ---- Select chains ----------------------------------------------------------

/// The DUT's opcode-indexed select chains (decode.sel.<op>,
/// cross.<priv>.op.<op>, cross.<priv>.<class>) derived from the commit
/// stream alone. Every chain comparator is evaluated once per committed
/// instruction: decode.sel.<op> is true when the instruction decodes to
/// <op>, and the cross chains also need the instruction to issue in <priv>
/// (U or S). A fetch page fault commits instr 0, an invalid decode, which
/// makes every opcode comparator false.
class SelectChainShadow {
 public:
  explicit SelectChainShadow(const CoverageDB& db) {
    const std::string_view kClasses[] = {"load", "store", "amo",    "lrsc",
                                         "csr",  "muldiv", "fencei", "branch"};
    for (PointId id = 0; id < db.num_points(); ++id) {
      std::string_view name = db.point_name(id);
      Chain c;
      c.id = id;
      if (name.starts_with("decode.sel.")) {
        name.remove_prefix(11);
        c.op = opcode_index(name);
      } else if (name.starts_with("cross.user.") ||
                 name.starts_with("cross.super.")) {
        c.priv = name[6] == 'u' ? riscv::Priv::kUser
                                : riscv::Priv::kSupervisor;
        name.remove_prefix(name.find('.', 6) + 1);
        if (name.starts_with("op.")) {
          name.remove_prefix(3);
          c.op = opcode_index(name);
        } else {
          const auto* it = std::find(std::begin(kClasses), std::end(kClasses),
                                     name);
          EXPECT_NE(it, std::end(kClasses)) << db.point_name(id);
          c.cls = static_cast<int>(it - std::begin(kClasses));
        }
      } else {
        continue;
      }
      EXPECT_TRUE(c.op < riscv::kNumOpcodes || c.cls >= 0)
          << db.point_name(id);
      chains_.push_back(c);
    }
  }

  std::size_t num_chains() const { return chains_.size(); }

  void begin_test() {
    for (Chain& c : chains_) c.test_true = c.test_false = 0;
  }

  void on_commit(const sim::CommitRecord& rec) {
    const riscv::Decoded d = riscv::decode(rec.instr);
    const std::size_t op =
        d.valid() ? static_cast<std::size_t>(d.op) : riscv::kNumOpcodes;
    const std::string_view mn = d.valid() ? riscv::mnemonic(d.op) : "";
    const bool classes[8] = {
        mn == "lb" || mn == "lh" || mn == "lw" || mn == "ld" || mn == "lbu" ||
            mn == "lhu" || mn == "lwu",
        mn == "sb" || mn == "sh" || mn == "sw" || mn == "sd",
        mn.starts_with("amo"),
        mn.starts_with("lr.") || mn.starts_with("sc."),
        mn.starts_with("csr"),
        mn.starts_with("mul") || mn.starts_with("div") ||
            mn.starts_with("rem"),
        mn == "fence.i",
        mn.starts_with("b")};
    for (Chain& c : chains_) {
      bool v = c.cls >= 0 ? classes[c.cls] : op == c.op;
      if (c.priv) v = v && rec.priv == *c.priv;
      ++(v ? c.test_true : c.test_false);
      ++(v ? c.cum_true : c.cum_false);
    }
  }

  void expect_matches(const CoverageDB& db) const {
    for (const Chain& c : chains_) {
      const std::size_t t = 2 * static_cast<std::size_t>(c.id) + 1;
      const std::size_t f = t - 1;
      ASSERT_EQ(db.bin_hits(t), c.cum_true) << db.point_name(c.id);
      ASSERT_EQ(db.bin_hits(f), c.cum_false) << db.point_name(c.id);
      ASSERT_EQ(db.test_bin_hit(t), c.test_true != 0) << db.point_name(c.id);
      ASSERT_EQ(db.test_bin_hit(f), c.test_false != 0) << db.point_name(c.id);
    }
  }

  /// True if some cross.<priv>.op.* comparator has evaluated true.
  bool op_chain_hit_in(riscv::Priv priv) const {
    return std::any_of(chains_.begin(), chains_.end(), [&](const Chain& c) {
      return c.priv == priv && c.cls < 0 && c.cum_true != 0;
    });
  }

 private:
  struct Chain {
    PointId id = 0;
    std::optional<riscv::Priv> priv;  // nullopt: any privilege
    std::size_t op = riscv::kNumOpcodes;
    int cls = -1;  // index into the class list, or -1 for an opcode chain
    std::uint64_t cum_true = 0, cum_false = 0;
    std::uint64_t test_true = 0, test_false = 0;
  };

  static std::size_t opcode_index(std::string_view mnemonic) {
    for (std::size_t i = 0; i < riscv::kNumOpcodes; ++i) {
      if (riscv::all_specs()[i].mnemonic == mnemonic) return i;
    }
    return riscv::kNumOpcodes;
  }

  std::vector<Chain> chains_;
};

TEST(SparseCoverage, SelectChainsMatchCommitStreamShadow) {
  // Chain counters are histogrammed per run and land in the DB when the run
  // stops or the core resets, so after every test each chain bin, its
  // cumulative count and its per-test stand-alone flag must equal what the
  // commit stream implies. Test 3 is abandoned after a few steps: the reset
  // that abandons it must land its counts too. The privilege and VM idioms
  // are weighted up so the U- and S-mode chains are exercised, not just
  // counted false.
  corpus::CorpusConfig gen_cfg;
  gen_cfg.w_priv = 4.0;
  gen_cfg.w_vm = 3.0;
  const sim::Platform plat{.max_steps = 512};
  for (const bool rocket : {true, false}) {
    for (const bool bugs : {true, false}) {
      rtl::CoreConfig cfg =
          rocket ? rtl::CoreConfig::rocket() : rtl::CoreConfig::boom();
      if (!bugs) cfg.bugs = rtl::BugInjections::none();
      SCOPED_TRACE(cfg.name + (bugs ? " bugs" : " no bugs"));
      CoverageDB db;
      rtl::RtlCore core(cfg, db, plat);
      SelectChainShadow shadow(db);
      ASSERT_EQ(shadow.num_chains(),
                riscv::kNumOpcodes * (rocket ? 3 : 1) + (rocket ? 16 : 0));
      corpus::CorpusGenerator gen(gen_cfg, 31);
      for (int t = 0; t < 24; ++t) {
        SCOPED_TRACE("test " + std::to_string(t));
        const corpus::Program prog = gen.function();
        db.begin_test();
        shadow.begin_test();
        core.reset(prog);
        if (t == 3) {
          for (int i = 0; i < 5; ++i) {
            const std::optional<sim::CommitRecord> rec = core.step();
            ASSERT_TRUE(rec.has_value());
            shadow.on_commit(*rec);
          }
          core.reset(prog);  // abandon the run mid-way
        } else {
          for (const sim::CommitRecord& rec : core.run().trace) {
            shadow.on_commit(rec);
          }
        }
        shadow.expect_matches(db);
      }
      if (rocket) {
        EXPECT_TRUE(shadow.op_chain_hit_in(riscv::Priv::kUser));
        EXPECT_TRUE(shadow.op_chain_hit_in(riscv::Priv::kSupervisor));
      }
    }
  }
}

}  // namespace
}  // namespace chatfuzz::cov
