#include "core/checkpoint.h"

#include <filesystem>

namespace chatfuzz::core {

namespace {

constexpr std::uint32_t kCheckpointMagic = 0x43465A4B;  // "CFZK"
// v2: a select-chain accounting flag joined the config record. The flag is
// gone (one accounting remains), but its byte stays; see write_core_config.
// v3: the three privileged/Sv39 bug injections (wrong_delegation,
// skip_perm_check, stale_tlb) joined the BugInjections record.
// v4: the out-of-order backend fields (out_of_order, rob_size, phys_regs,
// sq_size, fetch_width) and its three bug injections joined the config
// record, and the campaign config gained the multi-DUT list (duts). Older
// checkpoints are rejected by read_file's version check: their coverage
// blobs predate the per-DUT DB layout, so silently defaulting the new
// fields could restore against the wrong instrumentation.
constexpr std::uint32_t kCheckpointVersion = 4;

void write_core_config(ser::Writer& w, const rtl::CoreConfig& c) {
  w.str(c.name);
  w.u32(c.icache_sets);
  w.u32(c.icache_ways);
  w.u32(c.icache_line);
  w.u32(c.dcache_sets);
  w.u32(c.dcache_ways);
  w.u32(c.dcache_line);
  w.u32(c.btb_entries);
  w.u32(c.miss_penalty);
  w.u32(c.div_latency);
  w.u32(c.mispredict_penalty);
  w.boolean(c.superscalar);
  w.u32(c.cross_depth);
  // Former select-chain accounting flag, always true. The byte stays so the
  // record keeps its layout: golden_outputs_test and perfbench's
  // expected.json hash campaign.ckpt bytes, and the dist ConfigMsg
  // fingerprint is a CRC of this record, so dropping it (or bumping the
  // version instead) would move output bits with no change in behaviour.
  w.boolean(true);
  w.boolean(c.out_of_order);
  w.u32(c.rob_size);
  w.u32(c.phys_regs);
  w.u32(c.sq_size);
  w.u32(c.fetch_width);
  w.boolean(c.bugs.stale_icache);
  w.boolean(c.bugs.tracer_drops_muldiv);
  w.boolean(c.bugs.fault_priority_swap);
  w.boolean(c.bugs.amo_x0_trace);
  w.boolean(c.bugs.x0_link_trace);
  w.boolean(c.bugs.wrong_delegation);
  w.boolean(c.bugs.skip_perm_check);
  w.boolean(c.bugs.stale_tlb);
  w.boolean(c.bugs.ooo_broken_fwd);
  w.boolean(c.bugs.ooo_early_store_drain);
  w.boolean(c.bugs.ooo_missing_squash);
}

void read_core_config(ser::Reader& r, rtl::CoreConfig& c) {
  c.name = r.str();
  c.icache_sets = r.u32();
  c.icache_ways = r.u32();
  c.icache_line = r.u32();
  c.dcache_sets = r.u32();
  c.dcache_ways = r.u32();
  c.dcache_line = r.u32();
  c.btb_entries = r.u32();
  c.miss_penalty = r.u32();
  c.div_latency = r.u32();
  c.mispredict_penalty = r.u32();
  c.superscalar = r.boolean();
  c.cross_depth = r.u32();
  (void)r.boolean();  // former select-chain flag (see write_core_config)
  c.out_of_order = r.boolean();
  c.rob_size = r.u32();
  c.phys_regs = r.u32();
  c.sq_size = r.u32();
  c.fetch_width = r.u32();
  c.bugs.stale_icache = r.boolean();
  c.bugs.tracer_drops_muldiv = r.boolean();
  c.bugs.fault_priority_swap = r.boolean();
  c.bugs.amo_x0_trace = r.boolean();
  c.bugs.x0_link_trace = r.boolean();
  c.bugs.wrong_delegation = r.boolean();
  c.bugs.skip_perm_check = r.boolean();
  c.bugs.stale_tlb = r.boolean();
  c.bugs.ooo_broken_fwd = r.boolean();
  c.bugs.ooo_early_store_drain = r.boolean();
  c.bugs.ooo_missing_squash = r.boolean();
}

}  // namespace

void write_campaign_config(ser::Writer& w, const CampaignConfig& cfg) {
  w.u64(cfg.num_tests);
  w.u64(cfg.batch_size);
  w.u64(cfg.checkpoint_every);
  write_core_config(w, cfg.core);
  // Multi-DUT list (v4). Part of the campaign state like `core`: the
  // coverage blob's layout is the concatenation of these backends'
  // instrumentation, so resume must rebuild exactly this list.
  w.u64(cfg.duts.size());
  for (const rtl::CoreConfig& c : cfg.duts) write_core_config(w, c);
  w.u64(cfg.platform.ram_base);
  w.u64(cfg.platform.ram_size);
  w.u64(cfg.platform.max_steps);
  w.u64(cfg.platform.reg_seed);
  w.boolean(cfg.platform.clint_enabled);
  w.u64(cfg.platform.clint_base);
  w.boolean(cfg.mismatch_detection);
  w.u32(static_cast<std::uint32_t>(cfg.guidance));
  w.boolean(cfg.collect_multi_metrics);
  w.f64(cfg.tests_per_hour);
  w.u64(cfg.num_workers);
  w.u64(cfg.seed);
  w.boolean(cfg.randomize_regs);
  w.u64(cfg.checkpoint_every_tests);
}

bool read_campaign_config(ser::Reader& r, CampaignConfig& cfg) {
  cfg.num_tests = static_cast<std::size_t>(r.u64());
  cfg.batch_size = static_cast<std::size_t>(r.u64());
  cfg.checkpoint_every = static_cast<std::size_t>(r.u64());
  read_core_config(r, cfg.core);
  const std::uint64_t n_duts = r.u64();
  // Each serialized core config is >= 60 payload bytes; reject counts the
  // payload cannot hold before reserving.
  if (!r.ok() || n_duts > r.remaining() / 60) {
    r.fail();
    return false;
  }
  cfg.duts.clear();
  cfg.duts.reserve(static_cast<std::size_t>(n_duts));
  for (std::uint64_t i = 0; i < n_duts; ++i) {
    rtl::CoreConfig c;
    read_core_config(r, c);
    cfg.duts.push_back(std::move(c));
  }
  cfg.platform.ram_base = r.u64();
  cfg.platform.ram_size = r.u64();
  cfg.platform.max_steps = r.u64();
  cfg.platform.reg_seed = r.u64();
  cfg.platform.clint_enabled = r.boolean();
  cfg.platform.clint_base = r.u64();
  cfg.mismatch_detection = r.boolean();
  const std::uint32_t guidance = r.u32();
  if (guidance > static_cast<std::uint32_t>(GuidanceMetric::kCtrlReg)) {
    r.fail();
    return false;
  }
  cfg.guidance = static_cast<GuidanceMetric>(guidance);
  cfg.collect_multi_metrics = r.boolean();
  cfg.tests_per_hour = r.f64();
  cfg.num_workers = static_cast<std::size_t>(r.u64());
  cfg.seed = r.u64();
  cfg.randomize_regs = r.boolean();
  cfg.checkpoint_every_tests = static_cast<std::size_t>(r.u64());
  return r.ok();
}

std::string checkpoint_path(const std::string& dir) {
  return dir + "/campaign.ckpt";
}

ser::Status save_checkpoint(const std::string& dir,
                            const CheckpointData& data) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return ser::Status::error("cannot create checkpoint directory " + dir +
                              ": " + ec.message());
  }
  ser::Writer w;
  write_campaign_config(w, data.cfg);
  w.str(data.fuzzer);
  w.u64(data.curve.size());
  for (const CampaignPoint& p : data.curve) {
    w.u64(p.tests);
    w.f64(p.hours);
    w.f64(p.cond_cov_percent);
    w.u64(p.ctrl_states);
  }
  w.u64(data.tests_run);
  w.u64(data.total_cycles);
  w.u64(data.total_instrs);
  w.u64(data.since_checkpoint);
  w.u64(data.corpus_entries);
  w.str(data.coverage_blob);
  w.str(data.detector_blob);
  w.str(data.generator_blob);
  return ser::write_file(checkpoint_path(dir), kCheckpointMagic,
                         kCheckpointVersion, w.buffer());
}

ser::Status load_checkpoint(const std::string& dir, CheckpointData* data) {
  const std::string path = checkpoint_path(dir);
  std::string payload;
  ser::Status s = ser::read_file(path, kCheckpointMagic, kCheckpointVersion,
                                 "campaign checkpoint", &payload);
  if (!s.ok()) return s;
  ser::Reader r(payload);
  CheckpointData d;
  if (!read_campaign_config(r, d.cfg)) {
    return ser::Status::error(path + ": malformed campaign configuration");
  }
  d.fuzzer = r.str();
  const std::uint64_t n_points = r.u64();
  if (!r.ok() || n_points > r.remaining() / 32) {
    return ser::Status::error(path + ": malformed coverage curve");
  }
  d.curve.reserve(static_cast<std::size_t>(n_points));
  for (std::uint64_t i = 0; i < n_points; ++i) {
    CampaignPoint p;
    p.tests = static_cast<std::size_t>(r.u64());
    p.hours = r.f64();
    p.cond_cov_percent = r.f64();
    p.ctrl_states = static_cast<std::size_t>(r.u64());
    d.curve.push_back(p);
  }
  d.tests_run = r.u64();
  d.total_cycles = r.u64();
  d.total_instrs = r.u64();
  d.since_checkpoint = r.u64();
  d.corpus_entries = r.u64();
  d.coverage_blob = r.str();
  d.detector_blob = r.str();
  d.generator_blob = r.str();
  if (!r.done()) {
    return ser::Status::error(path + ": checkpoint payload is truncated or "
                                     "carries trailing garbage");
  }
  *data = std::move(d);
  return {};
}

}  // namespace chatfuzz::core
