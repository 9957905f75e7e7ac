#pragma once

#include <cstdint>

// Per-simulator telemetry counters (predecode / TLB hit rates).
// Plain uint64 fields: the simulators bump private copies on their hot paths
// (no atomics per retired instruction) and the campaign worker drains them
// into the process-wide obs registry once per test via take_obs_counters().
// Observation-only — nothing architectural may ever read these.
namespace obs {

struct SimCounters {
  std::uint64_t predecode_hits = 0;
  std::uint64_t predecode_misses = 0;
  std::uint64_t tlb_hits = 0;
  std::uint64_t tlb_misses = 0;

  SimCounters& operator+=(const SimCounters& o) {
    predecode_hits += o.predecode_hits;
    predecode_misses += o.predecode_misses;
    tlb_hits += o.tlb_hits;
    tlb_misses += o.tlb_misses;
    return *this;
  }
};

}  // namespace obs
