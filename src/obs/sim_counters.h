#pragma once

#include <cstdint>

// Per-simulator telemetry counters (TLB hit rate).
// Plain uint64 fields: the simulators bump private copies on their hot paths
// (no atomics per retired instruction) and the campaign worker drains them
// into the process-wide obs registry once per test via take_obs_counters().
// Observation-only — nothing architectural may ever read these.
namespace obs {

struct SimCounters {
  std::uint64_t tlb_hits = 0;
  std::uint64_t tlb_misses = 0;

  SimCounters& operator+=(const SimCounters& o) {
    tlb_hits += o.tlb_hits;
    tlb_misses += o.tlb_misses;
    return *this;
  }
};

}  // namespace obs
