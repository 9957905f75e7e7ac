// Set-associative I$/D$ models. The I$ stores line *data* (so it can serve
// stale bytes — Bug1's mechanism); the D$ is a write-through tag/dirty model
// whose job is timing and coverage conditions (architectural data always
// comes from memory, so D$ state can never corrupt results).
#pragma once

#include <cstdint>
#include <vector>

#include "isasim/memory.h"

namespace chatfuzz::rtl {

struct CacheAccess {
  bool hit = false;
  bool hit_dirty = false;      // hit on a line that was already dirty (D$)
  bool evicted_valid = false;  // victim line was valid
  bool evicted_dirty = false;  // victim line was dirty (D$ only)
};

class ICache {
 public:
  ICache(unsigned sets, unsigned ways, unsigned line_bytes);

  /// Fetch a 32-bit word through the cache. On miss, refills the whole line
  /// from `mem`. On hit, serves the *cached* copy, which may be stale if
  /// memory was written since the refill (when `coherent` is false).
  std::uint32_t fetch(std::uint64_t addr, const sim::Memory& mem,
                      CacheAccess& acc);

  /// FENCE.I: invalidate everything.
  void flush();

  /// Store-coherence hook: when the DUT is configured *without* Bug1, the
  /// core calls this on every store so overlapping lines are invalidated.
  void invalidate_addr(std::uint64_t addr);

  unsigned sets() const { return sets_; }

 private:
  struct Line {
    bool valid = false;
    std::uint64_t tag = 0;
    std::vector<std::uint8_t> data;
  };
  std::uint64_t line_addr(std::uint64_t addr) const { return addr / line_; }
  unsigned sets_, ways_, line_;
  std::vector<Line> lines_;  // sets_ * ways_
  std::vector<unsigned> rr_;  // round-robin replacement pointer per set
};

class DCache {
 public:
  DCache(unsigned sets, unsigned ways, unsigned line_bytes);

  /// Model one access (load or store) for timing/coverage. Data movement is
  /// handled by the caller against memory directly (write-through).
  CacheAccess access(std::uint64_t addr, bool is_store);

  void flush();

 private:
  struct Line {
    bool valid = false;
    bool dirty = false;
    std::uint64_t tag = 0;
  };
  unsigned sets_, ways_, line_;
  std::vector<Line> lines_;
  std::vector<unsigned> rr_;
};

/// Branch target buffer + 2-bit counter predictor (gshare-lite, as in the
/// Rocket front end).
class Predictor {
 public:
  explicit Predictor(unsigned entries);

  struct Prediction {
    bool btb_hit = false;
    bool predict_taken = false;
    std::uint64_t target = 0;
  };

  Prediction predict(std::uint64_t pc) const;
  /// Update with the resolved outcome; returns true on mispredict.
  bool update(std::uint64_t pc, bool taken, std::uint64_t target);
  /// Invalidate the BTB and reset the counters (core reset).
  void flush();

 private:
  struct Entry {
    bool valid = false;
    std::uint64_t tag = 0;
    std::uint64_t target = 0;
    std::uint8_t counter = 1;  // 2-bit saturating
  };
  unsigned index(std::uint64_t pc) const {
    return static_cast<unsigned>((pc >> 2) % entries_.size());
  }
  std::vector<Entry> entries_;
};

}  // namespace chatfuzz::rtl
