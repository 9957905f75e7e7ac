#include "riscv/bbv.h"

namespace chatfuzz::riscv {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

inline std::uint64_t hash_start(std::uint64_t start) {
  // MurmurHash3 fmix64: spreads nearby start pcs over the open-addressed table.
  std::uint64_t h = start;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace

std::uint64_t bbv_phase_hash(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& blocks) {
  std::uint64_t h = kFnvOffset;
  for (const auto& [start, count] : blocks) {
    h = fnv_mix(h, start);
    h = fnv_mix(h, count);
  }
  return h == 0 ? 1 : h;  // 0 is the "unset" sentinel in the corpus store
}

std::uint64_t BbvRecorder::phase_hash() const {
  std::uint64_t h = kFnvOffset;
  for (std::size_t id = 0; id < blocks_.size(); ++id) {
    h = fnv_mix(h, blocks_[id].first);
    h = fnv_mix(h, ends_[id]);
    h = fnv_mix(h, blocks_[id].second);
  }
  return h == 0 ? 1 : h;  // 0 is the "unset" sentinel in the corpus store
}

void BbvRecorder::begin() {
  open_ = false;
  block_start_ = 0;
  block_end_ = 0;
  blocks_.clear();
  ends_.clear();
  table_.assign(table_.size(), 0);
}

void BbvRecorder::close_block() {
  open_ = false;
  // Find-or-assign the id for (block_start_, block_end_) (open-addressed,
  // power-of-two table, ids dense in discovery order).
  if ((blocks_.size() + 1) * 2 > table_.size()) {
    std::vector<std::uint32_t> grown(table_.size() * 2, 0);
    const std::size_t mask = grown.size() - 1;
    for (std::size_t id = 0; id < blocks_.size(); ++id) {
      std::size_t i = hash_start(blocks_[id].first ^
                                 hash_start(ends_[id])) & mask;
      while (grown[i] != 0) i = (i + 1) & mask;
      grown[i] = static_cast<std::uint32_t>(id + 1);
    }
    table_ = std::move(grown);
  }
  const std::size_t mask = table_.size() - 1;
  std::size_t i = hash_start(block_start_ ^ hash_start(block_end_)) & mask;
  while (table_[i] != 0) {
    const std::uint32_t id = table_[i] - 1;
    if (blocks_[id].first == block_start_ && ends_[id] == block_end_) {
      ++blocks_[id].second;
      return;
    }
    i = (i + 1) & mask;
  }
  table_[i] = static_cast<std::uint32_t>(blocks_.size() + 1);
  blocks_.emplace_back(block_start_, 1);
  ends_.push_back(block_end_);
}

}  // namespace chatfuzz::riscv
