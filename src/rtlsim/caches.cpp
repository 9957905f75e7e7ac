#include "rtlsim/caches.h"

#include <algorithm>

namespace chatfuzz::rtl {

ICache::ICache(unsigned sets, unsigned ways, unsigned line_bytes)
    : sets_(sets), ways_(ways), line_(line_bytes),
      lines_(sets * ways), rr_(sets, 0) {
  for (auto& l : lines_) l.data.resize(line_, 0);
}

std::uint32_t ICache::fetch(std::uint64_t addr, const sim::Memory& mem,
                            CacheAccess& acc) {
  const std::uint64_t la = line_addr(addr);
  const unsigned set = static_cast<unsigned>(la % sets_);
  const std::uint64_t tag = la / sets_;
  const std::uint64_t offset = addr % line_;

  Line* slot = nullptr;
  for (unsigned w = 0; w < ways_; ++w) {
    Line& l = lines_[set * ways_ + w];
    if (l.valid && l.tag == tag) {
      acc.hit = true;
      slot = &l;
      break;
    }
  }
  if (slot == nullptr) {
    acc.hit = false;
    Line& victim = lines_[set * ways_ + rr_[set]];
    rr_[set] = (rr_[set] + 1) % ways_;
    acc.evicted_valid = victim.valid;
    victim.valid = true;
    victim.tag = tag;
    const std::uint64_t base = la * line_;
    for (unsigned i = 0; i < line_; ++i) {
      victim.data[i] = static_cast<std::uint8_t>(mem.read(base + i, 1));
    }
    slot = &victim;
  }
  std::uint32_t word = 0;
  for (unsigned i = 0; i < 4; ++i) {
    word |= static_cast<std::uint32_t>(slot->data[offset + i]) << (8 * i);
  }
  return word;
}

void ICache::flush() {
  for (auto& l : lines_) l.valid = false;
}

void ICache::invalidate_addr(std::uint64_t addr) {
  const std::uint64_t la = line_addr(addr);
  const unsigned set = static_cast<unsigned>(la % sets_);
  const std::uint64_t tag = la / sets_;
  for (unsigned w = 0; w < ways_; ++w) {
    Line& l = lines_[set * ways_ + w];
    if (l.valid && l.tag == tag) l.valid = false;
  }
}

DCache::DCache(unsigned sets, unsigned ways, unsigned line_bytes)
    : sets_(sets), ways_(ways), line_(line_bytes),
      lines_(sets * ways), rr_(sets, 0) {}

CacheAccess DCache::access(std::uint64_t addr, bool is_store) {
  CacheAccess acc;
  const std::uint64_t la = addr / line_;
  const unsigned set = static_cast<unsigned>(la % sets_);
  const std::uint64_t tag = la / sets_;
  for (unsigned w = 0; w < ways_; ++w) {
    Line& l = lines_[set * ways_ + w];
    if (l.valid && l.tag == tag) {
      acc.hit = true;
      acc.hit_dirty = l.dirty;
      l.dirty = l.dirty || is_store;
      return acc;
    }
  }
  Line& victim = lines_[set * ways_ + rr_[set]];
  rr_[set] = (rr_[set] + 1) % ways_;
  acc.evicted_valid = victim.valid;
  acc.evicted_dirty = victim.valid && victim.dirty;
  victim.valid = true;
  victim.dirty = is_store;
  victim.tag = tag;
  return acc;
}

void DCache::flush() {
  for (auto& l : lines_) {
    l.valid = false;
    l.dirty = false;
  }
}

Predictor::Predictor(unsigned entries) : entries_(entries) {}

Predictor::Prediction Predictor::predict(std::uint64_t pc) const {
  const Entry& e = entries_[index(pc)];
  Prediction p;
  p.btb_hit = e.valid && e.tag == pc;
  p.predict_taken = p.btb_hit && e.counter >= 2;
  p.target = e.target;
  return p;
}

bool Predictor::update(std::uint64_t pc, bool taken, std::uint64_t target) {
  const Prediction p = predict(pc);
  const bool mispredict =
      p.predict_taken != taken || (taken && p.btb_hit && p.target != target);
  Entry& e = entries_[index(pc)];
  if (taken) {
    if (!(e.valid && e.tag == pc)) {
      e.valid = true;
      e.tag = pc;
      e.counter = 2;
    } else if (e.counter < 3) {
      ++e.counter;
    }
    e.target = target;
  } else if (e.valid && e.tag == pc && e.counter > 0) {
    --e.counter;
  }
  return mispredict;
}

void Predictor::flush() {
  std::fill(entries_.begin(), entries_.end(), Entry{});
}

}  // namespace chatfuzz::rtl
