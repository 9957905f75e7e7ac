#include "util/pool.h"

#include <cassert>

namespace chatfuzz {

Pool& Pool::instance() {
  static Pool pool;
  return pool;
}

Pool::~Pool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    quit_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void Pool::run(int parts, const std::function<void(int)>& fn) {
  assert(parts >= 1);
  if (parts == 1) {
    fn(0);
    return;
  }
  const std::lock_guard<std::mutex> run_lock(run_mu_);
  while (static_cast<int>(threads_.size()) < parts - 1) {
    const int id = static_cast<int>(threads_.size());
    threads_.emplace_back([this, id] { worker_loop(id); });
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    parts_ = parts;
    pending_ = parts - 1;
    ++epoch_;
  }
  cv_.notify_all();
  fn(0);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
  fn_ = nullptr;
}

void Pool::worker_loop(int id) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* fn = nullptr;
    int part = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock,
               [&] { return quit_ || (epoch_ != seen && id + 1 < parts_); });
      if (quit_) return;
      seen = epoch_;
      fn = fn_;
      part = id + 1;  // the caller runs part 0
    }
    (*fn)(part);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace chatfuzz
