// The process-wide persistent worker pool, shared by the campaign engine's
// simulation fan-out (core::run_span) and the ML kernels' intra-batch
// splitter. Threads start lazily, grow on demand and live until exit, so a
// campaign of thousands of batches reuses the same few threads — and the
// per-thread state they own (trace rings, allocator caches) — instead of
// spawning fresh ones every batch.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace chatfuzz {

class Pool {
 public:
  static Pool& instance();

  ~Pool();

  /// Run fn(part) for part in [0, parts): part 0 on the calling thread,
  /// parts 1.. on pooled workers. Returns after every part has finished.
  /// Concurrent callers are serialized. fn must not throw, and must not
  /// call run() itself (the caller's run would wait on its own part).
  void run(int parts, const std::function<void(int)>& fn);

 private:
  void worker_loop(int id);

  std::mutex run_mu_;  // one run() at a time; guards threads_
  std::vector<std::thread> threads_;
  std::mutex mu_;  // guards the dispatch state below
  std::condition_variable cv_, done_cv_;
  const std::function<void(int)>* fn_ = nullptr;
  int parts_ = 0;
  int pending_ = 0;
  std::uint64_t epoch_ = 0;
  bool quit_ = false;
};

}  // namespace chatfuzz
