#pragma once

#include <atomic>
#include <cstdint>
#include <string>

// Scoped-span tracing with per-thread lock-free buffers, exported as Chrome
// trace_event JSON (load in chrome://tracing or https://ui.perfetto.dev).
//
// Contract with the rest of the system:
//  * Near-zero overhead when disabled: OBS_SPAN compiles to one relaxed
//    atomic load and two branches; no allocation, no clock read.
//  * Never blocks, never allocates on the hot path when enabled: each thread
//    appends into its own fixed-capacity buffer; a full buffer drops the
//    newest span and counts the drop.
//  * Out-of-band by construction: spans record clock values only, never feed
//    back into campaign state, so traced and untraced runs are byte-identical.
//
// Span names must be string literals (or otherwise outlive the trace
// session); only the pointer is stored.
namespace obs {

struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

namespace detail {

// Single-producer append buffer. The owning thread writes events and
// publishes them with a release store of size_; the exporter reads size_
// with acquire and then the prefix it covers. Buffers live in a global
// registry and are never freed (threads from persistent pools may outlive
// many trace sessions), only reset.
class TraceRing {
 public:
  TraceRing(std::uint32_t capacity, std::uint64_t tid);
  ~TraceRing();

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  // Producer side (owning thread only).
  void push(const char* name, std::uint64_t start_ns, std::uint64_t end_ns) {
    const std::uint32_t n = size_.load(std::memory_order_relaxed);
    if (n >= capacity_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    events_[n] = TraceEvent{name, start_ns, end_ns};
    size_.store(n + 1, std::memory_order_release);
  }

  // Consumer side (exporter, any thread).
  std::uint32_t size() const { return size_.load(std::memory_order_acquire); }
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  const TraceEvent& at(std::uint32_t i) const { return events_[i]; }
  std::uint32_t capacity() const { return capacity_; }
  std::uint64_t tid() const { return tid_; }

  // Empty the ring for a new session with room for `capacity` events,
  // reallocating when that differs from the current capacity (no concurrent
  // producers).
  void reset(std::uint32_t capacity) {
    if (capacity != capacity_) {
      delete[] events_;
      events_ = new TraceEvent[capacity];
      capacity_ = capacity;
    }
    size_.store(0, std::memory_order_release);
    dropped_.store(0, std::memory_order_relaxed);
  }

 private:
  TraceEvent* events_;
  std::uint32_t capacity_;
  std::uint64_t tid_;
  std::atomic<std::uint32_t> size_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

extern std::atomic<bool> g_trace_enabled;

TraceRing* this_thread_ring();

}  // namespace detail

inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

// Start a trace session: empties every per-thread buffer and gives it, and
// every buffer created afterwards, `ring_capacity` events; enables OBS_SPAN.
// Not safe to call while spans are being recorded on other threads.
void trace_start(std::uint32_t ring_capacity = 1 << 16);

// Stop recording (buffers keep their contents until the next trace_start).
void trace_stop();

// Total spans recorded / dropped across all thread buffers.
std::uint64_t trace_span_count();
std::uint64_t trace_dropped_count();

// Serialize all recorded spans as Chrome trace_event JSON. Returns false on
// I/O error. Safe after trace_stop(); includes a drop counter in otherData.
bool write_chrome_trace(const std::string& path, std::string* err = nullptr);

// RAII span. Use via OBS_SPAN; records [ctor, dtor] on the calling thread's
// buffer when tracing is enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (trace_enabled()) begin(name);
  }
  ~ScopedSpan() {
    if (name_) end();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void begin(const char* name);
  void end();

  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

}  // namespace obs

#define OBS_SPAN_CONCAT2(a, b) a##b
#define OBS_SPAN_CONCAT(a, b) OBS_SPAN_CONCAT2(a, b)
// Scoped span covering the rest of the enclosing block.
#define OBS_SPAN(name) \
  ::obs::ScopedSpan OBS_SPAN_CONCAT(obs_span_, __COUNTER__)(name)
