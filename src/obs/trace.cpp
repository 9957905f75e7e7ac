#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include <unistd.h>

#include "obs/clock.h"

namespace obs {
namespace detail {

std::atomic<bool> g_trace_enabled{false};

namespace {

// Registry of every thread buffer ever created. Entries are never destroyed
// while the process runs: a thread_local caches the raw pointer, and threads
// from persistent pools (e.g. the ML matmul pool) can outlive any number of
// trace sessions. trace_start() resets each ring to the session's capacity
// instead of freeing it.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<TraceRing>> rings;
  std::uint32_t capacity = 1 << 16;  // for rings created after trace_start
  std::uint64_t next_tid = 0;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: outlive all threads
  return *r;
}

}  // namespace

TraceRing::TraceRing(std::uint32_t capacity, std::uint64_t tid)
    : events_(new TraceEvent[capacity]), capacity_(capacity), tid_(tid) {}

TraceRing::~TraceRing() { delete[] events_; }

TraceRing* this_thread_ring() {
  thread_local TraceRing* ring = nullptr;
  if (!ring) {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lk(reg.mu);
    auto owned = std::make_unique<TraceRing>(reg.capacity, reg.next_tid++);
    ring = owned.get();
    reg.rings.push_back(std::move(owned));
  }
  return ring;
}

}  // namespace detail

void ScopedSpan::begin(const char* name) {
  name_ = name;
  start_ns_ = now_ns();
}

void ScopedSpan::end() {
  // Record even if tracing was disabled mid-span: the push is cheap and the
  // buffer is cleared on the next trace_start anyway.
  detail::this_thread_ring()->push(name_, start_ns_, now_ns());
}

void trace_start(std::uint32_t ring_capacity) {
  auto& reg = detail::registry();
  {
    std::lock_guard<std::mutex> lk(reg.mu);
    reg.capacity = ring_capacity == 0 ? 1 : ring_capacity;
    for (auto& r : reg.rings) r->reset(reg.capacity);
  }
  detail::g_trace_enabled.store(true, std::memory_order_release);
}

void trace_stop() {
  detail::g_trace_enabled.store(false, std::memory_order_release);
}

std::uint64_t trace_span_count() {
  auto& reg = detail::registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  std::uint64_t n = 0;
  for (auto& r : reg.rings) n += r->size();
  return n;
}

std::uint64_t trace_dropped_count() {
  auto& reg = detail::registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  std::uint64_t n = 0;
  for (auto& r : reg.rings) n += r->dropped();
  return n;
}

namespace {

// Escape a span name for JSON. Names are C identifiers-with-dots in
// practice, but be safe about it.
void append_escaped(std::string& out, const char* s) {
  for (const char* p = s; *p; ++p) {
    const char c = *p;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
}

}  // namespace

bool write_chrome_trace(const std::string& path, std::string* err) {
  auto& reg = detail::registry();
  std::lock_guard<std::mutex> lk(reg.mu);

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    if (err) *err = "cannot open " + path;
    return false;
  }

  const long pid = static_cast<long>(::getpid());
  std::string out;
  out.reserve(1 << 16);
  out += "{\"traceEvents\":[";
  bool first = true;
  std::uint64_t dropped = 0;
  char buf[160];
  for (auto& r : reg.rings) {
    dropped += r->dropped();
    const std::uint32_t n = r->size();
    for (std::uint32_t i = 0; i < n; ++i) {
      const TraceEvent& e = r->at(i);
      if (!first) out += ',';
      first = false;
      // Complete ("X") events; Chrome wants microseconds. Category = span
      // name prefix before the first '.', so Perfetto can group by layer.
      out += "{\"ph\":\"X\",\"name\":\"";
      append_escaped(out, e.name);
      out += "\",\"cat\":\"";
      const char* dot = e.name;
      while (*dot && *dot != '.') {
        if (*dot == '"' || *dot == '\\') break;  // odd name: bail to full
        ++dot;
      }
      if (*dot == '.') {
        out.append(e.name, static_cast<std::size_t>(dot - e.name));
      } else {
        append_escaped(out, e.name);
      }
      const double ts_us = static_cast<double>(e.start_ns) / 1000.0;
      const double dur_us =
          static_cast<double>(e.end_ns - e.start_ns) / 1000.0;
      std::snprintf(buf, sizeof buf,
                    "\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%ld,\"tid\":%" PRIu64
                    "}",
                    ts_us, dur_us, pid, r->tid());
      out += buf;
      if (out.size() >= (1u << 16)) {
        if (std::fwrite(out.data(), 1, out.size(), f) != out.size()) {
          std::fclose(f);
          if (err) *err = "short write to " + path;
          return false;
        }
        out.clear();
      }
    }
  }
  std::snprintf(buf, sizeof buf,
                "],\"otherData\":{\"droppedSpans\":\"%" PRIu64 "\"}}\n",
                dropped);
  out += buf;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  if (std::fclose(f) != 0 || !ok) {
    if (err) *err = "short write to " + path;
    return false;
  }
  return true;
}

}  // namespace obs
