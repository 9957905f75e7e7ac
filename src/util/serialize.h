// Versioned, endian-stable, checksummed binary serialization — the
// persistence substrate for campaign checkpoints, the on-disk corpus store
// and model files. Design rules:
//
//  * Everything is encoded little-endian byte-by-byte, so snapshots written
//    on any host restore on any other.
//  * A Reader NEVER crashes on malformed input: every accessor bounds-checks
//    and a failed read latches fail(); callers check once at the end.
//  * Files carry a magic, a format version and a CRC-32 of the payload;
//    read_file() rejects wrong-magic / wrong-version / truncated / corrupt
//    files with a human-readable Status instead of returning garbage.
//  * write_file() is atomic (tmp + rename) and reports errno / short-write
//    detail through Status, never through a bare bool.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace chatfuzz::ser {

/// Error type for all persistence operations: ok() or a message with the
/// failing path / errno / structural detail.
class Status {
 public:
  Status() = default;  // success
  static Status error(std::string msg) {
    Status s;
    s.fail_ = true;
    s.msg_ = std::move(msg);
    return s;
  }
  bool ok() const { return !fail_; }
  const std::string& message() const { return msg_; }
  explicit operator bool() const { return ok(); }

 private:
  bool fail_ = false;
  std::string msg_;
};

/// CRC-32 (IEEE 802.3 polynomial) over a byte range.
std::uint32_t crc32(const void* data, std::size_t size);

// ---------------------------------------------------------------------------
// Writer: append-only little-endian encoder into an in-memory buffer.
// ---------------------------------------------------------------------------
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { le(v, 2); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, 4);
    u32(bits);
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    u64(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// LEB128 varint: 7 bits per byte, least-significant group first. Small
  /// values (counts, deltas, hit counters) encode in one or two bytes —
  /// the wire-size lever for the dist protocol's per-test payloads.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      u8(static_cast<std::uint8_t>(0x80 | (v & 0x7f)));
      v >>= 7;
    }
    u8(static_cast<std::uint8_t>(v));
  }

  /// Raw bytes, no length prefix.
  void bytes(const void* data, std::size_t size) {
    buf_.append(static_cast<const char*>(data), size);
  }
  /// Length-prefixed byte string.
  void str(std::string_view s) {
    u64(s.size());
    buf_.append(s.data(), s.size());
  }

  // Length-prefixed homogeneous vectors.
  void vec_u8(const std::vector<std::uint8_t>& v) {
    u64(v.size());
    bytes(v.data(), v.size());
  }
  void vec_u32(const std::vector<std::uint32_t>& v) {
    u64(v.size());
    for (std::uint32_t x : v) u32(x);
  }
  void vec_u64(const std::vector<std::uint64_t>& v) {
    u64(v.size());
    for (std::uint64_t x : v) u64(x);
  }
  void vec_f32(const std::vector<float>& v) {
    u64(v.size());
    for (float x : v) f32(x);
  }
  void vec_f64(const std::vector<double>& v) {
    u64(v.size());
    for (double x : v) f64(x);
  }
  /// std::size_t vectors travel as u64 (size_t width differs across hosts).
  void vec_size(const std::vector<std::size_t>& v) {
    u64(v.size());
    for (std::size_t x : v) u64(x);
  }

  const std::string& buffer() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  void le(std::uint64_t v, int bytes_n) {
    for (int i = 0; i < bytes_n; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  std::string buf_;
};

// ---------------------------------------------------------------------------
// Reader: bounds-checked little-endian decoder. A read past the end (or an
// absurd length prefix) latches the fail flag and returns zero/empty values;
// it never throws and never reads out of bounds.
// ---------------------------------------------------------------------------
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}
  /// The reader only views its bytes: reading a temporary string would
  /// parse freed memory, so bind the bytes to a named string first.
  explicit Reader(std::string&&) = delete;

  std::uint8_t u8() { return static_cast<std::uint8_t>(le(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  float f32() {
    const std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, 4);
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  bool boolean() { return u8() != 0; }

  /// LEB128 varint. More than ten groups (or a straddled end) latches
  /// fail() like every other accessor.
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t b = u8();
      if (fail_) return 0;
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
    }
    fail_ = true;
    return 0;
  }

  std::string str() {
    const std::uint64_t n = u64();
    if (fail_ || n > remaining()) {
      fail_ = true;
      return {};
    }
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  std::vector<std::uint8_t> vec_u8() { return vec<std::uint8_t, 1>(); }
  std::vector<std::uint32_t> vec_u32() { return vec<std::uint32_t, 4>(); }
  std::vector<std::uint64_t> vec_u64() { return vec<std::uint64_t, 8>(); }
  std::vector<float> vec_f32() { return vec<float, 4>(); }
  std::vector<double> vec_f64() { return vec<double, 8>(); }
  std::vector<std::size_t> vec_size() {
    std::vector<std::size_t> out;
    const std::uint64_t n = u64();
    if (fail_ || n > remaining() / 8) {
      fail_ = true;
      return out;
    }
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      out.push_back(static_cast<std::size_t>(u64()));
    }
    return out;
  }

  bool ok() const { return !fail_; }
  /// Mark the stream failed (semantic validation error during restore).
  void fail() { fail_ = true; }
  std::size_t remaining() const { return data_.size() - pos_; }
  /// True when the stream was fully and successfully consumed.
  bool done() const { return !fail_ && pos_ == data_.size(); }

 private:
  std::uint64_t le(int bytes_n) {
    if (fail_ || remaining() < static_cast<std::size_t>(bytes_n)) {
      fail_ = true;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < bytes_n; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += bytes_n;
    return v;
  }

  template <typename T, std::size_t ElemSize>
  std::vector<T> vec() {
    std::vector<T> out;
    const std::uint64_t n = u64();
    // Reject length prefixes larger than the remaining bytes before the
    // resize — a corrupt length must not turn into an OOM.
    if (fail_ || n > remaining() / ElemSize) {
      fail_ = true;
      return out;
    }
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      if constexpr (ElemSize == 1) {
        out.push_back(static_cast<T>(u8()));
      } else if constexpr (std::is_same_v<T, float>) {
        out.push_back(f32());
      } else if constexpr (std::is_same_v<T, double>) {
        out.push_back(f64());
      } else {
        out.push_back(static_cast<T>(le(ElemSize)));
      }
    }
    return out;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool fail_ = false;
};

// ---------------------------------------------------------------------------
// RNG state travels through the framework so generator snapshots capture
// their exact stream position.
// ---------------------------------------------------------------------------
inline void write_rng(Writer& w, const Rng& rng) {
  for (std::uint64_t word : rng.state()) w.u64(word);
}
inline bool read_rng(Reader& r, Rng& rng) {
  std::array<std::uint64_t, 4> st;
  for (auto& word : st) word = r.u64();
  if (!r.ok()) return false;
  rng.set_state(st);
  return true;
}

// ---------------------------------------------------------------------------
// File container:  [magic u32][version u32][payload size u64][payload]
//                  [crc32(payload) u32]
// ---------------------------------------------------------------------------

/// Atomically write `payload` to `path` (tmp + rename). On any failure the
/// Status carries the path and the errno / short-write detail.
Status write_file(const std::string& path, std::uint32_t magic,
                  std::uint32_t version, const std::string& payload);

/// Read and verify a container file. `what` names the artifact for error
/// messages ("model", "checkpoint", ...). Version policy is exact-match:
/// an incompatible format change bumps the writer's version and old files
/// are rejected with a clear message (see README "Checkpoint & resume").
Status read_file(const std::string& path, std::uint32_t magic,
                 std::uint32_t version, const char* what,
                 std::string* payload);

}  // namespace chatfuzz::ser
