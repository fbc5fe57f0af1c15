#pragma once
// Byte-wise binary codec for checkpoint snapshots.
//
// The snapshot format must be stable across builds and platforms, so the
// codec writes every scalar explicitly little-endian, one byte at a time,
// instead of memcpy-ing structs (struct layout and padding are not part of
// the format). Doubles are transported via their IEEE-754 bit pattern
// (std::bit_cast), which round-trips NaNs, infinities, -0.0 and denormals
// bit-exactly. Runs of doubles (f64s) are the one bulk copy: on a
// little-endian host their in-memory bytes already are the wire bytes.
//
// The Reader is bounds-checked: any read past the end of the buffer throws
// prs::Error. Malformed input must never be undefined behaviour.

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/error.hpp"

namespace prs::ckpt {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;

/// FNV-1a 64-bit hash; used as the snapshot payload checksum and by callers
/// that want a cheap deterministic digest of serialized state. The seed is
/// the state, so fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b). Every size runs
/// simd::Kernels::fnv_span, which returns the byte loop's value at every
/// level (DESIGN.md §4j).
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t seed = kFnvOffsetBasis);

/// Append-only little-endian byte writer.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<char>(v >> (8 * i)));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<char>(v >> (8 * i)));
  }

  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  /// `n` doubles, the same bytes as n calls to f64(): one reserved copy on
  /// little-endian hosts, byte-wise elsewhere.
  void f64s(const double* v, std::size_t n) {
    buf_.reserve(buf_.size() + n * sizeof(double));
    if constexpr (std::endian::native == std::endian::little) {
      buf_.append(reinterpret_cast<const char*>(v), n * sizeof(double));
    } else {
      for (std::size_t i = 0; i < n; ++i) f64(v[i]);
    }
  }

  /// Length-prefixed byte string (may contain NULs).
  void str(std::string_view s) {
    u64(s.size());
    buf_.append(s.data(), s.size());
  }

  const std::string& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian reader over a caller-owned buffer. The
/// buffer must outlive the Reader.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= std::uint32_t(static_cast<unsigned char>(data_[pos_ + i])) << (8 * i);
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= std::uint64_t(static_cast<unsigned char>(data_[pos_ + i])) << (8 * i);
    pos_ += 8;
    return v;
  }

  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// Reads `n` doubles written by Writer::f64s into `out`.
  void f64s(double* out, std::size_t n) {
    PRS_REQUIRE(n <= remaining() / sizeof(double),
                "ckpt: truncated snapshot payload (need " + std::to_string(n) +
                    " doubles, have " + std::to_string(remaining()) +
                    " bytes)");
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, data_.data() + pos_, n * sizeof(double));
      pos_ += n * sizeof(double);
    } else {
      for (std::size_t i = 0; i < n; ++i) out[i] = f64();
    }
  }

  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  void need(std::uint64_t n) const {
    PRS_REQUIRE(n <= data_.size() - pos_,
                "ckpt: truncated snapshot payload (need " + std::to_string(n) +
                    " bytes, have " + std::to_string(data_.size() - pos_) +
                    ")");
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace prs::ckpt
