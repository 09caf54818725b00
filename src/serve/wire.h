// Binary wire encoding shared by the serve protocol and the session
// snapshot format: little-endian fixed-width scalars, length-prefixed
// strings and vectors, and a CRC-32 for payload integrity.
//
// The shape follows the serialize(Archive&, T&) idiom (one function per
// type, reading and writing driven by the same field order), specialized to
// the two archives this repo needs: Writer appends to a byte string, Reader
// consumes a byte view with *strict* bounds checking. Every Reader
// primitive throws wlc::ParseError on underrun, and every length prefix is
// validated against the bytes actually remaining before anything is
// allocated — a hostile or bit-flipped length field can therefore neither
// over-allocate nor read out of bounds; it fails the same way a truncated
// buffer does. Decoders finish with expect_done(), so trailing garbage is
// an error too, never silently ignored.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.h"

namespace wlc::serve {

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) of `bytes`.
/// Delegates to common::crc32 — the same checksum the columnar trace format
/// uses, so snapshot bytes written before the extraction-engine refactor
/// verify unchanged.
std::uint32_t crc32(std::string_view bytes);

/// Append-only encoder. All scalars little-endian.
class Writer {
 public:
  Writer() = default;
  /// Encodes into `buf`'s storage: its content is dropped, its capacity kept.
  explicit Writer(std::string buf) : out_(std::move(buf)) { out_.clear(); }

  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { append(&v, sizeof v); }
  void u64(std::uint64_t v) { append(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { append(&v, sizeof v); }

  /// u32 length + raw bytes.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }

  /// u32 count + count i64 values, in one copy: the elements' bytes are
  /// exactly what i64() would append one by one.
  void vec_i64(const std::vector<std::int64_t>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    append(v.data(), v.size() * sizeof(std::int64_t));
  }

  /// u32 count + count raw bytes.
  void vec_u8(const std::vector<std::uint8_t>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    append(v.data(), v.size());
  }

  const std::string& bytes() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void append(const void* p, std::size_t n) {
    out_.append(static_cast<const char*>(p), n);
  }

  std::string out_;
};

/// Bounds-checked decoder over a borrowed byte view. `what` names the
/// enclosing format ("snapshot", "request") in error messages.
class Reader {
 public:
  Reader(std::string_view data, const char* what) : data_(data), what_(what) {}

  std::uint8_t u8() {
    need(1, "u8");
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint32_t u32() {
    std::uint32_t v;
    copy(&v, sizeof v, "u32");
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    copy(&v, sizeof v, "u64");
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    double v;
    copy(&v, sizeof v, "f64");
    return v;
  }

  std::string str() {
    const std::size_t n = checked_count(1, "string");
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  std::vector<std::int64_t> vec_i64() {
    const std::size_t n = checked_count(8, "i64 vector");
    std::vector<std::int64_t> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.push_back(i64());
    return v;
  }

  std::vector<std::uint8_t> vec_u8() {
    const std::size_t n = checked_count(1, "u8 vector");
    std::vector<std::uint8_t> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.push_back(u8());
    return v;
  }

  std::size_t remaining() const { return data_.size() - pos_; }

  /// Throws unless every byte was consumed — trailing garbage is a fault.
  void expect_done() const {
    if (pos_ != data_.size())
      throw ParseError(std::string(what_) + " has " + std::to_string(remaining()) +
                           " trailing bytes after the last field",
                       "", 0, 0, __FILE__, __LINE__);
  }

 private:
  void need(std::size_t n, const char* field) const {
    if (remaining() < n)
      throw ParseError(std::string(what_) + " truncated: need " + std::to_string(n) +
                           " bytes for " + field + ", have " + std::to_string(remaining()),
                       "", 0, 0, __FILE__, __LINE__);
  }

  void copy(void* p, std::size_t n, const char* field) {
    need(n, field);
    data_.copy(static_cast<char*>(p), n, pos_);
    pos_ += n;
  }

  /// Reads a u32 element count and verifies count * elem_size fits the
  /// remaining bytes *before* any allocation.
  std::size_t checked_count(std::size_t elem_size, const char* field) {
    const std::uint32_t n = u32();
    if (static_cast<std::uint64_t>(n) * elem_size > remaining())
      throw ParseError(std::string(what_) + " corrupt: " + field + " claims " +
                           std::to_string(n) + " elements but only " +
                           std::to_string(remaining()) + " bytes remain",
                       std::to_string(n), 0, 0, __FILE__, __LINE__);
    return n;
  }

  std::string_view data_;
  const char* what_;
  std::size_t pos_ = 0;
};

}  // namespace wlc::serve
