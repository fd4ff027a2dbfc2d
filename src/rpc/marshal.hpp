// Byte-level packet marshalling for GPU remoting.
//
// The interposer marshals every intercepted CUDA call into a flat byte
// buffer (call id + parameters), ships it over an RPC channel, and the
// backend unmarshals it — exactly the frontend/backend split of the paper's
// Fig. 3. Encoding is little-endian fixed-width, length-prefixed for
// variable-size fields.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace strings::rpc {

/// Thrown by Unmarshal when a packet is truncated or malformed.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

class Marshal {
 public:
  void put_u8(std::uint8_t v) { put_raw(&v, 1); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_u32(std::uint32_t v) { put_raw(&v, sizeof v); }
  void put_i32(std::int32_t v) { put_raw(&v, sizeof v); }
  void put_u64(std::uint64_t v) { put_raw(&v, sizeof v); }
  void put_i64(std::int64_t v) { put_raw(&v, sizeof v); }
  void put_double(double v) { put_raw(&v, sizeof v); }

  template <typename E>
    requires std::is_enum_v<E>
  void put_enum(E v) {
    put_u32(static_cast<std::uint32_t>(v));
  }

  void put_string(const std::string& s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    put_raw(s.data(), s.size());
  }

  void put_bytes(std::span<const std::byte> b) {
    put_u32(static_cast<std::uint32_t>(b.size()));
    put_raw(b.data(), b.size());
  }

  const std::vector<std::byte>& buffer() const& { return buf_; }
  std::vector<std::byte>&& take() && { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

  /// Drops the contents but keeps the capacity: a Marshal held as a scratch
  /// member encodes repeatedly without reallocating (fan-out hot paths).
  void clear() { buf_.clear(); }
  void reserve(std::size_t n) { buf_.reserve(n); }

 private:
  /// Capacity a Marshal takes at its first put: every fixed-field call and
  /// reply fits, so a message costs one allocation instead of one per
  /// doubling of the buffer.
  static constexpr std::size_t kFirstReserve = 64;

  void put_raw(const void* p, std::size_t n) {
    if (buf_.capacity() == 0) buf_.reserve(std::max(n, kFirstReserve));
    const auto* b = static_cast<const std::byte*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<std::byte> buf_;
};

class Unmarshal {
 public:
  /// Non-owning view; `data` must outlive the Unmarshal.
  explicit Unmarshal(std::span<const std::byte> data) : data_(data) {}

  /// Owning form, safe with temporaries such as `Unmarshal(client.call(...))`.
  explicit Unmarshal(std::vector<std::byte>&& owned)
      : owned_(std::move(owned)), data_(owned_) {}

  std::uint8_t get_u8() { return get_raw<std::uint8_t>(); }
  bool get_bool() { return get_u8() != 0; }
  std::uint32_t get_u32() { return get_raw<std::uint32_t>(); }
  std::int32_t get_i32() { return get_raw<std::int32_t>(); }
  std::uint64_t get_u64() { return get_raw<std::uint64_t>(); }
  std::int64_t get_i64() { return get_raw<std::int64_t>(); }
  double get_double() { return get_raw<double>(); }

  template <typename E>
    requires std::is_enum_v<E>
  E get_enum() {
    return static_cast<E>(get_u32());
  }

  std::string get_string() {
    const std::uint32_t n = get_u32();
    check(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  std::vector<std::byte> get_bytes() {
    const std::uint32_t n = get_u32();
    check(n);
    std::vector<std::byte> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                               data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  bool done() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  T get_raw() {
    check(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  void check(std::size_t n) const {
    if (pos_ + n > data_.size()) {
      throw DecodeError("packet truncated: need " + std::to_string(n) +
                        " bytes, have " + std::to_string(data_.size() - pos_));
    }
  }
  std::vector<std::byte> owned_;
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace strings::rpc
