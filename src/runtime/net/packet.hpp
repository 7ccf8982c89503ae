#pragma once

/// \file packet.hpp
/// The tagged SPMD wire format.
///
/// A Packet is the unit every transport moves between ranks.  Historically
/// it was an untyped byte stream (pack wrote raw bytes, unpack trusted the
/// reader to mirror the writer); that is fine between threads of one
/// process but unacceptable on a wire, where a truncated or corrupted
/// frame must produce a typed error instead of undefined behavior.  The
/// format is therefore *self-describing*: every value carries a one-byte
/// tag plus its element size, and every read is bounds- and tag-checked,
/// throwing net::TransportError on any mismatch.
///
/// Wire layout (all integers little-endian host order — both ends of a
/// connection must share endianness, which localhost/LAN clusters do):
///
///   scalar  T        : [kScalar]  [u8 sizeof(T)] [raw bytes]
///   vector<T>        : [kVector]  [u8 sizeof(T)] [u64 count] [raw bytes]
///   delta-coded vec  : [kDeltaVec][u8 sizeof(T)] [varint count]
///                      [zigzag-varint deltas...]
///
/// kDeltaVec is never produced by pack_vector — it is the on-wire rewrite
/// the DeltaVarintFilter (filters.hpp) applies to integer vectors, decoded
/// back to kVector before the packet reaches unpack_vector.  Keeping the
/// tag here (rather than private to the filter) makes the stream walkable
/// by any filter without a schema.
///
/// The self-describing format is what makes the message-filter chain
/// possible: a filter can walk a packet's bytes, find the integer vectors,
/// and rewrite them, without knowing which SPMD protocol message it is
/// looking at.

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "runtime/net/error.hpp"

namespace pigp::net {

/// Value tags of the packet wire format.
enum class WireTag : std::uint8_t {
  kScalar = 0x53,    // 'S'
  kVector = 0x56,    // 'V'
  kDeltaVec = 0x44,  // 'D'
};

// ------------------------------------------------------------------ varint
// LEB128 unsigned varints + zigzag signed mapping, shared by the delta
// filter and the frame codec.

inline void append_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Read one varint at \p cursor, advancing it.  Throws TransportError on
/// truncation or an overlong (> 10 byte) encoding.
inline std::uint64_t read_varint(const std::uint8_t* data, std::size_t size,
                                 std::size_t& cursor) {
  std::uint64_t value = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    if (cursor >= size) throw TransportError("varint truncated");
    const std::uint8_t byte = data[cursor++];
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
  throw TransportError("varint overlong");
}

[[nodiscard]] inline std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] inline std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

// ------------------------------------------------------------------ Packet

/// Typed, bounds-checked byte packet — see the file comment for the wire
/// layout.  pack/unpack must be mirrored by the two ends exactly (same
/// types in the same order); any divergence, truncation, or corruption
/// surfaces as a net::TransportError instead of undefined behavior.
class Packet {
 public:
  Packet() = default;

  /// Adopt raw wire bytes (the receive path); the read cursor starts at 0.
  [[nodiscard]] static Packet from_bytes(std::vector<std::uint8_t> bytes) {
    Packet p;
    p.data_ = std::move(bytes);
    return p;
  }

  template <typename T>
  void pack(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(sizeof(T) <= 0xFF);
    std::uint8_t* out = grow(2 + sizeof(T));
    out[0] = static_cast<std::uint8_t>(WireTag::kScalar);
    out[1] = static_cast<std::uint8_t>(sizeof(T));
    std::memcpy(out + 2, &value, sizeof(T));
  }

  template <typename T>
  void pack_vector(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(sizeof(T) <= 0xFF);
    const auto count = static_cast<std::uint64_t>(values.size());
    const std::size_t payload = sizeof(T) * values.size();
    std::uint8_t* out = grow(2 + sizeof(count) + payload);
    out[0] = static_cast<std::uint8_t>(WireTag::kVector);
    out[1] = static_cast<std::uint8_t>(sizeof(T));
    std::memcpy(out + 2, &count, sizeof(count));
    if (payload == 0) return;  // data() may be null for empty vectors
    std::memcpy(out + 2 + sizeof(count), values.data(), payload);
  }

  template <typename T>
  [[nodiscard]] T unpack() {
    static_assert(std::is_trivially_copyable_v<T>);
    expect_tag(WireTag::kScalar, sizeof(T));
    T value;
    std::memcpy(&value, data_.data() + cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return value;
  }

  template <typename T>
  [[nodiscard]] std::vector<T> unpack_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    expect_tag(WireTag::kVector, sizeof(T));
    std::uint64_t count = 0;
    need(sizeof(count), "vector count");
    std::memcpy(&count, data_.data() + cursor_, sizeof(count));
    cursor_ += sizeof(count);
    // A malformed count must fail *before* the allocation: a corrupted
    // 8-byte count can demand petabytes.
    if (count > (data_.size() - cursor_) / sizeof(T)) {
      throw TransportError("packet underrun: vector count " +
                           std::to_string(count) + " exceeds payload");
    }
    std::vector<T> values(static_cast<std::size_t>(count));
    if (count == 0) return values;  // data() may be null for empty vectors
    std::memcpy(values.data(), data_.data() + cursor_,
                sizeof(T) * static_cast<std::size_t>(count));
    cursor_ += sizeof(T) * static_cast<std::size_t>(count);
    return values;
  }

  [[nodiscard]] std::size_t size_bytes() const noexcept {
    return data_.size();
  }

  /// The raw wire bytes (the send path reads, filters rewrite copies).
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return data_;
  }

  /// Move the bytes out (the send path, avoiding a copy).
  [[nodiscard]] std::vector<std::uint8_t> release_bytes() noexcept {
    cursor_ = 0;
    return std::move(data_);
  }

 private:
  /// Extend the buffer by \p n bytes in one step and return the first new
  /// byte, for the caller to fill.  The offset is read back from the
  /// resized buffer: computed before the resize, GCC 12 loses track of the
  /// reallocation and reports a false -Wstringop-overflow.
  std::uint8_t* grow(std::size_t n) {
    data_.resize(data_.size() + n);
    return data_.data() + (data_.size() - n);
  }

  void need(std::size_t n, const char* what) const {
    if (cursor_ + n > data_.size()) {
      throw TransportError(std::string("packet underrun reading ") + what);
    }
  }

  void expect_tag(WireTag tag, std::size_t elem_size) {
    need(2, "tag");
    const auto got = static_cast<WireTag>(data_[cursor_]);
    if (got != tag) {
      throw TransportError(
          "packet tag mismatch: expected " +
          std::to_string(static_cast<int>(tag)) + ", got " +
          std::to_string(static_cast<int>(got)) +
          " (reader out of sync with writer, or payload corrupted)");
    }
    const std::size_t size = data_[cursor_ + 1];
    if (size != elem_size) {
      throw TransportError("packet element size mismatch: expected " +
                           std::to_string(elem_size) + ", got " +
                           std::to_string(size));
    }
    cursor_ += 2;
    need(tag == WireTag::kScalar ? elem_size : 0, "value");
  }

  std::vector<std::uint8_t> data_;
  std::size_t cursor_ = 0;
};

}  // namespace pigp::net
