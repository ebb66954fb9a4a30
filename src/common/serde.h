#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

/// \file serde.h
/// Little-endian binary encoding used by the LSM on-disk formats and the
/// wire formats of the broker/replication runtimes.

namespace rhino {

/// Decodes the varint that starts at `p`, reading no byte at or past
/// `end`. Returns the byte after it, or nullptr when the input ends first
/// or the varint runs past ten bytes. Loops that decode many small
/// varints call this directly; `BinaryReader::GetVarint` wraps it.
inline const char* DecodeVarint(const char* p, const char* end,
                                uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63 && p < end; shift += 7) {
    const uint64_t byte = static_cast<uint8_t>(*p++);
    result |= (byte & 0x7f) << shift;
    if (byte < 0x80) {
      *v = result;
      return p;
    }
  }
  return nullptr;
}

/// Appends fixed-width and length-prefixed values to a byte buffer.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::string* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }

  void PutU32(uint32_t v) {
    char buf[4];
    std::memcpy(buf, &v, 4);
    out_->append(buf, 4);
  }

  void PutU64(uint64_t v) {
    char buf[8];
    std::memcpy(buf, &v, 8);
    out_->append(buf, 8);
  }

  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

  /// Variable-length unsigned integer (LEB128-style).
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      PutU8(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    PutU8(static_cast<uint8_t>(v));
  }

  /// Signed integer as the varint of its zigzag code (0, -1, 1, -2, ...
  /// map to 0, 1, 2, 3, ...), so small magnitudes of either sign stay
  /// short.
  void PutZigzag(int64_t v) {
    const uint64_t u = static_cast<uint64_t>(v);
    PutVarint((u << 1) ^ (v < 0 ? ~uint64_t{0} : 0));
  }

  /// Length-prefixed byte string.
  void PutString(std::string_view s) {
    PutVarint(s.size());
    out_->append(s.data(), s.size());
  }

 private:
  std::string* out_;
};

/// Reads values written by `BinaryWriter`. All accessors fail with
/// `Corruption` on truncation rather than reading out of bounds.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t position() const { return pos_; }

  Status GetU8(uint8_t* v) {
    if (remaining() < 1) return Truncated();
    *v = static_cast<uint8_t>(data_[pos_++]);
    return Status::OK();
  }

  Status GetU32(uint32_t* v) {
    if (remaining() < 4) return Truncated();
    std::memcpy(v, data_.data() + pos_, 4);
    pos_ += 4;
    return Status::OK();
  }

  Status GetU64(uint64_t* v) {
    if (remaining() < 8) return Truncated();
    std::memcpy(v, data_.data() + pos_, 8);
    pos_ += 8;
    return Status::OK();
  }

  Status GetI64(int64_t* v) {
    uint64_t u;
    RHINO_RETURN_NOT_OK(GetU64(&u));
    *v = static_cast<int64_t>(u);
    return Status::OK();
  }

  Status GetVarint(uint64_t* v) {
    const char* begin = data_.data() + pos_;
    const char* next = DecodeVarint(begin, data_.data() + data_.size(), v);
    if (next == nullptr) {
      return Status::Corruption("truncated or overlong varint");
    }
    pos_ += static_cast<size_t>(next - begin);
    return Status::OK();
  }

  /// Element count (a varint) of a sequence whose elements take at least
  /// `min_element_bytes` each. Corruption when the remaining bytes cannot
  /// hold that many, so a corrupt count never sizes an allocation.
  Status GetCount(size_t min_element_bytes, uint64_t* n) {
    RHINO_RETURN_NOT_OK(GetVarint(n));
    if (*n > remaining() / min_element_bytes) {
      return Status::Corruption("element count " + std::to_string(*n) +
                                " exceeds the remaining " +
                                std::to_string(remaining()) + " bytes");
    }
    return Status::OK();
  }

  /// Varint that must fit `uint32_t`; Corruption otherwise.
  Status GetVarint32(uint32_t* v) {
    uint64_t wide = 0;
    RHINO_RETURN_NOT_OK(GetVarint(&wide));
    if (wide > UINT32_MAX) return Status::Corruption("varint exceeds 32 bits");
    *v = static_cast<uint32_t>(wide);
    return Status::OK();
  }

  /// Reads a value written by `BinaryWriter::PutZigzag`.
  Status GetZigzag(int64_t* v) {
    uint64_t u = 0;
    RHINO_RETURN_NOT_OK(GetVarint(&u));
    *v = static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
    return Status::OK();
  }

  /// Reads the next `len` bytes as a view into the underlying buffer.
  Status GetBytes(uint64_t len, std::string_view* s) {
    if (remaining() < len) return Truncated();
    *s = data_.substr(pos_, len);
    pos_ += len;
    return Status::OK();
  }

  /// Reads a length-prefixed string as a view into the underlying buffer.
  Status GetString(std::string_view* s) {
    uint64_t len = 0;
    RHINO_RETURN_NOT_OK(GetVarint(&len));
    return GetBytes(len, s);
  }

  Status GetString(std::string* s) {
    std::string_view v;
    RHINO_RETURN_NOT_OK(GetString(&v));
    s->assign(v);
    return Status::OK();
  }

 private:
  static Status Truncated() {
    return Status::Corruption("truncated binary input");
  }
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace rhino
