// Canonical TLV (tag-length-value) encoding.
//
// Every signed object in the signalling protocol — reservation
// specifications, certificates, RAR layers — is serialized with this encoder
// before hashing, so encoding must be *canonical*: a given logical value has
// exactly one byte representation. We guarantee this by fixed-width
// big-endian integers, explicit tags, and length-prefixed values, and the
// reader rejects trailing garbage.
//
// Wire format of one element:
//   tag      : u16  big-endian
//   length   : u32  big-endian (byte length of value)
//   value    : `length` bytes (possibly nested TLV elements)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace e2e::tlv {

using Tag = std::uint16_t;

/// Bytes before an element's value: the u16 tag and the u32 length.
inline constexpr std::size_t kHeaderSize = 6;

/// Incremental writer. Scalar put_* helpers encode the value as the TLV
/// payload; `open`/`close` create nested containers.
class Writer {
 public:
  void put_u8(Tag tag, std::uint8_t v);
  void put_u16(Tag tag, std::uint16_t v);
  void put_u32(Tag tag, std::uint32_t v);
  void put_u64(Tag tag, std::uint64_t v);
  void put_i64(Tag tag, std::int64_t v);
  void put_bool(Tag tag, bool v);
  void put_string(Tag tag, std::string_view v);
  void put_bytes(Tag tag, BytesView v);
  /// Doubles are encoded as their IEEE-754 bit pattern (big-endian u64);
  /// this is canonical for any given double value.
  void put_f64(Tag tag, double v);

  /// Begin a nested container with `tag`; elements written until the matching
  /// close() become its payload. Containers may nest arbitrarily.
  void open(Tag tag);
  void close();

  /// Finish and return the encoded bytes. All containers must be closed.
  Bytes take();

 private:
  void put_header(Tag tag, std::uint32_t length);
  Bytes buf_;
  std::vector<std::size_t> open_offsets_;  // offsets of length fields to patch
};

/// One parsed element (header + view into the buffer).
struct Element {
  Tag tag = 0;
  BytesView value;
};

/// Sequential reader over one TLV container. The reader borrows the byte
/// buffer; callers must keep it alive.
class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  bool at_end() const { return pos_ >= data_.size(); }

  /// Peek the tag of the next element without consuming it.
  Result<Tag> peek_tag() const;

  /// Read the next element of any tag.
  Result<Element> next();

  /// Read the next element and require a specific tag.
  Result<Element> expect(Tag tag);

  // Typed accessors: read the next element, require `tag`, and decode the
  // payload with strict length checks.
  Result<std::uint8_t> read_u8(Tag tag);
  Result<std::uint16_t> read_u16(Tag tag);
  Result<std::uint32_t> read_u32(Tag tag);
  Result<std::uint64_t> read_u64(Tag tag);
  Result<std::int64_t> read_i64(Tag tag);
  Result<bool> read_bool(Tag tag);
  Result<std::string> read_string(Tag tag);
  Result<Bytes> read_bytes(Tag tag);
  Result<double> read_f64(Tag tag);

  /// Read the next element, require `tag`, and return a Reader over its
  /// payload (for nested containers).
  Result<Reader> read_nested(Tag tag);

  /// If the next element has `tag`, consume and return it; otherwise
  /// std::nullopt. Used for optional fields.
  std::optional<Element> try_next(Tag tag);

 private:
  BytesView data_;
  std::size_t pos_ = 0;
};

// Scalar big-endian helpers (exposed for the crypto layer).
void put_be16(Bytes& out, std::uint16_t v);
void put_be32(Bytes& out, std::uint32_t v);
void put_be64(Bytes& out, std::uint64_t v);
std::uint64_t get_be(BytesView in, std::size_t nbytes);

}  // namespace e2e::tlv
