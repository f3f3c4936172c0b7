// Checksummed sections: the one framing every binary format here shares.
//
// A section is a header — POD fields back to back, then the CRC-32 of
// exactly those bytes — followed by a payload whose CRC-32 is one of the
// header fields. Writers emit the header with write_header(). Readers pull
// the same fields back through a SectionReader, which folds every byte it
// reads into a running CRC-32, so the stored header CRC is checked without
// rebuilding the header, and a payload is checked the same way.
//
// Every defect raises FormatError "<who>: <what>", worded one way for all
// formats: "truncated header", "truncated — N bytes declared at offset …",
// "header|payload checksum mismatch at offset N (stored 0x…, computed 0x…)",
// "trailing garbage after the declared payload at offset N".
// Offsets are stream positions. Legacy (v1) layouts are the same fields
// without the CRCs: their readers simply skip the checks.
#pragma once

#include <cstdint>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "io/crc32.hpp"
#include "io/error.hpp"

namespace splpg::io {

/// Writes `fields...` back to back, then the CRC-32 of their bytes.
template <typename... Fields>
void write_header(std::ostream& out, const Fields&... fields) {
  static_assert((std::is_trivially_copyable_v<Fields> && ...));
  char bytes[(sizeof(Fields) + ...)];
  std::size_t at = 0;
  ((std::memcpy(bytes + at, &fields, sizeof(Fields)), at += sizeof(Fields)), ...);
  const std::uint32_t crc = Crc32::of(bytes, sizeof(bytes));
  out.write(bytes, sizeof(bytes));
  out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
}

/// Throws "<who>: <section> checksum mismatch at offset N (...)" unless the
/// stored and computed CRCs agree.
void check_crc(std::uint32_t stored, std::uint32_t computed, const std::string& who,
               const char* section, std::uint64_t offset);

/// Reads one section from a stream. Every byte read is folded into a
/// running CRC-32; check_header_crc() and check_payload_crc() compare and
/// restart it.
class SectionReader {
 public:
  /// `who` prefixes every error ("feature file", "parameter section", ...).
  SectionReader(std::istream& in, std::string who);

  /// The next field; a short read is "truncated header".
  template <typename T>
  T read() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    if (!in_.read(reinterpret_cast<char*>(&value), sizeof(T))) fail("truncated header");
    consumed(&value, sizeof(T));
    return value;
  }

  /// The next `count` elements. Checks first that the stream holds them, so
  /// a bad count fails before anything is allocated.
  template <typename T>
  std::vector<T> read_array(std::uint64_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > std::numeric_limits<std::uint64_t>::max() / sizeof(T)) {
      fail("implausible element count " + std::to_string(count));
    }
    std::vector<T> values;
    require(count * sizeof(T));
    values.resize(count);
    read_bytes(values.data(), count * sizeof(T));
    return values;
  }

  /// Fills `size` bytes at `dst`; "truncated" when the stream holds fewer.
  void read_bytes(void* dst, std::uint64_t size);

  /// Throws "truncated" unless `size` more bytes remain. Streams that cannot
  /// seek are not checked here; their short read fails instead.
  void require(std::uint64_t size);

  /// Reads the stored CRC-32 that closes a header and checks it against
  /// every byte read since the section began (or since the last check).
  void check_header_crc();

  /// Checks the bytes read since the last check (a payload) against
  /// `stored`, naming the offset where they began.
  void check_payload_crc(std::uint32_t stored);

  /// Throws unless the stream ends here.
  void expect_end();

  /// Stream position of the next byte.
  [[nodiscard]] std::uint64_t offset() const noexcept { return offset_; }
  [[nodiscard]] const std::string& who() const noexcept { return who_; }

  [[noreturn]] void fail(const std::string& message) const;

 private:
  void consumed(const void* data, std::size_t size);

  std::istream& in_;
  std::string who_;
  Crc32 crc_;
  std::uint64_t offset_ = 0;
  std::uint64_t crc_begin_ = 0;  // offset where the running CRC started
};

}  // namespace splpg::io
