#include "io/section.hpp"

#include <sstream>

namespace splpg::io {

void check_crc(std::uint32_t stored, std::uint32_t computed, const std::string& who,
               const char* section, std::uint64_t offset) {
  if (stored == computed) return;
  std::ostringstream message;
  message << who << ": " << section << " checksum mismatch at offset " << offset
          << " (stored 0x" << std::hex << stored << ", computed 0x" << computed << ")";
  throw FormatError(message.str());
}

SectionReader::SectionReader(std::istream& in, std::string who)
    : in_(in), who_(std::move(who)) {
  const auto here = in_.tellg();
  offset_ = crc_begin_ = here < 0 ? 0 : static_cast<std::uint64_t>(here);
}

void SectionReader::consumed(const void* data, std::size_t size) {
  crc_.update(data, size);
  offset_ += size;
}

void SectionReader::require(std::uint64_t size) {
  const auto here = in_.tellg();
  if (here < 0) return;
  in_.seekg(0, std::ios::end);
  const auto end = in_.tellg();
  in_.seekg(here);
  if (end < 0) return;
  const auto left = static_cast<std::uint64_t>(end - here);
  if (left < size) {
    fail("truncated — " + std::to_string(size) + " bytes declared at offset " +
         std::to_string(offset_) + ", " + std::to_string(left) + " remain");
  }
}

void SectionReader::read_bytes(void* dst, std::uint64_t size) {
  require(size);
  in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(size));
  if (static_cast<std::uint64_t>(in_.gcount()) != size) {
    fail("truncated — " + std::to_string(size) + " bytes declared at offset " +
         std::to_string(offset_));
  }
  consumed(dst, size);
}

void SectionReader::check_header_crc() {
  const std::uint32_t computed = crc_.value();
  const std::uint64_t at = offset_;
  std::uint32_t stored = 0;
  if (!in_.read(reinterpret_cast<char*>(&stored), sizeof(stored))) fail("truncated header");
  offset_ += sizeof(stored);
  io::check_crc(stored, computed, who_, "header", at);
  crc_ = Crc32();
  crc_begin_ = offset_;
}

void SectionReader::check_payload_crc(std::uint32_t stored) {
  io::check_crc(stored, crc_.value(), who_, "payload", crc_begin_);
  crc_ = Crc32();
  crc_begin_ = offset_;
}

void SectionReader::expect_end() {
  if (in_.peek() != std::char_traits<char>::eof()) {
    fail("trailing garbage after the declared payload at offset " + std::to_string(offset_));
  }
}

void SectionReader::fail(const std::string& message) const {
  throw FormatError(who_ + ": " + message);
}

}  // namespace splpg::io
