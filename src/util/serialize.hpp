// Binary (de)serialization helpers: little-endian PODs and length-prefixed
// vectors, for spelling out a byte layout by hand (the legacy v1 files the
// io readers still accept, say). The file formats themselves are framed by
// io/section.hpp; this is not a wire format.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace splpg::util {

template <typename T>
  requires std::is_trivially_copyable_v<T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("serialize: unexpected end of stream");
  return value;
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
void write_vector(std::ostream& out, const std::vector<T>& values) {
  write_pod<std::uint64_t>(out, values.size());
  if (!values.empty()) {
    out.write(reinterpret_cast<const char*>(values.data()),
              static_cast<std::streamsize>(values.size() * sizeof(T)));
  }
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
std::vector<T> read_vector(std::istream& in) {
  const auto count = read_pod<std::uint64_t>(in);
  std::vector<T> values(count);
  if (count > 0) {
    in.read(reinterpret_cast<char*>(values.data()),
            static_cast<std::streamsize>(count * sizeof(T)));
    if (!in) throw std::runtime_error("serialize: unexpected end of stream");
  }
  return values;
}

inline void write_string(std::ostream& out, const std::string& text) {
  write_pod<std::uint64_t>(out, text.size());
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

inline std::string read_string(std::istream& in) {
  const auto size = read_pod<std::uint64_t>(in);
  std::string text(size, '\0');
  if (size > 0) {
    in.read(text.data(), static_cast<std::streamsize>(size));
    if (!in) throw std::runtime_error("serialize: unexpected end of stream");
  }
  return text;
}

}  // namespace splpg::util
