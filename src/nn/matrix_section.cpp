#include "nn/matrix_section.hpp"

#include <sstream>
#include <string>

namespace splpg::nn {

void write_matrix(std::ostream& out, const tensor::Matrix& matrix) {
  const std::uint64_t shape[2] = {matrix.rows(), matrix.cols()};
  const auto data = matrix.data();
  out.write(reinterpret_cast<const char*>(shape), sizeof(shape));
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size_bytes()));
}

std::vector<tensor::Matrix> read_matrix_section(io::SectionReader& section,
                                                std::uint64_t count) {
  const auto payload_bytes = section.read<std::uint64_t>();
  const auto payload_crc = section.read<std::uint32_t>();
  section.check_header_crc();
  section.require(payload_bytes);
  std::string payload(payload_bytes, '\0');
  section.read_bytes(payload.data(), payload_bytes);
  section.check_payload_crc(payload_crc);
  std::istringstream in(std::move(payload));
  io::SectionReader matrices(in, section.who());
  auto decoded = read_matrices(matrices, count);
  matrices.expect_end();
  return decoded;
}

std::vector<tensor::Matrix> read_matrices(io::SectionReader& section, std::uint64_t count) {
  std::vector<tensor::Matrix> matrices;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto rows = section.read<std::uint64_t>();
    const auto cols = section.read<std::uint64_t>();
    if (rows != 0 && cols > UINT64_MAX / rows) {
      section.fail("implausible matrix shape " + std::to_string(rows) + "x" +
                   std::to_string(cols));
    }
    matrices.emplace_back(rows, cols, section.read_array<float>(rows * cols));
  }
  return matrices;
}

}  // namespace splpg::nn
