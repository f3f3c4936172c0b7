// Matrix-list sections: the layout the parameter section ("SPM2",
// nn/checkpoint.cpp) and the optimizer-state section ("SPO2",
// nn/optimizer.cpp) share. The header is the owner's leading fields, the
// payload byte count and CRC-32, then the header CRC-32 (io/section.hpp);
// the payload is each matrix as its shape (rows, cols: u64) followed by its
// row-major floats. The legacy layouts ("SPLM", "SPOS") are the leading
// fields followed directly by the matrices, with no checksums.
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "io/section.hpp"
#include "tensor/matrix.hpp"

namespace splpg::nn {

void write_matrix(std::ostream& out, const tensor::Matrix& matrix);

/// Writes `fields...`, the payload byte count and CRC-32, the header CRC-32,
/// then the matrices, straight from their storage.
template <typename... Fields>
void write_matrix_section(std::ostream& out, const std::vector<const tensor::Matrix*>& matrices,
                          const Fields&... fields) {
  std::uint64_t payload_bytes = 0;
  io::Crc32 crc;
  for (const tensor::Matrix* matrix : matrices) {
    const std::uint64_t shape[2] = {matrix->rows(), matrix->cols()};
    const auto data = matrix->data();
    crc.update(shape, sizeof(shape)).update(data.data(), data.size_bytes());
    payload_bytes += sizeof(shape) + data.size_bytes();
  }
  io::write_header(out, fields..., payload_bytes, crc.value());
  for (const tensor::Matrix* matrix : matrices) write_matrix(out, *matrix);
}

/// Reads the rest of a checksummed section whose leading fields the caller
/// has read: the payload byte count and CRC-32, the header CRC-32, then the
/// payload. The payload is checked against its CRC before any of it is
/// interpreted, so a flipped bit reports as a checksum mismatch, never as a
/// bogus shape. It must hold exactly `count` matrices.
[[nodiscard]] std::vector<tensor::Matrix> read_matrix_section(io::SectionReader& section,
                                                              std::uint64_t count);

/// `count` matrices read straight from the section (the legacy layouts).
[[nodiscard]] std::vector<tensor::Matrix> read_matrices(io::SectionReader& section,
                                                        std::uint64_t count);

}  // namespace splpg::nn
