#include "io/feature_file.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>

#include "io/atomic_file.hpp"
#include "io/crc32.hpp"
#include "io/error.hpp"
#include "io/mmap_file.hpp"
#include "io/section.hpp"
#include "io/storage_fault.hpp"

namespace splpg::io {

namespace {

constexpr std::uint32_t kFeatureMagic = 0x53504654;  // "SPFT"
constexpr std::uint32_t kFeatureVersionLegacy = 1;   // pre-checksum layout
constexpr std::uint32_t kFeatureVersion = 2;         // + payload/header CRC-32
// v1 header: magic, version, nodes, dim. v2 appends payload_bytes (u64),
// payload_crc, header_crc. The payload still starts at a fixed float-aligned
// offset (16 or 32) so mmap stays zero-copy.
constexpr std::size_t kFeatureHeaderBytesV2 = 32;

constexpr std::uint32_t kLabelMagic = 0x53504C42;  // "SPLB"
constexpr std::uint32_t kLabelVersionLegacy = 1;
constexpr std::uint32_t kLabelVersion = 2;

struct FeatureHeader {
  std::uint32_t version = 0;
  std::uint32_t num_nodes = 0;
  std::uint32_t dim = 0;
  std::uint64_t payload_bytes = 0;
  std::uint32_t payload_crc = 0;  // v2 only
  std::uint64_t header_bytes = 0;

  [[nodiscard]] bool checksummed() const noexcept { return version == kFeatureVersion; }
};

/// Reads and checks magic and version, the v1 or v2 header fields, and the
/// v2 header CRC.
FeatureHeader read_feature_header(SectionReader& section) {
  if (section.read<std::uint32_t>() != kFeatureMagic) {
    section.fail("bad magic (not an SPFT file)");
  }
  FeatureHeader header;
  header.version = section.read<std::uint32_t>();
  if (header.version != kFeatureVersion && header.version != kFeatureVersionLegacy) {
    section.fail("unsupported version " + std::to_string(header.version) + " (expected " +
                 std::to_string(kFeatureVersionLegacy) + " or " +
                 std::to_string(kFeatureVersion) + ")");
  }
  header.num_nodes = section.read<std::uint32_t>();
  header.dim = section.read<std::uint32_t>();
  const std::uint64_t elements = static_cast<std::uint64_t>(header.num_nodes) * header.dim;
  if (elements > UINT64_MAX / sizeof(float)) {
    section.fail("implausible shape " + std::to_string(header.num_nodes) + "x" +
                 std::to_string(header.dim));
  }
  const std::uint64_t expected = elements * sizeof(float);
  header.payload_bytes = expected;
  if (header.checksummed()) {
    header.payload_bytes = section.read<std::uint64_t>();
    header.payload_crc = section.read<std::uint32_t>();
    section.check_header_crc();
  }
  header.header_bytes = section.offset();
  if (header.payload_bytes != expected) {
    section.fail("header declares " + std::to_string(header.payload_bytes) +
                 " payload bytes but " + std::to_string(header.num_nodes) + "x" +
                 std::to_string(header.dim) + " features need " + std::to_string(expected));
  }
  return header;
}

void fill_integrity(ReadIntegrity* integrity, const FeatureHeader& header) {
  if (integrity != nullptr) *integrity = {header.version, header.checksummed()};
}

}  // namespace

std::string to_string(FeatureBackend backend) {
  return backend == FeatureBackend::kMmap ? "mmap" : "buffered";
}

void write_features(std::ostream& out, const graph::FeatureStore& features) {
  const auto data = features.data();
  write_header(out, kFeatureMagic, kFeatureVersion, features.num_nodes(), features.dim(),
               std::uint64_t{data.size_bytes()}, Crc32::of(data.data(), data.size_bytes()));
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size_bytes()));
  if (!out) throw FormatError("feature file: write failed");
}

void write_features_file(const std::string& path, const graph::FeatureStore& features) {
  write_file_atomic(path, [&](std::ostream& out) { write_features(out, features); });
}

graph::FeatureStore read_features(std::istream& in, ReadIntegrity* integrity) {
  SectionReader section(in, "feature file");
  const FeatureHeader header = read_feature_header(section);
  fill_integrity(integrity, header);
  auto data = section.read_array<float>(header.payload_bytes / sizeof(float));
  if (header.checksummed()) section.check_payload_crc(header.payload_crc);
  section.expect_end();
  return {header.num_nodes, header.dim, std::move(data)};
}

graph::FeatureStore read_features_file(const std::string& path, FeatureBackend backend,
                                       ReadIntegrity* integrity) {
  storage_faults_on_read(path);
  if (backend == FeatureBackend::kMmap) {
    if (auto mapped = MappedFile::map(path); mapped.has_value()) {
      return with_path(path, [&]() -> graph::FeatureStore {
        // Parse + validate the header against the actual mapping size BEFORE
        // constructing the zero-copy view: a truncated or padded file must be
        // a FormatError here, never an out-of-bounds read or SIGBUS on the
        // first gather.
        std::istringstream header_stream(
            std::string(reinterpret_cast<const char*>(mapped->data()),
                        std::min(mapped->size(), kFeatureHeaderBytesV2)));
        SectionReader section(header_stream, "feature file");
        const FeatureHeader header = read_feature_header(section);
        const std::uint64_t expected_size = header.header_bytes + header.payload_bytes;
        if (mapped->size() < expected_size) {
          section.fail("truncated — " + std::to_string(expected_size) + " bytes declared, " +
                       std::to_string(mapped->size()) + " in the file");
        }
        if (mapped->size() > expected_size) {
          section.fail("trailing garbage after the declared payload at offset " +
                       std::to_string(expected_size));
        }
        if (header.checksummed()) {
          check_crc(header.payload_crc,
                    Crc32::of(mapped->data() + header.header_bytes, header.payload_bytes),
                    "feature file", "payload", header.header_bytes);
        }
        fill_integrity(integrity, header);
        // Point the store straight at the mapped payload (zero-copy). The
        // shared_ptr keeps the mapping alive as long as any store copy does.
        auto owner = std::make_shared<MappedFile>(std::move(*mapped));
        const auto* rows =
            reinterpret_cast<const float*>(owner->data() + header.header_bytes);
        return {header.num_nodes, header.dim, rows, std::move(owner)};
      });
    }
    // Mapping unavailable (platform or I/O): fall back to a buffered read so
    // the backend choice never changes observable behavior.
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) throw_errno("feature file: cannot open", path);
  return with_path(path, [&] { return read_features(in, integrity); });
}

void write_labels_file(const std::string& path, const std::vector<std::uint32_t>& labels) {
  write_file_atomic(path, [&](std::ostream& out) {
    const std::uint64_t payload_bytes = labels.size() * sizeof(std::uint32_t);
    write_header(out, kLabelMagic, kLabelVersion, std::uint64_t{labels.size()},
                 Crc32::of(labels.data(), payload_bytes));
    out.write(reinterpret_cast<const char*>(labels.data()),
              static_cast<std::streamsize>(payload_bytes));
    if (!out) throw FormatError("label file: write failed");
  });
}

std::vector<std::uint32_t> read_labels_file(const std::string& path,
                                            ReadIntegrity* integrity) {
  storage_faults_on_read(path);
  std::ifstream in(path, std::ios::binary);
  if (!in) throw_errno("label file: cannot open", path);
  return with_path(path, [&] {
    // v1: magic, version, count, labels. v2 adds the payload and header CRCs.
    SectionReader section(in, "label file");
    if (section.read<std::uint32_t>() != kLabelMagic) {
      section.fail("bad magic (not an SPLB file)");
    }
    const auto version = section.read<std::uint32_t>();
    if (version != kLabelVersion && version != kLabelVersionLegacy) {
      section.fail("unsupported version " + std::to_string(version));
    }
    const bool checksummed = version == kLabelVersion;
    const auto count = section.read<std::uint64_t>();
    const auto payload_crc = checksummed ? section.read<std::uint32_t>() : 0;
    if (checksummed) section.check_header_crc();
    auto labels = section.read_array<std::uint32_t>(count);
    if (checksummed) section.check_payload_crc(payload_crc);
    section.expect_end();
    if (integrity != nullptr) *integrity = {version, checksummed};
    return labels;
  });
}

}  // namespace splpg::io
