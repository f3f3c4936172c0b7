#include "nn/checkpoint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "io/atomic_file.hpp"
#include "io/crc32.hpp"
#include "io/section.hpp"
#include "io/storage_fault.hpp"
#include "nn/matrix_section.hpp"

namespace splpg::nn {

namespace fs = std::filesystem;

namespace {

// Parameter section. The legacy "SPLM" layout (magic, count, shapes + data,
// no checksums) is still readable; new sections are written as "SPM2" with a
// checksummed header + payload (nn/matrix_section.hpp). The magic changed
// (instead of a version bump) because v1 has no version field — the byte
// after the magic is already the parameter count.
constexpr std::uint32_t kMagicLegacy = 0x53504C4D;  // "SPLM"
constexpr std::uint32_t kMagic = 0x53504D32;        // "SPM2"

// Train state: magic + version came first since v1, so the magic is stable.
constexpr std::uint32_t kStateMagic = 0x5350434B;  // "SPCK"
constexpr std::uint32_t kStateVersionLegacy = 1;
constexpr std::uint32_t kStateVersion = 2;

constexpr const char* kManifestFile = "MANIFEST";
constexpr const char* kStatePrefix = "state_epoch_";
constexpr const char* kModelPrefix = "model_epoch_";

/// Decodes one parameter section; `checksummed` reports SPM2 versus SPLM.
std::vector<tensor::Matrix> decode_parameters(std::istream& in, bool& checksummed) {
  io::SectionReader section(in, "parameter section");
  const auto magic = section.read<std::uint32_t>();
  if (magic != kMagic && magic != kMagicLegacy) {
    section.fail("bad magic (not an SPLM parameter section)");
  }
  checksummed = magic == kMagic;
  const auto count = section.read<std::uint64_t>();
  return checksummed ? read_matrix_section(section, count) : read_matrices(section, count);
}

/// Throws std::invalid_argument unless `values` match the module's
/// parameters in count and every shape (the state_dict contract).
void check_parameter_shapes(const std::vector<tensor::Matrix>& values, const Module& module) {
  const auto& params = module.parameters();
  if (values.size() != params.size()) {
    throw std::invalid_argument("load_parameters: parameter count mismatch");
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!values[i].same_shape(params[i].value())) {
      throw std::invalid_argument("load_parameters: shape mismatch at parameter " +
                                  std::to_string(i));
    }
  }
}

/// Copies checked values into the parameters' existing storage.
void write_parameters(const std::vector<tensor::Matrix>& values, Module& module) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::ranges::copy(values[i].data(), module.parameters()[i].mutable_value().data().begin());
  }
}

/// Throws unless `in` ends here.
void expect_file_end(std::istream& in, const char* who) {
  io::SectionReader(in, who).expect_end();
}

/// Parses the epoch out of `<prefix><digits>.bin`; nullopt for other names.
std::optional<std::uint32_t> epoch_of(const std::string& filename, const char* prefix) {
  const std::string_view name(filename);
  const std::string_view pre(prefix);
  if (name.size() <= pre.size() + 4 || name.substr(0, pre.size()) != pre ||
      name.substr(name.size() - 4) != ".bin") {
    return std::nullopt;
  }
  const std::string_view digits = name.substr(pre.size(), name.size() - pre.size() - 4);
  std::uint64_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
    if (value > UINT32_MAX) return std::nullopt;
  }
  return static_cast<std::uint32_t>(value);
}

}  // namespace

void save_parameters(std::ostream& out, const Module& module) {
  std::vector<const tensor::Matrix*> values;
  for (const auto& p : module.parameters()) values.push_back(&p.value());
  write_matrix_section(out, values, kMagic, std::uint64_t{values.size()});
  if (!out) throw std::runtime_error("save_parameters: write failed");
}

void save_parameters_file(const std::string& path, const Module& module) {
  io::write_file_atomic(path, [&](std::ostream& out) { save_parameters(out, module); });
}

void load_parameters(std::istream& in, Module& module, io::ReadIntegrity* integrity) {
  bool checksummed = false;
  const auto values = decode_parameters(in, checksummed);
  if (integrity != nullptr) *integrity = {checksummed ? 2U : 1U, checksummed};
  check_parameter_shapes(values, module);
  write_parameters(values, module);
}

void load_parameters_file(const std::string& path, Module& module,
                          io::ReadIntegrity* integrity) {
  io::storage_faults_on_read(path);
  std::ifstream in(path, std::ios::binary);
  if (!in) io::throw_errno("load_parameters_file: cannot open", path);
  io::with_path(path, [&] {
    load_parameters(in, module, integrity);
    expect_file_end(in, "load_parameters_file");
  });
}

void save_train_state(std::ostream& out, const Module& module, const Optimizer& optimizer,
                      std::uint32_t epoch) {
  io::write_header(out, kStateMagic, kStateVersion, epoch);
  save_parameters(out, module);
  optimizer.save_state(out);
  if (!out) throw std::runtime_error("save_train_state: write failed");
}

void save_train_state_file(const std::string& path, const Module& module,
                           const Optimizer& optimizer, std::uint32_t epoch) {
  io::write_file_atomic(
      path, [&](std::ostream& out) { save_train_state(out, module, optimizer, epoch); });
}

TrainState decode_train_state(std::istream& in) {
  io::SectionReader section(in, "train state");
  if (section.read<std::uint32_t>() != kStateMagic) {
    section.fail("bad magic (not an SPCK train state)");
  }
  const auto version = section.read<std::uint32_t>();
  if (version != kStateVersion && version != kStateVersionLegacy) {
    section.fail("unsupported version " + std::to_string(version));
  }
  TrainState state;
  state.epoch = section.read<std::uint32_t>();
  if (version == kStateVersion) section.check_header_crc();
  bool parameters_checksummed = false;
  state.parameters = decode_parameters(in, parameters_checksummed);
  state.optimizer = decode_optimizer_state(in);
  state.integrity = {version, version == kStateVersion && parameters_checksummed &&
                                  (!state.optimizer.present || state.optimizer.checksummed)};
  return state;
}

TrainState decode_train_state_file(const std::string& path) {
  io::storage_faults_on_read(path);
  std::ifstream in(path, std::ios::binary);
  if (!in) io::throw_errno("train state: cannot open", path);
  return io::with_path(path, [&] {
    TrainState state = decode_train_state(in);
    expect_file_end(in, "train state");
    return state;
  });
}

std::uint32_t apply_train_state(const TrainState& state, Module& module, Optimizer& optimizer) {
  check_parameter_shapes(state.parameters, module);
  optimizer.apply_state(state.optimizer);  // checks before it adopts anything
  write_parameters(state.parameters, module);
  return state.epoch;
}

std::uint32_t load_train_state(std::istream& in, Module& module, Optimizer& optimizer,
                               io::ReadIntegrity* integrity) {
  const TrainState state = decode_train_state(in);
  if (integrity != nullptr) *integrity = state.integrity;
  return apply_train_state(state, module, optimizer);
}

std::uint32_t load_train_state_file(const std::string& path, Module& module,
                                    Optimizer& optimizer, io::ReadIntegrity* integrity) {
  const TrainState state = decode_train_state_file(path);
  if (integrity != nullptr) *integrity = state.integrity;
  return apply_train_state(state, module, optimizer);
}

// ---- checkpoint directories ----

std::string checkpoint_model_file(const std::string& dir, std::uint32_t epoch) {
  return (fs::path(dir) / (kModelPrefix + std::to_string(epoch) + ".bin")).string();
}

std::string checkpoint_state_file(const std::string& dir, std::uint32_t epoch) {
  return (fs::path(dir) / (kStatePrefix + std::to_string(epoch) + ".bin")).string();
}

std::vector<CheckpointEntry> list_checkpoints(const std::string& dir) {
  std::vector<CheckpointEntry> entries;
  std::error_code ec;
  for (const auto& item : fs::directory_iterator(dir, ec)) {
    if (!item.is_regular_file()) continue;
    const auto epoch = epoch_of(item.path().filename().string(), kStatePrefix);
    if (!epoch.has_value()) continue;
    CheckpointEntry entry;
    entry.epoch = *epoch;
    entry.state_file = item.path().string();
    entry.model_file = checkpoint_model_file(dir, *epoch);
    entries.push_back(std::move(entry));
  }
  std::sort(entries.begin(), entries.end(),
            [](const CheckpointEntry& a, const CheckpointEntry& b) { return a.epoch > b.epoch; });
  return entries;
}

std::uint32_t validate_train_state_file(const std::string& path) {
  return decode_train_state_file(path).epoch;
}

std::optional<CheckpointEntry> find_latest_valid_checkpoint(const std::string& dir,
                                                            std::uint32_t* skipped,
                                                            TrainState* state,
                                                            const Module* module,
                                                            const Optimizer* optimizer) {
  if (skipped != nullptr) *skipped = 0;
  for (const auto& entry : list_checkpoints(dir)) {
    try {
      TrainState decoded = decode_train_state_file(entry.state_file);
      if (module != nullptr) check_parameter_shapes(decoded.parameters, *module);
      if (optimizer != nullptr) optimizer->check_state(decoded.optimizer);
      if (state != nullptr) *state = std::move(decoded);
      return entry;
    } catch (const std::exception&) {
      // Corrupt, truncated, unreadable or unfitting: recovery falls back to
      // the next older checkpoint instead of dying on the newest one.
      if (skipped != nullptr) ++*skipped;
    }
  }
  return std::nullopt;
}

void write_checkpoint_manifest(const std::string& dir) {
  std::ostringstream body;
  body << "# SpLPG checkpoint manifest (advisory; the directory scan is ground truth)\n";
  const auto entries = list_checkpoints(dir);
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {  // oldest first
    body << "epoch=" << it->epoch << " state=" << fs::path(it->state_file).filename().string()
         << " model=" << fs::path(it->model_file).filename().string() << "\n";
  }
  const std::string text = body.str();
  std::ostringstream crc;
  crc << "crc=0x" << std::hex << io::Crc32::of(text.data(), text.size()) << "\n";
  io::write_file_atomic((fs::path(dir) / kManifestFile).string(),
                        [&](std::ostream& out) { out << text << crc.str(); });
}

std::vector<CheckpointEntry> read_checkpoint_manifest(const std::string& dir) {
  std::ifstream in((fs::path(dir) / kManifestFile).string());
  if (!in) return {};
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const auto crc_pos = text.rfind("crc=0x");
  if (crc_pos == std::string::npos) return {};
  const std::string body = text.substr(0, crc_pos);
  std::uint32_t stored = 0;
  try {
    stored = static_cast<std::uint32_t>(
        std::stoul(text.substr(crc_pos + 6), nullptr, 16));
  } catch (const std::exception&) {
    return {};
  }
  if (stored != io::Crc32::of(body.data(), body.size())) return {};
  std::vector<CheckpointEntry> entries;
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    CheckpointEntry entry;
    std::istringstream fields(line);
    std::string token;
    bool have_epoch = false;
    while (fields >> token) {
      const auto eq = token.find('=');
      if (eq == std::string::npos) continue;
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      try {
        if (key == "epoch") {
          entry.epoch = static_cast<std::uint32_t>(std::stoul(value));
          have_epoch = true;
        } else if (key == "state") {
          entry.state_file = (fs::path(dir) / value).string();
        } else if (key == "model") {
          entry.model_file = (fs::path(dir) / value).string();
        }
      } catch (const std::exception&) {
        return {};
      }
    }
    if (have_epoch) entries.push_back(std::move(entry));
  }
  std::sort(entries.begin(), entries.end(),
            [](const CheckpointEntry& a, const CheckpointEntry& b) { return a.epoch > b.epoch; });
  return entries;
}

std::size_t gc_checkpoints(const std::string& dir, std::uint32_t keep_last) {
  std::size_t removed = 0;
  std::error_code ec;
  // Epochs present as either artifact, newest first.
  std::vector<std::uint32_t> epochs;
  std::vector<fs::path> temps;
  for (const auto& item : fs::directory_iterator(dir, ec)) {
    if (!item.is_regular_file()) continue;
    const std::string name = item.path().filename().string();
    if (name.size() > 4 && name.substr(name.size() - 4) == ".tmp") {
      temps.push_back(item.path());
      continue;
    }
    for (const char* prefix : {kStatePrefix, kModelPrefix}) {
      if (const auto epoch = epoch_of(name, prefix); epoch.has_value()) {
        epochs.push_back(*epoch);
        break;
      }
    }
  }
  // Orphaned AtomicFile temporaries are wreckage from an interrupted write;
  // the completed artifact (if any) lives under the final name.
  for (const auto& temp : temps) {
    if (fs::remove(temp, ec)) ++removed;
  }
  if (keep_last == 0) return removed;
  std::sort(epochs.begin(), epochs.end(), std::greater<>());
  epochs.erase(std::unique(epochs.begin(), epochs.end()), epochs.end());
  for (std::size_t i = keep_last; i < epochs.size(); ++i) {
    for (const auto& path : {checkpoint_state_file(dir, epochs[i]),
                             checkpoint_model_file(dir, epochs[i])}) {
      if (fs::remove(path, ec)) ++removed;
    }
  }
  return removed;
}

}  // namespace splpg::nn
