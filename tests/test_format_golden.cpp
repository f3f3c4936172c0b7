// Byte-golden oracle for every on-disk writer: fixed inputs, and a digest of
// the exact bytes each writer emits. The digests were recorded once and are
// never edited — a refactor of the storage layer must reproduce every byte,
// so a failure here means a file format changed.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "data/generators.hpp"
#include "graph/csr_graph.hpp"
#include "graph/features.hpp"
#include "io/edge_list.hpp"
#include "io/feature_file.hpp"
#include "nn/checkpoint.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "util/rng.hpp"

namespace splpg {
namespace {

namespace fs = std::filesystem;

/// 64-bit FNV-1a.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void expect_bytes(const std::string& bytes, std::size_t size, std::uint64_t digest) {
  EXPECT_EQ(bytes.size(), size);
  EXPECT_EQ(fnv1a(bytes), digest) << "digest 0x" << std::hex << fnv1a(bytes);
}

std::string file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

template <typename Writer>
std::string stream_bytes(Writer&& writer) {
  std::ostringstream out;
  writer(out);
  return out.str();
}

graph::CsrGraph unweighted_graph() {
  util::Rng rng(7);
  return data::generate_erdos_renyi(40, 90, rng);
}

graph::CsrGraph weighted_graph() {
  graph::GraphBuilder builder(6, /*weighted=*/true);
  builder.add_edge(0, 1, 2.25F);
  builder.add_edge(1, 3, 0.5F);
  builder.add_edge(2, 5, 1.0F / 3.0F);
  builder.add_edge(4, 0, -7.125F);
  return builder.build();
}

nn::ModelConfig tiny_model_config() {
  nn::ModelConfig config;
  config.in_dim = 5;
  config.hidden_dim = 6;
  config.num_layers = 2;
  return config;
}

/// A model and an Adam optimizer two steps in, so every moment is non-zero.
struct TrainedPair {
  TrainedPair() : model(tiny_model_config(), 1), adam(model, 0.01F) {
    for (int step = 0; step < 2; ++step) {
      float fill = 0.125F * static_cast<float>(step + 1);
      for (auto& p : model.parameters()) {
        auto& grad = p.mutable_grad();
        grad.resize(p.value().rows(), p.value().cols());
        for (float& g : grad.data()) {
          g = fill;
          fill = -fill * 1.0625F;
        }
      }
      adam.step();
    }
  }

  nn::LinkPredictionModel model;
  nn::Adam adam;
};

class FormatGolden : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("splpg_format_golden_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(FormatGolden, EdgeListBinary) {
  const auto plain = unweighted_graph();
  const auto weighted = weighted_graph();
  expect_bytes(stream_bytes([&](std::ostream& out) { io::write_edge_list_binary(out, plain); }),
               752, 0x2a7d95ec4ce3f492ULL);
  expect_bytes(
      stream_bytes([&](std::ostream& out) { io::write_edge_list_binary(out, weighted); }), 80,
      0x0646a60e07af2a93ULL);
}

TEST_F(FormatGolden, EdgeListText) {
  const auto plain = unweighted_graph();
  const auto weighted = weighted_graph();
  expect_bytes(stream_bytes([&](std::ostream& out) { io::write_edge_list_text(out, plain); }),
               510, 0xf02dc6574c04c806ULL);
  expect_bytes(stream_bytes([&](std::ostream& out) { io::write_edge_list_text(out, weighted); }),
               73, 0x93ff6168deb564f6ULL);
}

TEST_F(FormatGolden, Features) {
  std::vector<float> data(12 * 5);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = 0.25F * static_cast<float>(i) - 3.0F;
  }
  const graph::FeatureStore features(12, 5, std::move(data));
  expect_bytes(stream_bytes([&](std::ostream& out) { io::write_features(out, features); }), 272,
               0xaa93ce0df04d88a0ULL);
}

TEST_F(FormatGolden, Labels) {
  std::vector<std::uint32_t> labels(17);
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = static_cast<std::uint32_t>(i * 3);
  const fs::path path = dir_ / "labels.bin";
  io::write_labels_file(path.string(), labels);
  expect_bytes(file_bytes(path), 92, 0x0ba31d490e525c51ULL);
}

TEST_F(FormatGolden, Parameters) {
  const TrainedPair pair;
  expect_bytes(stream_bytes([&](std::ostream& out) { nn::save_parameters(out, pair.model); }),
               1304, 0x7b7ca2b95ef9a8cfULL);
}

TEST_F(FormatGolden, AdamState) {
  const TrainedPair pair;
  expect_bytes(stream_bytes([&](std::ostream& out) { pair.adam.save_state(out); }), 2588,
               0x996b3426b844cbb9ULL);
}

TEST_F(FormatGolden, TrainState) {
  const TrainedPair pair;
  expect_bytes(stream_bytes([&](std::ostream& out) {
                 nn::save_train_state(out, pair.model, pair.adam, 7);
               }),
               3908, 0xe52a16ce9202e724ULL);
  nn::LinkPredictionModel model(tiny_model_config(), 3);
  const nn::Sgd sgd(model, 0.1F);
  expect_bytes(
      stream_bytes([&](std::ostream& out) { nn::save_train_state(out, model, sgd, 2); }), 1320,
      0xaefff3a6bec28b22ULL);
}

TEST_F(FormatGolden, CheckpointManifest) {
  const TrainedPair pair;
  for (const std::uint32_t epoch : {1U, 3U, 12U}) {
    nn::save_parameters_file(nn::checkpoint_model_file(dir_.string(), epoch), pair.model);
    nn::save_train_state_file(nn::checkpoint_state_file(dir_.string(), epoch), pair.model,
                              pair.adam, epoch);
  }
  nn::write_checkpoint_manifest(dir_.string());
  expect_bytes(file_bytes(dir_ / "MANIFEST"), 261, 0xfe6f1da6d2b58201ULL);
}

}  // namespace
}  // namespace splpg
