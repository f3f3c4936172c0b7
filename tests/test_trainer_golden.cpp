// Golden-hash matrix for core::train_link_prediction: a covering subset of
// method x sync mode x comm hook x faults x pipeline depth x worker_threads,
// plus the resume, auto-resume, checkpoint-retention, checkpoint-free crash
// recovery and early-stop paths.
// Each row trains a small cora problem and hashes every deterministic output
// (epoch records minus wall time, fault counters, batch and partition
// figures, and the returned model's parameter bytes). A refactor of the
// trainer must reproduce every digest byte for byte; only a change meant to
// alter the trainer's output may re-record them, and it says so.
//
// Runs pin the scalar Vec backend (and restore the previous one afterwards):
// sigmoid is not byte-identical across SIMD backends, while the scalar
// kernels give the same bytes at every optimization level.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <ios>
#include <limits>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "nn/checkpoint.hpp"
#include "sampling/edge_split.hpp"
#include "tensor/vec.hpp"

namespace splpg {
namespace {

namespace fs = std::filesystem;
using core::Method;
using core::TrainConfig;
using core::TrainResult;
using dist::CommHookKind;
using dist::SyncMode;

struct Problem {
  data::Dataset dataset;
  sampling::LinkSplit split;
};

const Problem& problem() {
  static const Problem instance = [] {
    Problem p;
    p.dataset = data::make_dataset("cora", 0.1, 5);
    util::Rng rng = util::Rng(5).split("split");
    p.split = sampling::split_edges(p.dataset.graph, sampling::SplitOptions{}, rng);
    return p;
  }();
  return instance;
}

TrainResult run(const TrainConfig& config) {
  return core::train_link_prediction(problem().split, problem().dataset.features, config);
}

/// 64-bit FNV-1a over the object bytes of every value fed to it.
class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    static_assert(std::is_arithmetic_v<T>);
    add_bytes(&value, sizeof(T));
  }
  void add_bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void add_fault(Digest& d, const dist::FaultStats& f) {
  d.add(f.transient_failures);
  d.add(f.retries);
  d.add(f.permanent_failures);
  d.add(f.wasted_bytes);
  d.add(f.degraded_batches);
  d.add(f.crashes);
  d.add(f.recoveries);
  d.add(f.storage_write_faults);
  d.add(f.storage_read_faults);
  d.add(f.checkpoint_write_failures);
  d.add(f.checkpoints_skipped_invalid);
  d.add(f.injected_latency_seconds);
  d.add(f.backoff_seconds);
}

/// Every deterministic output of a run. Wall times are left out, and so are
/// the fields derived from ones already hashed (best_val_hits, test_hits and
/// test_auc come from the history; comm totals from the per-epoch records).
std::uint64_t digest(const TrainResult& result) {
  Digest d;
  d.add(result.history.size());
  for (const auto& record : result.history) {
    d.add(record.epoch);
    d.add(record.mean_loss);
    d.add(record.comm_gigabytes);
    d.add(record.sync_gigabytes);
    d.add(record.val_hits);
    d.add(record.test_hits);
    d.add(record.test_auc);
  }
  add_fault(d, result.fault);
  d.add(result.per_worker_fault.size());
  for (const auto& fault : result.per_worker_fault) add_fault(d, fault);
  d.add(result.total_batches);
  d.add(result.resumed_from_epoch);
  d.add(result.partition_edge_cut);
  d.add(result.partition_balance);
  EXPECT_NE(result.model, nullptr);
  if (result.model != nullptr) {
    for (const auto& parameter : result.model->parameters()) {
      const auto& value = parameter.value();
      d.add(value.rows());
      d.add(value.cols());
      d.add_bytes(value.data().data(), value.size() * sizeof(float));
    }
  }
  return d.value();
}

TrainConfig base_config(Method method) {
  TrainConfig config;
  config.method = method;
  config.model.hidden_dim = 16;
  config.model.num_layers = 2;
  config.epochs = 3;
  config.batch_size = 64;
  config.num_partitions = 3;
  // Three rounds per epoch: not a multiple of local_steps = 2, so local SGD
  // exercises its epoch-end catch-up average.
  config.max_batches_per_epoch = 3;
  config.eval_every = 2;
  config.topk_fraction = 0.05F;
  config.seed = 17;
  return config;
}

/// Transient fetch failures (two attempts, so some become permanent and
/// degrade their batch) plus a crash of worker 1 in epoch 2, round 1.
void add_faults(TrainConfig& config) {
  config.faults.transient_fetch_failure_rate = 0.3;
  config.faults.crashes = {{1, 2, 1}};
  config.retry.max_attempts = 2;
}

TrainConfig matrix_config(Method method, SyncMode sync, CommHookKind hook, bool faults,
                          std::uint32_t pipeline, std::size_t worker_threads) {
  TrainConfig config = base_config(method);
  config.sync = sync;
  config.local_steps = 2;
  config.comm_hook = hook;
  if (faults) add_faults(config);
  config.pipeline_batches = pipeline;
  config.worker_threads = worker_threads;
  return config;
}

/// Switches to the scalar Vec backend for the test's lifetime.
class ScalarBackendTest {
 protected:
  ScalarBackendTest() : previous_(tensor::vec_active_backend()) {
    EXPECT_TRUE(tensor::set_vec_backend(tensor::VecBackend::kScalar));
  }
  ~ScalarBackendTest() { tensor::set_vec_backend(previous_); }

 private:
  tensor::VecBackend previous_;
};

struct GoldenRow {
  std::string name;
  /// Produces the result to hash; `dir` is an empty scratch directory.
  std::function<TrainResult(const fs::path& dir)> run;
  std::uint64_t digest;
};

GoldenRow matrix_row(std::string name, Method method, SyncMode sync, CommHookKind hook,
                     bool faults, std::uint32_t pipeline, std::size_t worker_threads,
                     std::uint64_t digest) {
  const TrainConfig config =
      matrix_config(method, sync, hook, faults, pipeline, worker_threads);
  return {std::move(name), [config](const fs::path&) { return run(config); }, digest};
}

TrainResult explicit_resume(const fs::path& dir) {
  TrainConfig first = base_config(Method::kSplpg);
  first.num_partitions = 4;
  first.sync = SyncMode::kModelAveraging;
  first.epochs = 2;
  first.checkpoint_dir = dir.string();
  (void)run(first);
  TrainConfig rest = first;
  rest.epochs = 3;
  rest.checkpoint_dir.clear();
  rest.resume_from = nn::checkpoint_state_file(dir.string(), 1);
  return run(rest);
}

/// Auto-resume skips a bit-flipped newest checkpoint and resumes from the
/// one before it, checkpointing onwards into the same directory.
TrainResult auto_resume(const fs::path& dir) {
  TrainConfig first = base_config(Method::kPsgdPa);
  first.sync = SyncMode::kGradientAveraging;
  first.epochs = 2;
  first.checkpoint_dir = dir.string();
  (void)run(first);
  TrainConfig rest = first;
  rest.epochs = 4;
  rest.resume_from = "auto";
  rest.storage_faults.faults.push_back(
      {io::StorageFaultKind::kBitFlip, "state_epoch_2", 64, 0});
  return run(rest);
}

/// Keep-last-2 retention with one checkpoint write failing on ENOSPC.
TrainResult checkpoint_retention(const fs::path& dir) {
  TrainConfig config = base_config(Method::kSplpgPlus);
  config.epochs = 4;
  config.checkpoint_dir = dir.string();
  config.keep_checkpoints = 2;
  config.storage_faults.faults.push_back(
      {io::StorageFaultKind::kEnospc, "state_epoch_2", 32, 0});
  const TrainResult result = run(config);
  EXPECT_EQ(result.fault.checkpoint_write_failures, 1U);
  EXPECT_EQ(nn::list_checkpoints(dir.string()).size(), 2U);
  return result;
}

/// Crash recovery without checkpoints: the respawned replica copies a
/// survivor's parameters and starts with fresh optimizer moments.
TrainResult recovery_without_checkpoints(const fs::path&) {
  TrainConfig config = matrix_config(Method::kSplpg, SyncMode::kModelAveraging,
                                     CommHookKind::kNone, true, 0, 1);
  config.checkpoint_every = 0;
  return run(config);
}

TrainResult early_stop(const fs::path&) {
  TrainConfig config = base_config(Method::kSplpg);
  config.epochs = 12;
  config.eval_every = 1;
  config.patience = 1;
  const TrainResult result = run(config);
  EXPECT_LT(result.history.size(), 12U) << "patience never stopped the run";
  return result;
}

std::vector<GoldenRow> golden_rows() {
  constexpr auto kGrad = SyncMode::kGradientAveraging;
  constexpr auto kModel = SyncMode::kModelAveraging;
  constexpr auto kLocal = SyncMode::kLocalSgd;
  constexpr auto kNone = CommHookKind::kNone;
  constexpr auto kTopK = CommHookKind::kTopK;
  constexpr auto kInt8 = CommHookKind::kInt8;
  constexpr auto kCentral = Method::kCentralized;
  constexpr auto kPsgd = Method::kPsgdPa;
  constexpr auto kLlcg = Method::kLlcg;
  constexpr auto kSplpg = Method::kSplpg;
  constexpr auto kPlus = Method::kSplpgPlus;
  // name: method_sync_hook_faults_pipeline_threads
  return {
      matrix_row("central_grad_none_f0_p0_t1", kCentral, kGrad, kNone, false, 0, 1,
                 0xbc14f5efbc2f7894),
      matrix_row("central_model_none_f0_p2_t2", kCentral, kModel, kNone, false, 2, 2,
                 0xbc14f5efbc2f7894),
      matrix_row("central_local_int8_f0_p0_t1", kCentral, kLocal, kInt8, false, 0, 1,
                 0xbc14f5efbc2f7894),
      matrix_row("psgd_grad_none_f0_p0_t1", kPsgd, kGrad, kNone, false, 0, 1,
                 0x71c4a32ad88488ee),
      matrix_row("psgd_model_topk_f1_p2_t1", kPsgd, kModel, kTopK, true, 2, 1,
                 0x743a943a48cb7d87),
      matrix_row("psgd_local_int8_f0_p0_t2", kPsgd, kLocal, kInt8, false, 0, 2,
                 0x97eacbf51fb44cbb),
      matrix_row("psgd_grad_topk_f1_p2_t2", kPsgd, kGrad, kTopK, true, 2, 2,
                 0xf76e5273559dc4d1),
      matrix_row("llcg_grad_int8_f1_p0_t2", kLlcg, kGrad, kInt8, true, 0, 2,
                 0xedec0009bb308cd7),
      matrix_row("llcg_model_none_f0_p2_t1", kLlcg, kModel, kNone, false, 2, 1,
                 0xcab264ab2d6adc9),
      matrix_row("llcg_local_topk_f1_p2_t2", kLlcg, kLocal, kTopK, true, 2, 2,
                 0x8913a7b0a4cc183a),
      matrix_row("llcg_model_topk_f0_p0_t1", kLlcg, kModel, kTopK, false, 0, 1,
                 0x151aa7cabeff91af),
      matrix_row("splpg_grad_topk_f0_p2_t2", kSplpg, kGrad, kTopK, false, 2, 2,
                 0x7e5ddcbcd83035be),
      matrix_row("splpg_model_int8_f1_p0_t1", kSplpg, kModel, kInt8, true, 0, 1,
                 0x837c61d5f88469a4),
      matrix_row("splpg_local_none_f1_p2_t1", kSplpg, kLocal, kNone, true, 2, 1,
                 0x933c65519b20c879),
      matrix_row("splpg_model_none_f0_p0_t1", kSplpg, kModel, kNone, false, 0, 1,
                 0xb63d5993cdfa0fe5),
      matrix_row("splpg_grad_none_f1_p0_t1", kSplpg, kGrad, kNone, true, 0, 1,
                 0x20bce48f31263c3b),
      matrix_row("splpg_local_int8_f0_p0_t2", kSplpg, kLocal, kInt8, false, 0, 2,
                 0x1d355d40d7ee8116),
      matrix_row("splpgplus_grad_int8_f1_p2_t1", kPlus, kGrad, kInt8, true, 2, 1,
                 0x59090d540d45df0),
      matrix_row("splpgplus_model_none_f1_p0_t2", kPlus, kModel, kNone, true, 0, 2,
                 0x3a0fb23c1d8b33a2),
      matrix_row("splpgplus_local_topk_f0_p0_t1", kPlus, kLocal, kTopK, false, 0, 1,
                 0x1dc67cec7cf15e23),
      matrix_row("splpgplus_local_none_f0_p2_t2", kPlus, kLocal, kNone, false, 2, 2,
                 0x80406205b3a758c2),
      {"explicit_resume", explicit_resume, 0x5612d6f0555cd7f1},
      {"auto_resume", auto_resume, 0x178f5af1b3418ff7},
      {"checkpoint_retention", checkpoint_retention, 0x1607cafca870e537},
      {"recovery_without_checkpoints", recovery_without_checkpoints,
       0x900113fa6d5e9118},
      {"early_stop", early_stop, 0x351c3eab3ed6b27f},
  };
}

void PrintTo(const GoldenRow& row, std::ostream* out) { *out << row.name; }

class TrainerGolden : public ScalarBackendTest, public ::testing::TestWithParam<GoldenRow> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("splpg_golden_" + GetParam().name);
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_P(TrainerGolden, MatchesRecordedDigest) {
  const std::uint64_t got = digest(GetParam().run(dir_));
  EXPECT_EQ(got, GetParam().digest) << "digest 0x" << std::hex << got;
}

INSTANTIATE_TEST_SUITE_P(Matrix, TrainerGolden, ::testing::ValuesIn(golden_rows()),
                         [](const ::testing::TestParamInfo<GoldenRow>& info) {
                           return info.param.name;
                         });

// Model averaging once per epoch is local SGD with an unbounded period: the
// two sync modes must give the same bytes wherever they are compared.
class TrainerSyncEquivalence : public ScalarBackendTest, public ::testing::Test {
 protected:
  static void expect_equivalent(TrainConfig config) {
    config.epochs = 2;  // the crash lands in epoch 2, after one full epoch
    config.sync = SyncMode::kModelAveraging;
    const std::uint64_t model_averaging = digest(run(config));
    config.sync = SyncMode::kLocalSgd;
    config.local_steps = std::numeric_limits<std::uint32_t>::max();
    EXPECT_EQ(model_averaging, digest(run(config)));
  }
};

TEST_F(TrainerSyncEquivalence, LlcgModelAveragingIsUnboundedLocalSgd) {
  TrainConfig config = base_config(Method::kLlcg);
  config.llcg_correction_batches = 4;
  expect_equivalent(config);
}

TEST_F(TrainerSyncEquivalence, TopKModelAveragingIsUnboundedLocalSgd) {
  TrainConfig config = base_config(Method::kSplpg);
  config.comm_hook = CommHookKind::kTopK;
  expect_equivalent(config);
}

TEST_F(TrainerSyncEquivalence, CrashRecoveryModelAveragingIsUnboundedLocalSgd) {
  TrainConfig config = base_config(Method::kSplpgPlus);
  add_faults(config);
  config.pipeline_batches = 2;
  expect_equivalent(config);
}

}  // namespace
}  // namespace splpg
