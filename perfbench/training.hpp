// The training half of a workload: the SpLPG configuration, the timed
// (untraced) calls of core::train_link_prediction, and the traced replay of
// the same rounds through the public calls the trainer makes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "sampling/edge_split.hpp"
#include "trace.hpp"

namespace perfbench {

/// Epochs of every training call.
inline constexpr std::uint32_t kEpochs = 2;

struct TrainingSpec {
  std::string dataset;
  double scale;
  splpg::dist::SyncMode sync;
  /// Write every epoch's checkpoint to disk (keep-last-2) instead of only
  /// keeping it in memory.
  bool disk_checkpoints;
};

struct Problem {
  splpg::data::Dataset dataset;
  splpg::sampling::LinkSplit split;
};

/// Seed of every generated dataset and its split, whatever the workload
/// seed.
inline constexpr std::uint64_t kDatasetSeed = 1;

/// The dataset and its 80/10/10 split, both drawn from kDatasetSeed.
/// `generate_s` receives the time spent in make_dataset alone.
[[nodiscard]] Problem make_problem(const std::string& dataset, double scale,
                                   double* generate_s = nullptr);

/// SpLPG, 4 partitions, one thread per worker, GraphSAGE 3x64 with the
/// default 25/10/5 fanouts and an MLP predictor, one evaluation at the end.
[[nodiscard]] splpg::core::TrainConfig make_train_config(const TrainingSpec& spec,
                                                         const Problem& problem,
                                                         std::uint64_t seed,
                                                         const std::string& checkpoint_dir);

/// What the traced replay measured, per epoch and in total.
struct TrainingReplay {
  std::vector<splpg::core::EpochRecord> history;  // mean_loss, comm/sync GiB, test_auc
  double wall_s = 0.0;
  std::uint64_t edge_cut = 0;
  std::uint64_t kept_edges = 0;
  std::uint64_t cg_edges = 0;
  std::uint64_t structure_fetches = 0;
  std::uint64_t feature_fetches = 0;
  std::uint64_t graph_bytes = 0;
  std::uint64_t sync_bytes = 0;
  std::uint64_t sync_calls = 0;
  /// Per collective: slowest minus fastest worker's busy time before it.
  std::vector<double> round_skew_s;
  std::vector<std::unique_ptr<SpanLog>> logs;  // master first, then one per worker
};

/// Replays `config` (fault-free, no pipeline, gradient or model averaging)
/// round by round with one thread per worker, recording a span around every
/// public call and the counts at each layer boundary.
[[nodiscard]] TrainingReplay replay_training(const Problem& problem,
                                             const splpg::core::TrainConfig& config);

/// Empty when the replay reproduced `result` epoch by epoch (mean loss,
/// graph bytes, sync bytes) and in test AUC exactly; else what differs.
[[nodiscard]] std::string replay_mismatch(const TrainingReplay& replay,
                                          const splpg::core::TrainResult& result);

}  // namespace perfbench
