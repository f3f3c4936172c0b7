// Centralized link-prediction evaluation (the paper's protocol).
//
// Scores validation/test positives against their fixed global-uniform
// negative sets using the FULL training graph for message passing, then
// reports Hits@K (and AUC). Evaluation never touches worker views, so it
// adds nothing to the communication meters.
//
// One evaluation is a list of (pair list, chunk) tasks behind a shared
// atomic cursor (core::Evaluation). Any number of threads may pull from it:
// the evaluator's own pool, or the trainer's worker threads at the epoch
// end. Each chunk samples from its own pre-split RNG stream and writes a
// disjoint slice of its list's scores, so the bytes never depend on which
// thread scored which chunk. Chunks run tape-free (tensor::NoGradScope).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "eval/metrics.hpp"
#include "graph/features.hpp"
#include "nn/model.hpp"
#include "sampling/edge_split.hpp"
#include "util/thread_pool.hpp"

namespace splpg::core {

struct EvalResult {
  double val_hits = 0.0;
  double test_hits = 0.0;
  double val_auc = 0.0;
  double test_auc = 0.0;
  std::size_t k = 0;  // the K actually used
};

class Evaluator;

/// One scoring pass over one or more pair lists, split into chunk tasks.
/// Built by Evaluator::begin / score_pairs; the evaluator and the model must
/// outlive it, and the model must not change while tasks are being scored.
class Evaluation {
 public:
  Evaluation(const Evaluation&) = delete;
  Evaluation& operator=(const Evaluation&) = delete;

  /// Scores tasks until none are left. Thread-safe. If a task throws, the
  /// evaluation is marked failed, the tasks nobody has taken yet are
  /// abandoned, and the exception propagates on this thread.
  void work();

  [[nodiscard]] bool failed() const noexcept { return failed_.load(); }

  /// Pair list `list`'s scores, complete once every work() call returned.
  [[nodiscard]] const std::vector<float>& scores(std::size_t list) const {
    return scores_.at(list);
  }

  /// Hits@K and AUC over the lists Evaluator::begin made (val_pos, val_neg,
  /// test_pos, test_neg). Throws std::logic_error if a task failed.
  [[nodiscard]] EvalResult result() const;

 private:
  friend class Evaluator;
  Evaluation(const Evaluator& evaluator, const nn::LinkPredictionModel& model,
             std::vector<std::vector<sampling::NodePair>> lists);

  struct Task {
    std::size_t list;
    std::size_t chunk;
  };

  const Evaluator* evaluator_;
  const nn::LinkPredictionModel* model_;
  std::vector<std::vector<sampling::NodePair>> lists_;
  std::vector<std::vector<float>> scores_;
  std::vector<Task> tasks_;
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> failed_{false};
};

class Evaluator {
 public:
  /// `k = 0` selects K automatically as max(10, |negatives| / 30) — at the
  /// paper's scale (3x negatives, Hits@100) that matches roughly the top 3%
  /// threshold; at reduced synthetic scale it keeps the metric equally
  /// discriminative.
  ///
  /// `num_threads != 1` gives the evaluator an internal ThreadPool (0 =
  /// hardware concurrency) whose threads help score every evaluation that
  /// work() runs. Scores are bit-identical at every thread count.
  Evaluator(const sampling::LinkSplit& split, const graph::FeatureStore& features,
            std::vector<std::uint32_t> fanouts, std::size_t k = 0,
            std::size_t chunk_size = 512, std::uint64_t seed = 7,
            std::size_t num_threads = 1);

  /// Deterministic: the sampling rng is re-seeded per call.
  [[nodiscard]] EvalResult evaluate(const nn::LinkPredictionModel& model) const;

  /// Scores arbitrary node pairs with the model (exposed for examples).
  [[nodiscard]] std::vector<float> score_pairs(const nn::LinkPredictionModel& model,
                                               std::span<const sampling::NodePair> pairs) const;

  /// The split's evaluation as pullable tasks; evaluate() is
  /// begin + work + result.
  [[nodiscard]] std::unique_ptr<Evaluation> begin(const nn::LinkPredictionModel& model) const;

  /// Pulls `evaluation`'s tasks on the calling thread and, when this
  /// evaluator has a pool, on the pool's threads too; returns when they
  /// are all out of tasks. Several threads may call it on one evaluation.
  void work(Evaluation& evaluation) const;

 private:
  friend class Evaluation;

  /// The one chunk routine: scores chunk `chunk` of `pairs` into the
  /// matching slice of `scores`, tape-free.
  void score_chunk(const nn::LinkPredictionModel& model,
                   std::span<const sampling::NodePair> pairs, std::size_t chunk,
                   std::span<float> scores) const;

  const sampling::LinkSplit* split_;
  const graph::FeatureStore* features_;
  std::vector<std::uint32_t> fanouts_;
  std::size_t k_;
  std::size_t chunk_size_;
  std::uint64_t seed_;
  std::unique_ptr<util::ThreadPool> pool_;  // null = the caller scores alone
};

}  // namespace splpg::core
