// Integration tests for core::train_link_prediction: the full distributed
// pipeline across methods, sync modes, and models, plus the paper's
// qualitative claims at miniature scale.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "nn/checkpoint.hpp"
#include "sampling/edge_split.hpp"

namespace splpg::core {
namespace {

struct Problem {
  data::Dataset dataset;
  sampling::LinkSplit split;
};

/// Small shared problem instance (built once; tests are read-only users).
const Problem& problem() {
  static const Problem instance = [] {
    Problem p;
    p.dataset = data::make_dataset("cora", 0.12, 3);
    util::Rng rng = util::Rng(3).split("split");
    p.split = sampling::split_edges(p.dataset.graph, sampling::SplitOptions{}, rng);
    return p;
  }();
  return instance;
}

TrainConfig base_config(Method method, std::uint32_t epochs = 3) {
  TrainConfig config;
  config.method = method;
  config.model.hidden_dim = 32;
  config.model.num_layers = 2;
  config.epochs = epochs;
  config.batch_size = 128;
  config.num_partitions = 4;
  config.max_batches_per_epoch = 4;
  config.seed = 11;
  return config;
}

TEST(Trainer, CentralizedLearnsAboveChance) {
  auto config = base_config(Method::kCentralized, 6);
  config.max_batches_per_epoch = 8;
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  EXPECT_GT(result.test_auc, 0.65);  // far above the 0.5 chance level
  EXPECT_GT(result.test_hits, 0.0);
  EXPECT_EQ(result.comm.total_bytes(), 0U);  // single worker: no transfers
  EXPECT_EQ(result.history.size(), 6U);
}

TEST(Trainer, DeterministicAcrossRuns) {
  const auto config = base_config(Method::kSplpg);
  const TrainResult a = train_link_prediction(problem().split, problem().dataset.features,
                                              config);
  const TrainResult b = train_link_prediction(problem().split, problem().dataset.features,
                                              config);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t e = 0; e < a.history.size(); ++e) {
    EXPECT_DOUBLE_EQ(a.history[e].mean_loss, b.history[e].mean_loss);
    EXPECT_DOUBLE_EQ(a.history[e].comm_gigabytes, b.history[e].comm_gigabytes);
  }
  EXPECT_DOUBLE_EQ(a.test_hits, b.test_hits);
  EXPECT_EQ(a.comm.total_bytes(), b.comm.total_bytes());
}

TEST(Trainer, VanillaBaselinesTransferNothing) {
  for (const Method method : {Method::kPsgdPa, Method::kRandomTma, Method::kSuperTma,
                              Method::kSplpgMinus, Method::kSplpgMinusMinus}) {
    const TrainResult result = train_link_prediction(
        problem().split, problem().dataset.features, base_config(method, 2));
    EXPECT_EQ(result.comm.total_bytes(), 0U) << to_string(method);
  }
}

TEST(Trainer, SplpgTransfersLessThanSplpgPlus) {
  const TrainResult splpg = train_link_prediction(problem().split, problem().dataset.features,
                                                  base_config(Method::kSplpg, 2));
  const TrainResult plus = train_link_prediction(problem().split, problem().dataset.features,
                                                 base_config(Method::kSplpgPlus, 2));
  EXPECT_GT(splpg.comm.total_bytes(), 0U);
  EXPECT_LT(static_cast<double>(splpg.comm.total_bytes()),
            0.8 * static_cast<double>(plus.comm.total_bytes()));
}

TEST(Trainer, RandomTmaPlusIsTheMostExpensive) {
  const TrainResult random_plus = train_link_prediction(
      problem().split, problem().dataset.features, base_config(Method::kRandomTmaPlus, 2));
  const TrainResult splpg = train_link_prediction(problem().split, problem().dataset.features,
                                                  base_config(Method::kSplpg, 2));
  EXPECT_GT(random_plus.comm.total_bytes(), splpg.comm.total_bytes());
}

TEST(Trainer, SparsificationRunsOnlyForSplpg) {
  const TrainResult splpg = train_link_prediction(problem().split, problem().dataset.features,
                                                  base_config(Method::kSplpg, 1));
  EXPECT_GT(splpg.sparsify_seconds, 0.0);
  const TrainResult plus = train_link_prediction(problem().split, problem().dataset.features,
                                                 base_config(Method::kSplpgPlus, 1));
  EXPECT_DOUBLE_EQ(plus.sparsify_seconds, 0.0);
}

TEST(Trainer, GradientAveragingKeepsReplicasInSyncAndRuns) {
  auto config = base_config(Method::kPsgdPaPlus, 2);
  config.sync = dist::SyncMode::kGradientAveraging;
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  EXPECT_EQ(result.history.size(), 2U);
  EXPECT_GT(result.test_auc, 0.4);
}

TEST(Trainer, LlcgCorrectionStepRuns) {
  auto config = base_config(Method::kLlcg, 2);
  config.llcg_correction_batches = 2;
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  EXPECT_EQ(result.history.size(), 2U);
  EXPECT_EQ(result.comm.total_bytes(), 0U);  // correction is server-side
}

TEST(Trainer, PerEpochEvaluationFillsHistory) {
  auto config = base_config(Method::kSplpg, 3);
  config.eval_every = 1;
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  for (const auto& record : result.history) {
    EXPECT_GE(record.val_hits, 0.0);
    EXPECT_GE(record.test_hits, 0.0);
  }
}

TEST(Trainer, FinalOnlyEvaluationLeavesEarlyEpochsUnevaluated) {
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   base_config(Method::kSplpg, 3));
  EXPECT_LT(result.history.front().val_hits, 0.0);  // sentinel -1
  EXPECT_GE(result.history.back().val_hits, 0.0);
}

TEST(Trainer, PartitionStatsReported) {
  const TrainResult metis = train_link_prediction(problem().split, problem().dataset.features,
                                                  base_config(Method::kPsgdPa, 1));
  const TrainResult random = train_link_prediction(problem().split, problem().dataset.features,
                                                   base_config(Method::kRandomTma, 1));
  EXPECT_LT(metis.partition_edge_cut, random.partition_edge_cut);
  EXPECT_GE(metis.partition_balance, 1.0);
}

TEST(Trainer, EvalKOverrideRespected) {
  auto config = base_config(Method::kCentralized, 1);
  config.eval_k = 25;
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  EXPECT_EQ(result.eval_k, 25U);
}

TEST(Trainer, GcnWithFullNeighborhoodFanouts) {
  auto config = base_config(Method::kSplpg, 2);
  config.model.gnn = nn::GnnKind::kGcn;
  config.model.num_layers = 2;
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  EXPECT_EQ(result.history.size(), 2U);
  EXPECT_GT(result.test_auc, 0.4);
}

TEST(Trainer, AttentionModelsTrain) {
  for (const auto gnn : {nn::GnnKind::kGat, nn::GnnKind::kGatv2}) {
    auto config = base_config(Method::kSplpg, 1);
    config.model.gnn = gnn;
    config.model.num_layers = 2;
    config.max_batches_per_epoch = 2;
    const TrainResult result = train_link_prediction(
        problem().split, problem().dataset.features, config);
    EXPECT_EQ(result.history.size(), 1U) << nn::to_string(gnn);
  }
}

TEST(Trainer, DotPredictorWorks) {
  auto config = base_config(Method::kCentralized, 2);
  config.model.predictor = nn::PredictorKind::kDot;
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  EXPECT_GT(result.test_auc, 0.5);
}

TEST(Trainer, MoreSparsificationMeansLessCommunication) {
  auto sparse_config = base_config(Method::kSplpg, 2);
  sparse_config.alpha = 0.05;
  auto dense_config = base_config(Method::kSplpg, 2);
  dense_config.alpha = 0.5;
  const TrainResult sparse = train_link_prediction(problem().split, problem().dataset.features,
                                                   sparse_config);
  const TrainResult dense = train_link_prediction(problem().split, problem().dataset.features,
                                                  dense_config);
  EXPECT_LT(sparse.comm.total_bytes(), dense.comm.total_bytes());
}

// ---- fault tolerance ----

/// A lively but survivable cluster: 2% transient fetch failures with injected
/// latency, and worker 1 crashes at the start of epoch 2 (recovered from the
/// epoch-1 checkpoint at the epoch-2 boundary).
TrainConfig faulty_config() {
  auto config = base_config(Method::kSplpg, 4);
  config.faults.transient_fetch_failure_rate = 0.02;
  config.faults.fetch_latency_seconds = 1e-5;
  config.faults.crashes = {{1, 2, 0}};
  return config;
}

TEST(TrainerFaults, CrashedWorkerRecoversAndAccuracySurvives) {
  const TrainResult faulty = train_link_prediction(problem().split, problem().dataset.features,
                                                   faulty_config());
  // Training ran to completion through the crash...
  EXPECT_EQ(faulty.history.size(), 4U);
  EXPECT_EQ(faulty.fault.crashes, 1U);
  EXPECT_EQ(faulty.fault.recoveries, 1U);
  EXPECT_EQ(faulty.per_worker_fault[1].crashes, 1U);
  EXPECT_GT(faulty.fault.transient_failures, 0U);
  EXPECT_GT(faulty.fault.retries, 0U);
  EXPECT_GT(faulty.fault.injected_latency_seconds, 0.0);
  // ...and lands near the fault-free model's accuracy.
  const TrainResult clean = train_link_prediction(problem().split, problem().dataset.features,
                                                  base_config(Method::kSplpg, 4));
  EXPECT_NEAR(faulty.test_auc, clean.test_auc, 0.05);
  EXPECT_NEAR(faulty.test_hits, clean.test_hits, 0.15);
}

TEST(TrainerFaults, FaultStatsBitIdenticalAcrossRuns) {
  const auto config = faulty_config();
  const TrainResult a = train_link_prediction(problem().split, problem().dataset.features,
                                              config);
  const TrainResult b = train_link_prediction(problem().split, problem().dataset.features,
                                              config);
  EXPECT_EQ(a.fault.transient_failures, b.fault.transient_failures);
  EXPECT_EQ(a.fault.retries, b.fault.retries);
  EXPECT_EQ(a.fault.permanent_failures, b.fault.permanent_failures);
  EXPECT_EQ(a.fault.wasted_bytes, b.fault.wasted_bytes);
  EXPECT_EQ(a.fault.degraded_batches, b.fault.degraded_batches);
  EXPECT_EQ(a.fault.crashes, b.fault.crashes);
  EXPECT_EQ(a.fault.recoveries, b.fault.recoveries);
  EXPECT_DOUBLE_EQ(a.fault.injected_latency_seconds, b.fault.injected_latency_seconds);
  EXPECT_DOUBLE_EQ(a.fault.backoff_seconds, b.fault.backoff_seconds);
  ASSERT_EQ(a.per_worker_fault.size(), b.per_worker_fault.size());
  for (std::size_t w = 0; w < a.per_worker_fault.size(); ++w) {
    EXPECT_EQ(a.per_worker_fault[w].transient_failures, b.per_worker_fault[w].transient_failures);
    EXPECT_EQ(a.per_worker_fault[w].wasted_bytes, b.per_worker_fault[w].wasted_bytes);
  }
  // The training trajectory itself also stays bit-identical under faults.
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t e = 0; e < a.history.size(); ++e) {
    EXPECT_DOUBLE_EQ(a.history[e].mean_loss, b.history[e].mean_loss);
  }
  EXPECT_DOUBLE_EQ(a.test_hits, b.test_hits);
  EXPECT_EQ(a.comm.total_bytes(), b.comm.total_bytes());
}

TEST(TrainerFaults, PermanentFailuresDegradeBatchesButTrainingCompletes) {
  auto config = base_config(Method::kSplpgPlus, 2);
  config.faults.transient_fetch_failure_rate = 0.6;
  config.retry.max_attempts = 2;
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  EXPECT_EQ(result.history.size(), 2U);
  EXPECT_GT(result.fault.permanent_failures, 0U);
  EXPECT_GT(result.fault.degraded_batches, 0U);
  EXPECT_GT(result.fault.wasted_bytes, 0U);
}

TEST(TrainerFaults, CrashUnderGradientAveragingCompletes) {
  auto config = faulty_config();
  config.sync = dist::SyncMode::kGradientAveraging;
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  EXPECT_EQ(result.history.size(), 4U);
  EXPECT_EQ(result.fault.crashes, 1U);
  EXPECT_EQ(result.fault.recoveries, 1U);
}

TEST(TrainerFaults, CheckpointFilesWrittenAndFinalOneMatchesModel) {
  const auto dir = std::filesystem::temp_directory_path() / "splpg_ckpt_test";
  std::filesystem::remove_all(dir);
  auto config = faulty_config();
  config.checkpoint_dir = dir.string();
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  for (std::uint32_t e = 0; e <= 4; ++e) {
    EXPECT_TRUE(std::filesystem::exists(dir / ("model_epoch_" + std::to_string(e) + ".bin")))
        << "epoch " << e;
  }
  // Round trip: the final on-disk checkpoint restores the trained model.
  nn::LinkPredictionModel restored(result.model->config(), 999);
  nn::load_parameters_file((dir / "model_epoch_4.bin").string(), restored);
  const auto& expected = result.model->parameters();
  const auto& actual = restored.parameters();
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& want = expected[i].value();
    const auto& got = actual[i].value();
    ASSERT_EQ(want.rows(), got.rows());
    ASSERT_EQ(want.cols(), got.cols());
    for (std::size_t r = 0; r < want.rows(); ++r) {
      for (std::size_t c = 0; c < want.cols(); ++c) {
        ASSERT_EQ(want.at(r, c), got.at(r, c));
      }
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(TrainerFaults, MalformedFaultPlanRejectedUpFront) {
  auto config = base_config(Method::kSplpg, 1);
  config.faults.transient_fetch_failure_rate = 1.5;
  EXPECT_THROW(train_link_prediction(problem().split, problem().dataset.features, config),
               std::invalid_argument);
}

class PartitionCountTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PartitionCountTest, SplpgRunsAtEveryPaperPartitionCount) {
  auto config = base_config(Method::kSplpg, 1);
  config.num_partitions = GetParam();
  config.max_batches_per_epoch = 2;
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  EXPECT_EQ(result.history.size(), 1U);
  EXPECT_GT(result.comm.total_bytes(), 0U);
}

INSTANTIATE_TEST_SUITE_P(PaperPartitionCounts, PartitionCountTest,
                         ::testing::Values(2U, 4U, 8U, 16U));

// ---- regression: per-epoch comm normalization under early stopping ----

TEST(Trainer, EarlyStopNormalizesCommByEpochsRun) {
  // lr = 0 freezes the model, so validation Hits@K never improves after the
  // first evaluation and patience = 1 stops training well before epoch 6.
  auto config = base_config(Method::kSplpg, 6);
  config.learning_rate = 0.0F;
  config.eval_every = 1;
  config.patience = 1;
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  ASSERT_LT(result.history.size(), 6U);
  ASSERT_FALSE(result.history.empty());
  EXPECT_GT(result.comm.total_bytes(), 0U);
  // Normalized by epochs actually run, not the configured count.
  EXPECT_DOUBLE_EQ(
      result.comm_gigabytes_per_epoch,
      result.comm.total_gigabytes() / static_cast<double>(result.history.size()));
}

// ---- regression: returned model is the replica the final evaluation scored ----

TEST(TrainerFaults, ReturnedModelMatchesReportedTestHits) {
  // Worker 0 crashes at the start of the FINAL epoch. The final evaluation
  // then scores the first surviving replica (worker 1) while worker 0 is
  // restored from the stale epoch-2 checkpoint — returning replicas[0] would
  // hand back a model whose metrics differ from the reported ones.
  auto config = base_config(Method::kSplpg, 3);
  config.checkpoint_every = 2;
  config.faults.crashes = {{0, 3, 0}};
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  EXPECT_EQ(result.fault.crashes, 1U);
  ASSERT_NE(result.model, nullptr);

  // Re-evaluate the returned model with the trainer's own evaluator setup:
  // it must reproduce the reported test metrics exactly.
  const Evaluator evaluator(problem().split, problem().dataset.features,
                            result.model->default_fanouts(), config.eval_k);
  const EvalResult eval = evaluator.evaluate(*result.model);
  EXPECT_DOUBLE_EQ(eval.test_hits, result.test_hits);
  EXPECT_DOUBLE_EQ(eval.test_auc, result.test_auc);
  EXPECT_DOUBLE_EQ(eval.val_hits, result.best_val_hits);
}

// ---- ThreadPool knob: bit-identical results, metered preprocessing ----

TEST(Trainer, ThreadPoolKnobDoesNotChangeResults) {
  const auto serial_config = base_config(Method::kSplpg, 2);
  auto pooled_config = serial_config;
  pooled_config.num_threads = 4;
  const TrainResult serial = train_link_prediction(problem().split, problem().dataset.features,
                                                   serial_config);
  const TrainResult pooled = train_link_prediction(problem().split, problem().dataset.features,
                                                   pooled_config);
  ASSERT_EQ(serial.history.size(), pooled.history.size());
  for (std::size_t e = 0; e < serial.history.size(); ++e) {
    EXPECT_DOUBLE_EQ(serial.history[e].mean_loss, pooled.history[e].mean_loss);
    EXPECT_DOUBLE_EQ(serial.history[e].comm_gigabytes, pooled.history[e].comm_gigabytes);
  }
  EXPECT_DOUBLE_EQ(serial.test_hits, pooled.test_hits);
  EXPECT_DOUBLE_EQ(serial.test_auc, pooled.test_auc);
  EXPECT_EQ(serial.comm.total_bytes(), pooled.comm.total_bytes());
  // Both meter preprocessing wall and CPU time.
  EXPECT_GT(serial.sparsify_seconds, 0.0);
  EXPECT_GT(pooled.sparsify_seconds, 0.0);
  EXPECT_GT(serial.sparsify_cpu_seconds, 0.0);
  EXPECT_GT(pooled.sparsify_cpu_seconds, 0.0);
}

TEST(Evaluator, ParallelScoringBitIdenticalToSerial) {
  nn::ModelConfig model_config;
  model_config.in_dim = problem().dataset.features.dim();
  model_config.hidden_dim = 16;
  model_config.num_layers = 2;
  const nn::LinkPredictionModel model(model_config, 5);
  const auto fanouts = model.default_fanouts();

  // Small chunk size so several chunks are in flight on the pool.
  const Evaluator serial(problem().split, problem().dataset.features, fanouts, 0, 64, 7, 1);
  const Evaluator pooled(problem().split, problem().dataset.features, fanouts, 0, 64, 7, 4);

  std::vector<sampling::NodePair> pairs(problem().split.val_neg.begin(),
                                        problem().split.val_neg.end());
  const auto serial_scores = serial.score_pairs(model, pairs);
  const auto pooled_scores = pooled.score_pairs(model, pairs);
  ASSERT_EQ(serial_scores.size(), pooled_scores.size());
  for (std::size_t i = 0; i < serial_scores.size(); ++i) {
    EXPECT_EQ(serial_scores[i], pooled_scores[i]) << "pair " << i;  // bit-exact
  }

  const EvalResult a = serial.evaluate(model);
  const EvalResult b = pooled.evaluate(model);
  EXPECT_DOUBLE_EQ(a.val_hits, b.val_hits);
  EXPECT_DOUBLE_EQ(a.test_hits, b.test_hits);
  EXPECT_DOUBLE_EQ(a.val_auc, b.val_auc);
  EXPECT_DOUBLE_EQ(a.test_auc, b.test_auc);
}

// ---- the evaluation as chunk tasks pulled by any number of threads ----

nn::LinkPredictionModel eval_model() {
  nn::ModelConfig model_config;
  model_config.in_dim = problem().dataset.features.dim();
  model_config.hidden_dim = 16;
  model_config.num_layers = 2;
  return nn::LinkPredictionModel(model_config, 5);
}

/// Calls evaluation.work() on `threads` threads at once.
void pull(Evaluation& evaluation, std::size_t threads) {
  std::vector<std::thread> pullers;
  for (std::size_t t = 0; t < threads; ++t) pullers.emplace_back([&] { evaluation.work(); });
  for (auto& puller : pullers) puller.join();
}

void expect_same_scores(const std::vector<float>& a, const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

void expect_same_result(const EvalResult& a, const EvalResult& b) {
  EXPECT_EQ(a.k, b.k);
  EXPECT_DOUBLE_EQ(a.val_hits, b.val_hits);
  EXPECT_DOUBLE_EQ(a.test_hits, b.test_hits);
  EXPECT_DOUBLE_EQ(a.val_auc, b.val_auc);
  EXPECT_DOUBLE_EQ(a.test_auc, b.test_auc);
}

TEST(Evaluator, ChunkTasksPulledByAnyThreadCountMatchSerialScoring) {
  const auto model = eval_model();
  const auto fanouts = model.default_fanouts();
  // Small chunks: every pair list spans several tasks.
  const Evaluator serial(problem().split, problem().dataset.features, fanouts, 0, 64, 7, 1);
  const Evaluator pooled(problem().split, problem().dataset.features, fanouts, 0, 64, 7, 4);
  const auto& split = problem().split;
  auto to_pairs = [](const std::vector<graph::Edge>& edges) {
    std::vector<sampling::NodePair> pairs;
    for (const auto& [u, v] : edges) pairs.push_back({u, v});
    return pairs;
  };
  const std::vector<std::vector<sampling::NodePair>> lists = {
      to_pairs(split.val_pos), split.val_neg, to_pairs(split.test_pos), split.test_neg};
  std::vector<std::vector<float>> reference;
  for (const auto& list : lists) reference.push_back(serial.score_pairs(model, list));
  const EvalResult expected = serial.evaluate(model);
  expect_same_result(expected, pooled.evaluate(model));

  for (const std::size_t threads : {1U, 2U, 3U, 7U}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const auto evaluation = serial.begin(model);
    pull(*evaluation, threads);
    ASSERT_FALSE(evaluation->failed());
    for (std::size_t list = 0; list < lists.size(); ++list) {
      expect_same_scores(evaluation->scores(list), reference[list]);
    }
    expect_same_result(evaluation->result(), expected);

    // The pooled evaluator's threads and the calling threads pull together.
    const auto shared = pooled.begin(model);
    std::vector<std::thread> callers;
    for (std::size_t t = 0; t < threads; ++t) callers.emplace_back([&] { pooled.work(*shared); });
    for (auto& caller : callers) caller.join();
    expect_same_result(shared->result(), expected);
  }
}

TEST(Evaluator, FailedTaskAbandonsTheRestAndYieldsNoResult) {
  const auto model = eval_model();
  sampling::LinkSplit split = problem().split;
  // A validation negative naming a node outside the training graph, in the
  // second of val_neg's chunks.
  ASSERT_GT(split.val_neg.size(), 70U);
  split.val_neg[70] = {split.train_graph.num_nodes(), 0};
  const Evaluator evaluator(split, problem().dataset.features, model.default_fanouts(), 0, 64);

  EXPECT_THROW((void)evaluator.evaluate(model), std::out_of_range);
  const auto evaluation = evaluator.begin(model);
  std::atomic<int> threw{0};
  std::vector<std::thread> pullers;
  for (int t = 0; t < 3; ++t) {
    pullers.emplace_back([&] {
      try {
        evaluation->work();
      } catch (const std::out_of_range&) {
        ++threw;
      }
    });
  }
  for (auto& puller : pullers) puller.join();
  EXPECT_EQ(threw.load(), 1);  // only the thread that scored the bad chunk
  EXPECT_TRUE(evaluation->failed());
  EXPECT_THROW((void)evaluation->result(), std::logic_error);
}

// ---- the epoch-end evaluation phase under crashes and failures ----

TEST(TrainerEvalPhase, EvalSecondsOnlyOnEvaluatedEpochs) {
  auto config = base_config(Method::kSplpg, 3);
  config.eval_every = 2;
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  ASSERT_EQ(result.history.size(), 3U);
  EXPECT_EQ(result.history[0].eval_seconds, 0.0);  // epoch 1: no evaluation
  EXPECT_GT(result.history[1].eval_seconds, 0.0);  // epoch 2: eval_every
  EXPECT_GT(result.history[2].eval_seconds, 0.0);  // epoch 3: the final one
}

TEST(TrainerEvalPhase, SurvivorsOfAFinalEpochCrashScoreTheEvaluation) {
  // Worker 2 crashes at the start of the final epoch and stays parked: the
  // three survivors score the evaluation without it.
  auto config = base_config(Method::kSplpg, 2);
  config.faults.crashes = {{2, 2, 0}};
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  EXPECT_EQ(result.fault.crashes, 1U);
  EXPECT_EQ(result.fault.recoveries, 0U);  // training was over: no respawn
  ASSERT_EQ(result.history.size(), 2U);
  EXPECT_GT(result.history[1].eval_seconds, 0.0);

  // The survivors' scores equal an evaluation of the same model that no
  // crash or worker thread touched: the standalone serial Evaluator.
  const Evaluator evaluator(problem().split, problem().dataset.features,
                            result.model->default_fanouts(), config.eval_k);
  const EvalResult eval = evaluator.evaluate(*result.model);
  EXPECT_DOUBLE_EQ(eval.val_hits, result.history[1].val_hits);
  EXPECT_DOUBLE_EQ(eval.test_hits, result.history[1].test_hits);
  EXPECT_DOUBLE_EQ(eval.test_auc, result.history[1].test_auc);
}

TEST(TrainerEvalPhase, ScoringFailureLeavesTheCollectivesAndRethrows) {
  // One bad validation pair: the worker that scores its chunk throws, leaves
  // the collectives and stops the run; the survivors finish the epoch end
  // without recording the evaluation, and the run rethrows the error.
  sampling::LinkSplit split = problem().split;
  split.val_neg.front() = {split.train_graph.num_nodes(), 0};
  for (const bool pooled : {false, true}) {
    SCOPED_TRACE(pooled ? "pooled evaluator" : "workers only");
    auto config = base_config(Method::kSplpg, 2);
    config.eval_every = 1;
    config.num_threads = pooled ? 2 : 1;
    EXPECT_THROW((void)train_link_prediction(split, problem().dataset.features, config),
                 std::out_of_range);
  }
}

}  // namespace
}  // namespace splpg::core
