#include "training.hpp"

#include <exception>
#include <filesystem>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "core/evaluator.hpp"
#include "core/method.hpp"
#include "dist/master_store.hpp"
#include "dist/worker_view.hpp"
#include "nn/checkpoint.hpp"
#include "nn/optimizer.hpp"
#include "sampling/negative_sampler.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "sparsify/sparsifier.hpp"

namespace perfbench {

using splpg::graph::Edge;
using splpg::graph::NodeId;
using splpg::sampling::NodePair;
namespace core = splpg::core;
namespace dist = splpg::dist;
namespace nn = splpg::nn;
namespace sampling = splpg::sampling;
namespace util = splpg::util;

Problem make_problem(const std::string& dataset, double scale, double* generate_s) {
  Problem problem;
  const std::int64_t start = now_ns();
  // The graph, its features and its split are a fixed fixture, like a real
  // dataset with its published split; the workload seed drives training
  // and traffic.
  problem.dataset = splpg::data::make_dataset(dataset, scale, kDatasetSeed);
  if (generate_s != nullptr) *generate_s = static_cast<double>(now_ns() - start) * 1e-9;
  util::Rng rng = util::Rng(kDatasetSeed).split("split/" + problem.dataset.name);
  problem.split = sampling::split_edges(problem.dataset.graph, sampling::SplitOptions{}, rng);
  return problem;
}

core::TrainConfig make_train_config(const TrainingSpec& spec, const Problem& problem,
                                    std::uint64_t seed, const std::string& checkpoint_dir) {
  core::TrainConfig config;
  config.method = core::Method::kSplpg;
  config.model.gnn = nn::GnnKind::kSage;
  config.model.predictor = nn::PredictorKind::kMlp;
  config.model.hidden_dim = 64;
  config.model.num_layers = 3;
  config.num_partitions = 4;
  config.epochs = kEpochs;
  config.batch_size = problem.dataset.batch_size;
  config.sync = spec.sync;
  config.comm_hook = dist::CommHookKind::kNone;
  config.worker_threads = 1;
  config.pipeline_batches = 0;
  config.eval_every = 0;
  config.checkpoint_every = 1;
  if (spec.disk_checkpoints) {
    config.checkpoint_dir = checkpoint_dir;
    config.keep_checkpoints = 2;
  }
  config.seed = seed;
  return config;
}

namespace {

/// Per-worker counts, summed after the threads join.
struct WorkerCounts {
  std::uint64_t cg_edges = 0;
  std::uint64_t sync_calls = 0;
  std::vector<std::int64_t> busy_ns;  // busy time before each collective
};

}  // namespace

TrainingReplay replay_training(const Problem& problem, const core::TrainConfig& config) {
  if (config.method == core::Method::kCentralized || core::uses_global_correction(config.method) ||
      config.sync == dist::SyncMode::kLocalSgd || !config.faults.empty() ||
      config.pipeline_batches != 0 || config.worker_threads != 1 || !config.resume_from.empty()) {
    throw std::invalid_argument("replay_training: configuration outside the replayed subset");
  }
  const auto& split = problem.split;
  const auto& features = problem.dataset.features;
  const std::uint32_t num_workers = std::max(1U, config.num_partitions);

  TrainingReplay out;
  out.logs.push_back(std::make_unique<SpanLog>(1, 0, "master"));
  for (std::uint32_t w = 0; w < num_workers; ++w) {
    out.logs.push_back(std::make_unique<SpanLog>(1, w + 1, "worker " + std::to_string(w)));
  }
  SpanLog* master = out.logs[0].get();
  const std::int64_t wall_start = now_ns();

  // ---- master: partition and sparsify ----
  util::Rng master_rng = util::Rng(config.seed).split("master");
  const auto partitioner =
      core::method_partitioner(config.method, config.super_clusters_per_part);
  splpg::partition::PartitionResult parts;
  {
    const ScopedSpan span(master, "partition.partition", 0);
    parts = partitioner->partition(split.train_graph, num_workers, master_rng);
  }
  out.edge_cut = splpg::partition::edge_cut(split.train_graph, parts);
  dist::MasterStore store(split.train_graph, &features, std::move(parts));
  if (core::uses_sparsification(config.method)) {
    const ScopedSpan span(master, "sparsify.sparsify", 0);
    splpg::sparsify::SparsifyConfig sparsify_config;
    sparsify_config.alpha = config.alpha;
    sparsify_config.num_threads = config.num_threads;
    const auto sparsifier = splpg::sparsify::make_sparsifier(config.sparsifier, sparsify_config);
    std::vector<splpg::sparsify::SparsifyStats> stats;
    util::Rng sparsify_rng = util::Rng(config.seed).split("sparsify");
    std::vector<std::uint32_t> assignment(store.graph().num_nodes());
    for (NodeId v = 0; v < store.graph().num_nodes(); ++v) assignment[v] = store.part_of(v);
    store.set_sparsified(sparsifier->sparsify_partitions(store.graph(), assignment, num_workers,
                                                         sparsify_rng, &stats));
    for (const auto& s : stats) out.kept_edges += s.kept_edges;
  }

  // ---- master: per-worker state, built as the trainer builds it ----
  nn::ModelConfig model_config = config.model;
  if (model_config.in_dim == 0) model_config.in_dim = features.dim();
  const dist::WorkerPolicy policy = core::worker_policy(config.method);
  std::vector<std::unique_ptr<dist::WorkerView>> views;
  std::vector<std::unique_ptr<nn::LinkPredictionModel>> replicas;
  std::vector<std::unique_ptr<nn::Adam>> optimizers;
  std::vector<std::unique_ptr<sampling::PerSourceNegativeSampler>> negatives;
  std::vector<std::vector<Edge>> owned;
  const auto& train_graph = split.train_graph;
  {
    const ScopedSpan span(master, "core.setup", 0);
    for (std::uint32_t w = 0; w < num_workers; ++w) {
      views.push_back(std::make_unique<dist::WorkerView>(store, w, policy));
      replicas.push_back(std::make_unique<nn::LinkPredictionModel>(model_config, config.seed));
      optimizers.push_back(std::make_unique<nn::Adam>(*replicas[w], config.learning_rate));
      auto candidates = views[w]->negative_candidates();
      auto weights = sampling::negative_candidate_weights(config.negative_distribution,
                                                          train_graph, candidates);
      negatives.push_back(std::make_unique<sampling::PerSourceNegativeSampler>(
          std::move(candidates),
          [&train_graph](NodeId u, NodeId v) { return train_graph.has_edge(u, v); },
          std::move(weights)));
      owned.push_back(num_workers == 1
                          ? std::vector<Edge>(split.train_pos.begin(), split.train_pos.end())
                          : views[w]->owned_positive_edges(split.train_pos));
    }
  }
  const auto fanouts = config.fanouts.empty() ? replicas[0]->default_fanouts() : config.fanouts;
  const sampling::NeighborSampler sampler(fanouts);
  const core::Evaluator evaluator(split, features, fanouts, config.eval_k, 512, 7,
                                  config.num_threads);
  std::size_t max_owned = 1;
  for (const auto& edges : owned) max_owned = std::max(max_owned, edges.size());
  std::uint32_t rounds =
      static_cast<std::uint32_t>((max_owned + config.batch_size - 1) / config.batch_size);
  if (config.max_batches_per_epoch > 0) rounds = std::min(rounds, config.max_batches_per_epoch);

  dist::DistContext context(num_workers);
  for (std::uint32_t w = 0; w < num_workers; ++w) context.register_replica(w, replicas[w].get());
  if (num_workers > 1) {
    dist::CommHookOptions hook_options;
    hook_options.topk_fraction = config.topk_fraction;
    context.set_comm_hook(dist::make_comm_hook(config.comm_hook, hook_options, num_workers));
    for (std::uint32_t w = 0; w < num_workers; ++w) context.attach_meter(w, &views[w]->meter());
  }

  std::string checkpoint_buffer;
  const auto write_checkpoint = [&](SpanLog* log, std::uint32_t epoch) {
    const ScopedSpan span(log, "io.checkpoint", epoch);
    std::ostringstream buffer;
    nn::save_train_state(buffer, *replicas[0], *optimizers[0], epoch);
    checkpoint_buffer = buffer.str();
    if (config.checkpoint_dir.empty()) return;
    std::filesystem::create_directories(config.checkpoint_dir);
    nn::save_parameters_file(nn::checkpoint_model_file(config.checkpoint_dir, epoch),
                             *replicas[0]);
    nn::save_train_state_file(nn::checkpoint_state_file(config.checkpoint_dir, epoch),
                              *replicas[0], *optimizers[0], epoch);
    if (config.keep_checkpoints > 0) {
      (void)nn::gc_checkpoints(config.checkpoint_dir, config.keep_checkpoints);
    }
    nn::write_checkpoint_manifest(config.checkpoint_dir);
  };
  if (config.checkpoint_every > 0) write_checkpoint(master, 0);

  std::vector<double> epoch_loss(num_workers, 0.0);
  std::vector<std::uint64_t> epoch_batches(num_workers, 0);
  std::vector<WorkerCounts> counts(num_workers);
  std::vector<std::exception_ptr> errors(num_workers);

  const auto worker_main = [&](std::uint32_t w) {
    SpanLog* log = out.logs[w + 1].get();
    WorkerCounts& mine = counts[w];
    std::int64_t released = now_ns();  // end of this worker's last collective
    // Wraps one collective: busy time before it (for the round skew) and the
    // time spent inside it, barrier wait included.
    const auto collective = [&](std::uint64_t id, auto&& call) {
      mine.busy_ns.push_back(now_ns() - released);
      {
        const ScopedSpan span(log, "dist.sync", id);
        call();
      }
      ++mine.sync_calls;
      released = now_ns();
    };
    try {
      util::Rng worker_rng = util::Rng(config.seed).split("worker", w);
      sampling::BatchIterator batches(owned[w], config.batch_size);
      for (std::uint32_t epoch = 1; epoch <= config.epochs; ++epoch) {
        const ScopedSpan epoch_span(log, "core.epoch", round_id(w, epoch, rounds));
        util::Rng rng = worker_rng.split("epoch", epoch);
        util::Rng shuffle_rng = worker_rng.split("shuffle", epoch);
        batches.reset(shuffle_rng);
        epoch_loss[w] = 0.0;
        epoch_batches[w] = 0;
        for (std::uint32_t round = 0; round < rounds; ++round) {
          const std::uint64_t id = round_id(w, epoch, round);
          const ScopedSpan round_span(log, "core.round", id);
          std::vector<Edge> batch = batches.next();
          if (batch.empty()) {
            batches.reset(shuffle_rng);
            batch = batches.next();
          }
          if (!batch.empty()) {
            dist::WorkerView& view = *views[w];
            view.begin_batch();
            std::vector<NodePair> negative_pairs;
            {
              const ScopedSpan span(log, "sampling.negative", id);
              negative_pairs = negatives[w]->sample_for_batch(batch, rng);
            }
            std::vector<NodeId> seeds;
            seeds.reserve(2 * (batch.size() + negative_pairs.size()));
            for (const auto& [u, v] : batch) {
              seeds.push_back(u);
              seeds.push_back(v);
            }
            for (const auto& [u, v] : negative_pairs) {
              seeds.push_back(u);
              seeds.push_back(v);
            }
            sampling::ComputationGraph cg;
            {
              const ScopedSpan span(log, "sampling.neighbor", id);
              cg = sampler.sample(view, seeds, rng, view.pool());
            }
            mine.cg_edges += cg.total_edges();
            splpg::tensor::Matrix input;
            {
              const ScopedSpan span(log, "dist.gather", id);
              input = view.gather_features(cg.input_nodes());
            }
            std::unordered_map<NodeId, std::uint32_t> seed_index;
            const auto seed_nodes = cg.seed_nodes();
            seed_index.reserve(seed_nodes.size() * 2);
            for (std::uint32_t i = 0; i < seed_nodes.size(); ++i) {
              seed_index.emplace(seed_nodes[i], i);
            }
            std::vector<nn::PairIndex> pairs;
            std::vector<float> labels;
            pairs.reserve(batch.size() + negative_pairs.size());
            labels.reserve(batch.size() + negative_pairs.size());
            for (const auto& [u, v] : batch) {
              pairs.push_back({seed_index.at(u), seed_index.at(v)});
              labels.push_back(1.0F);
            }
            for (const auto& [u, v] : negative_pairs) {
              pairs.push_back({seed_index.at(u), seed_index.at(v)});
              labels.push_back(0.0F);
            }
            nn::LinkPredictionModel& model = *replicas[w];
            splpg::tensor::Tensor loss;
            {
              const ScopedSpan span(log, "nn.forward", id);
              const auto embeddings = model.encode(cg, std::move(input));
              const auto logits = model.score(embeddings, pairs);
              loss = splpg::tensor::bce_with_logits(logits, labels);
            }
            {
              const ScopedSpan span(log, "nn.backward", id);
              model.zero_grad();
              loss.backward();
            }
            epoch_loss[w] += loss.item();
            ++epoch_batches[w];
          }
          if (config.sync == dist::SyncMode::kGradientAveraging && num_workers > 1) {
            collective(id, [&] { context.all_reduce_gradients(); });
          }
          const ScopedSpan span(log, "nn.optimizer", id);
          optimizers[w]->step();
        }
        if (config.sync == dist::SyncMode::kModelAveraging && num_workers > 1) {
          collective(round_id(w, epoch, rounds), [&] { context.average_models(); });
        }
        // Epoch bookkeeping, evaluation and checkpoint, as in the trainer's
        // serial section (run by the last worker to arrive).
        context.run_serial([&, epoch] {
          const ScopedSpan span(log, "core.serial", round_id(w, epoch, rounds));
          core::EpochRecord record;
          record.epoch = epoch;
          std::uint64_t batches_total = 0;
          for (std::uint32_t i = 0; i < num_workers; ++i) {
            record.mean_loss += epoch_loss[i];
            batches_total += epoch_batches[i];
            const dist::CommStats epoch_comm = views[i]->meter().drain();
            record.comm_gigabytes += epoch_comm.total_gigabytes();
            record.sync_gigabytes += epoch_comm.sync_gigabytes();
            out.structure_fetches += epoch_comm.structure_fetches;
            out.feature_fetches += epoch_comm.feature_fetches;
            out.graph_bytes += epoch_comm.total_bytes();
            out.sync_bytes += epoch_comm.sync_bytes;
          }
          record.mean_loss = batches_total > 0
                                 ? record.mean_loss / static_cast<double>(batches_total)
                                 : 0.0;
          if (epoch == config.epochs) {
            const ScopedSpan eval_span(log, "core.eval", epoch);
            record.test_auc = evaluator.evaluate(*replicas[0]).test_auc;
          }
          out.history.push_back(record);
          if (config.checkpoint_every > 0 && epoch % config.checkpoint_every == 0) {
            write_checkpoint(log, epoch);
          }
        });
        released = now_ns();
      }
    } catch (...) {
      errors[w] = std::current_exception();
      context.leave(w);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(num_workers);
  for (std::uint32_t w = 0; w < num_workers; ++w) threads.emplace_back(worker_main, w);
  for (auto& thread : threads) thread.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  out.wall_s = static_cast<double>(now_ns() - wall_start) * 1e-9;

  for (const WorkerCounts& c : counts) {
    out.cg_edges += c.cg_edges;
    out.sync_calls += c.sync_calls;
  }
  // Every worker joins every collective, so busy_ns[k] lines up across workers.
  for (std::size_t k = 0; k < counts[0].busy_ns.size(); ++k) {
    std::int64_t lo = counts[0].busy_ns[k];
    std::int64_t hi = lo;
    for (const WorkerCounts& c : counts) {
      lo = std::min(lo, c.busy_ns[k]);
      hi = std::max(hi, c.busy_ns[k]);
    }
    out.round_skew_s.push_back(static_cast<double>(hi - lo) * 1e-9);
  }
  return out;
}

std::string replay_mismatch(const TrainingReplay& replay, const core::TrainResult& result) {
  if (replay.history.size() != result.history.size()) return "epoch count differs";
  for (std::size_t e = 0; e < replay.history.size(); ++e) {
    const core::EpochRecord& a = replay.history[e];
    const core::EpochRecord& b = result.history[e];
    const std::string where = "epoch " + std::to_string(b.epoch) + ": ";
    if (a.mean_loss != b.mean_loss) return where + "mean loss differs";
    if (a.comm_gigabytes != b.comm_gigabytes) return where + "graph bytes differ";
    if (a.sync_gigabytes != b.sync_gigabytes) return where + "sync bytes differ";
  }
  if (replay.graph_bytes != result.comm.total_bytes()) return "total graph bytes differ";
  if (replay.sync_bytes != result.comm.sync_bytes) return "total sync bytes differ";
  if (replay.history.back().test_auc != result.test_auc) return "test AUC differs";
  return {};
}

}  // namespace perfbench
