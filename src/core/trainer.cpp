#include "core/trainer.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "dist/worker_view.hpp"
#include "nn/checkpoint.hpp"
#include "nn/optimizer.hpp"
#include "sampling/negative_sampler.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "sparsify/sparsifier.hpp"
#include "tensor/parallel.hpp"
#include "util/bounded_queue.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace splpg::core {

using graph::Edge;
using graph::NodeId;
using sampling::NodePair;
using sampling::PerSourceNegativeSampler;

namespace {

/// Thrown by a worker when the fault plan schedules its crash. Not an
/// error: the trainer parks the worker, survivors keep going, and the
/// worker is respawned from the latest checkpoint at the epoch boundary.
/// Under the pipeline it reaches the consumer like any producer failure.
struct WorkerCrashed {};

/// Stage-1 output of one mini-batch: everything the forward/backward pass
/// needs, with all RNG- and WorkerView-touching work already done. Splitting
/// the batch step here is what lets the pipeline overlap batch i+1's
/// sampling (producer thread) with batch i's compute (worker thread) without
/// perturbing any random stream.
struct PreparedBatch {
  sampling::ComputationGraph cg;
  tensor::Matrix input_features;
  std::vector<nn::PairIndex> pairs;
  std::vector<float> labels;
};

/// Stage 1: negative sampling, seed assembly, k-hop neighbor sampling (on
/// the view's pool when attached), and the feature gather. Consumes `rng` in
/// exactly the serial order; the view's meter/fault state advances here.
PreparedBatch prepare_batch(dist::WorkerView& view,
                            const sampling::NeighborSampler& sampler,
                            const PerSourceNegativeSampler& negatives,
                            std::span<const Edge> positives, util::Rng& rng) {
  view.begin_batch();

  // The positives, then one per-source uniform negative per positive
  // (balanced batch, §II-B).
  std::vector<NodePair> pairs;
  pairs.reserve(2 * positives.size());
  for (const auto& [u, v] : positives) pairs.push_back({u, v});
  const std::vector<NodePair> negative_pairs = negatives.sample_for_batch(positives, rng);
  pairs.insert(pairs.end(), negative_pairs.begin(), negative_pairs.end());

  std::vector<NodeId> seeds;
  seeds.reserve(2 * pairs.size());
  for (const auto& [u, v] : pairs) {
    seeds.push_back(u);
    seeds.push_back(v);
  }

  PreparedBatch prep;
  prep.cg = sampler.sample(view, seeds, rng, view.pool());
  prep.input_features = view.gather_features(prep.cg.input_nodes());

  std::unordered_map<NodeId, std::uint32_t> seed_index;
  const auto seed_nodes = prep.cg.seed_nodes();
  seed_index.reserve(seed_nodes.size() * 2);
  for (std::uint32_t i = 0; i < seed_nodes.size(); ++i) seed_index.emplace(seed_nodes[i], i);

  prep.pairs.reserve(pairs.size());
  for (const auto& [u, v] : pairs) prep.pairs.push_back({seed_index.at(u), seed_index.at(v)});
  prep.labels.assign(positives.size(), 1.0F);
  prep.labels.resize(pairs.size(), 0.0F);
  return prep;
}

/// Stage 2: forward, loss, backward. RNG-free and view-free, so it can run
/// while the producer is already sampling the next batch. Returns the loss.
float compute_batch(nn::LinkPredictionModel& model, PreparedBatch prep) {
  const auto embeddings = model.encode(prep.cg, std::move(prep.input_features));
  const auto logits = model.score(embeddings, prep.pairs);
  auto loss = bce_with_logits(logits, prep.labels);
  model.zero_grad();
  loss.backward();
  return loss.item();
}

/// One pipeline hand-off: a prepared round (or the reason there isn't one).
struct PipelineItem {
  std::optional<PreparedBatch> prep;  // empty = the round's batch drew empty
  std::exception_ptr error;           // a producer failure or WorkerCrashed
};

/// Bounded queue for pipeline hand-off (util::BoundedQueue, shared with the
/// serving request queue). Capacity caps how far the producer can run ahead
/// (memory bound); cancel() unblocks a producer stuck in push() when the
/// consumer dies early.
using BoundedQueue = util::BoundedQueue<PipelineItem>;

/// Joins the epoch's producer thread on every exit path (normal, injected
/// crash, real error) so it never outlives the queue or the epoch state it
/// captures by reference.
struct ProducerGuard {
  BoundedQueue& queue;
  std::thread& producer;
  ~ProducerGuard() {
    queue.cancel();
    if (producer.joinable()) producer.join();
  }
};

/// Per-source negative sampler over `candidates`. The rejection oracle is
/// the training graph: a worker always knows the full neighbor list of its
/// own (source) nodes.
std::unique_ptr<PerSourceNegativeSampler> make_negative_sampler(
    const graph::CsrGraph& train_graph, std::vector<NodeId> candidates,
    sampling::NegativeDistribution distribution) {
  auto weights = sampling::negative_candidate_weights(distribution, train_graph, candidates);
  return std::make_unique<PerSourceNegativeSampler>(
      std::move(candidates),
      [&train_graph](NodeId u, NodeId v) { return train_graph.has_edge(u, v); },
      std::move(weights));
}

/// How the replicas synchronize, derived once from the config. Every round
/// all-reduces gradients when `all_reduce` is set, and model-averages once
/// `average_period` rounds (0 = never) have passed since the last average;
/// every epoch ends with an average when rounds since the last one remain,
/// so evaluation and checkpoints always see the synchronized model. Local
/// SGD averages every `local_steps` rounds; model averaging is local SGD
/// with an unbounded period, so it averages exactly once, at the epoch end.
struct SyncPlan {
  bool all_reduce = false;
  std::uint32_t average_period = 0;
};

SyncPlan sync_plan(const TrainConfig& config, std::uint32_t num_workers) {
  if (config.sync == dist::SyncMode::kLocalSgd && config.local_steps == 0) {
    throw std::invalid_argument("train_link_prediction: local_steps must be >= 1 under kLocalSgd");
  }
  if (num_workers == 1) return {};
  if (config.sync == dist::SyncMode::kGradientAveraging) return {true, 0};
  if (config.sync == dist::SyncMode::kLocalSgd) return {false, config.local_steps};
  return {false, std::numeric_limits<std::uint32_t>::max()};  // kModelAveraging
}

/// The crash park/respawn handshake. A crashed worker leaves the
/// collectives (survivors' barriers shrink) and parks; the next epoch-end
/// serial section, which sees it inactive, restores its replica and either
/// respawns it (rejoining the collectives for the next epoch) or, when
/// training is over, finish()es and so releases it for good.
class CrashGate {
 public:
  explicit CrashGate(dist::DistContext& context) : context_(context) {}

  /// Worker thread. True once respawned, false when training ended first.
  bool park(std::uint32_t w) {
    std::unique_lock<std::mutex> lock(mutex_);
    context_.leave(w);
    cv_.wait(lock, [&] { return done_ || context_.is_active(w); });
    return !done_;
  }

  /// Serial section: `w` rejoins the collectives for the next epoch.
  void respawn(std::uint32_t w) {
    const std::lock_guard<std::mutex> lock(mutex_);
    context_.rejoin(w);
    cv_.notify_all();
  }

  /// Training is over: every parked worker returns from park().
  void finish() {
    const std::lock_guard<std::mutex> lock(mutex_);
    done_ = true;
    cv_.notify_all();
  }

 private:
  dist::DistContext& context_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;  // guarded by mutex_
};

/// Everything one worker owns. The epoch accumulators are written by the
/// worker's thread and read in barrier serial sections; `error` is read by
/// the master after join.
struct Worker {
  std::unique_ptr<dist::WorkerView> view;
  std::shared_ptr<nn::LinkPredictionModel> replica;
  std::unique_ptr<nn::Adam> optimizer;
  std::unique_ptr<PerSourceNegativeSampler> negatives;
  // Local-only negatives for degraded batches (permanent fetch failure):
  // candidates restricted to the worker's own partition. Faults only.
  std::unique_ptr<PerSourceNegativeSampler> fallback_negatives;
  sampling::BatchIterator batches;  // over the worker's owned positive edges
  // Compute pool (worker_threads != 1): shared by the sampler's chunk
  // fanout picks and, via ComputePoolScope, the row-blocked tensor kernels.
  // One pool per worker keeps the worker streams independent.
  std::unique_ptr<util::ThreadPool> pool;
  double epoch_loss = 0.0;
  std::uint64_t epoch_batches = 0;
  std::exception_ptr error = nullptr;
};

/// Serialized full train state (parameters + optimizer moments + epoch).
std::string train_state(const Worker& worker, std::uint32_t epoch) {
  std::ostringstream out;
  nn::save_train_state(out, *worker.replica, *worker.optimizer, epoch);
  return out.str();
}

/// Restores a replica and a fresh optimizer from a serialized train state,
/// so the worker continues exactly where that state left off. Without a
/// state (no checkpoint yet) it copies the survivor's parameters instead,
/// with moments from zero.
void restore(Worker& worker, const std::string& state, const Worker& survivor,
             float learning_rate) {
  worker.optimizer = std::make_unique<nn::Adam>(*worker.replica, learning_rate);
  if (state.empty()) {
    nn::copy_parameters(*survivor.replica, *worker.replica);
    return;
  }
  std::istringstream in(state);
  (void)nn::load_train_state(in, *worker.replica, *worker.optimizer);
}

/// LLCG's server-side correction state, built once per run: the training
/// graph as one partition (every node local, so part 0's nodes are all
/// nodes) and the training edges the correction batches are drawn from.
struct GlobalCorrection {
  GlobalCorrection(const sampling::LinkSplit& split, const graph::FeatureStore& features,
                   std::uint32_t batch_size)
      : store(split.train_graph, &features,
              {1, std::vector<std::uint32_t>(split.train_graph.num_nodes(), 0)}),
        view(store, 0, {true, dist::RemoteAdjacency::kNone, dist::NegativeScope::kGlobal}),
        negatives(make_negative_sampler(split.train_graph, store.part_nodes(0),
                                        sampling::NegativeDistribution::kUniform)),
        batches(split.train_pos, batch_size) {}

  dist::MasterStore store;
  dist::WorkerView view;
  std::unique_ptr<PerSourceNegativeSampler> negatives;
  sampling::BatchIterator batches;
};

/// One training run. Member initialization is the master's setup
/// (partition, sparsify, build workers); run() resumes, trains with one
/// thread per worker, and assembles the result. Each epoch a worker runs its
/// produce/consume rounds, then the epoch end: on one thread, while the
/// others are blocked at the barrier, close_epoch (LLCG correction, record)
/// and finish_epoch (checkpoint, recover). On an evaluation epoch they are
/// two serial sections, and between them every active worker scores
/// evaluation chunks; finish_epoch then records the metrics and early stop.
class Training {
 public:
  Training(const sampling::LinkSplit& split, const graph::FeatureStore& features,
           const TrainConfig& config)
      : split_(split), features_(features), config_(config) {
    result_.method = config.method;
    for (const Worker& worker : workers_) {
      rounds_ = std::max(rounds_, worker.batches.batches_per_epoch());
    }
    if (config.max_batches_per_epoch > 0) {
      rounds_ = std::min<std::size_t>(rounds_, config.max_batches_per_epoch);
    }
  }

  TrainResult run() {
    start_epoch_ = resume();
    // The hook is installed AFTER replica registration and any checkpoint
    // restore: for compressing hooks set_comm_hook snapshots the current
    // (possibly resumed) parameters as the reference model that compressed
    // model averaging sends deltas against. A kNone hook is installed too so
    // the dense baseline's sync payload is metered for regime comparisons —
    // its collective arithmetic is byte-for-byte the hook-free path.
    if (num_workers_ > 1) {
      context_.set_comm_hook(dist::make_comm_hook(
          config_.comm_hook, {.topk_fraction = config_.topk_fraction}, num_workers_));
      for (std::uint32_t w = 0; w < num_workers_; ++w) {
        context_.attach_meter(w, &workers_[w].view->meter());
      }
    }
    if (config_.checkpoint_every > 0) write_checkpoint(0, start_epoch_ - 1);
    result_.per_worker_comm.assign(num_workers_, dist::CommStats{});
    result_.per_worker_fault.assign(num_workers_, dist::FaultStats{});

    std::vector<std::thread> threads;
    for (std::uint32_t w = 0; w < num_workers_; ++w) {
      threads.emplace_back([this, w] { worker_main(w); });
    }
    for (auto& thread : threads) thread.join();
    for (const Worker& worker : workers_) {
      if (worker.error) std::rethrow_exception(worker.error);
    }

    if (storage_injector_) {
      const auto storage_stats = storage_injector_->stats();
      result_.fault.storage_write_faults += storage_stats.write_faults();
      result_.fault.storage_read_faults += storage_stats.read_faults();
    }
    result_.train_seconds = total_watch_.seconds();
    result_.model = workers_[final_eval_worker_].replica;
    return std::move(result_);
  }

 private:
  /// Master setup: partition the training graph, then (SpLPG only) install
  /// sparsified partition copies.
  dist::MasterStore build_store() {
    util::Rng master_rng = util::Rng(config_.seed).split("master");
    const auto partitioner = method_partitioner(config_.method, config_.super_clusters_per_part);
    partition::PartitionResult parts =
        partitioner->partition(split_.train_graph, num_workers_, master_rng);
    result_.partition_edge_cut = partition::edge_cut(split_.train_graph, parts);
    result_.partition_balance = partition::balance(split_.train_graph, parts);
    dist::MasterStore store(split_.train_graph, &features_, std::move(parts));
    if (!uses_sparsification(config_.method)) return store;

    sparsify::SparsifyConfig sparsify_config;
    sparsify_config.alpha = config_.alpha;
    sparsify_config.num_threads = config_.num_threads;
    const auto sparsifier = sparsify::make_sparsifier(config_.sparsifier, sparsify_config);
    std::vector<sparsify::SparsifyStats> stats;
    util::Rng sparsify_rng = util::Rng(config_.seed).split("sparsify");
    const util::Stopwatch sparsify_watch;
    store.set_sparsified(sparsifier->sparsify_partitions(store.graph(), store.assignment(),
                                                         num_workers_, sparsify_rng, &stats));
    result_.sparsify_seconds = sparsify_watch.seconds();
    for (const auto& s : stats) result_.sparsify_cpu_seconds += s.cpu_seconds;
    return store;
  }

  /// Master setup: one WorkerView + model replica + optimizer + samplers
  /// per worker, each replica registered with the collectives.
  std::vector<Worker> build_workers() {
    nn::ModelConfig model_config = config_.model;
    if (model_config.in_dim == 0) model_config.in_dim = features_.dim();
    const dist::WorkerPolicy policy = worker_policy(config_.method);
    std::vector<Worker> workers;
    workers.reserve(num_workers_);
    for (std::uint32_t w = 0; w < num_workers_; ++w) {
      auto view = std::make_unique<dist::WorkerView>(store_, w, policy);
      if (injector_) view->attach_faults(injector_.get(), config_.retry);
      auto replica = std::make_shared<nn::LinkPredictionModel>(model_config, config_.seed);
      context_.register_replica(w, replica.get());
      auto optimizer = std::make_unique<nn::Adam>(*replica, config_.learning_rate);
      auto negatives = make_negative_sampler(split_.train_graph, view->negative_candidates(),
                                             config_.negative_distribution);
      auto fallback = injector_ ? make_negative_sampler(split_.train_graph, store_.part_nodes(w),
                                                        config_.negative_distribution)
                                : nullptr;
      sampling::BatchIterator batches(view->owned_positive_edges(split_.train_pos),
                                      config_.batch_size);
      auto pool = config_.worker_threads == 1
                      ? nullptr
                      : std::make_unique<util::ThreadPool>(config_.worker_threads);
      view->attach_pool(pool.get());
      workers.push_back({std::move(view), std::move(replica), std::move(optimizer),
                         std::move(negatives), std::move(fallback), std::move(batches),
                         std::move(pool)});
    }
    return workers;
  }

  /// Resume stage: restores every replica's parameters AND optimizer
  /// moments from `resume_from` and returns the first epoch to train.
  /// Per-epoch worker state is a pure function of (seed, worker, epoch), so
  /// the resumed run is bit-identical to an uninterrupted one. The state
  /// file is read once, checksums and trailing bytes verified, and every
  /// replica is restored from that one decoded state.
  std::uint32_t resume() {
    nn::TrainState state;
    if (config_.resume_from == "auto") {
      // Self-healing recovery: newest checkpoint in checkpoint_dir that
      // decodes cleanly and fits the replicas; corrupt or unfitting ones
      // are skipped epoch-by-epoch. No valid checkpoint = fresh start, not
      // an error.
      if (config_.checkpoint_dir.empty()) {
        throw std::invalid_argument(
            "train_link_prediction: resume_from=\"auto\" requires checkpoint_dir");
      }
      std::uint32_t skipped = 0;
      const auto latest = nn::find_latest_valid_checkpoint(
          config_.checkpoint_dir, &skipped, &state, workers_[0].replica.get(),
          workers_[0].optimizer.get());
      result_.fault.checkpoints_skipped_invalid += skipped;
      if (skipped > 0) {
        SPLPG_WARN << "auto-resume skipped " << skipped << " unusable checkpoint(s) in "
                   << config_.checkpoint_dir;
      }
      if (!latest.has_value()) return 1;
    } else if (!config_.resume_from.empty()) {
      state = nn::decode_train_state_file(config_.resume_from);
    } else {
      return 1;
    }
    if (state.epoch >= config_.epochs) {
      throw std::invalid_argument("train_link_prediction: resume_from checkpoint is at epoch " +
                                  std::to_string(state.epoch) + ", nothing left of the " +
                                  std::to_string(config_.epochs) + " configured epochs");
    }
    for (Worker& worker : workers_) {
      (void)nn::apply_train_state(state, *worker.replica, *worker.optimizer);
    }
    result_.resumed_from_epoch = state.epoch;
    return state.epoch + 1;
  }

  /// Keeps `src`'s full train state in memory for crash recovery and, when
  /// checkpoint_dir is set, writes the on-disk checkpoint.
  void write_checkpoint(std::uint32_t src, std::uint32_t epoch) {
    const Worker& worker = workers_[src];
    checkpoint_buffer_ = train_state(worker, epoch);
    if (config_.checkpoint_dir.empty()) return;
    try {
      std::filesystem::create_directories(config_.checkpoint_dir);
      nn::save_parameters_file(nn::checkpoint_model_file(config_.checkpoint_dir, epoch),
                               *worker.replica);
      nn::save_train_state_file(nn::checkpoint_state_file(config_.checkpoint_dir, epoch),
                                *worker.replica, *worker.optimizer, epoch);
      if (config_.keep_checkpoints > 0) {
        (void)nn::gc_checkpoints(config_.checkpoint_dir, config_.keep_checkpoints);
      }
      nn::write_checkpoint_manifest(config_.checkpoint_dir);
    } catch (const io::SimulatedCrash&) {
      // Simulated machine death: must kill the run, never be healed. The
      // stop is published here, INSIDE the barrier's serial section, so the
      // workers released by this exception all see it before starting
      // another epoch — a dead machine writes no further checkpoints.
      stop_requested_.store(true);
      throw;
    } catch (const std::exception& error) {
      // Self-healing: a failed checkpoint write (full disk, failed rename)
      // degrades durability, not training — the in-memory
      // checkpoint_buffer_ still holds this state for crash recovery, and
      // AtomicFile guarantees the previous on-disk checkpoint survived.
      ++result_.fault.checkpoint_write_failures;
      SPLPG_WARN << "checkpoint write for epoch " << epoch
                 << " failed (training continues): " << error.what();
    }
  }

  void worker_main(std::uint32_t w) {
    Worker& worker = workers_[w];
    try {
      // Route this thread's tensor kernels through the worker's pool (no-op
      // when worker_threads == 1). Scheduling only — bytes are unchanged.
      const tensor::ComputePoolScope compute_scope(worker.pool.get());
      for (std::uint32_t epoch = start_epoch_; epoch <= config_.epochs; ++epoch) {
        const util::Stopwatch epoch_watch;
        try {
          run_rounds(worker, w, epoch);
        } catch (const WorkerCrashed&) {
          // Injected crash: park until this epoch's recovery respawns the
          // worker from the latest checkpoint for the next epoch.
          ++worker.view->meter().faults().crashes;
          SPLPG_WARN << "worker " << w << " crashed (injected) in epoch " << epoch;
          if (!crashes_.park(w)) return;
          continue;
        }
        if (evaluates(epoch)) {
          context_.run_serial([&] {
            close_epoch(epoch, epoch_watch);
            eval_watch_.reset();
            evaluation_ = evaluator_.begin(*workers_[src_].replica);
          });
          // The serial section just published evaluation_ (or failed before
          // it, leaving it null); it stays put until the next section.
          if (evaluation_) evaluator_.work(*evaluation_);
          context_.run_serial([&] {
            record_evaluation();
            finish_epoch(epoch);
          });
        } else {
          context_.run_serial([&] {
            close_epoch(epoch, epoch_watch);
            finish_epoch(epoch);
          });
        }
        if (stop_requested_.load()) break;  // early stop: all workers agree
      }
    } catch (...) {
      // A real failure (not an injected fault): record it, leave the
      // collectives so survivors cannot deadlock, and request a stop. The
      // master rethrows after all threads have joined. Workers parked for
      // crash recovery are released too — the recovery serial section may
      // never run again (e.g. a simulated machine death mid-checkpoint).
      worker.error = std::current_exception();
      SPLPG_ERROR << "worker " << w << " failed; dropping from collectives";
      stop_requested_.store(true);
      context_.leave(w);
      crashes_.finish();
    }
  }

  /// One epoch's produce/consume rounds for one worker, serial or
  /// pipelined, with the per-round synchronization and the epoch-end
  /// average. Throws WorkerCrashed when the fault plan crashes the worker.
  void run_rounds(Worker& worker, std::uint32_t w, std::uint32_t epoch) {
    // All within-epoch randomness, the per-epoch reshuffle included, is a
    // pure function of (seed, worker, epoch), which is what makes
    // checkpoint resume (and crash recovery) bit-exact.
    const util::Rng worker_rng = util::Rng(config_.seed).split("worker", w);
    util::Rng rng = worker_rng.split("epoch", epoch);
    util::Rng shuffle_rng = worker_rng.split("shuffle", epoch);
    worker.batches.reset(shuffle_rng);
    worker.epoch_loss = 0.0;
    worker.epoch_batches = 0;
    // Rounds since the last model average. Every worker runs the same
    // rounds per epoch, so the counters advance in lockstep and all workers
    // reach each average_models() together.
    std::uint32_t since_average = 0;

    // Stage 1 of one round: crash check, batch draw, and batch preparation
    // (with the degraded-batch fallback on permanent fetch failure). Shared
    // verbatim by the serial loop and the pipeline producer so both execute
    // identical statements in identical order — the basis of the
    // pipeline's bit-identity.
    auto produce_round = [&](std::uint32_t round) {
      if (injector_ && injector_->crash_due(w, epoch, round)) throw WorkerCrashed{};
      PipelineItem item;
      std::vector<Edge> batch = worker.batches.next();
      if (batch.empty()) {
        worker.batches.reset(shuffle_rng);
        batch = worker.batches.next();
      }
      if (batch.empty()) return item;
      try {
        item.prep = prepare_batch(*worker.view, sampler_, *worker.negatives, batch, rng);
      } catch (const dist::RemoteFetchError&) {
        // Permanent fetch failure: finish the batch on local data (local
        // negative candidates, no remote reads) instead of aborting.
        ++worker.view->meter().faults().degraded_batches;
        worker.view->set_degraded(true);
        item.prep =
            prepare_batch(*worker.view, sampler_, *worker.fallback_negatives, batch, rng);
        worker.view->set_degraded(false);
      }
      return item;
    };

    // Stage 2 of one round: compute, synchronize, step. Runs on the worker
    // thread in ascending round order in both modes.
    auto consume_round = [&](PipelineItem item) {
      if (item.error) std::rethrow_exception(item.error);
      if (item.prep) {
        worker.epoch_loss += compute_batch(*worker.replica, std::move(*item.prep));
        ++worker.epoch_batches;
      }
      if (sync_.all_reduce) context_.all_reduce_gradients();
      worker.optimizer->step();
      if (sync_.average_period > 0 && ++since_average >= sync_.average_period) {
        context_.average_models();
        since_average = 0;
      }
    };

    if (config_.pipeline_batches > 0) {
      // Two-stage pipeline: a dedicated producer thread runs stage 1 for
      // round i+1 (and ahead, up to the queue bound) while this thread runs
      // stage 2 for round i. All RNG and WorkerView state lives in stage 1
      // on the single producer thread, in serial round order, so the
      // hand-off cannot perturb any stream. A scheduled crash or producer
      // failure (WorkerCrashed included) is delivered in-order as an error
      // item; the producer stops at it, and stage 2 raises it after
      // finishing every earlier round — exactly the serial semantics.
      BoundedQueue queue(config_.pipeline_batches);
      std::thread producer([&] {
        for (std::uint32_t round = 0; round < rounds_; ++round) {
          PipelineItem item;
          try {
            item = produce_round(round);
          } catch (...) {
            item.error = std::current_exception();
          }
          const bool stop = item.error != nullptr;
          if (!queue.push(std::move(item)) || stop) return;
        }
      });
      const ProducerGuard guard{queue, producer};
      for (std::uint32_t round = 0; round < rounds_; ++round) {
        // The consumer pops at most as many items as the producer pushes
        // (it stops at an error item), so pop() never drains a
        // finished producer dry: value() always holds.
        consume_round(std::move(queue.pop().value()));
      }
    } else {
      for (std::uint32_t round = 0; round < rounds_; ++round) {
        consume_round(produce_round(round));
      }
    }
    if (since_average != 0) context_.average_models();
  }

  /// LLCG: server-side correction of the first active replica on the full
  /// graph, then broadcast to the other active replicas.
  void correct_globally(std::uint32_t epoch, std::uint32_t src) {
    nn::LinkPredictionModel& model = *workers_[src].replica;
    util::Rng rng = util::Rng(config_.seed).split("llcg", epoch);
    nn::Sgd corrector(model, config_.learning_rate);
    correction_->batches.reset(rng);
    for (std::uint32_t b = 0; b < config_.llcg_correction_batches; ++b) {
      const auto batch = correction_->batches.next();
      if (batch.empty()) break;
      compute_batch(model, prepare_batch(correction_->view, sampler_, *correction_->negatives,
                                         batch, rng));
      corrector.step();
    }
    for (std::uint32_t other = 0; other < num_workers_; ++other) {
      if (other != src && context_.is_active(other)) {
        nn::copy_parameters(model, *workers_[other].replica);
      }
    }
  }

  [[nodiscard]] bool evaluates(std::uint32_t epoch) const {
    return (config_.eval_every > 0 && epoch % config_.eval_every == 0) ||
           epoch == config_.epochs;
  }

  /// Epoch-end serial section, first half: LLCG correction and the epoch
  /// record, whose `seconds` stop here, before any evaluation.
  void close_epoch(std::uint32_t epoch, const util::Stopwatch& epoch_watch) {
    // The replica used for correction, evaluation and checkpoints: worker 0
    // unless it crashed this epoch.
    src_ = context_.first_active();
    if (correction_) correct_globally(epoch, src_);

    EpochRecord& record = result_.history.emplace_back();
    record.epoch = epoch;
    std::uint64_t batches_total = 0;
    for (std::uint32_t w = 0; w < num_workers_; ++w) {
      const Worker& worker = workers_[w];
      record.mean_loss += worker.epoch_loss;
      batches_total += worker.epoch_batches;
      const dist::CommStats epoch_comm = worker.view->meter().drain();
      record.comm_gigabytes += epoch_comm.total_gigabytes();
      record.sync_gigabytes += epoch_comm.sync_gigabytes();
      result_.comm += epoch_comm;
      result_.per_worker_comm[w] += epoch_comm;
      const dist::FaultStats epoch_fault = worker.view->meter().drain_faults();
      result_.fault += epoch_fault;
      result_.per_worker_fault[w] += epoch_fault;
    }
    record.mean_loss =
        batches_total > 0 ? record.mean_loss / static_cast<double>(batches_total) : 0.0;
    result_.total_batches += batches_total;
    record.seconds = epoch_watch.seconds();
    // Normalized by the epochs run so far: early stopping (patience) can end
    // training before config.epochs.
    const auto epochs_run = static_cast<double>(result_.history.size());
    result_.comm_gigabytes_per_epoch = result_.comm.total_gigabytes() / epochs_run;
    result_.sync_gigabytes_per_epoch = result_.comm.sync_gigabytes() / epochs_run;
  }

  /// Second serial section of an evaluation epoch: the metrics of the
  /// evaluation every active worker just scored, and early stop. An
  /// evaluation whose scoring threw records nothing: the worker that caught
  /// the exception has left the collectives and stopped the run.
  void record_evaluation() {
    const std::unique_ptr<Evaluation> evaluation = std::move(evaluation_);
    if (!evaluation || evaluation->failed()) return;
    const EvalResult eval = evaluation->result();
    EpochRecord& record = result_.history.back();
    final_eval_worker_ = src_;
    record.val_hits = eval.val_hits;
    record.test_hits = eval.test_hits;
    record.test_auc = eval.test_auc;
    record.eval_seconds = eval_watch_.seconds();
    result_.eval_k = eval.k;
    ++evaluations_since_best_;
    if (eval.val_hits > result_.best_val_hits) evaluations_since_best_ = 0;
    if (eval.val_hits >= result_.best_val_hits) {
      result_.best_val_hits = eval.val_hits;
      result_.test_hits = eval.test_hits;
      result_.test_auc = eval.test_auc;
    }
    if (config_.patience > 0 && evaluations_since_best_ >= config_.patience) {
      stop_requested_.store(true);
    }
  }

  /// Epoch-end serial section, last part: checkpoint of the synchronized
  /// survivor state, crash recovery.
  void finish_epoch(std::uint32_t epoch) {
    if (config_.checkpoint_every > 0 && epoch % config_.checkpoint_every == 0) {
      write_checkpoint(src_, epoch);
    }

    // Recovery: a worker that left the collectives crashed this epoch (one
    // that failed left too, but it requested a stop, so nothing respawns).
    // Restore crashed replicas from the latest checkpoint and respawn them
    // for the next epoch, or release them if training is over.
    const bool final_epoch = epoch >= config_.epochs || stop_requested_.load();
    for (std::uint32_t w = 0; w < num_workers_; ++w) {
      if (context_.is_active(w)) continue;
      restore(workers_[w], checkpoint_buffer_, workers_[src_], config_.learning_rate);
      if (final_epoch) continue;
      crashes_.respawn(w);
      ++result_.fault.recoveries;
      ++result_.per_worker_fault[w].recoveries;
      SPLPG_INFO << "worker " << w << " respawned from checkpoint after epoch " << epoch;
    }
    if (final_epoch) crashes_.finish();
  }

  const util::Stopwatch total_watch_;
  const sampling::LinkSplit& split_;
  const graph::FeatureStore& features_;
  const TrainConfig& config_;
  const std::uint32_t num_workers_ =
      config_.method == Method::kCentralized ? 1 : std::max(1U, config_.num_partitions);
  const SyncPlan sync_ = sync_plan(config_, num_workers_);
  TrainResult result_;
  dist::MasterStore store_ = build_store();
  const std::unique_ptr<dist::FaultInjector> injector_ =
      config_.faults.empty()
          ? nullptr
          : std::make_unique<dist::FaultInjector>(config_.faults, config_.seed, num_workers_);
  // Storage-plane fault injection: installed process-globally for the run so
  // every checkpoint write (AtomicFile) and resume read flows through it —
  // including the ones issued from barrier serial sections on worker threads.
  const std::unique_ptr<io::StorageFaultInjector> storage_injector_ =
      config_.storage_faults.empty()
          ? nullptr
          : std::make_unique<io::StorageFaultInjector>(config_.storage_faults, config_.seed);
  const io::StorageFaultScope storage_scope_{storage_injector_.get()};
  dist::DistContext context_{num_workers_};
  std::vector<Worker> workers_ = build_workers();
  const std::vector<std::uint32_t> fanouts_ =
      config_.fanouts.empty() ? workers_[0].replica->default_fanouts() : config_.fanouts;
  const sampling::NeighborSampler sampler_{fanouts_};
  const Evaluator evaluator_{split_, features_, fanouts_, config_.eval_k, 512, 7,
                             config_.num_threads};
  // The evaluation being scored between an evaluation epoch's two serial
  // sections, and its wall clock. Written only in serial sections.
  std::unique_ptr<Evaluation> evaluation_;
  util::Stopwatch eval_watch_;
  const std::unique_ptr<GlobalCorrection> correction_ =  // LLCG only
      uses_global_correction(config_.method)
          ? std::make_unique<GlobalCorrection>(split_, features_, config_.batch_size)
          : nullptr;
  CrashGate crashes_{context_};
  // Synchronization rounds per epoch: every worker participates in every
  // round; workers with fewer owned edges wrap their iterator.
  std::size_t rounds_ = 1;
  std::uint32_t start_epoch_ = 1;
  // The latest full train state, kept serialized in memory for crash
  // recovery. Written only by the master (before spawning) and by barrier
  // serial sections.
  std::string checkpoint_buffer_;
  std::atomic<bool> stop_requested_{false};
  std::uint32_t evaluations_since_best_ = 0;  // serial-section only
  // The replica this epoch end corrects, evaluates and checkpoints; set by
  // close_epoch (serial-section only).
  std::uint32_t src_ = 0;
  // Which replica the most recent evaluation scored (serial-section only,
  // read by the master after join). After a worker-0 crash the survivors'
  // replica and a checkpoint-restored worker 0 can disagree, so the
  // returned model must be the evaluated one.
  std::uint32_t final_eval_worker_ = 0;
};

}  // namespace

TrainResult train_link_prediction(const sampling::LinkSplit& split,
                                  const graph::FeatureStore& features,
                                  const TrainConfig& config) {
  return Training(split, features, config).run();
}

}  // namespace splpg::core
