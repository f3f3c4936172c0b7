// SpLPG benchmark program. One run measures one workload: a SpLPG training
// job and a serving tier on one host.
//
//   splpg_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--trace-out FILE] [--scratch DIR]
//
// --trace 0 times the untraced program and prints the end-to-end metrics;
// --trace 1 replays the same work under spans, checks the replay against the
// untraced run, writes a Chrome trace-event file and prints the per-layer
// metrics. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <utility>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serving.hpp"
#include "stats.hpp"
#include "tensor/vec.hpp"
#include "trace.hpp"
#include "training.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace core = splpg::core;
namespace dist = splpg::dist;

struct Workload {
  const char* name;
  TrainingSpec training;
  bool zipf_endpoints;  // serving traffic: Zipf(1.0) endpoints, else uniform
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"train-grad-pubmed.serve-zipf",
       {"pubmed", 0.25, dist::SyncMode::kGradientAveraging, false},
       true},
      {"train-modelavg-chameleon.serve-uniform",
       {"chameleon", 0.4, dist::SyncMode::kModelAveraging, true},
       false},
  };
  return all;
}

// The serving tier's graph is the same for every workload.
constexpr const char* kServeDataset = "pubmed";
constexpr double kServeScale = 0.5;
// Set-ups at the start of a run, and between the timed training calls, so
// set-up time is sampled over the whole run. The first set-ups of a process
// run slower (the heap is still growing); the median lies past those.
constexpr std::size_t kSetups = 5;
constexpr std::size_t kSetupsPerSlot = 3;
constexpr std::size_t kWarmupRequests = 1000;
// The nominal load: 2 windows of 1010 requests, so each window's p99 has ten
// samples beyond it.
constexpr double kNominalRps = 250.0;
constexpr std::size_t kWindow = 1010;
constexpr std::size_t kNominalRequests = 2 * kWindow;
// The max_rps ladder: 250 to 3000 req/s in 10% steps, p99 limit 100 ms.
constexpr double kLadderLow = 250.0;
constexpr double kLadderHigh = 3000.0;
constexpr double kLadderStep = 1.1;
constexpr double kLimitMs = 100.0;
constexpr std::size_t kReferenceSample = 64;
// Training seeds per run: the training outputs are averaged over them.
constexpr std::uint64_t kTrainSeeds = 2;
// Closed-loop bursts before training and after each timed training call.
constexpr std::size_t kBurstsPerSlot = 3;
constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 60.0;
  bool trace = false;
  std::string trace_out;
  std::string scratch = ".bench_build/scratch";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return args;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints a readable table on stdout, then the result line the contract
/// reads (always the last line).
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buffer[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buffer;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Latency of the untraced nominal load, from each request's due time. It
/// is reported, not gated: on a shared virtual host its spread between runs
/// exceeds any useful regression bound.
void print_latency(const OpenLoopRun& nominal) {
  const Percentile p99 = windowed_percentile(nominal.latency_ms, kWindow, 99.0);
  std::printf("latency at %.0f req/s: p50_ms %.3f, p%.1f_ms %.3f (median over %zu-request "
              "windows, %zu samples); generator max lateness %.3f ms\n",
              kNominalRps, median(nominal.latency_ms), p99.q, p99.value, kWindow, p99.count,
              nominal.max_late_ms);
}

/// The ladder rule: the highest rung where p99 <= kLimitMs, the backlog does
/// not grow, and no request fails. A rung that fails on latency alone is
/// offered once more: a stall of the host can spoil one offer, while an
/// overloaded scorer fails both.
double max_rate(splpg::serving::ServingServer& server, const Traffic& traffic) {
  const auto offer = [&](double rate) {
    const RungResult rung = offer_rung(server, traffic, rate);
    const bool passes = rung_passes(rung, kLimitMs);
    std::fprintf(stderr, "  rung %6.0f req/s: p%.1f %.3f ms backlog %s -> %s\n", rate,
                 rung.p99.q, rung.p99.value, rung.backlog_grows ? "grows" : "steady",
                 passes ? "pass" : "fail");
    return std::make_pair(passes, rung.backlog_grows);
  };
  return ladder_max_rate(make_ladder(kLadderLow, kLadderHigh, kLadderStep), [&](double rate) {
    const auto [passes, overloaded] = offer(rate);
    return passes || (!overloaded && offer(rate).first);
  });
}

std::string host_json(const Args& args) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "{\"cores\": %u, \"vec_backend\": \"%s\", \"build_type\": \"%s\", "
                "\"workload\": \"%s\", \"seed\": %llu}",
                std::thread::hardware_concurrency(),
                splpg::tensor::vec_backend_name(splpg::tensor::vec_active_backend()),
                PERFBENCH_BUILD_TYPE, args.workload.c_str(),
                static_cast<unsigned long long>(args.seed));
  return buffer;
}

/// Everything built before the measured work, and how long building took.
/// Held by pointer and never moved: the serving stack points into `serve`.
struct Setup {
  Problem train;
  Problem serve;
  ServingStack stack;  // last: destroyed first
  double setup_s = 0.0;
  double generate_s = 0.0;  // make_dataset alone, both datasets
};

std::unique_ptr<Setup> build_setup(const Workload& workload, std::uint64_t seed) {
  auto setup = std::make_unique<Setup>();
  const std::int64_t start = now_ns();
  double train_generate = 0.0;
  double serve_generate = 0.0;
  setup->train =
      make_problem(workload.training.dataset, workload.training.scale, &train_generate);
  setup->serve = make_problem(kServeDataset, kServeScale, &serve_generate);
  setup->stack = make_serving_stack(setup->serve, seed);
  setup->setup_s = seconds_since(start);
  setup->generate_s = train_generate + serve_generate;
  return setup;
}

/// Builds the setup `count` times, one at a time; returns the last one.
/// Every build's times are appended to `setup_s` and `generate_s`.
std::unique_ptr<Setup> repeat_setup(const Workload& workload, std::uint64_t seed,
                                    std::size_t count, std::vector<double>& setup_s,
                                    std::vector<double>& generate_s) {
  std::unique_ptr<Setup> setup;
  for (std::size_t i = 0; i < count; ++i) {
    setup.reset();
    setup = build_setup(workload, seed);
    setup_s.push_back(setup->setup_s);
    generate_s.push_back(setup->generate_s);
  }
  return setup;
}

/// The graph-data, sync and accuracy outputs of one training call; they are
/// deterministic in the seed and must repeat exactly.
struct TrainOutputs {
  double graph_mb_per_epoch = 0.0;
  double sync_mb_per_epoch = 0.0;
  double test_auc = 0.0;
  bool operator==(const TrainOutputs&) const = default;
};

TrainOutputs outputs_of(const core::TrainResult& result) {
  const auto epochs = static_cast<double>(result.history.size());
  return {static_cast<double>(result.comm.total_bytes()) / epochs / kMiB,
          static_cast<double>(result.comm.sync_bytes) / epochs / kMiB, result.test_auc};
}

/// Training seed `k` of workload seed `seed`: seeds 2s and 2s+1.
std::uint64_t train_seed(std::uint64_t seed, std::uint64_t k) { return seed * kTrainSeeds + k; }

core::TrainResult train_once(const Setup& setup, const core::TrainConfig& config) {
  if (!config.checkpoint_dir.empty()) std::filesystem::remove_all(config.checkpoint_dir);
  return core::train_link_prediction(setup.train.split, setup.train.dataset.features, config);
}

int run_timed(const Workload& workload, const Args& args) {
  const std::int64_t run_start = now_ns();
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  const std::unique_ptr<Setup> owned_setup =
      repeat_setup(workload, args.seed, kSetups, setup_s, generate_s);
  Setup& setup = *owned_setup;
  const Traffic traffic = make_traffic(setup.serve.split.train_graph,
                                       workload.zipf_endpoints, kWarmupRequests,
                                       kNominalRequests, args.seed);
  std::vector<core::TrainConfig> configs;
  for (std::uint64_t k = 0; k < kTrainSeeds; ++k) {
    configs.push_back(make_train_config(workload.training, setup.train,
                                        train_seed(args.seed, k), args.scratch + "/checkpoints"));
  }
  splpg::serving::ServingServer& server = *setup.stack.server;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // ---- serving first, while the host has not yet run the four training
  // threads: warm-up, the nominal windows, the reference check ----
  warm_up(server, traffic, kNominalRps);
  const OpenLoopRun nominal =
      run_open_loop(server, traffic, kNominalRequests, kNominalRps, true);
  const std::uint64_t mismatches = reference_mismatches(*setup.stack.frozen, traffic, nominal,
                                                        kReferenceSample, args.seed);
  std::uint64_t requests = nominal.latency_ms.size();
  std::uint64_t requests_failed = nominal.failed + mismatches;
  if (mismatches > 0) {
    std::fprintf(stderr, "%llu of %zu sampled replies differ from the reference\n",
                 static_cast<unsigned long long>(mismatches), kReferenceSample);
    correct = false;
  }
  // Peak throughput: closed-loop bursts now and after each timed training
  // call, so they sample the whole run; the metric is their median.
  std::vector<double> burst_rps;
  const auto bursts = [&] {
    for (std::size_t b = 0; b < kBurstsPerSlot; ++b) {
      const Burst result = saturate(server, traffic);
      burst_rps.push_back(result.rps);
      requests += result.requests;
      requests_failed += result.failed;
    }
  };
  bursts();

  // ---- training: one untimed warm-up call per training seed (it fills the
  // allocator and gives the seed's reference outputs), then timed calls that
  // cycle through the seeds while 90% of the run lasts (at least one per
  // seed) ----
  std::vector<TrainOutputs> reference;
  for (const core::TrainConfig& config : configs) {
    reference.push_back(outputs_of(train_once(setup, config)));
    ++attempted;
  }
  std::vector<double> epoch_s;
  std::vector<double> train_s;
  while (train_s.size() < kTrainSeeds ||
         seconds_since(run_start) + train_s.back() <= 0.9 * args.seconds) {
    const std::size_t k = train_s.size() % kTrainSeeds;
    const std::int64_t start = now_ns();
    const core::TrainResult result = train_once(setup, configs[k]);
    train_s.push_back(seconds_since(start));
    for (const auto& record : result.history) epoch_s.push_back(record.seconds);
    ++attempted;
    if (!(outputs_of(result) == reference[k])) {
      std::fprintf(stderr, "training call %zu: graph bytes, sync bytes or AUC differ\n",
                   train_s.size());
      ++failed;
      correct = false;
    }
    bursts();
    (void)repeat_setup(workload, args.seed, kSetupsPerSlot, setup_s, generate_s);
  }
  std::filesystem::remove_all(configs.front().checkpoint_dir);
  setup.stack.server->shutdown();
  if (requests_failed > mismatches) {
    std::fprintf(stderr, "%llu serving requests were refused or threw\n",
                 static_cast<unsigned long long>(requests_failed - mismatches));
    correct = false;
  }
  attempted += requests;
  failed += requests_failed;
  TrainOutputs outputs;
  for (const TrainOutputs& seed_outputs : reference) {
    outputs.graph_mb_per_epoch += seed_outputs.graph_mb_per_epoch / kTrainSeeds;
    outputs.sync_mb_per_epoch += seed_outputs.sync_mb_per_epoch / kTrainSeeds;
    outputs.test_auc += seed_outputs.test_auc / kTrainSeeds;
  }

  std::printf("host: %s\n", host_json(args).c_str());
  std::printf("samples: %zu set-ups, %zu epochs over %zu training calls, %zu bursts; "
              "run took %.1f s\n",
              setup_s.size(), epoch_s.size(), train_s.size(), burst_rps.size(),
              seconds_since(run_start));
  print_latency(nominal);
  print_result(correct, attempted, failed,
               {{"setup_s", median(setup_s), "s"},
                {"epoch_s", median(epoch_s), "s"},
                {"train_s", median(train_s), "s"},
                {"graph_mb_per_epoch", outputs.graph_mb_per_epoch, "MiB"},
                {"sync_mb_per_epoch", outputs.sync_mb_per_epoch, "MiB"},
                {"test_auc", outputs.test_auc, "1"},
                {"saturated_rps", median(burst_rps), "1/s"},
                {"ok_share",
                 1.0 - static_cast<double>(requests_failed) / static_cast<double>(requests), "1"},
                {"peak_rss_mb", peak_rss_mib(), "MiB"}});
  return 0;
}

int run_traced(const Workload& workload, const Args& args) {
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  const std::unique_ptr<Setup> owned_setup =
      repeat_setup(workload, args.seed, kSetups, setup_s, generate_s);
  Setup& setup = *owned_setup;
  const Traffic traffic = make_traffic(setup.serve.split.train_graph,
                                       workload.zipf_endpoints, kWarmupRequests,
                                       kNominalRequests, args.seed);
  const core::TrainConfig config =
      make_train_config(workload.training, setup.train, train_seed(args.seed, 0),
                        args.scratch + "/checkpoints");

  // ---- serving first, as in the timed run: untraced nominal load and the
  // ladder, then the batch-timestamped run and its replay ----
  warm_up(*setup.stack.server, traffic, kNominalRps);
  const OpenLoopRun nominal =
      run_open_loop(*setup.stack.server, traffic, kNominalRequests, kNominalRps, false);
  const double max_rps = max_rate(*setup.stack.server, traffic);
  setup.stack.server->shutdown();
  const ServingTrace serving =
      trace_serving(setup.serve, args.seed, traffic, kNominalRequests, kNominalRps);

  // ---- training: a warm-up call, an untraced timed call, then the traced
  // replay of the same rounds ----
  (void)train_once(setup, config);
  const std::int64_t untraced_start = now_ns();
  const core::TrainResult untraced = train_once(setup, config);
  const double untraced_s = seconds_since(untraced_start);
  std::filesystem::remove_all(config.checkpoint_dir);
  const TrainingReplay replay = replay_training(setup.train, config);
  std::filesystem::remove_all(config.checkpoint_dir);
  const std::string mismatch = replay_mismatch(replay, untraced);

  std::vector<const SpanLog*> logs;
  for (const auto& log : replay.logs) logs.push_back(log.get());
  logs.push_back(serving.requests_log.get());
  logs.push_back(serving.scorer_log.get());
  const std::string trace_path =
      args.trace_out.empty() ? args.scratch + "/trace-" + workload.name + "-seed" +
                                   std::to_string(args.seed) + ".json"
                             : args.trace_out;
  std::filesystem::create_directories(std::filesystem::path(trace_path).parent_path());
  write_chrome_trace(trace_path, logs, host_json(args));

  const auto self = self_seconds_by_name(logs);
  const auto self_s = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const auto epochs = static_cast<double>(config.epochs);
  double skew = 0.0;
  for (const double s : replay.round_skew_s) skew += s;

  std::printf("host: %s\n", host_json(args).c_str());
  std::printf("trace: %s (open in https://ui.perfetto.dev)\n", trace_path.c_str());
  std::printf("per-epoch values sum over the %u workers; %zu nominal requests\n",
              config.num_partitions, kNominalRequests);
  if (!mismatch.empty()) {
    std::fprintf(stderr, "replay fidelity check failed: %s\n", mismatch.c_str());
  }
  // Three training calls (warm-up, untraced, replay) and two nominal loads.
  const std::uint64_t failed = (mismatch.empty() ? 0 : 1) + nominal.failed + serving.failed;
  if (nominal.failed + serving.failed > 0) {
    std::fprintf(stderr, "%llu serving requests were refused or threw\n",
                 static_cast<unsigned long long>(nominal.failed + serving.failed));
  }
  print_latency(nominal);
  const Percentile p99 = windowed_percentile(nominal.latency_ms, kWindow, 99.0);
  print_result(failed == 0, 3 + 2 * kNominalRequests, failed,
               {{"data.generate_s", median(generate_s), "s"},
                {"partition.partition_s", self_s("partition.partition"), "s"},
                {"sparsify.sparsify_s", self_s("sparsify.sparsify"), "s"},
                {"partition.edge_cut", static_cast<double>(replay.edge_cut), "count"},
                {"sparsify.kept_edges", static_cast<double>(replay.kept_edges), "count"},
                {"sampling.negative_s", self_s("sampling.negative") / epochs, "s"},
                {"sampling.neighbor_s", self_s("sampling.neighbor") / epochs, "s"},
                {"sampling.cg_edges", static_cast<double>(replay.cg_edges) / epochs, "count"},
                {"dist.gather_s", self_s("dist.gather") / epochs, "s"},
                {"dist.structure_fetches",
                 static_cast<double>(replay.structure_fetches) / epochs, "count"},
                {"dist.feature_fetches", static_cast<double>(replay.feature_fetches) / epochs,
                 "count"},
                {"dist.graph_bytes", static_cast<double>(replay.graph_bytes) / epochs, "B"},
                {"nn.forward_s", self_s("nn.forward") / epochs, "s"},
                {"nn.backward_s", self_s("nn.backward") / epochs, "s"},
                {"nn.optimizer_s", self_s("nn.optimizer") / epochs, "s"},
                {"dist.sync_s", self_s("dist.sync") / epochs, "s"},
                {"dist.round_skew_s", skew / epochs, "s"},
                {"dist.sync_calls", static_cast<double>(replay.sync_calls) / epochs, "count"},
                {"dist.sync_bytes", static_cast<double>(replay.sync_bytes) / epochs, "B"},
                {"core.eval_s", self_s("core.eval"), "s"},
                {"io.checkpoint_s", self_s("io.checkpoint") / epochs, "s"},
                {"serving.p50_ms", median(nominal.latency_ms), "ms"},
                {"serving.p99_ms", p99.value, "ms"},
                {"serving.max_rps", max_rps, "1/s"},
                {"serving.admit_ms", serving.admit_ms, "ms"},
                {"serving.queue_wait_ms", serving.queue_wait_ms, "ms"},
                {"serving.resolve_s", serving.resolve_s, "s"},
                {"serving.cache_hit_ratio", serving.cache_hit_ratio, "1"},
                {"serving.score_s", serving.score_s, "s"},
                {"serving.pairs_per_batch", serving.pairs_per_batch, "count"},
                {"serving.scorer_busy_share", serving.scorer_busy_share, "1"},
                {"trace.train_overhead_s", replay.wall_s - untraced_s, "s"},
                {"trace.serving_overhead_ms", serving.overhead_ms, "ms"}});
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    for (const Workload& workload : workloads()) {
      if (args.workload == workload.name) {
        return args.trace ? run_traced(workload, args) : run_timed(workload, args);
      }
    }
    std::fprintf(stderr, "unknown workload '%s'; known:", args.workload.c_str());
    for (const Workload& workload : workloads()) std::fprintf(stderr, " %s", workload.name);
    std::fprintf(stderr, "\n");
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "splpg_perfbench: %s\n", error.what());
    return 1;
  }
}
