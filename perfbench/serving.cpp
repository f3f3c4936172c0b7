#include "serving.hpp"

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <limits>
#include <mutex>
#include <numeric>
#include <thread>
#include <unordered_map>

namespace perfbench {

using splpg::graph::NodeId;
using splpg::sampling::NodePair;
namespace nn = splpg::nn;
namespace serving = splpg::serving;
namespace util = splpg::util;

ServingStack make_serving_stack(const Problem& problem, std::uint64_t seed,
                                std::function<void(std::uint64_t)> batch_hook) {
  ServingStack stack;
  nn::ModelConfig config;
  config.gnn = nn::GnnKind::kSage;
  config.predictor = nn::PredictorKind::kMlp;
  config.in_dim = problem.dataset.features.dim();
  config.hidden_dim = 64;
  config.num_layers = 2;
  stack.model = std::make_unique<nn::LinkPredictionModel>(config, seed);
  stack.frozen = std::make_unique<nn::ServingModel>(*stack.model, problem.split.train_graph,
                                                    problem.dataset.features);
  stack.config.batch_size = kServerBatch;
  stack.config.cache_capacity = problem.split.train_graph.num_nodes() / 10;
  stack.config.batch_hook = std::move(batch_hook);
  stack.server = std::make_unique<serving::ServingServer>(*stack.frozen, stack.config);
  return stack;
}

Traffic make_traffic(const splpg::graph::CsrGraph& graph, bool zipf, std::size_t warmup,
                     std::size_t requests, std::uint64_t seed) {
  // Popularity follows degree: Zipf rank 0 is the highest-degree node (ties
  // by id), as popular nodes are the well-connected ones.
  const NodeId num_nodes = graph.num_nodes();
  std::vector<NodeId> ranking(num_nodes);
  std::iota(ranking.begin(), ranking.end(), NodeId{0});
  std::stable_sort(ranking.begin(), ranking.end(), [&graph](NodeId a, NodeId b) {
    return graph.degree(a) > graph.degree(b);
  });
  const ZipfSampler sampler(num_nodes);
  util::Rng rng = util::Rng(seed).split("serve/requests");
  const auto endpoint = [&]() -> NodeId {
    return zipf ? ranking[sampler.sample(rng)]
                : static_cast<NodeId>(rng.uniform_u64(num_nodes));
  };
  const auto make = [&](std::size_t count) {
    std::vector<Request> out(count);
    for (Request& request : out) {
      request.resize(kPairsPerRequest);
      for (NodePair& pair : request) {
        pair.u = endpoint();
        pair.v = endpoint();
      }
    }
    return out;
  };
  Traffic traffic;
  traffic.warmup = make(warmup);
  traffic.requests = make(requests);
  util::Rng arrivals = util::Rng(seed).split("serve/arrivals");
  traffic.unit_offsets = unit_poisson_offsets(requests, arrivals);
  return traffic;
}

void warm_up(serving::ServingServer& server, const Traffic& traffic, double rate) {
  std::vector<std::future<serving::ScoredReply>> futures;
  futures.reserve(traffic.warmup.size());
  for (const Request& request : traffic.warmup) futures.push_back(server.submit(request));
  for (auto& future : futures) (void)future.get();
  (void)run_open_loop(server, traffic, kSettleRequests, rate, false);
}

OpenLoopRun run_open_loop(serving::ServingServer& server, const Traffic& traffic,
                          std::size_t n, double rate, bool keep_scores) {
  n = std::min(n, traffic.requests.size());
  OpenLoopRun run;
  run.latency_ms.assign(n, std::numeric_limits<double>::infinity());
  run.admit_ms.assign(n, 0.0);
  run.admitted_ns.assign(n, 0);
  run.depth.assign(n, 0);
  if (keep_scores) run.scores.resize(n);
  std::vector<std::int64_t> due_ns(n);
  std::vector<std::future<serving::ScoredReply>> futures(n);
  std::mutex mutex;
  std::condition_variable published_cv;
  std::size_t published = 0;  // futures[0, published) are set; guarded by mutex
  std::atomic<std::size_t> completed{0};
  std::atomic<std::uint64_t> failed{0};

  std::thread completion([&] {
    for (std::size_t i = 0; i < n; ++i) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        published_cv.wait(lock, [&] { return published > i; });
      }
      if (futures[i].valid()) {
        try {
          serving::ScoredReply reply = futures[i].get();
          run.latency_ms[i] = static_cast<double>(now_ns() - due_ns[i]) * 1e-6;
          if (keep_scores) run.scores[i] = std::move(reply.scores);
        } catch (...) {
          failed.fetch_add(1);
        }
      }
      completed.fetch_add(1, std::memory_order_release);
    }
  });

  const std::int64_t start = now_ns() + 2'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    due_ns[i] = start + static_cast<std::int64_t>(traffic.unit_offsets[i] / rate * 1e9);
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due_ns[i])));
    const std::int64_t submit_ns = now_ns();
    run.max_late_ms = std::max(run.max_late_ms, static_cast<double>(submit_ns - due_ns[i]) * 1e-6);
    run.depth[i] = i - completed.load(std::memory_order_acquire);
    try {
      futures[i] = server.submit(traffic.requests[i]);
    } catch (...) {
      failed.fetch_add(1);  // refused: its latency stays +inf
    }
    run.admitted_ns[i] = now_ns();
    run.admit_ms[i] = static_cast<double>(run.admitted_ns[i] - submit_ns) * 1e-6;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      published = i + 1;
    }
    published_cv.notify_one();
  }
  completion.join();
  run.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  run.failed = failed.load();
  return run;
}

Burst saturate(serving::ServingServer& server, const Traffic& traffic) {
  Burst burst;
  const std::size_t n = std::min(kBurstRequests, traffic.requests.size());
  std::vector<std::future<serving::ScoredReply>> futures;
  futures.reserve(n);
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    try {
      futures.push_back(server.submit(traffic.requests[i]));
    } catch (...) {
      ++burst.failed;
    }
  }
  for (auto& future : futures) {
    try {
      (void)future.get();
    } catch (...) {
      ++burst.failed;
    }
  }
  burst.requests = n;
  burst.rps = static_cast<double>(burst.requests) / (static_cast<double>(now_ns() - start) * 1e-9);
  return burst;
}

RungResult offer_rung(serving::ServingServer& server, const Traffic& traffic, double rate) {
  // At least 1010 samples so p99 has ten beyond it; half a second of load
  // at the higher rates, as far as the traffic reaches.
  const auto n = std::max<std::size_t>(1010, static_cast<std::size_t>(rate * 0.5));
  const OpenLoopRun run = run_open_loop(server, traffic, n, rate, false);
  RungResult rung;
  rung.p99 = tail_percentile(run.latency_ms, 99.0);
  // Slack of one batch worth of requests.
  rung.backlog_grows =
      backlog_grows(run.depth, static_cast<double>(kServerBatch / kPairsPerRequest));
  rung.failed = run.failed;
  return rung;
}

std::uint64_t reference_mismatches(const nn::ServingModel& frozen, const Traffic& traffic,
                                   const OpenLoopRun& run, std::size_t count,
                                   std::uint64_t seed) {
  util::Rng rng = util::Rng(seed).split("serve/reference");
  std::uint64_t mismatches = 0;
  for (std::size_t k = 0; k < count && !run.scores.empty(); ++k) {
    const std::size_t i = rng.uniform_u64(run.scores.size());
    const Request& request = traffic.requests[i];
    const std::vector<float> reference = frozen.score_pairs(request);
    const std::vector<float>& got = run.scores[i];
    if (got.size() != reference.size() ||
        std::memcmp(got.data(), reference.data(), got.size() * sizeof(float)) != 0) {
      ++mismatches;
    }
  }
  return mismatches;
}

namespace {

/// The FIFO-coalesced batches of a live run, rebuilt from when each request
/// was admitted and when each batch started: a batch takes the next
/// kServerBatch unscored pairs of the requests admitted by its start.
struct Slot {
  std::size_t request = 0;
  std::size_t pair = 0;
};

std::vector<std::vector<Slot>> rebuild_batches(const std::vector<std::int64_t>& admitted_ns,
                                               const std::vector<std::int64_t>& batch_start_ns,
                                               std::vector<std::size_t>& first_batch) {
  const std::size_t n = admitted_ns.size();
  first_batch.assign(n, std::numeric_limits<std::size_t>::max());
  std::vector<std::vector<Slot>> batches;
  std::deque<Slot> pending;  // next unscored pair of each admitted request
  std::size_t next = 0;
  const auto admit = [&] {
    for (std::size_t p = 0; p < kPairsPerRequest; ++p) pending.push_back({next, p});
    ++next;
  };
  for (std::size_t k = 0; next < n || !pending.empty(); ++k) {
    const std::int64_t start = k < batch_start_ns.size()
                                   ? batch_start_ns[k]
                                   : std::numeric_limits<std::int64_t>::max();
    while (next < n && admitted_ns[next] <= start) admit();
    if (pending.empty()) admit();  // the scorer was blocked waiting for it
    std::vector<Slot> batch;
    while (!pending.empty() && batch.size() < kServerBatch) {
      batch.push_back(pending.front());
      pending.pop_front();
      first_batch[batch.back().request] = std::min(first_batch[batch.back().request], k);
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

}  // namespace

ServingTrace trace_serving(const Problem& problem, std::uint64_t seed, const Traffic& traffic,
                           std::size_t nominal_requests, double nominal_rps) {
  // Batch start times of the live run, written by the scorer thread.
  const std::size_t capacity =
      (traffic.warmup.size() + kSettleRequests + nominal_requests) * kPairsPerRequest + 1;
  std::vector<std::int64_t> hook_ns(capacity, 0);
  ServingStack stack = make_serving_stack(problem, seed, [&hook_ns](std::uint64_t index) {
    if (index < hook_ns.size()) hook_ns[index] = now_ns();
  });
  warm_up(*stack.server, traffic, nominal_rps);
  const serving::ServingStats before = stack.server->stats();
  const auto cache_before = stack.server->cache_stats();
  const OpenLoopRun run =
      run_open_loop(*stack.server, traffic, nominal_requests, nominal_rps, false);
  const serving::ServingStats after = stack.server->stats();
  const auto cache_after = stack.server->cache_stats();
  stack.server->shutdown();  // joins the scorer: hook_ns is complete

  ServingTrace out;
  out.failed = run.failed;
  out.requests_log = std::make_unique<SpanLog>(2, 0, "requests");
  out.scorer_log = std::make_unique<SpanLog>(2, 1, "scorer replay");
  const std::vector<std::int64_t> batch_start(
      hook_ns.begin() + static_cast<std::ptrdiff_t>(before.batches),
      hook_ns.begin() + static_cast<std::ptrdiff_t>(after.batches));
  std::vector<std::size_t> first_batch;
  const auto batches = rebuild_batches(run.admitted_ns, batch_start, first_batch);
  const std::size_t n = run.admitted_ns.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t admitted = run.admitted_ns[i];
    const auto submit = admitted - static_cast<std::int64_t>(run.admit_ms[i] * 1e6);
    out.requests_log->add("serving.admit", submit, admitted, i);
    const std::int64_t started =
        first_batch[i] < batch_start.size() ? batch_start[first_batch[i]] : admitted;
    out.requests_log->add("serving.queue_wait", admitted, std::max(admitted, started), i);
    out.admit_ms += run.admit_ms[i];
    out.queue_wait_ms += static_cast<double>(std::max<std::int64_t>(0, started - admitted)) * 1e-6;
  }
  out.admit_ms /= static_cast<double>(n);
  out.queue_wait_ms /= static_cast<double>(n);
  const std::uint64_t lookups = cache_after.lookups - cache_before.lookups;
  out.cache_hit_ratio =
      lookups > 0 ? static_cast<double>(cache_after.hits - cache_before.hits) /
                        static_cast<double>(lookups)
                  : 0.0;
  const std::uint64_t live_batches = after.batches - before.batches;
  out.pairs_per_batch = live_batches > 0 ? static_cast<double>(after.pairs - before.pairs) /
                                               static_cast<double>(live_batches)
                                         : 0.0;

  // Replay of one batch through the serving layer's public calls, under
  // spans when `span_log` is set.
  const nn::ServingModel& model = *stack.frozen;
  const auto replay_batch = [&](serving::EmbeddingCache& cache,
                                const std::vector<const NodePair*>& pairs, std::uint64_t id,
                                SpanLog* span_log) {
    const ScopedSpan batch_span(span_log, "serving.batch", id);
    std::unordered_map<NodeId, std::vector<std::byte>> rows;
    std::vector<const std::byte*> u_rows(pairs.size());
    std::vector<const std::byte*> v_rows(pairs.size());
    {
      const ScopedSpan resolve_span(span_log, "serving.resolve", id);
      const auto resolve = [&](NodeId node) -> const std::byte* {
        auto it = rows.find(node);
        if (it == rows.end()) {
          std::vector<std::byte> row(model.row_bytes());
          if (!cache.lookup(node, row)) {
            {
              const ScopedSpan compute_span(span_log, "serving.compute_row", node);
              model.compute_row(node, row);
            }
            cache.insert(node, row);
          }
          it = rows.emplace(node, std::move(row)).first;
        }
        return it->second.data();
      };
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        u_rows[i] = resolve(pairs[i]->u);
        v_rows[i] = resolve(pairs[i]->v);
      }
    }
    const ScopedSpan score_span(span_log, "serving.score", id);
    (void)model.score_rows(u_rows, v_rows);
  };
  // Two replays side by side, each with its own cache warmed (untimed) by the
  // same requests as the live warm-up (closed-loop, then the settle run) in
  // full batches. Each rebuilt batch is replayed without spans and under
  // them, in alternating order, so drift of the host and a warm CPU cache
  // favour neither.
  serving::EmbeddingCache untraced_cache(stack.config.cache_capacity, model.row_bytes());
  serving::EmbeddingCache traced_cache(stack.config.cache_capacity, model.row_bytes());
  std::vector<const NodePair*> pairs;
  const auto warm = [&](const std::vector<Request>& requests, std::size_t count) {
    for (std::size_t r = 0; r < count; ++r) {
      for (const NodePair& pair : requests[r]) {
        pairs.push_back(&pair);
        if (pairs.size() == kServerBatch) {
          replay_batch(untraced_cache, pairs, 0, nullptr);
          replay_batch(traced_cache, pairs, 0, nullptr);
          pairs.clear();
        }
      }
    }
  };
  warm(traffic.warmup, traffic.warmup.size());
  warm(traffic.requests, std::min(kSettleRequests, traffic.requests.size()));
  if (!pairs.empty()) {
    replay_batch(untraced_cache, pairs, 0, nullptr);
    replay_batch(traced_cache, pairs, 0, nullptr);
  }
  SpanLog* log = out.scorer_log.get();
  std::int64_t untraced_ns = 0;
  std::int64_t traced_ns = 0;
  const auto timed = [&](serving::EmbeddingCache& cache, std::size_t k, SpanLog* span_log,
                         std::int64_t& total_ns) {
    const std::int64_t start = now_ns();
    replay_batch(cache, pairs, k, span_log);
    total_ns += now_ns() - start;
  };
  for (std::size_t k = 0; k < batches.size(); ++k) {
    pairs.clear();
    for (const Slot& slot : batches[k]) {
      pairs.push_back(&traffic.requests[slot.request][slot.pair]);
    }
    if (k % 2 == 0) {
      timed(untraced_cache, k, nullptr, untraced_ns);
      timed(traced_cache, k, log, traced_ns);
    } else {
      timed(traced_cache, k, log, traced_ns);
      timed(untraced_cache, k, nullptr, untraced_ns);
    }
  }
  out.overhead_ms = static_cast<double>(traced_ns - untraced_ns) * 1e-6;
  const auto self = self_seconds_by_name({log});
  const auto get = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  out.resolve_s = get("serving.resolve") + get("serving.compute_row");
  out.score_s = get("serving.score");
  out.scorer_busy_share = (out.resolve_s + out.score_s + get("serving.batch")) / run.wall_s;
  return out;
}

}  // namespace perfbench
