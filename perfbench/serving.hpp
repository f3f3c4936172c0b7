// The serving half of a workload: a frozen model behind ServingServer, an
// open-loop Poisson load generator, the max-rate ladder, and the traced
// replay of the live run's batches through the serving layer's public calls.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/serving_model.hpp"
#include "serving/server.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "training.hpp"

namespace perfbench {

using Request = std::vector<splpg::sampling::NodePair>;

inline constexpr std::size_t kPairsPerRequest = 8;
inline constexpr std::size_t kServerBatch = 64;

/// A seed-initialised GraphSAGE (2 layers, hidden 64) frozen over the
/// problem's training graph, served with batch 64 and a cache of 10% of the
/// nodes.
struct ServingStack {
  std::unique_ptr<splpg::nn::LinkPredictionModel> model;
  std::unique_ptr<splpg::nn::ServingModel> frozen;
  splpg::serving::ServingConfig config;
  std::unique_ptr<splpg::serving::ServingServer> server;
};

/// `batch_hook` (optional) is installed as ServingConfig::batch_hook.
[[nodiscard]] ServingStack make_serving_stack(
    const Problem& problem, std::uint64_t seed,
    std::function<void(std::uint64_t)> batch_hook = {});

/// Requests for one run, all generated before timing starts.
struct Traffic {
  std::vector<Request> warmup;
  std::vector<Request> requests;
  std::vector<double> unit_offsets;  // Poisson due offsets at rate 1
};

/// Endpoints are Zipf(1.0) over the nodes ranked by degree when `zipf`,
/// else uniform over the nodes.
[[nodiscard]] Traffic make_traffic(const splpg::graph::CsrGraph& graph, bool zipf,
                                   std::size_t warmup, std::size_t requests, std::uint64_t seed);

/// Requests of the untimed open-loop run that ends the warm-up.
inline constexpr std::size_t kSettleRequests = 300;

/// Sends the warm-up requests closed-loop so the cache is filled, then
/// offers kSettleRequests open-loop at `rate`: the first open-loop seconds
/// after a closed-loop burst run slower, and are not measured.
void warm_up(splpg::serving::ServingServer& server, const Traffic& traffic, double rate);

struct OpenLoopRun {
  std::vector<double> latency_ms;  // completion - due; refused/failed count as +inf
  std::vector<double> admit_ms;    // time inside submit()
  std::vector<std::int64_t> admitted_ns;
  std::vector<std::size_t> depth;  // requests outstanding at each submit
  std::vector<std::vector<float>> scores;
  std::uint64_t failed = 0;
  double max_late_ms = 0.0;  // how far the generator fell behind the schedule
  double wall_s = 0.0;
};

/// Offers the first `n` requests of `traffic` at `rate` req/s from this
/// thread; one completion thread collects the replies.
[[nodiscard]] OpenLoopRun run_open_loop(splpg::serving::ServingServer& server,
                                        const Traffic& traffic, std::size_t n, double rate,
                                        bool keep_scores);

/// Requests of one saturate() burst.
inline constexpr std::size_t kBurstRequests = 505;

/// Closed-loop peak throughput: the first kBurstRequests requests of
/// `traffic` are submitted at once (submit blocks while the queue is full)
/// and the replies are awaited.
struct Burst {
  double rps = 0.0;  // requests / wall seconds from first submit to last reply
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
};
[[nodiscard]] Burst saturate(splpg::serving::ServingServer& server, const Traffic& traffic);

/// One rung of the ladder: enough requests for ten samples beyond p99.
[[nodiscard]] RungResult offer_rung(splpg::serving::ServingServer& server,
                                    const Traffic& traffic, double rate);

/// Replies of `run` that differ from the cache-off synchronous reference
/// (ServingModel::score_pairs) bit for bit, over a seeded sample of `count`.
[[nodiscard]] std::uint64_t reference_mismatches(const splpg::nn::ServingModel& frozen,
                                                 const Traffic& traffic, const OpenLoopRun& run,
                                                 std::size_t count, std::uint64_t seed);

/// Per-layer serving numbers from the traced run.
struct ServingTrace {
  double admit_ms = 0.0;       // mean time inside submit()
  double queue_wait_ms = 0.0;  // mean admitted -> start of the request's first batch
  double resolve_s = 0.0;      // replay: cache lookup/insert + compute_row
  double score_s = 0.0;        // replay: score_rows
  double cache_hit_ratio = 0.0;
  double pairs_per_batch = 0.0;
  double scorer_busy_share = 0.0;
  /// Wall time of the batch replay under spans minus the same replay without
  /// them (run batch by batch alongside). The live run's only
  /// instrumentation is batch_hook (one timestamp per batch), whose cost this
  /// does not include.
  double overhead_ms = 0.0;
  std::uint64_t failed = 0;  // requests of the live run refused or thrown
  std::unique_ptr<SpanLog> requests_log;
  std::unique_ptr<SpanLog> scorer_log;
};

/// Runs the nominal load (`nominal_requests` at `nominal_rps`) against a
/// fresh server that timestamps every batch (ServingConfig::batch_hook),
/// rebuilds the FIFO-coalesced batches from those timestamps, and replays
/// them through EmbeddingCache::lookup/insert,
/// ServingModel::compute_row and score_rows, each batch once without spans
/// and once under them.
[[nodiscard]] ServingTrace trace_serving(const Problem& problem, std::uint64_t seed,
                                         const Traffic& traffic, std::size_t nominal_requests,
                                         double nominal_rps);

}  // namespace perfbench
