// Measurement helpers of the benchmark: percentiles under the ten-beyond
// rule, the open-loop arrival schedule, the Zipf endpoint sampler, self time
// from nested spans, and the max-rate ladder rule. Header-only so the helper
// tests build without the rest of the benchmark.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

// ---------------------------------------------------------------- percentiles

/// Nearest-rank index of the q-th percentile (0 < q <= 100) in n sorted
/// samples: ceil(q/100 * n) - 1.
inline std::size_t percentile_rank(std::size_t n, double q) {
  if (n == 0) throw std::invalid_argument("percentile_rank: no samples");
  const auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n) - 1;
}

/// Samples that lie strictly beyond the q-th percentile's rank.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n - 1 - percentile_rank(n, q);
}

/// A percentile is reported only when at least this many samples lie beyond
/// it; otherwise the highest percentile that has them is reported instead.
inline constexpr std::size_t kMinBeyond = 10;

/// The highest of the candidate percentiles, up to `wanted`, that has
/// kMinBeyond samples beyond it in n samples; the median when none has.
inline double supported_percentile(std::size_t n, double wanted) {
  static constexpr double kCandidates[] = {99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0};
  for (const double q : kCandidates) {
    if (q <= wanted && n > 0 && samples_beyond(n, q) >= kMinBeyond) return q;
  }
  return 50.0;
}

struct Percentile {
  double q = 0.0;        // the percentile actually reported
  double value = 0.0;
  std::size_t count = 0;  // samples it was taken from
};

/// The `wanted` percentile of `samples`, or the highest supported one.
inline Percentile tail_percentile(std::vector<double> samples, double wanted) {
  Percentile out;
  out.count = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.q = supported_percentile(samples.size(), wanted);
  out.value = samples[percentile_rank(samples.size(), out.q)];
  return out;
}

inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid] : 0.5 * (samples[mid - 1] + samples[mid]);
}

/// The `wanted` percentile of each consecutive window of `window` samples
/// (a shorter tail is dropped), reported as their median: one stall of the
/// host moves one window, not the result. `q` is the lowest percentile any
/// window could support; `count` the samples used.
inline Percentile windowed_percentile(const std::vector<double>& samples, std::size_t window,
                                      double wanted) {
  std::vector<double> values;
  Percentile out;
  out.q = wanted;
  for (std::size_t start = 0; start + window <= samples.size(); start += window) {
    const Percentile p = tail_percentile(
        std::vector<double>(samples.begin() + static_cast<std::ptrdiff_t>(start),
                            samples.begin() + static_cast<std::ptrdiff_t>(start + window)),
        wanted);
    values.push_back(p.value);
    out.q = std::min(out.q, p.q);
    out.count += window;
  }
  if (values.empty()) return tail_percentile(samples, wanted);
  out.value = median(values);
  return out;
}

// ------------------------------------------------------------ arrival schedule

/// Open-loop Poisson arrivals at rate 1: exponential gaps of mean 1, summed
/// into due offsets. Scale an offset by 1/rate to get seconds at that rate,
/// so one schedule serves every rung of the ladder.
inline std::vector<double> unit_poisson_offsets(std::size_t n, splpg::util::Rng& rng) {
  std::vector<double> offsets(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng.uniform());
    offsets[i] = t;
  }
  return offsets;
}

// --------------------------------------------------------------- Zipf sampler

/// Zipf(1.0): ranks 0..n-1 with P(rank k) proportional to 1 / (k+1).
class ZipfSampler {
 public:
  explicit ZipfSampler(std::size_t n) : cdf_(n) {
    if (n == 0) throw std::invalid_argument("ZipfSampler: empty support");
    double sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      sum += 1.0 / static_cast<double>(k + 1);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  [[nodiscard]] std::size_t sample(splpg::util::Rng& rng) const {
    const double u = rng.uniform();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

  /// Exact probability of rank k.
  [[nodiscard]] double probability(std::size_t k) const {
    return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
  }

 private:
  std::vector<double> cdf_;
};

// ------------------------------------------------------------------ self time

/// One recorded interval. `parent` indexes the enclosing span in the same
/// list, -1 for a root.
struct Interval {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
};

/// Self time of each span: its duration minus the part of it that its direct
/// children cover (children of one span do not overlap: they ran on the
/// span's own thread, one after another).
inline std::vector<std::int64_t> self_times(const std::vector<Interval>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].end_ns - spans[i].start_ns;
  for (const Interval& child : spans) {
    if (child.parent < 0) continue;
    const Interval& parent = spans[static_cast<std::size_t>(child.parent)];
    const std::int64_t covered = std::min(child.end_ns, parent.end_ns) -
                                 std::max(child.start_ns, parent.start_ns);
    if (covered > 0) self[static_cast<std::size_t>(child.parent)] -= covered;
  }
  return self;
}

// --------------------------------------------------------------- rate ladder

/// The fixed ladder of offered rates: lo, lo*step, lo*step^2, ... up to hi
/// (hi itself is always the last rung).
inline std::vector<double> make_ladder(double lo, double hi, double step) {
  std::vector<double> ladder;
  for (double r = lo; r < hi * (1.0 - 1e-9); r *= step) ladder.push_back(std::round(r));
  ladder.push_back(hi);
  return ladder;
}

/// True when the queue depth sampled through a run keeps growing: the mean
/// depth of the last quarter exceeds twice the first quarter's plus `slack`
/// requests. A stable queue fluctuates around a constant depth.
inline bool backlog_grows(const std::vector<std::size_t>& depths, double slack) {
  if (depths.size() < 4) return false;
  const std::size_t quarter = depths.size() / 4;
  double first = 0.0;
  double last = 0.0;
  for (std::size_t i = 0; i < quarter; ++i) {
    first += static_cast<double>(depths[i]);
    last += static_cast<double>(depths[depths.size() - quarter + i]);
  }
  first /= static_cast<double>(quarter);
  last /= static_cast<double>(quarter);
  return last > 2.0 * first + slack;
}

/// Outcome of offering one rung's rate.
struct RungResult {
  Percentile p99;
  bool backlog_grows = false;
  std::uint64_t failed = 0;
};

/// The ladder rule for one rung: the tail percentile is supported (ten
/// samples beyond p99) and within the limit, the backlog does not grow, and
/// no request failed.
inline bool rung_passes(const RungResult& rung, double limit_ms) {
  return rung.p99.q >= 99.0 && rung.p99.value <= limit_ms && !rung.backlog_grows &&
         rung.failed == 0;
}

/// Highest ladder rate that passes, found by bisection (a rung passes at
/// every lower rate once it passes, so only O(log n) rungs are offered).
/// Returns 0 when even the lowest rung fails.
inline double ladder_max_rate(const std::vector<double>& ladder,
                              const std::function<bool(double)>& passes) {
  std::size_t lo = 0;               // rungs below lo are known to pass
  std::size_t hi = ladder.size();   // rungs at or above hi are known to fail
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (passes(ladder[mid])) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? 0.0 : ladder[lo - 1];
}

}  // namespace perfbench
