// Tests of the benchmark's own measurement helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile_rank(100, 99.0), 98U);
  EXPECT_EQ(percentile_rank(100, 50.0), 49U);
  EXPECT_EQ(percentile_rank(1, 99.0), 0U);
  EXPECT_EQ(percentile_rank(1000, 99.0), 989U);
  EXPECT_THROW((void)percentile_rank(0, 50.0), std::invalid_argument);
}

TEST(Percentile, TenBeyondRule) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10U);
  EXPECT_EQ(supported_percentile(1000, 99.0), 99.0);
  // One sample short: only nine lie beyond p99, so p98 is reported.
  EXPECT_EQ(samples_beyond(999, 99.0), 9U);
  EXPECT_EQ(supported_percentile(999, 99.0), 98.0);
  EXPECT_EQ(supported_percentile(50, 99.0), 80.0);
  EXPECT_EQ(supported_percentile(5, 99.0), 50.0);

  std::vector<double> samples(1000);
  std::iota(samples.begin(), samples.end(), 1.0);
  const Percentile p99 = tail_percentile(samples, 99.0);
  EXPECT_EQ(p99.q, 99.0);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.count, 1000U);
  samples.resize(50);
  const Percentile p80 = tail_percentile(samples, 99.0);
  EXPECT_EQ(p80.q, 80.0);
  EXPECT_EQ(p80.value, 40.0);
}

TEST(Percentile, Median) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Percentile, WindowedMedianOfTails) {
  // Three windows of 1010 samples; the second holds a burst of slow ones.
  std::vector<double> samples;
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 1010; ++i) samples.push_back(i < 20 && w == 1 ? 100.0 : 1.0 + i * 1e-3);
  }
  const Percentile p99 = windowed_percentile(samples, 1010, 99.0);
  EXPECT_EQ(p99.q, 99.0);
  EXPECT_EQ(p99.count, 3030U);
  // Each quiet window's p99 is its rank-999 sample, 1.999; the burst moves
  // only the middle window.
  EXPECT_DOUBLE_EQ(p99.value, 1.999);
  // A window too small for ten beyond p99 reports a lower percentile.
  EXPECT_LT(windowed_percentile(samples, 500, 99.0).q, 99.0);
}

TEST(PoissonSchedule, MeanRate) {
  splpg::util::Rng rng(11);
  const std::size_t n = 200000;
  const std::vector<double> offsets = unit_poisson_offsets(n, rng);
  ASSERT_EQ(offsets.size(), n);
  EXPECT_TRUE(std::is_sorted(offsets.begin(), offsets.end()));
  // Offered at 1000 req/s, n requests span n / 1000 seconds on average.
  const double rate = 1000.0;
  const double achieved = static_cast<double>(n) / (offsets.back() / rate);
  EXPECT_NEAR(achieved / rate, 1.0, 0.01);
  // Exponential gaps: standard deviation equals the mean.
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double gap = offsets[i] - (i == 0 ? 0.0 : offsets[i - 1]);
    sum += gap;
    sum_sq += gap * gap;
  }
  const double mean = sum / static_cast<double>(n);
  const double sd = std::sqrt(sum_sq / static_cast<double>(n) - mean * mean);
  EXPECT_NEAR(sd / mean, 1.0, 0.02);
}

TEST(ZipfSampler, Skew) {
  const std::size_t n = 1000;
  const ZipfSampler zipf(n);
  double harmonic = 0.0;
  for (std::size_t k = 1; k <= n; ++k) harmonic += 1.0 / static_cast<double>(k);
  EXPECT_NEAR(zipf.probability(0), 1.0 / harmonic, 1e-12);
  EXPECT_NEAR(zipf.probability(0) / zipf.probability(9), 10.0, 1e-9);

  splpg::util::Rng rng(5);
  std::vector<std::size_t> counts(n, 0);
  const std::size_t draws = 400000;
  for (std::size_t i = 0; i < draws; ++i) ++counts[zipf.sample(rng)];
  const double top = static_cast<double>(counts[0]) / static_cast<double>(draws);
  EXPECT_NEAR(top, 1.0 / harmonic, 0.005);
  EXPECT_NEAR(static_cast<double>(counts[0]) / static_cast<double>(counts[1]), 2.0, 0.1);
  // The top 10% of ranks carry H(100)/H(1000) of the draws.
  double head_harmonic = 0.0;
  for (std::size_t k = 1; k <= 100; ++k) head_harmonic += 1.0 / static_cast<double>(k);
  const auto head = std::accumulate(counts.begin(), counts.begin() + 100, std::size_t{0});
  EXPECT_NEAR(static_cast<double>(head) / static_cast<double>(draws),
              head_harmonic / harmonic, 0.01);
}

TEST(SelfTime, NestedSpans) {
  // root [0,100] holds a [10,30] and b [40,70]; b holds c [50,60].
  const std::vector<Interval> spans = {
      {0, 100, -1}, {10, 30, 0}, {40, 70, 0}, {50, 60, 2}};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 10);
  // Self times partition the root's interval.
  EXPECT_EQ(std::accumulate(self.begin(), self.end(), std::int64_t{0}), 100);
}

TEST(SelfTime, ChildClippedToParent) {
  const std::vector<Interval> spans = {{0, 10, -1}, {5, 20, 0}};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 5);
  EXPECT_EQ(self[1], 15);
}

TEST(SelfTime, SpanLogSumsToRoot) {
  SpanLog log(1, 0, "test");
  {
    const ScopedSpan root(&log, "core.round", 1);
    {
      const ScopedSpan a(&log, "nn.forward", 1);
      const ScopedSpan b(&log, "tensor.matmul", 1);
    }
    const ScopedSpan c(&log, "nn.backward", 1);
  }
  ASSERT_EQ(log.spans().size(), 4U);
  EXPECT_EQ(log.spans()[1].time.parent, 0);
  EXPECT_EQ(log.spans()[2].time.parent, 1);
  EXPECT_EQ(log.spans()[3].time.parent, 0);
  const auto self = self_seconds_by_name({&log});
  double total = 0.0;
  for (const auto& [name, seconds] : self) total += seconds;
  const Interval& root = log.spans()[0].time;
  EXPECT_NEAR(total, static_cast<double>(root.end_ns - root.start_ns) * 1e-9, 1e-12);
}

TEST(Ladder, FixedRungs) {
  const std::vector<double> ladder = make_ladder(250.0, 3000.0, 1.05);
  EXPECT_EQ(ladder.front(), 250.0);
  EXPECT_EQ(ladder.back(), 3000.0);
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_GT(ladder[i], ladder[i - 1]);
    EXPECT_LE(ladder[i] / ladder[i - 1], 1.06);  // rungs are rounded to whole req/s
  }
}

TEST(Ladder, HighestPassingRung) {
  const std::vector<double> ladder = make_ladder(250.0, 3000.0, 1.05);
  std::size_t probes = 0;
  const double best = ladder_max_rate(ladder, [&](double rate) {
    ++probes;
    return rate <= 1234.0;
  });
  const double expected = *(std::upper_bound(ladder.begin(), ladder.end(), 1234.0) - 1);
  EXPECT_EQ(best, expected);
  EXPECT_LE(probes, static_cast<std::size_t>(std::ceil(std::log2(ladder.size()))) + 1);
  EXPECT_EQ(ladder_max_rate(ladder, [](double) { return false; }), 0.0);
  EXPECT_EQ(ladder_max_rate(ladder, [](double) { return true; }), 3000.0);
}

TEST(Ladder, BacklogRule) {
  std::vector<std::size_t> steady;
  for (std::size_t i = 0; i < 1000; ++i) steady.push_back(2 + (i * 7) % 5);
  EXPECT_FALSE(backlog_grows(steady, 8.0));
  std::vector<std::size_t> growing;
  for (std::size_t i = 0; i < 1000; ++i) growing.push_back(i / 4);
  EXPECT_TRUE(backlog_grows(growing, 8.0));
  EXPECT_FALSE(backlog_grows({1, 2, 3}, 8.0));
}

TEST(Ladder, RungRule) {
  RungResult rung;
  rung.p99 = {99.0, 3.0, 1010};
  EXPECT_TRUE(rung_passes(rung, 5.0));
  // Fast enough, but the queue keeps growing: offered load exceeds service.
  rung.backlog_grows = true;
  EXPECT_FALSE(rung_passes(rung, 5.0));
  rung.backlog_grows = false;
  rung.p99.value = 5.5;
  EXPECT_FALSE(rung_passes(rung, 5.0));
  // Too few samples beyond p99 to support the limit.
  rung.p99 = {98.0, 3.0, 999};
  EXPECT_FALSE(rung_passes(rung, 5.0));
  rung.p99 = {99.0, 3.0, 1010};
  rung.failed = 1;
  EXPECT_FALSE(rung_passes(rung, 5.0));
}

}  // namespace
}  // namespace perfbench
