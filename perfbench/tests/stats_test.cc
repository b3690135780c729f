// Self-tests of the benchmark's measurement helpers: percentiles and the
// >= 10-samples-beyond tail rule, open-loop latency from the due time plus
// generator lateness, and the seeded Poisson schedule.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAILED line %d: %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestQuantile() {
  using perfbench::Quantile;
  EXPECT(Quantile({}, 0.5) == 0.0);
  EXPECT(Near(Quantile({3.0}, 0.99), 3.0));
  // Unsorted input; linear interpolation between order statistics.
  EXPECT(Near(Quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5));
  EXPECT(Near(Quantile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0));
  EXPECT(Near(Quantile({4.0, 1.0, 3.0, 2.0}, 1.0), 4.0));
  std::vector<double> v;
  for (int i = 0; i <= 100; ++i) v.push_back(i);
  EXPECT(Near(Quantile(v, 0.99), 99.0));
  EXPECT(Near(perfbench::Median(v), 50.0));
}

void TestTailRule() {
  using perfbench::TailQuantileFor;
  using perfbench::kTailMinBeyond;
  // With 10 beyond, p99 needs >= 1000 samples.
  EXPECT(TailQuantileFor(1000, 10) == 0.99);
  EXPECT(TailQuantileFor(999, 10) == 0.98);
  EXPECT(TailQuantileFor(10000, 10) == 0.999);
  EXPECT(TailQuantileFor(200, 10) == 0.95);
  EXPECT(TailQuantileFor(100, 10) == 0.9);
  EXPECT(TailQuantileFor(19, 10) == 0.5);
  // The benchmark's rule keeps 30 beyond: p95 for serve_score's 600
  // requests, p90 for serve_churn's 320 reads and p98 for paper_table's
  // 2,124 tasks at --seconds 20.
  EXPECT(TailQuantileFor(600) == 0.95);
  EXPECT(TailQuantileFor(320) == 0.9);
  EXPECT(TailQuantileFor(2124) == 0.98);
  EXPECT(TailQuantileFor(1200) == 0.95);
  EXPECT(TailQuantileFor(59) == 0.5);
  // Whatever n, at least min_beyond samples lie beyond the quantile.
  for (int64_t beyond : {int64_t{10}, kTailMinBeyond}) {
    for (int64_t n = 2 * beyond; n < 5000; n += 7) {
      const double q = TailQuantileFor(n, beyond);
      EXPECT(static_cast<double>(n) * (1.0 - q) >= beyond - 1e-9);
    }
  }
}

void TestOpenLoop() {
  perfbench::OpenLoopRecorder rec(3);
  rec.RecordSend(0, 1.000, 1.002);  // sent 2 ms late
  rec.RecordDone(0, 1.010);         // 10 ms after its due time
  rec.RecordSend(1, 2.000, 2.000);
  rec.RecordDone(1, 2.005);
  rec.RecordSend(2, 3.000, 3.001);  // never answered
  const std::vector<double> lat = rec.LatenciesMs();
  EXPECT(lat.size() == 2);
  EXPECT(std::fabs(lat[0] - 10.0) < 1e-6);  // from due, not from send
  EXPECT(std::fabs(lat[1] - 5.0) < 1e-6);
  const std::vector<double> late = rec.LatenessMs();
  EXPECT(late.size() == 3);
  EXPECT(std::fabs(late[0] - 2.0) < 1e-6);
  EXPECT(std::fabs(late[2] - 1.0) < 1e-6);
  EXPECT(std::isnan(rec.done(2)));
}

void TestPoisson() {
  using perfbench::PoissonSchedule;
  const std::vector<double> a = PoissonSchedule(42, 200.0, 2000);
  const std::vector<double> b = PoissonSchedule(42, 200.0, 2000);
  const std::vector<double> c = PoissonSchedule(43, 200.0, 2000);
  EXPECT(a == b);  // same seed, same schedule, bit for bit
  EXPECT(a != c);
  EXPECT(a.size() == 2000 && c.size() == 2000);
  // A prefix of a longer schedule: the count only truncates.
  const std::vector<double> longer = PoissonSchedule(42, 200.0, 3000);
  EXPECT(std::vector<double>(longer.begin(), longer.begin() + 2000) == a);
  bool increasing = a.front() > 0.0;
  for (size_t i = 1; i < a.size(); ++i) increasing &= a[i] > a[i - 1];
  EXPECT(increasing);
  // 2000 arrivals at 200/s span about 10 s (+- 5 sigma).
  EXPECT(a.back() > 8.88 && a.back() < 11.12);
  // Exponential gaps: mean 1/rate, and the coefficient of variation ~1.
  double sum = 0.0, sum2 = 0.0;
  for (size_t i = 1; i < a.size(); ++i) {
    const double g = a[i] - a[i - 1];
    sum += g;
    sum2 += g * g;
  }
  const double n = static_cast<double>(a.size() - 1);
  const double mean = sum / n;
  const double cv = std::sqrt(sum2 / n - mean * mean) / mean;
  EXPECT(std::fabs(mean - 0.005) < 0.0005);
  EXPECT(cv > 0.9 && cv < 1.1);
  EXPECT(PoissonSchedule(1, 0.0, 10).empty());
}

}  // namespace

int main() {
  TestQuantile();
  TestTailRule();
  TestOpenLoop();
  TestPoisson();
  if (failures == 0) std::printf("perfbench_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
