// Measurement helpers of the DEKG-ILP benchmark: percentiles with a
// sample-count guard on the tail, seeded Poisson arrival schedules, and
// open-loop latency bookkeeping measured from each request's due time.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// Linear-interpolated quantile (q in [0, 1]) of `samples`, the same rule
// as numpy's default. Empty input yields 0.
double Quantile(std::vector<double> samples, double q);

double Median(const std::vector<double>& samples);

// The benchmark's tail rule: at least this many samples beyond the
// reported tail quantile. Ten is the least a tail may rest on; with ten,
// the wall-clock tails of an earlier version of the served workloads (p95
// of 300 requests, p99 of 1,200 reads) moved by more than a quarter of
// their median between runs on the same inputs.
inline constexpr int64_t kTailMinBeyond = 30;

// The tail quantile a latency report may claim from `n` samples: the
// highest of {0.999, 0.99, 0.98, 0.95, 0.9, 0.8, 0.75} capped so that at
// least `min_beyond` samples lie beyond it, i.e. q <= 1 - min_beyond / n.
// Returns 0.5 when n is too small for any tail (n < 2 * min_beyond).
double TailQuantileFor(int64_t n, int64_t min_beyond = kTailMinBeyond);

// Arrival offsets in seconds from the start of an open-loop phase: the
// first `count` arrivals of a Poisson process at `rate_per_s`
// (exponential inter-arrival gaps), drawn from a stream keyed by `seed`
// alone, so the same seed always yields the same schedule. A fixed
// count keeps the work of a phase the same on every seed.
std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    size_t count);

// Open-loop bookkeeping for one phase. Every request has a due time
// (its scheduled arrival); latency is completion minus due, so a late
// generator or a queue at the server both show up in the figures
// instead of being hidden by a closed loop (coordinated omission).
class OpenLoopRecorder {
 public:
  explicit OpenLoopRecorder(size_t n);

  // Times are seconds since the phase origin.
  void RecordSend(size_t i, double due_s, double sent_s);
  void RecordDone(size_t i, double done_s);

  // Completion minus due time, in milliseconds, of every finished request.
  std::vector<double> LatenciesMs() const;
  // Send minus due time (generator lateness), in milliseconds.
  std::vector<double> LatenessMs() const;
  double due(size_t i) const { return due_[i]; }
  // NaN until request i has completed.
  double done(size_t i) const { return done_[i]; }

 private:
  std::vector<double> due_;
  std::vector<double> sent_;
  std::vector<double> done_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
