#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(const std::vector<double>& samples) {
  return Quantile(samples, 0.5);
}

double TailQuantileFor(int64_t n, int64_t min_beyond) {
  if (n < 2 * min_beyond) return 0.5;
  const double cap = 1.0 - static_cast<double>(min_beyond) /
                               static_cast<double>(n);
  for (double q : {0.999, 0.99, 0.98, 0.95, 0.9, 0.8, 0.75}) {
    if (q <= cap) return q;
  }
  return 0.5;
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    size_t count) {
  std::vector<double> arrivals;
  if (rate_per_s <= 0.0) return arrivals;
  // mt19937_64 + an explicit inverse-CDF draw: both are fully specified
  // by the standard, unlike std::exponential_distribution, so the
  // schedule is the same with every standard library.
  std::mt19937_64 gen(seed);
  double t = 0.0;
  while (arrivals.size() < count) {
    const double u =
        (static_cast<double>(gen() >> 11) + 0.5) * 0x1.0p-53;  // (0, 1)
    t += -std::log(u) / rate_per_s;
    arrivals.push_back(t);
  }
  return arrivals;
}

OpenLoopRecorder::OpenLoopRecorder(size_t n)
    : due_(n, 0.0),
      sent_(n, std::numeric_limits<double>::quiet_NaN()),
      done_(n, std::numeric_limits<double>::quiet_NaN()) {}

void OpenLoopRecorder::RecordSend(size_t i, double due_s, double sent_s) {
  due_[i] = due_s;
  sent_[i] = sent_s;
}

void OpenLoopRecorder::RecordDone(size_t i, double done_s) { done_[i] = done_s; }

std::vector<double> OpenLoopRecorder::LatenciesMs() const {
  std::vector<double> out;
  for (size_t i = 0; i < due_.size(); ++i) {
    if (!std::isnan(done_[i])) out.push_back((done_[i] - due_[i]) * 1e3);
  }
  return out;
}

std::vector<double> OpenLoopRecorder::LatenessMs() const {
  std::vector<double> out;
  for (size_t i = 0; i < due_.size(); ++i) {
    if (!std::isnan(sent_[i])) out.push_back((sent_[i] - due_[i]) * 1e3);
  }
  return out;
}

}  // namespace perfbench
