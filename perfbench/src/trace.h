// In-memory span recorder for the benchmark's traced runs.
//
// A span wraps one benchmark-side call into a layer's public function
// (name, start, end, parent span, request id). Spans and named counts
// stay in memory while the run measures and are written as one JSON file
// when it ends, so tracing costs no I/O inside the timed region. With
// tracing disabled a Span is two branches and records nothing.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  int64_t id = 0;
  int64_t parent = -1;  // -1: root span
  uint64_t request_id = 0;
  int64_t start_ns = 0;  // since the tracer's origin
  int64_t end_ns = 0;
};

class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  int64_t Begin(const char* name, uint64_t request_id);
  void End(int64_t id);
  // Records a closed span whose end points were taken elsewhere (times
  // in steady-clock seconds since its epoch), e.g. a request sent on one
  // thread and answered on another.
  void AddSpan(const char* name, uint64_t request_id, double start_s,
               double end_s);
  // Adds `value` to the named count (kept whether or not spans are on).
  void Count(const std::string& name, double value);

  // Number of closed spans called `name` and their summed duration.
  struct Total {
    int64_t spans = 0;
    double seconds = 0.0;
  };
  Total TotalOf(const std::string& name) const;

  // Writes every span and count as JSON. False on I/O failure.
  bool Write(const std::string& path) const;

 private:
  Tracer();
  int64_t NowNs() const;

  bool enabled_ = false;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::map<std::string, double> counts_;
};

// RAII span; nests under the innermost open span of the same thread.
class Span {
 public:
  explicit Span(const char* name, uint64_t request_id = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t id_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
