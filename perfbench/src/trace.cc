#include "trace.h"

#include <cstdio>

namespace perfbench {
namespace {

thread_local std::vector<int64_t> open_spans;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int64_t Tracer::Begin(const char* name, uint64_t request_id) {
  SpanRecord record;
  record.name = name;
  record.request_id = request_id;
  record.parent = open_spans.empty() ? -1 : open_spans.back();
  std::lock_guard<std::mutex> lock(mutex_);
  record.id = static_cast<int64_t>(spans_.size());
  record.start_ns = NowNs();
  spans_.push_back(std::move(record));
  return spans_.back().id;
}

void Tracer::End(int64_t id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

void Tracer::AddSpan(const char* name, uint64_t request_id, double start_s,
                     double end_s) {
  const double origin_s =
      std::chrono::duration<double>(origin_.time_since_epoch()).count();
  SpanRecord record;
  record.name = name;
  record.request_id = request_id;
  record.start_ns = static_cast<int64_t>((start_s - origin_s) * 1e9);
  record.end_ns = static_cast<int64_t>((end_s - origin_s) * 1e9);
  std::lock_guard<std::mutex> lock(mutex_);
  record.id = static_cast<int64_t>(spans_.size());
  spans_.push_back(std::move(record));
}

void Tracer::Count(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  counts_[name] += value;
}

Tracer::Total Tracer::TotalOf(const std::string& name) const {
  Total total;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const SpanRecord& s : spans_) {
    if (s.name != name || s.end_ns == 0) continue;
    ++total.spans;
    total.seconds += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  return total;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(f, "{\"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"id\": %lld, \"parent\": %lld, "
                 "\"request_id\": %llu, \"start_ns\": %lld, \"end_ns\": %lld}",
                 i == 0 ? "" : ",", s.name.c_str(),
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fprintf(f, "\n], \"counts\": {");
  bool first = true;
  for (const auto& [name, value] : counts_) {
    std::fprintf(f, "%s\n\"%s\": %.17g", first ? "" : ",", name.c_str(), value);
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

Span::Span(const char* name, uint64_t request_id) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  id_ = tracer.Begin(name, request_id);
  open_spans.push_back(id_);
}

Span::~Span() {
  if (id_ < 0) return;
  open_spans.pop_back();
  Tracer::Get().End(id_);
}

}  // namespace perfbench
