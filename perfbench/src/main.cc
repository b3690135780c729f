// DEKG-ILP benchmark program.
//
//   perfbench --workload paper_table|serve_score|serve_churn --seed N
//             --seconds S --trace 0|1 --serve-bin PATH --work-dir DIR
//
// Prints a human-readable table and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. With
// --trace 1 the spans and counts are also written to DIR/trace.json.
// Exits 1 when an output check fails.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "common/logging.h"
#include "trace.h"
#include "workloads.h"

namespace {

const char* Flag(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  dekg::SetMinLogSeverity(dekg::LogSeverity::kWarning);
  Options options;
  const char* workload = Flag(argc, argv, "--workload");
  const char* seed = Flag(argc, argv, "--seed");
  const char* seconds = Flag(argc, argv, "--seconds");
  const char* trace = Flag(argc, argv, "--trace");
  const char* serve_bin = Flag(argc, argv, "--serve-bin");
  const char* work_dir = Flag(argc, argv, "--work-dir");
  if (workload == nullptr || seed == nullptr || seconds == nullptr ||
      serve_bin == nullptr || work_dir == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "[--trace 0|1] --serve-bin PATH --work-dir DIR\n");
    return 2;
  }
  options.workload = workload;
  options.seed = std::strtoull(seed, nullptr, 10);
  options.seconds = std::atof(seconds);
  options.trace = trace != nullptr && std::strcmp(trace, "1") == 0;
  options.serve_bin = serve_bin;
  options.work_dir = work_dir;
  options.threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  ::mkdir(options.work_dir.c_str(), 0755);
  if (options.seconds <= 0.0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  Tracer::Get().set_enabled(options.trace);

  RunResult result;
  if (options.workload == "paper_table") {
    result = RunPaperTable(options);
  } else if (options.workload == "serve_score") {
    result = RunServeScore(options);
  } else if (options.workload == "serve_churn") {
    result = RunServeChurn(options);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", workload);
    return 2;
  }
  if (options.trace) {
    const std::string path = options.work_dir + "/trace.json";
    if (!Tracer::Get().Write(path)) result.Check(false, "write " + path);
  }
  PrintResult(options, result);
  return result.correct() ? 0 : 1;
}
