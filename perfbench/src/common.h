// Shared pieces of the benchmark's workloads: run options, the result
// line, world generation, training, and the dekg_serve child process.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dekg_ilp.h"
#include "core/trainer.h"
#include "kg/dataset.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;  // path of the dekg_serve binary
  std::string work_dir;   // scratch directory for datasets and traces
  int threads = 1;        // hardware threads of the machine
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;  // how many observations the value summarizes
};

// Everything a workload reports. `metrics` are the end-to-end figures,
// `layers` the per-layer ones (filled only in traced runs).
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<Metric> metrics;
  std::vector<Metric> layers;

  // Records an output check; a false `ok` makes the run incorrect.
  void Check(bool ok, const std::string& what);
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples);
  void AddLayer(const std::string& name, double value, const std::string& unit,
                int64_t samples);
  bool correct() const { return check_failures.empty(); }
};

// Seconds since this process started (the benchmark's set-up clock).
double SecondsSinceProcessStart();

// Steady-clock time in seconds (since the clock's epoch).
double NowSeconds();

// Logs a phase boundary with the time since process start to stderr.
void Progress(const char* what);

// Peak / current resident set of a process (pid 0 = this process), MB.
double PeakRssMb(pid_t pid = 0);
double CurrentRssMb(pid_t pid = 0);

// CPU time in seconds a process (pid 0 = this process) has used so far,
// summed over all its threads, or NaN once it is gone. On a virtual
// machine the kernel leaves out steal time (time the host ran something
// else), so CPU-time figures stay put when the host's load moves, while
// wall-clock ones do not (README.md, "Why CPU time").
double CpuSeconds(pid_t pid = 0);

// CPU time in seconds the calling thread has used so far.
double ThreadCpuSeconds();

// Runs a short parallel region on the default pool so that thread start-up
// and first-touch costs land before any timed region.
void WarmUpPool();

// The worlds are fixed, like the paper's datasets: their generator seed
// does not follow --seed, which drives training order, evaluation
// negatives, hot sets and request streams instead. Runs on different
// seeds then differ in traffic, not in the graph being measured.
inline constexpr uint64_t kWorldSeed = 2023;

// The Table-III FB-like EQ split the paper's tables run on.
dekg::DekgDataset MakePaperTableWorld();

// The served world: 1e5 entities, datagen's default popularity skew
// (0.7), and the FB-like family's 48 relations at average degree 7.
dekg::DekgDataset MakeServeWorld();

dekg::core::DekgIlpConfig ModelConfig(const dekg::DekgDataset& dataset);

struct TrainReport {
  std::vector<double> losses;
  std::vector<double> epoch_seconds;
  std::vector<double> epoch_cpu_seconds;  // this process, all threads
  int64_t examples_per_epoch = 0;
  // Positive examples per second in the median epoch after the first
  // (the first pays the subgraph-cache prefill).
  double ExamplesPerSecond() const;
  // CPU milliseconds per positive example in the median epoch after the
  // first.
  double CpuMsPerExample() const;
};

// Trains `model` with core::DekgIlpTrainer for `epochs` epochs of at most
// `max_triples` positives each, timing every TrainEpoch call in wall-clock
// and CPU time.
TrainReport TrainModel(dekg::core::DekgIlpModel* model,
                       const dekg::DekgDataset& dataset, int32_t epochs,
                       int32_t max_triples, uint64_t seed);

// A dekg_serve child process. The destructor kills and reaps a server
// that was not shut down cleanly, so no run leaves one behind.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Starts `bin dataset_dir checkpoint extra_args... --port-file F` and
  // waits for the port file. *setup_s is launch-to-port-file time.
  bool Launch(const std::string& bin, const std::string& dataset_dir,
              const std::string& checkpoint,
              const std::vector<std::string>& extra_args,
              const std::string& work_dir, double* setup_s,
              std::string* error);
  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  // Sends SHUTDOWN and reaps the process; SIGKILL after a timeout.
  // Returns true on a clean exit with status 0.
  bool Shutdown();

 private:
  void KillAndReap();
  bool WaitExit(double timeout_s, int* status);

  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

// Prints the per-layer table and the final one-line JSON result.
void PrintResult(const Options& options, const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
