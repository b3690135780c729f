#include "common.h"

#include <signal.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "common/thread_pool.h"
#include "datagen/synthetic_kg.h"
#include "serve/client.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

using namespace dekg;

namespace {

const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

double ProcStatusMb(pid_t pid, const char* key) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0) {
      std::istringstream fields(line.substr(key_len));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

void RunResult::Check(bool ok, const std::string& what) {
  if (!ok) {
    check_failures.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

void RunResult::Add(const std::string& name, double value,
                    const std::string& unit, int64_t samples) {
  metrics.push_back({name, value, unit, samples});
}

void RunResult::AddLayer(const std::string& name, double value,
                         const std::string& unit, int64_t samples) {
  layers.push_back({name, value, unit, samples});
}

double SecondsSinceProcessStart() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

void Progress(const char* what) {
  std::fprintf(stderr, "[%8.3f s] %s\n", SecondsSinceProcessStart(), what);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb(pid_t pid) { return ProcStatusMb(pid, "VmHWM:"); }
double CurrentRssMb(pid_t pid) { return ProcStatusMb(pid, "VmRSS:"); }

double CpuSeconds(pid_t pid) {
  clockid_t clock = CLOCK_PROCESS_CPUTIME_ID;
  timespec t{};
  if ((pid != 0 && ::clock_getcpuclockid(pid, &clock) != 0) ||
      ::clock_gettime(clock, &t) != 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

double ThreadCpuSeconds() {
  timespec t{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

void WarmUpPool() {
  std::vector<double> sink(1 << 16, 1.0);
  for (int round = 0; round < 4; ++round) {
    ParallelFor(0, static_cast<int64_t>(sink.size()), /*grain=*/1024,
                [&](int64_t begin, int64_t end) {
                  for (int64_t i = begin; i < end; ++i) {
                    sink[static_cast<size_t>(i)] =
                        std::sqrt(sink[static_cast<size_t>(i)] + 1.0);
                  }
                });
  }
}

DekgDataset MakePaperTableWorld() {
  return datagen::MakeBenchmarkDataset(datagen::KgFamily::kFbLike,
                                       datagen::EvalSplit::kEq, /*scale=*/1.0,
                                       kWorldSeed);
}

DekgDataset MakeServeWorld() {
  datagen::SchemaConfig schema =
      datagen::FamilySchema(datagen::KgFamily::kFbLike,
                            datagen::EvalSplit::kEq, /*scale=*/1.0);
  schema.num_entities = 100000;
  schema.num_relations = 48;
  schema.avg_degree = 7.0;
  datagen::SplitConfig split;
  split.max_test_links = 300;
  split.max_valid_links = 50;
  return datagen::MakeDekgDataset("serve-1e5", schema, split, kWorldSeed);
}

core::DekgIlpConfig ModelConfig(const DekgDataset& dataset) {
  core::DekgIlpConfig config;
  config.num_relations = dataset.num_relations();
  config.dim = 32;  // dekg_serve's default --dim
  return config;
}

double TrainReport::ExamplesPerSecond() const {
  if (epoch_seconds.size() < 2) return 0.0;
  const double median = Median(std::vector<double>(epoch_seconds.begin() + 1,
                                                   epoch_seconds.end()));
  return median > 0.0 ? static_cast<double>(examples_per_epoch) / median : 0.0;
}

double TrainReport::CpuMsPerExample() const {
  if (epoch_cpu_seconds.size() < 2 || examples_per_epoch == 0) return 0.0;
  return Median(std::vector<double>(epoch_cpu_seconds.begin() + 1,
                                    epoch_cpu_seconds.end())) *
         1e3 / static_cast<double>(examples_per_epoch);
}

TrainReport TrainModel(core::DekgIlpModel* model, const DekgDataset& dataset,
                       int32_t epochs, int32_t max_triples, uint64_t seed) {
  core::TrainConfig config;
  config.epochs = epochs;
  config.max_triples_per_epoch = max_triples;
  config.seed = seed;
  core::DekgIlpTrainer trainer(model, &dataset, config);
  TrainReport report;
  report.examples_per_epoch = std::min<int64_t>(
      max_triples, static_cast<int64_t>(dataset.train_triples().size()));
  for (int32_t e = 0; e < epochs; ++e) {
    const double start = NowSeconds();
    const double cpu_start = CpuSeconds();
    double loss = 0.0;
    {
      Span span(e == 0 ? "core.trainer.first_epoch" : "core.trainer.epoch");
      loss = trainer.TrainEpoch();
    }
    report.epoch_seconds.push_back(NowSeconds() - start);
    report.epoch_cpu_seconds.push_back(CpuSeconds() - cpu_start);
    report.losses.push_back(loss);
  }
  return report;
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) KillAndReap();
}

bool ServerProcess::Launch(const std::string& bin,
                           const std::string& dataset_dir,
                           const std::string& checkpoint,
                           const std::vector<std::string>& extra_args,
                           const std::string& work_dir, double* setup_s,
                           std::string* error) {
  const std::string port_file =
      work_dir + "/port-" + std::to_string(::getpid());
  const std::string log_file = work_dir + "/serve.log";
  ::unlink(port_file.c_str());
  std::vector<std::string> args = {bin, dataset_dir, checkpoint};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  args.push_back("--port-file");
  args.push_back(port_file);
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  std::fflush(stdout);
  std::fflush(stderr);
  const auto start = std::chrono::steady_clock::now();
  pid_ = ::fork();
  if (pid_ < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid_ == 0) {
    // The server's own output goes to a log file, keeping the
    // benchmark's stdout for its result.
    std::FILE* log = std::freopen(log_file.c_str(), "w", stdout);
    if (log != nullptr) ::dup2(::fileno(stdout), STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  for (;;) {
    const double waited = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
    std::ifstream in(port_file);
    std::string line;
    if (in && std::getline(in, line) && !line.empty() && in.good()) {
      *setup_s = waited;
      port_ = static_cast<uint16_t>(std::stoi(line));
      ::unlink(port_file.c_str());
      return true;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "dekg_serve exited during start-up (see " + log_file + ")";
      return false;
    }
    if (waited > 150.0) {
      *error = "dekg_serve did not start within 150 s";
      KillAndReap();
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

bool ServerProcess::WaitExit(double timeout_s, int* status) {
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start).count() < timeout_s) {
    if (::waitpid(pid_, status, WNOHANG) == pid_) {
      pid_ = -1;
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

bool ServerProcess::Shutdown() {
  if (pid_ <= 0) return false;
  serve::Client client;
  std::string error;
  bool sent = client.Connect("127.0.0.1", port_, &error) &&
              client.Shutdown(&error);
  client.Close();
  int status = 0;
  if (sent && WaitExit(20.0, &status)) {
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  KillAndReap();
  return false;
}

void ServerProcess::KillAndReap() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

void PrintResult(const Options& options, const RunResult& result) {
  std::printf("\n%-40s %16s %-10s %8s\n", "metric", "value", "unit",
              "samples");
  for (const auto* list : {&result.metrics, &result.layers}) {
    for (const Metric& m : *list) {
      std::printf("%-40s %16.6g %-10s %8lld\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<long long>(m.samples));
    }
  }
  const std::vector<Metric>& shown =
      options.trace ? result.layers : result.metrics;
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (result.correct() ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (size_t i = 0; i < shown.size(); ++i) {
    const double v = std::isfinite(shown[i].value) ? shown[i].value : 0.0;
    json << (i == 0 ? "" : ", ") << "\"" << shown[i].name
         << "\": {\"value\": " << v << ", \"unit\": \"" << shown[i].unit
         << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
