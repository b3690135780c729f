// Per-layer measurement for the traced runs. Each figure is timed around
// a benchmark-side call into one module's public function; where a
// workload does not make that call itself, its own inputs are replayed
// through the call (README.md lists which figure comes from where).
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common.h"
#include "eval/evaluator.h"
#include "kg/knowledge_graph.h"

namespace perfbench {

// LinkPredictor wrapper that times every ScoreTriplesCached call (one
// ranking task under Evaluate) in wall-clock and in the calling thread's
// CPU time, and checks that every score is finite. Under Evaluate a task
// runs on one pool thread (nested parallel regions run inline), so its
// thread CPU time is all the CPU the task used.
class TimingPredictor : public dekg::LinkPredictor {
 public:
  explicit TimingPredictor(dekg::LinkPredictor* inner) : inner_(inner) {}

  std::string Name() const override { return inner_->Name(); }
  std::vector<double> ScoreTriples(
      const dekg::KnowledgeGraph& graph,
      const std::vector<dekg::Triple>& triples) override {
    return ScoreTriplesCached(graph, triples, nullptr);
  }
  std::vector<double> ScoreTriplesCached(
      const dekg::KnowledgeGraph& graph,
      const std::vector<dekg::Triple>& triples,
      const dekg::SubgraphCache* cache) override;
  bool SupportsConcurrentScoring() const override {
    return inner_->SupportsConcurrentScoring();
  }
  int64_t ParameterCount() const override { return inner_->ParameterCount(); }

  // Clears the call log and counters.
  void Reset();
  double busy_seconds() const { return busy_ns_.load() * 1e-9; }
  int64_t triples_scored() const { return triples_.load(); }
  int64_t non_finite() const { return non_finite_.load(); }
  std::vector<double> call_cpu_ms() const;

 private:
  dekg::LinkPredictor* inner_;
  std::atomic<int64_t> busy_ns_{0};
  std::atomic<int64_t> triples_{0};
  std::atomic<int64_t> non_finite_{0};
  mutable std::mutex mutex_;
  std::vector<double> call_cpu_ms_;
};

// Adds eval.wall_s, eval.predictor_busy_s and eval.parallel_efficiency
// for one Evaluate call timed at `timing`.
void AddEvalLayers(const TimingPredictor& timing, double wall_s, int threads,
                   int64_t tasks, RunResult* result);

struct LayerInputs {
  dekg::core::DekgIlpModel* model = nullptr;
  const dekg::DekgDataset* dataset = nullptr;
  // The graph the workload scores on, and its requests in order (each a
  // list of triples; index i of a request draws MixSeed(123, i)).
  const dekg::KnowledgeGraph* graph = nullptr;
  std::vector<std::vector<dekg::Triple>> requests;
  // Triples per engine batch as the workload runs them.
  int32_t batch = 1;
  // Emerging-triple chunks to ingest, and the rank requests kept hot in
  // the engine while they land.
  std::vector<std::vector<dekg::Triple>> chunks;
  std::vector<std::vector<dekg::Triple>> hot;
  // Replay Evaluate on this many test links (0: the workload ran it).
  int32_t eval_links = 0;
  // Take serve.engine.cache_hit_ratio / memo_hit_ratio from the ingest
  // replay (the workload reads a hot set under churn) instead of the
  // scoring replay.
  bool ratios_from_ingest = false;
};

// Runs every replay and appends the core / autograd / nn / graph / gnn /
// serve.engine / serve.snapshot / serve.protocol / kg layer figures.
void MeasureLayers(const LayerInputs& in, const Options& options,
                   RunResult* result);

// core.trainer.epoch_s / first_epoch_s from the trainer spans.
void AddTrainerLayers(RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
