// paper_table: the offline path every paper table runs. Generate a
// Table-III FB-like split, train DEKG-ILP for a few epochs, then rank
// every test link under the paper protocol (49 filtered entity negatives
// per head/tail task plus the relation task, no subgraph cache) in whole
// Evaluate rounds until the run's time is spent.
#include <cmath>
#include <cstdio>

#include "eval/evaluator.h"
#include "layers.h"
#include "serve_common.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace dekg;

namespace {

constexpr int32_t kEpochs = 6;
constexpr int32_t kTriplesPerEpoch = 256;
constexpr int32_t kCheckLinks = 40;  // subsample of the equivalence checks
// One Evaluate round over every test link takes about 6 s on 4 cores; the
// round count comes from --seconds, never from the clock, so every run
// does the same work.
constexpr double kSecondsPerRound = 6.0;

// Ranks must lie in [1, 1 + candidates] for their task: 49 entity
// negatives for head/tail tasks, every other relation for the relation
// task (Evaluate orders each link's tasks head, tail, relation).
void CheckRanks(const EvalResult& eval, const DekgDataset& dataset,
                const EvalConfig& config, RunResult* result) {
  const size_t per_link = config.include_relation_task ? 3 : 2;
  bool ok = eval.ranks.size() == dataset.test_links().size() * per_link;
  for (size_t i = 0; ok && i < eval.ranks.size(); ++i) {
    const double candidates = (i % per_link == 2)
                                  ? dataset.num_relations() - 1
                                  : config.num_entity_negatives;
    ok = eval.ranks[i] >= 1.0 && eval.ranks[i] <= 1.0 + candidates;
  }
  result->Check(ok, "every rank lies in [1, 1 + the task's candidates]");
}

}  // namespace

RunResult RunPaperTable(const Options& options) {
  RunResult result;
  DekgDataset dataset = MakePaperTableWorld();
  core::DekgIlpModel model(ModelConfig(dataset), /*seed=*/1);
  const double setup_s = SecondsSinceProcessStart();
  std::printf("paper_table: %s, %d+%d entities, %d relations, %zu train, "
              "%zu test links; setup %.3f s\n",
              dataset.name().c_str(), dataset.num_original_entities(),
              dataset.num_emerging_entities(), dataset.num_relations(),
              dataset.train_triples().size(), dataset.test_links().size(),
              setup_s);

  WarmUpPool();
  Progress("world ready");
  const TrainReport train =
      TrainModel(&model, dataset, kEpochs, kTriplesPerEpoch, options.seed);
  bool finite = true;
  for (double loss : train.losses) finite = finite && std::isfinite(loss);
  result.Check(finite, "per-epoch losses are finite");
  result.Check(train.losses.back() < train.losses.front(),
               "last epoch loss is below the first");
  result.attempted += train.examples_per_epoch * kEpochs;

  core::DekgIlpPredictor predictor(&model);
  TimingPredictor timing(&predictor);
  EvalConfig config;
  config.collect_ranks = true;
  config.seed = MixSeed(options.seed, 17);
  const int64_t expected_tasks =
      static_cast<int64_t>(dataset.test_links().size()) *
      (dataset.num_relations() > 1 ? 3 : 2);

  // Warm-up: one short untimed round so page faults and the pool's first
  // parallel region land before timing.
  {
    EvalConfig warm = config;
    warm.max_links = 10;
    Evaluate(&timing, dataset, warm);
    timing.Reset();
  }

  // Whole rounds. A traced run measures half its rounds untraced and half
  // traced to report the tracing overhead.
  const int rounds_total = std::max(
      options.trace ? 2 : 1,
      static_cast<int>(std::lround(options.seconds / kSecondsPerRound)));
  std::vector<double> round_tps, round_cpu_ms, untraced_tps, traced_tps;
  std::vector<double> task_cpu_ms;
  double eval_wall = 0.0;
  EvalResult eval;
  for (int round = 0; round < rounds_total; ++round) {
    const bool traced_round = options.trace && round >= rounds_total / 2;
    Tracer::Get().set_enabled(traced_round);
    timing.Reset();
    const double t0 = NowSeconds();
    const double cpu0 = CpuSeconds();
    eval = Evaluate(&timing, dataset, config);
    const double wall = NowSeconds() - t0;
    const double cpu = CpuSeconds() - cpu0;
    Tracer::Get().set_enabled(options.trace);
    const double tps = timing.triples_scored() / wall;
    (traced_round ? traced_tps : untraced_tps).push_back(tps);
    if (!traced_round) {
      round_tps.push_back(tps);
      round_cpu_ms.push_back(cpu * 1e3 /
                             std::max<int64_t>(1, timing.triples_scored()));
      const std::vector<double> calls = timing.call_cpu_ms();
      task_cpu_ms.insert(task_cpu_ms.end(), calls.begin(), calls.end());
      eval_wall = wall;
    }
    result.attempted += eval.overall.num_tasks;
    result.Check(eval.overall.num_tasks == expected_tasks,
                 "task count equals test links x tasks");
    result.Check(timing.non_finite() == 0, "every predictor score is finite");
    result.failed += timing.non_finite() > 0 ? 1 : 0;
    CheckRanks(eval, dataset, config, &result);
  }
  const double trained_mrr = eval.overall.mrr;
  Progress("measured");

  // The trained model must beat an untrained one with the same config on
  // the same tasks, and Evaluate must be bit-identical at 1 and N threads.
  {
    EvalConfig sub = config;
    sub.max_links = kCheckLinks;
    sub.collect_ranks = false;
    core::DekgIlpModel untrained(ModelConfig(dataset), /*seed=*/1);
    core::DekgIlpPredictor untrained_predictor(&untrained);
    const double untrained_mrr =
        Evaluate(&untrained_predictor, dataset, sub).overall.mrr;
    const EvalResult parallel = Evaluate(&predictor, dataset, sub);
    sub.num_threads = 1;
    const EvalResult serial = Evaluate(&predictor, dataset, sub);
    std::printf("trained MRR %.4f (all links), %.4f vs untrained %.4f on %d "
                "links\n",
                trained_mrr, parallel.overall.mrr, untrained_mrr, kCheckLinks);
    result.Check(parallel.overall.mrr >= untrained_mrr + 0.1,
                 "trained MRR beats the untrained model by >= 0.1");
    result.Check(GoldenSummary(serial) == GoldenSummary(parallel),
                 "GoldenSummary at 1 thread equals GoldenSummary at N threads");
  }

  const int64_t tasks = static_cast<int64_t>(task_cpu_ms.size());
  const double tail_q = TailQuantileFor(tasks);
  const int64_t rounds = static_cast<int64_t>(round_cpu_ms.size());
  result.Add("setup_s", setup_s, "s", 1);
  result.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  result.Add("train_cpu_ms_per_example", train.CpuMsPerExample(), "ms",
             train.examples_per_epoch * (kEpochs - 1));
  result.Add("cpu_ms_per_triple", Median(round_cpu_ms), "ms", rounds);
  result.Add("op_cpu_p50_ms", Median(task_cpu_ms), "ms", tasks);
  result.Add("op_cpu_tail_ms", Quantile(task_cpu_ms, tail_q), "ms", tasks);
  std::printf("eval rounds %lld, %.0f candidate triples/s (wall, median "
              "round), task CPU tail quantile %.3f; training %.1f "
              "positives/s (wall); losses %.4f -> %.4f\n",
              static_cast<long long>(rounds), Median(round_tps), tail_q,
              train.ExamplesPerSecond(), train.losses.front(),
              train.losses.back());

  if (options.trace) {
    AddEvalLayers(timing, eval_wall, options.threads, eval.overall.num_tasks,
                  &result);
    // The workload's own tasks, replayed through each layer.
    Rng rng(options.seed);
    LayerInputs in;
    in.model = &model;
    in.dataset = &dataset;
    in.graph = &dataset.inference_graph();
    for (const LabeledLink& link : dataset.test_links()) {
      if (in.requests.size() >= 160) break;
      std::vector<Triple> task = {link.triple};
      for (int k = 0; k < 49; ++k) {
        Triple t = link.triple;
        t.tail = static_cast<EntityId>(
            rng.UniformUint64(dataset.num_total_entities()));
        task.push_back(t);
      }
      in.requests.push_back(task);
    }
    in.batch = 50;
    in.chunks = ChunksOf(dataset.emerging_triples(), 250, 4);
    in.hot = {in.requests.begin(), in.requests.begin() + 4};
    MeasureLayers(in, options, &result);
    MeasureServedLayers(options, dataset, model, in.requests, /*rate_per_s=*/40.0,
                        &result);
    result.AddLayer("trace.overhead_pct",
                    (Median(untraced_tps) / Median(traced_tps) - 1.0) * 100.0,
                    "%", static_cast<int64_t>(traced_tps.size()));
  }
  return result;
}

}  // namespace perfbench
