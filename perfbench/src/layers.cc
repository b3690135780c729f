#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>

#include "autograd/ops.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dekg_ilp.h"
#include "graph/subgraph.h"
#include "nn/optimizer.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/snapshot.h"
#include "trace.h"

namespace perfbench {

using namespace dekg;

namespace {

// Mean microseconds per unit of the spans called `name`.
double MicrosPer(const std::string& name, int64_t units) {
  const Tracer::Total t = Tracer::Get().TotalOf(name);
  return units > 0 ? t.seconds * 1e6 / static_cast<double>(units) : 0.0;
}

std::vector<Triple> Flatten(const std::vector<std::vector<Triple>>& requests,
                            size_t limit) {
  std::vector<Triple> out;
  for (const auto& r : requests) {
    for (const Triple& t : r) {
      if (out.size() >= limit) return out;
      out.push_back(t);
    }
  }
  return out;
}

std::vector<serve::ScoreItem> ItemsOf(const std::vector<Triple>& triples) {
  std::vector<serve::ScoreItem> items;
  for (size_t i = 0; i < triples.size(); ++i) {
    items.push_back({triples[i], MixSeed(123, i)});
  }
  return items;
}

// The trainer's per-example work (forward on a cached positive subgraph,
// one sampled negative, the contrastive term, backward into a GradSink)
// and per-batch work (sharded-grad reduce, clip, row-sparse Adam step),
// replayed serially on a copy of the trained model.
void ReplayTraining(const LayerInputs& in, RunResult* result) {
  core::DekgIlpModel model(in.model->config(), /*seed=*/1);
  model.LoadStateVector(in.model->StateVector());
  nn::Adam::Options opt;
  opt.lr = 0.01;
  nn::Adam adam(&model, opt);
  nn::StepSparsity sparsity;
  for (const nn::Parameter& p : model.parameters()) {
    nn::StepSparsity::ParamPlan plan;
    if (p.var.value().rank() == 2) plan.mode = nn::StepSparsity::Mode::kAutoRows;
    sparsity.plans.push_back(std::move(plan));
  }
  const KnowledgeGraph& graph = in.dataset->original_graph();
  const std::vector<Triple>& train = in.dataset->train_triples();
  constexpr int kBatches = 6;
  constexpr int kBatchSize = 8;
  std::vector<ag::GradSink> sinks;
  for (int s = 0; s < kBatchSize; ++s) sinks.push_back(model.MakeGradSink());
  const float margin = static_cast<float>(model.config().margin);
  const float sigma = static_cast<float>(model.config().sigma);
  Rng pick(MixSeed(7, train.size()));
  int64_t examples = 0;
  for (int b = 0; b < kBatches; ++b) {
    model.ZeroGrad();
    for (int s = 0; s < kBatchSize; ++s) {
      const Triple positive =
          train[static_cast<size_t>(pick.UniformUint64(train.size()))];
      const Subgraph sub = model.gsm()->Extract(graph, positive);
      Rng rng(MixSeed(11, static_cast<uint64_t>(examples)));
      ag::Var loss;
      {
        Span span("core.train_forward");
        ag::Var pos = model.ScoreLink(graph, positive, true, &rng, &sub);
        const Triple negative =
            core::SampleNegativeTriple(*in.dataset, positive, &rng);
        ag::Var neg = model.ScoreLink(graph, negative, true, &rng);
        loss = ag::Relu(ag::AddScalar(ag::Sub(neg, pos), margin));
        ag::Var contrastive = model.ContrastiveLossForLink(graph, positive, &rng);
        if (contrastive.defined()) {
          loss = ag::Add(loss, ag::MulScalar(contrastive, sigma));
        }
      }
      sinks[static_cast<size_t>(s)].Reset();
      {
        Span span("autograd.backward");
        loss.Backward(&sinks[static_cast<size_t>(s)]);
      }
      ++examples;
    }
    {
      Span span("nn.grad_reduce");
      model.AccumulateShardedGrads(sinks, kBatchSize);
    }
    nn::ClipGradNorm(&model, 5.0);
    {
      Span span("nn.adam_step");
      adam.Step(sparsity);
    }
  }
  result->AddLayer("core.train_forward_us",
                   MicrosPer("core.train_forward", examples), "us", examples);
  result->AddLayer("autograd.backward_us",
                   MicrosPer("autograd.backward", examples), "us", examples);
  result->AddLayer("nn.grad_reduce_us", MicrosPer("nn.grad_reduce", kBatches),
                   "us", kBatches);
  result->AddLayer("nn.adam_step_us", MicrosPer("nn.adam_step", kBatches), "us",
                   kBatches);
}

// Ingests the chunks into an in-process Router (with the hot rank
// requests resident) and, on the same chunks, into a bare SnapshotWriter.
struct IngestFigures {
  double cache_hit_ratio = 0.0;
  double memo_hit_ratio = 0.0;
  int64_t lookups = 0;
};

IngestFigures ReplayIngest(const LayerInputs& in, RunResult* result) {
  IngestFigures figures;
  serve::RouterConfig config;
  serve::Router router(in.model, in.dataset->original_graph(), config);
  serve::SnapshotWriter writer(in.model, in.dataset->original_graph(),
                               config.engine.live_graph);
  auto read_hot = [&] {
    for (const auto& request : in.hot) {
      Span span("serve.engine.hot_read");
      router.ScoreBatch(ItemsOf(request));
    }
  };
  read_hot();
  const serve::EngineStats before = router.Stats();
  double snapshot_ms = 0.0, router_ms = 0.0, copy_ms = 0.0;
  uint64_t patched = 0, affected = 0;
  for (const auto& chunk : in.chunks) {
    serve::IngestReport report;
    std::string error;
    double t0 = NowSeconds();
    {
      Span span("serve.snapshot.ingest");
      result->Check(writer.Ingest(chunk, &report, &error) == serve::Status::kOk,
                    "snapshot ingest replay: " + error);
    }
    snapshot_ms += (NowSeconds() - t0) * 1e3;
    serve::IngestResponse response;
    t0 = NowSeconds();
    {
      Span span("serve.engine.ingest");
      router.Ingest(chunk, &response);
    }
    router_ms += (NowSeconds() - t0) * 1e3;
    result->Check(response.status == serve::Status::kOk,
                  "router ingest replay: " + response.error);
    patched += response.patched + response.repaired;
    affected += response.patched + response.repaired + response.invalidated;
    Tracer::Get().Count("serve.ingest.patched", static_cast<double>(response.patched));
    Tracer::Get().Count("serve.ingest.repaired",
                        static_cast<double>(response.repaired));
    Tracer::Get().Count("serve.ingest.invalidated",
                        static_cast<double>(response.invalidated));
    t0 = NowSeconds();
    {
      Span span("kg.graph_copy");
      KnowledgeGraph copy(router.graph());
      result->Check(copy.num_entities() == router.graph().num_entities(),
                    "graph copy");
    }
    copy_ms += (NowSeconds() - t0) * 1e3;
    read_hot();
    read_hot();
  }
  const serve::EngineStats after = router.Stats();
  const int64_t n = static_cast<int64_t>(in.chunks.size());
  result->AddLayer("serve.snapshot.ingest_ms", snapshot_ms / n, "ms", n);
  result->AddLayer("serve.engine.catch_up_ms",
                   std::max(0.0, router_ms - snapshot_ms) / n, "ms", n);
  result->AddLayer("serve.engine.patch_ratio",
                   affected > 0 ? static_cast<double>(patched) / affected : 0.0,
                   "ratio", static_cast<int64_t>(affected));
  result->AddLayer("kg.graph_copy_ms", copy_ms / n, "ms", n);
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses =
      static_cast<double>(after.cache_misses - before.cache_misses);
  const double memo_hits = static_cast<double>(after.memo_hits - before.memo_hits);
  const double memo_misses =
      static_cast<double>(after.memo_misses - before.memo_misses);
  figures.lookups = static_cast<int64_t>(memo_hits + memo_misses);
  figures.memo_hit_ratio =
      figures.lookups > 0 ? memo_hits / (memo_hits + memo_misses) : 0.0;
  figures.cache_hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  return figures;
}

}  // namespace

std::vector<double> TimingPredictor::ScoreTriplesCached(
    const KnowledgeGraph& graph, const std::vector<Triple>& triples,
    const SubgraphCache* cache) {
  Span span("eval.score_task");
  const auto start = std::chrono::steady_clock::now();
  const double cpu_start = ThreadCpuSeconds();
  std::vector<double> scores = inner_->ScoreTriplesCached(graph, triples, cache);
  const double cpu_ms = (ThreadCpuSeconds() - cpu_start) * 1e3;
  const int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  busy_ns_ += ns;
  triples_ += static_cast<int64_t>(triples.size());
  int64_t bad = 0;
  for (double s : scores) bad += std::isfinite(s) ? 0 : 1;
  if (scores.size() != triples.size()) bad += 1;
  non_finite_ += bad;
  std::lock_guard<std::mutex> lock(mutex_);
  call_cpu_ms_.push_back(cpu_ms);
  return scores;
}

void TimingPredictor::Reset() {
  busy_ns_ = 0;
  triples_ = 0;
  non_finite_ = 0;
  std::lock_guard<std::mutex> lock(mutex_);
  call_cpu_ms_.clear();
}

std::vector<double> TimingPredictor::call_cpu_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return call_cpu_ms_;
}

void AddEvalLayers(const TimingPredictor& timing, double wall_s, int threads,
                   int64_t tasks, RunResult* result) {
  result->AddLayer("eval.wall_s", wall_s, "s", tasks);
  result->AddLayer("eval.predictor_busy_s", timing.busy_seconds(), "s", tasks);
  // Busy time over wall time x threads: 1.0 means every thread spent the
  // whole Evaluate call inside the predictor.
  result->AddLayer("eval.parallel_efficiency",
                   wall_s > 0.0 ? timing.busy_seconds() / (wall_s * threads)
                                : 0.0,
                   "ratio", threads);
}

void AddTrainerLayers(RunResult* result) {
  const Tracer::Total first = Tracer::Get().TotalOf("core.trainer.first_epoch");
  const Tracer::Total rest = Tracer::Get().TotalOf("core.trainer.epoch");
  result->AddLayer("core.trainer.first_epoch_s", first.seconds, "s",
                   first.spans);
  result->AddLayer("core.trainer.epoch_s",
                   rest.spans > 0 ? rest.seconds / rest.spans : 0.0, "s",
                   rest.spans);
}

void MeasureLayers(const LayerInputs& in, const Options& options,
                   RunResult* result) {
  core::DekgIlpModel* model = in.model;
  const KnowledgeGraph& graph = *in.graph;
  AddTrainerLayers(result);
  ReplayTraining(in, result);

  // Extraction, packed forward, taped inference and the in-process engine
  // all run on one thread over the same triples, so their per-triple
  // figures subtract cleanly (admission = engine - extract - forward).
  const int restore_threads = DefaultThreadCount();
  std::vector<Triple> triples = Flatten(in.requests, 256);
  serve::RouterConfig router_config;
  serve::Router router(model, graph, router_config);
  SetDefaultThreadCount(1);

  ResetExtractionCounters();
  std::vector<Subgraph> subs;
  SubgraphWorkspace workspace;
  double nodes = 0.0, edges = 0.0;
  for (const Triple& t : triples) {
    Span span("graph.extract");
    subs.push_back(model->gsm()->Extract(graph, t, &workspace));
  }
  const ExtractionCounters counters = GetExtractionCounters();
  Tracer::Get().Count("graph.extractions", static_cast<double>(counters.extractions));
  Tracer::Get().Count("graph.bfs_popped", static_cast<double>(counters.bfs_popped));
  Tracer::Get().Count("graph.candidates_kept",
                      static_cast<double>(counters.candidates_kept));
  for (const Subgraph& s : subs) {
    nodes += static_cast<double>(s.nodes.size());
    edges += static_cast<double>(s.edges.size());
  }
  const int64_t n = static_cast<int64_t>(triples.size());
  result->AddLayer("graph.extract_us", MicrosPer("graph.extract", n), "us", n);
  result->AddLayer("graph.subgraph_nodes", nodes / n, "count", n);
  result->AddLayer("graph.subgraph_edges", edges / n, "count", n);
  result->AddLayer("graph.bfs_popped",
                   static_cast<double>(counters.bfs_popped) /
                       std::max<uint64_t>(1, counters.extractions),
                   "count", static_cast<int64_t>(counters.extractions));

  const size_t batch = static_cast<size_t>(std::max(1, in.batch));
  for (size_t begin = 0; begin < subs.size(); begin += batch) {
    const size_t end = std::min(subs.size(), begin + batch);
    std::vector<const Subgraph*> group;
    std::vector<RelationId> rels;
    for (size_t i = begin; i < end; ++i) {
      group.push_back(&subs[i]);
      rels.push_back(triples[i].rel);
    }
    Span span("gnn.packed_forward");
    model->gsm()->ScoreSubgraphsPacked(group, rels);
  }
  result->AddLayer("gnn.packed_forward_us", MicrosPer("gnn.packed_forward", n),
                   "us", n);

  const size_t taped = std::min<size_t>(triples.size(), 64);
  for (size_t i = 0; i < taped; ++i) {
    Rng rng(MixSeed(123, i));
    Span span("core.score_link");
    model->ScoreLink(graph, triples[i], /*training=*/false, &rng);
  }
  result->AddLayer("core.score_link_us",
                   MicrosPer("core.score_link", static_cast<int64_t>(taped)),
                   "us", static_cast<int64_t>(taped));

  std::set<EntityId> entities;
  for (const Triple& t : triples) {
    entities.insert(t.head);
    entities.insert(t.tail);
  }
  for (const auto& chunk : in.chunks) {
    for (const Triple& t : chunk) {
      if (entities.size() >= 1024) break;
      if (t.head < graph.num_entities()) entities.insert(t.head);
      if (t.tail < graph.num_entities()) entities.insert(t.tail);
    }
  }
  for (EntityId e : entities) {
    const std::vector<int32_t> table = graph.RelationComponentTable(e);
    Span span("core.clrm_embed");
    model->clrm()->EmbedEntity(table);
  }
  const int64_t ne = static_cast<int64_t>(entities.size());
  result->AddLayer("core.clrm_embed_us", MicrosPer("core.clrm_embed", ne), "us",
                   ne);

  // The engine on the same triples, in the workload's batch sizes.
  for (size_t begin = 0; begin < triples.size(); begin += batch) {
    const size_t end = std::min(triples.size(), begin + batch);
    std::vector<serve::ScoreItem> items;
    for (size_t i = begin; i < end; ++i) {
      items.push_back({triples[i], MixSeed(123, i)});
    }
    Span span("serve.engine.score_batch");
    router.ScoreBatch(items);
  }
  SetDefaultThreadCount(restore_threads);
  const double engine_us = MicrosPer("serve.engine.score_batch", n);
  result->AddLayer("serve.engine.score_us_per_triple", engine_us, "us", n);
  const serve::EngineStats stats = router.Stats();
  Tracer::Get().Count("serve.engine.cache_hits", static_cast<double>(stats.cache_hits));
  Tracer::Get().Count("serve.engine.cache_misses",
                      static_cast<double>(stats.cache_misses));
  Tracer::Get().Count("serve.engine.memo_hits", static_cast<double>(stats.memo_hits));
  Tracer::Get().Count("serve.engine.memo_misses",
                      static_cast<double>(stats.memo_misses));
  result->AddLayer("serve.engine.admission_us_per_miss",
                   engine_us - MicrosPer("graph.extract", n) -
                       MicrosPer("gnn.packed_forward", n),
                   "us", static_cast<int64_t>(stats.cache_misses));

  // Wire codec: encode + decode of each request and its response.
  const size_t codec_n = std::min<size_t>(in.requests.size(), 2000);
  for (size_t i = 0; i < codec_n; ++i) {
    serve::ScoreRequest request;
    request.request_id = i;
    request.index_offset = i;
    request.triples = in.requests[i];
    serve::ScoreResponse response;
    response.request_id = i;
    response.scores.assign(request.triples.size(), 0.25);
    Span span("serve.protocol.codec");
    serve::ScoreRequest decoded_request;
    serve::ScoreResponse decoded_response;
    const bool ok =
        serve::DecodeScoreRequest(serve::EncodeScoreRequest(request),
                                  &decoded_request) &&
        serve::DecodeScoreResponse(serve::EncodeScoreResponse(response),
                                   &decoded_response);
    if (!ok) result->Check(false, "codec round trip");
  }
  result->AddLayer("serve.protocol.codec_us",
                   MicrosPer("serve.protocol.codec", static_cast<int64_t>(codec_n)),
                   "us", static_cast<int64_t>(codec_n));

  IngestFigures ingest;
  if (!in.chunks.empty()) ingest = ReplayIngest(in, result);
  if (in.ratios_from_ingest) {
    result->AddLayer("serve.engine.cache_hit_ratio", ingest.cache_hit_ratio,
                     "ratio", ingest.lookups);
    result->AddLayer("serve.engine.memo_hit_ratio", ingest.memo_hit_ratio,
                     "ratio", ingest.lookups);
  } else {
    const double lookups =
        static_cast<double>(stats.cache_hits + stats.cache_misses);
    const double memo_lookups =
        static_cast<double>(stats.memo_hits + stats.memo_misses);
    result->AddLayer("serve.engine.cache_hit_ratio",
                     lookups > 0 ? stats.cache_hits / lookups : 0.0, "ratio",
                     static_cast<int64_t>(lookups));
    result->AddLayer("serve.engine.memo_hit_ratio",
                     memo_lookups > 0 ? stats.memo_hits / memo_lookups : 0.0,
                     "ratio", static_cast<int64_t>(memo_lookups));
  }

  if (in.eval_links > 0) {
    core::DekgIlpPredictor predictor(model);
    TimingPredictor timing(&predictor);
    EvalConfig config;
    config.max_links = in.eval_links;
    const double t0 = NowSeconds();
    const EvalResult eval = Evaluate(&timing, *in.dataset, config);
    AddEvalLayers(timing, NowSeconds() - t0, options.threads, eval.overall.num_tasks,
                  result);
    result->Check(timing.non_finite() == 0, "eval replay scores are finite");
  }
}

}  // namespace perfbench
