// serve_score and serve_churn: dekg_serve as a child process on the 1e5-
// entity world, driven by this process.
//
// serve_score: single-triple score requests, no triple repeated within a
// run (neither the score memo nor the subgraph cache can answer). Sent
// one at a time, each timed in the server's CPU time, then a closed-loop
// saturation phase timed the same way. A traced run sends them open loop
// at a fixed offered rate instead, for the wall-clock latency a client
// sees.
//
// serve_churn: dekg_serve --no-emerging; rounds of one ingest of an
// emerging-triple chunk followed by a 50-candidate ranking read of every
// link of a fixed hot set, each timed in the server's CPU time.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <unordered_set>

#include "core/dekg_ilp.h"
#include "layers.h"
#include "serve/client.h"
#include "serve_common.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace dekg;

namespace {

// Brief training of the served model (setup, outside the measured phases).
constexpr int32_t kTrainEpochs = 6;
constexpr int32_t kTrainTriples = 96;
// serve_score: requests per second of --seconds, for the one-at-a-time
// requests (about 10 ms each on a 4-core machine) and the saturation
// phase.
constexpr double kScoreRate = 30.0;
constexpr double kSaturationRate = 35.0;
constexpr size_t kSaturationSlice = 75;  // requests per capacity sample
constexpr int kSaturationDepth = 32;
constexpr size_t kWarmRequests = 20;
// The traced run's offered rate (requests/s, one triple each): about 17%
// of the closed-loop capacity of a 4-core machine (README.md).
constexpr double kOfferedRate = 20.0;
// serve_churn: one round (an ingest, then a read of every hot link) per
// second of --seconds.
constexpr size_t kChunkTriples = 2000;
constexpr size_t kHotLinks = 16;
constexpr int kCandidates = 50;
// The traced run's open-loop hot-set reads after the rounds.
constexpr double kRankRate = 60.0;
constexpr size_t kOpenLoopReads = 120;

struct ServedWorld {
  std::unique_ptr<DekgDataset> dataset;
  std::unique_ptr<core::DekgIlpModel> model;
  TrainReport train;
  std::string dir;
  std::string checkpoint;
};

ServedWorld PrepareWorld(const Options& options, RunResult* result) {
  ServedWorld world;
  world.dataset = std::make_unique<DekgDataset>(MakeServeWorld());
  world.model = std::make_unique<core::DekgIlpModel>(
      ModelConfig(*world.dataset), /*seed=*/1);
  WarmUpPool();
  // The served model is part of the world: trained on the world seed,
  // so every run serves the same model.
  world.train = TrainModel(world.model.get(), *world.dataset, kTrainEpochs,
                           kTrainTriples, kWorldSeed);
  bool finite = true;
  for (double loss : world.train.losses) finite = finite && std::isfinite(loss);
  result->Check(finite, "per-epoch training losses are finite");
  world.dir = options.work_dir + "/world";
  world.checkpoint = options.work_dir + "/model.ckpt";
  result->Check(WriteServeInputs(*world.dataset, world.model.get(), world.dir,
                                 world.checkpoint),
                "write the served world");
  std::printf("world: %d+%d entities, %d relations, %zu train / %zu emerging "
              "triples; trained %d epochs x %lld positives\n",
              world.dataset->num_original_entities(),
              world.dataset->num_emerging_entities(),
              world.dataset->num_relations(),
              world.dataset->train_triples().size(),
              world.dataset->emerging_triples().size(), kTrainEpochs,
              static_cast<long long>(world.train.examples_per_epoch));
  return world;
}

int Connections(const Options& options) {
  // One sender and one receiver thread per connection: at most nproc
  // threads in all.
  return std::max(1, options.threads / 2);
}

// `limit` distinct triples of the inference graph, drawn on the world
// seed: per-triple cost is heavy-tailed on this world (popular entities
// fill the 256-node cap), so every run scores the same set.
std::vector<Triple> UniqueTriples(const DekgDataset& dataset, size_t limit) {
  std::vector<Triple> all = dataset.train_triples();
  all.insert(all.end(), dataset.emerging_triples().begin(),
             dataset.emerging_triples().end());
  Rng rng(kWorldSeed);
  rng.Shuffle(&all);
  std::unordered_set<Triple, TripleHash> seen;
  std::vector<Triple> out;
  for (const Triple& t : all) {
    if (out.size() >= limit) break;
    if (seen.insert(t).second) out.push_back(t);
  }
  return out;
}

serve::ScoreRequest ScoreRequestFor(uint64_t id, uint64_t index_offset,
                                    std::vector<Triple> triples,
                                    bool with_rank) {
  serve::ScoreRequest request;
  request.request_id = id;
  request.seed = 123;
  request.index_offset = index_offset;
  request.with_rank = with_rank;
  request.triples = std::move(triples);
  return request;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void AddCommonMetrics(const ServedWorld& world, double setup_s,
                      double peak_rss_mb, RunResult* result) {
  result->Add("setup_s", setup_s, "s", 1);
  result->Add("peak_rss_mb", peak_rss_mb, "MB", 1);
  result->Add("train_cpu_ms_per_example", world.train.CpuMsPerExample(), "ms",
              world.train.examples_per_epoch * (kTrainEpochs - 1));
}

// op_cpu_p50_ms and op_cpu_tail_ms from per-request server CPU times.
void AddOpCpuMetrics(const std::vector<double>& cpu_ms,
                     const std::vector<double>& wall_ms, RunResult* result) {
  const int64_t n = static_cast<int64_t>(cpu_ms.size());
  const double q = TailQuantileFor(n);
  result->Add("op_cpu_p50_ms", Median(cpu_ms), "ms", n);
  result->Add("op_cpu_tail_ms", Quantile(cpu_ms, q), "ms", n);
  std::printf("requests: %lld one at a time; server CPU p50 %.3f ms, tail "
              "q%.3f %.3f ms; wall round trip p50 %.3f ms, q%.3f %.3f ms\n",
              static_cast<long long>(n), Median(cpu_ms), q,
              Quantile(cpu_ms, q), Median(wall_ms), q, Quantile(wall_ms, q));
}

}  // namespace

RunResult RunServeScore(const Options& options) {
  RunResult result;
  ServedWorld world = PrepareWorld(options, &result);
  const DekgDataset& dataset = *world.dataset;
  // Fixed request counts (from --seconds, never from the seed): every run
  // does the same amount of work.
  const size_t offered_n = static_cast<size_t>(std::lround(
      (options.trace ? 0.75 * kOfferedRate : kScoreRate) * options.seconds));
  const size_t saturation_n =
      options.trace
          ? 0
          : kSaturationSlice *
                std::max<size_t>(1, static_cast<size_t>(std::lround(
                                        kSaturationRate * options.seconds /
                                        kSaturationSlice)));
  std::vector<Triple> pool =
      UniqueTriples(dataset, offered_n + kWarmRequests + saturation_n);
  result.Check(pool.size() == offered_n + kWarmRequests + saturation_n,
               "enough distinct triples for one run");
  // --seed orders the measured requests' triples.
  {
    Rng order(MixSeed(options.seed, 2));
    std::vector<Triple> phase(pool.begin(), pool.begin() + offered_n);
    order.Shuffle(&phase);
    std::copy(phase.begin(), phase.end(), pool.begin());
  }
  std::vector<serve::ScoreRequest> offered, warm, saturation;
  for (size_t i = 0; i < pool.size(); ++i) {
    serve::ScoreRequest r = ScoreRequestFor(i, i, {pool[i]}, false);
    if (i < offered_n) {
      offered.push_back(std::move(r));
    } else if (i < offered_n + kWarmRequests) {
      warm.push_back(std::move(r));
    } else {
      saturation.push_back(std::move(r));
    }
  }

  Progress("world ready");
  ServerProcess server;
  double setup_s = 0.0;
  std::string error;
  if (!server.Launch(options.serve_bin, world.dir, world.checkpoint, {},
                     options.work_dir, &setup_s, &error)) {
    result.Check(false, "launch dekg_serve: " + error);
    return result;
  }
  const double rss_start = CurrentRssMb(server.pid());
  const int connections = Connections(options);

  // Warm-up (not recorded): connection, server threads, first pages.
  {
    Tracer::Get().set_enabled(false);
    serve::Client client;
    bool ok = client.Connect("127.0.0.1", server.port(), &error);
    for (size_t i = 0; ok && i < warm.size(); ++i) {
      serve::ScoreResponse response;
      double cpu_ms = 0.0, wall_ms = 0.0;
      ok = ScoreOnce(&client, server.pid(), warm[i], &response, &cpu_ms,
                     &wall_ms, &error);
    }
    Tracer::Get().set_enabled(options.trace);
    result.Check(ok, "warm-up requests succeed: " + error);
  }

  std::vector<serve::ScoreResponse> responses(offered.size());
  std::vector<double> cpu_ms, wall_ms;
  OpenLoopOutcome outcome(options.trace ? offered.size() : 0);
  double offered_s = 0.0;
  int64_t offered_failed = 0;
  if (options.trace) {
    // Open loop at the offered rate: the wall-clock latency a client sees.
    const std::vector<double> schedule =
        PoissonSchedule(MixSeed(options.seed, 1), kOfferedRate, offered.size());
    const double origin = NowSeconds() + 0.01;
    RunOpenLoop(server.port(), offered, schedule, connections, origin, &outcome);
    offered_s = NowSeconds() - origin;
    responses = outcome.responses;
    offered_failed = outcome.failed;
    error = outcome.error;
  }

  // Untraced: blocks of one-at-a-time requests, each request timed in the
  // server's CPU time, between fixed slices of closed-loop saturation
  // requests, each slice timed in server CPU time per triple. The blocks
  // spread the one-at-a-time samples over the whole measured phase, so a
  // slow spell of the host moves a share of them, not all.
  const size_t slices = saturation.size() / kSaturationSlice;
  serve::Client client;
  const bool connected =
      slices > 0 && client.Connect("127.0.0.1", server.port(), &error);
  int64_t saturation_failed = 0;
  std::vector<double> slice_cpu_ms, slice_tps;
  size_t next = 0;
  for (size_t k = 0; k < slices; ++k) {
    for (const size_t end = offered.size() * (k + 1) / slices; next < end;
         ++next) {
      double cpu = 0.0, wall = 0.0;
      if (connected && ScoreOnce(&client, server.pid(), offered[next],
                                 &responses[next], &cpu, &wall, &error)) {
        cpu_ms.push_back(cpu);
        wall_ms.push_back(wall);
      } else {
        ++offered_failed;
      }
    }
    const std::vector<serve::ScoreRequest> slice(
        saturation.begin() + static_cast<std::ptrdiff_t>(k * kSaturationSlice),
        saturation.begin() + static_cast<std::ptrdiff_t>((k + 1) * kSaturationSlice));
    int64_t failed = 0;
    const double cpu0 = CpuSeconds(server.pid());
    slice_tps.push_back(RunClosedLoop(server.port(), slice, connections,
                                      kSaturationDepth, &failed, &error));
    slice_cpu_ms.push_back((CpuSeconds(server.pid()) - cpu0) * 1e3 /
                           static_cast<double>(slice.size()));
    saturation_failed += failed;
  }
  client.Close();
  serve::StatsResponse after_offered;
  result.Check(FetchStats(server.port(), &after_offered), "STATS");
  result.attempted += static_cast<int64_t>(offered.size() + saturation.size());
  result.failed += offered_failed + saturation_failed;
  result.Check(offered_failed == 0,
               "every score request is answered ok: " + error);
  result.Check(saturation_failed == 0,
               "every saturation request is answered ok: " + error);

  // Served scores must be bit-identical to the offline predictor on the
  // static inference graph for the same streams (request i carries
  // index_offset i, the stream offline triple i draws).
  {
    const size_t n = std::min<size_t>(64, offered.size());
    std::vector<Triple> sample(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(n));
    core::DekgIlpPredictor predictor(world.model.get());
    const std::vector<double> offline =
        predictor.ScoreTriples(dataset.inference_graph(), sample);
    bool same = true;
    for (size_t i = 0; i < n; ++i) {
      same = same && responses[i].scores.size() == 1 &&
             SameBits(responses[i].scores[0], offline[i]);
    }
    result.Check(same, "served scores equal offline ScoreTriples bit for bit");
  }

  const double peak_rss = PeakRssMb(server.pid());
  const double rss_end = CurrentRssMb(server.pid());
  result.Check(server.Shutdown(), "dekg_serve shuts down cleanly");

  AddCommonMetrics(world, setup_s, peak_rss, &result);
  if (!options.trace) {
    result.Add("cpu_ms_per_triple", Median(slice_cpu_ms), "ms",
               static_cast<int64_t>(slice_cpu_ms.size()));
    AddOpCpuMetrics(cpu_ms, wall_ms, &result);
    std::printf("saturation: %zu requests in slices of %zu, server CPU %.3f "
                "ms/triple, %.1f triples/s (wall, median slice)\n",
                saturation.size(), kSaturationSlice, Median(slice_cpu_ms),
                Median(slice_tps));
  }

  Progress("measured");
  if (options.trace) {
    AddOpenLoopLayers(outcome, &result);
    AddServerLayers(after_offered, Median(outcome.recorder.LatenciesMs()),
                    rss_start, rss_end, &result);
    LayerInputs in;
    in.model = world.model.get();
    in.dataset = &dataset;
    in.graph = &dataset.inference_graph();
    for (const serve::ScoreRequest& r : offered) in.requests.push_back(r.triples);
    in.batch = std::max<int32_t>(
        1, static_cast<int32_t>(std::lround(
               after_offered.batches_scored > 0
                   ? static_cast<double>(after_offered.triples_scored) /
                         after_offered.batches_scored
                   : 1.0)));
    in.chunks = ChunksOf(dataset.emerging_triples(), kChunkTriples, 3);
    in.hot = {std::vector<Triple>(pool.begin(), pool.begin() + 16)};
    in.eval_links = 4;
    MeasureLayers(in, options, &result);
    // Spans of the open-loop phase are recorded after it ends, so the
    // overhead inside the measured phase is their recording time.
    result.AddLayer("trace.overhead_pct",
                    outcome.trace_record_s / offered_s * 100.0, "%",
                    static_cast<int64_t>(offered.size()));
  }
  return result;
}

RunResult RunServeChurn(const Options& options) {
  RunResult result;
  ServedWorld world = PrepareWorld(options, &result);
  const DekgDataset& dataset = *world.dataset;
  // One round per second of the budget; chunks in file order.
  const size_t rounds = static_cast<size_t>(
      std::max(1.0, std::round(options.seconds)));
  const std::vector<std::vector<Triple>> chunks =
      ChunksOf(dataset.emerging_triples(), kChunkTriples, rounds);
  std::vector<Triple> sent_triples;
  for (const auto& chunk : chunks) {
    sent_triples.insert(sent_triples.end(), chunk.begin(), chunk.end());
  }

  // The hot set: kHotLinks test links, each ranked against 49 tail
  // corruptions, drawn on the world seed (a fixed hot set).
  std::vector<std::vector<Triple>> hot;
  {
    Rng rng(kWorldSeed);
    std::vector<LabeledLink> links = dataset.test_links();
    rng.Shuffle(&links);
    for (size_t l = 0; l < kHotLinks && l < links.size(); ++l) {
      std::vector<Triple> request = {links[l].triple};
      while (static_cast<int>(request.size()) < kCandidates) {
        Triple t = links[l].triple;
        t.tail = static_cast<EntityId>(
            rng.UniformUint64(static_cast<uint64_t>(dataset.num_total_entities())));
        if (t.tail != t.head && !(t == links[l].triple)) request.push_back(t);
      }
      hot.push_back(std::move(request));
    }
  }

  Progress("world ready");
  ServerProcess server;
  double setup_s = 0.0;
  std::string error;
  if (!server.Launch(options.serve_bin, world.dir, world.checkpoint,
                     {"--no-emerging"}, options.work_dir, &setup_s, &error)) {
    result.Check(false, "launch dekg_serve: " + error);
    return result;
  }
  const double rss_start = CurrentRssMb(server.pid());
  serve::Client client;
  result.Check(client.Connect("127.0.0.1", server.port(), &error),
               "connect: " + error);

  // Warm-up: the hot set once, so its cache entries are resident.
  for (size_t h = 0; h < hot.size(); ++h) {
    serve::ScoreResponse response;
    double cpu = 0.0, wall = 0.0;
    result.Check(ScoreOnce(&client, server.pid(), ScoreRequestFor(h, 0, hot[h], true),
                           &response, &cpu, &wall, &error),
                 "warm-up read: " + error);
  }

  // Rounds: ingest one chunk, then read every hot link once, in an order
  // drawn from --seed. Every read follows an ingest that flushed the memo
  // and patched, repaired or invalidated the hot set's cached subgraphs.
  std::vector<double> ingest_cpu_ms, ingest_wall_ms, read_cpu_ms, read_wall_ms;
  uint64_t accepted = 0;
  int64_t failed = 0;
  bool ranked = true;
  for (size_t k = 0; k < chunks.size(); ++k) {
    serve::IngestRequest request;
    request.request_id = k;
    request.triples = chunks[k];
    serve::IngestResponse response;
    const double cpu0 = CpuSeconds(server.pid());
    const double t0 = NowSeconds();
    const bool ok = client.Ingest(request, &response, &error);
    ingest_wall_ms.push_back((NowSeconds() - t0) * 1e3);
    ingest_cpu_ms.push_back((CpuSeconds(server.pid()) - cpu0) * 1e3 /
                            static_cast<double>(chunks[k].size()));
    if (Tracer::Get().enabled()) {
      Tracer::Get().AddSpan("serve.ingest", k, t0, NowSeconds());
    }
    if (!ok || response.status != serve::Status::kOk) {
      ++failed;
    } else {
      accepted += response.accepted;
    }
    std::vector<size_t> order(hot.size());
    for (size_t h = 0; h < order.size(); ++h) order[h] = h;
    Rng rng(MixSeed(options.seed, k));
    rng.Shuffle(&order);
    for (size_t h : order) {
      serve::ScoreResponse read;
      double cpu = 0.0, wall = 0.0;
      if (ScoreOnce(&client, server.pid(),
                    ScoreRequestFor(k * hot.size() + h, 0, hot[h], true), &read,
                    &cpu, &wall, &error)) {
        read_cpu_ms.push_back(cpu);
        read_wall_ms.push_back(wall);
        ranked = ranked && read.has_rank && read.rank >= 1.0 &&
                 read.rank <= kCandidates;
      } else {
        ++failed;
      }
    }
  }
  result.attempted += static_cast<int64_t>(chunks.size() * (1 + hot.size()));
  result.failed += failed;
  result.Check(failed == 0, "every ingest and read is answered ok: " + error);
  result.Check(accepted == sent_triples.size(),
               "summed accepted equals the emerging triples sent");
  result.Check(ranked, "every read carries a rank in [1, candidates]");

  serve::StatsResponse stats;
  result.Check(FetchStats(server.port(), &stats), "STATS");
  result.Check(stats.epoch == chunks.size(),
               "STATS epoch equals the ingest requests sent");

  // After the last ingest the hot set must score and rank exactly as the
  // offline predictor does on the static inference graph: the train
  // graph plus every emerging triple sent, built in one piece.
  KnowledgeGraph oracle(dataset.num_total_entities(), dataset.num_relations());
  oracle.AddTriples(dataset.train_triples());
  oracle.AddTriples(sent_triples);
  oracle.Build();
  {
    core::DekgIlpPredictor predictor(world.model.get());
    bool same = true;
    for (size_t h = 0; h < hot.size(); ++h) {
      serve::ScoreResponse response;
      same = same && client.Score(ScoreRequestFor(h, 0, hot[h], true),
                                  &response, &error);
      const std::vector<double> offline =
          predictor.ScoreTriples(oracle, hot[h]);
      same = same && response.scores.size() == offline.size();
      for (size_t i = 0; same && i < offline.size(); ++i) {
        same = SameBits(response.scores[i], offline[i]);
      }
      const std::vector<double> negatives(offline.begin() + 1, offline.end());
      same = same && response.has_rank &&
             SameBits(response.rank, RankOf(offline[0], negatives));
    }
    result.Check(same, "post-ingest hot-set scores and ranks equal offline");
  }
  client.Close();

  // Traced run: open-loop hot-set reads after the rounds, for the
  // wall-clock latency a client sees.
  OpenLoopOutcome outcome(options.trace ? kOpenLoopReads : 0);
  double open_loop_s = 0.0;
  if (options.trace) {
    std::vector<serve::ScoreRequest> reads;
    for (size_t i = 0; i < kOpenLoopReads; ++i) {
      reads.push_back(ScoreRequestFor(i, 0, hot[i % hot.size()], true));
    }
    const double origin = NowSeconds() + 0.01;
    RunOpenLoop(server.port(), reads,
                PoissonSchedule(MixSeed(options.seed, 4), kRankRate, reads.size()),
                Connections(options), origin, &outcome);
    open_loop_s = NowSeconds() - origin;
    result.Check(outcome.failed == 0,
                 "every open-loop read is answered ok: " + outcome.error);
  }

  const double peak_rss = PeakRssMb(server.pid());
  const double rss_end = CurrentRssMb(server.pid());
  result.Check(server.Shutdown(), "dekg_serve shuts down cleanly");

  AddCommonMetrics(world, setup_s, peak_rss, &result);
  result.Add("cpu_ms_per_triple", Median(ingest_cpu_ms), "ms",
             static_cast<int64_t>(ingest_cpu_ms.size()));
  AddOpCpuMetrics(read_cpu_ms, read_wall_ms, &result);
  std::printf("ingest: %zu chunks of %zu, server CPU %.4f ms/triple, wall "
              "p50 %.1f ms, max %.1f ms\n",
              chunks.size(), kChunkTriples, Median(ingest_cpu_ms),
              Median(ingest_wall_ms), Quantile(ingest_wall_ms, 1.0));

  Progress("measured");
  if (options.trace) {
    AddOpenLoopLayers(outcome, &result);
    // STATS were read after the rounds, before the open-loop reads, so
    // the transport figure compares them with the rounds' round trips.
    AddServerLayers(stats, Median(read_wall_ms), rss_start, rss_end, &result);
    LayerInputs in;
    in.model = world.model.get();
    in.dataset = &dataset;
    in.graph = &oracle;
    in.requests = hot;
    in.batch = kCandidates;
    // The first chunks are enough for per-chunk means.
    in.chunks.assign(chunks.begin(),
                     chunks.begin() + std::min<std::ptrdiff_t>(
                                          8, static_cast<std::ptrdiff_t>(chunks.size())));
    in.hot = hot;
    in.eval_links = 4;
    in.ratios_from_ingest = true;
    MeasureLayers(in, options, &result);
    result.AddLayer("trace.overhead_pct",
                    outcome.trace_record_s / open_loop_s * 100.0, "%",
                    static_cast<int64_t>(kOpenLoopReads));
  }
  return result;
}

}  // namespace perfbench
