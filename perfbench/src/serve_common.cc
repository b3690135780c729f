#include "serve_common.h"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/rng.h"
#include "kg/dataset_io.h"
#include "trace.h"

namespace perfbench {

using namespace dekg;

namespace {

void SleepUntil(double t_s) {
  const double now = NowSeconds();
  if (t_s > now) {
    std::this_thread::sleep_for(std::chrono::duration<double>(t_s - now));
  }
}

}  // namespace

std::vector<std::vector<Triple>> ChunksOf(const std::vector<Triple>& triples,
                                          size_t chunk_size,
                                          size_t max_chunks) {
  std::vector<std::vector<Triple>> chunks;
  for (size_t begin = 0; begin < triples.size(); begin += chunk_size) {
    if (max_chunks > 0 && chunks.size() >= max_chunks) break;
    const size_t end = std::min(triples.size(), begin + chunk_size);
    chunks.emplace_back(triples.begin() + static_cast<std::ptrdiff_t>(begin),
                        triples.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return chunks;
}

bool WriteServeInputs(const DekgDataset& dataset, core::DekgIlpModel* model,
                      const std::string& dir, const std::string& checkpoint) {
  ::mkdir(dir.c_str(), 0755);
  SaveDekgDatasetDir(dataset, dir);
  return model->SaveCheckpoint(checkpoint);
}

void RunOpenLoop(uint16_t port, const std::vector<serve::ScoreRequest>& requests,
                 const std::vector<double>& due_s, int connections,
                 double origin_s, OpenLoopOutcome* outcome) {
  std::vector<std::unique_ptr<serve::Client>> clients;
  for (int c = 0; c < connections; ++c) {
    clients.push_back(std::make_unique<serve::Client>());
    std::string error;
    if (!clients.back()->Connect("127.0.0.1", port, &error)) {
      outcome->error = "connect: " + error;
      outcome->failed = static_cast<int64_t>(requests.size());
      return;
    }
  }
  std::atomic<int64_t> failed{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    serve::Client* client = clients[static_cast<size_t>(c)].get();
    threads.emplace_back([&, client, c] {
      for (size_t i = static_cast<size_t>(c); i < requests.size();
           i += static_cast<size_t>(connections)) {
        SleepUntil(origin_s + due_s[i]);
        const double sent = NowSeconds() - origin_s;
        std::string error;
        if (!client->SendScore(requests[i], &error)) {
          // Closing the socket unblocks this connection's receiver, which
          // counts every request it is still waiting for as failed.
          client->Close();
          return;
        }
        outcome->recorder.RecordSend(i, due_s[i], sent);
      }
    });
    threads.emplace_back([&, client, c] {
      for (size_t i = static_cast<size_t>(c); i < requests.size();
           i += static_cast<size_t>(connections)) {
        std::string error;
        serve::ScoreResponse& response = outcome->responses[i];
        if (!client->ReceiveScore(&response, &requests[i].request_id,
                                  &error)) {
          failed += static_cast<int64_t>(
              (requests.size() - i + static_cast<size_t>(connections) - 1) /
              static_cast<size_t>(connections));
          return;
        }
        outcome->recorder.RecordDone(i, NowSeconds() - origin_s);
        if (response.status != serve::Status::kOk) failed += 1;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  outcome->failed = failed.load();
  if (Tracer::Get().enabled()) {
    const double record_start = NowSeconds();
    // One span per answered request, from its due time to its answer.
    for (size_t i = 0; i < requests.size(); ++i) {
      const double done = outcome->recorder.done(i);
      if (done != done) continue;  // never answered
      Tracer::Get().AddSpan("serve.request", requests[i].request_id,
                            origin_s + due_s[i], origin_s + done);
    }
    outcome->trace_record_s = NowSeconds() - record_start;
  }
}

bool ScoreOnce(serve::Client* client, pid_t server,
               const serve::ScoreRequest& request,
               serve::ScoreResponse* response, double* cpu_ms,
               double* wall_ms, std::string* error) {
  const double cpu0 = CpuSeconds(server);
  const double t0 = NowSeconds();
  const bool ok = client->Score(request, response, error);
  *wall_ms = (NowSeconds() - t0) * 1e3;
  *cpu_ms = (CpuSeconds(server) - cpu0) * 1e3;
  if (Tracer::Get().enabled()) {
    Tracer::Get().AddSpan("serve.request", request.request_id, t0, NowSeconds());
  }
  if (ok && response->status != serve::Status::kOk) {
    *error = std::string("status ") + serve::StatusName(response->status) +
             ": " + response->error;
  }
  return ok && response->status == serve::Status::kOk && std::isfinite(*cpu_ms);
}

double RunClosedLoop(uint16_t port,
                     const std::vector<serve::ScoreRequest>& requests,
                     int connections, int depth, int64_t* failed,
                     std::string* error) {
  std::atomic<size_t> cursor{0};
  std::atomic<int64_t> triples{0}, bad{0};
  const double start = NowSeconds();
  std::vector<std::thread> threads;
  std::vector<std::string> errors(static_cast<size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      serve::Client client;
      std::string& err = errors[static_cast<size_t>(c)];
      if (!client.Connect("127.0.0.1", port, &err)) {
        bad += 1;
        return;
      }
      for (;;) {
        const size_t begin = cursor.fetch_add(static_cast<size_t>(depth));
        if (begin >= requests.size()) return;
        const size_t end =
            std::min(requests.size(), begin + static_cast<size_t>(depth));
        std::vector<serve::ScoreRequest> window(
            requests.begin() + static_cast<std::ptrdiff_t>(begin),
            requests.begin() + static_cast<std::ptrdiff_t>(end));
        std::vector<serve::ScoreResponse> responses;
        if (!client.ScorePipelined(window, window.size(), &responses, &err)) {
          bad += static_cast<int64_t>(window.size());
          return;
        }
        for (size_t i = 0; i < responses.size(); ++i) {
          if (responses[i].status != serve::Status::kOk) bad += 1;
          triples += static_cast<int64_t>(window[i].triples.size());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = NowSeconds() - start;
  *failed = bad.load();
  for (const std::string& e : errors) {
    if (!e.empty()) *error = e;
  }
  return static_cast<double>(triples.load()) / elapsed;
}

bool FetchStats(uint16_t port, serve::StatsResponse* stats) {
  serve::Client client;
  std::string error;
  return client.Connect("127.0.0.1", port, &error) &&
         client.Stats(stats, &error) && stats->status == serve::Status::kOk;
}

void AddServerLayers(const serve::StatsResponse& stats, double client_p50_ms,
                     double rss_start_mb, double rss_end_mb,
                     RunResult* result) {
  result->AddLayer("serve.batcher.mean_batch_triples",
                   stats.batches_scored > 0
                       ? static_cast<double>(stats.triples_scored) /
                             static_cast<double>(stats.batches_scored)
                       : 0.0,
                   "count", static_cast<int64_t>(stats.batches_scored));
  result->AddLayer("serve.batcher.p50_ms", stats.latency_p50_ms, "ms",
                   static_cast<int64_t>(stats.latency_samples));
  result->AddLayer("serve.transport_ms", client_p50_ms - stats.latency_p50_ms,
                   "ms", static_cast<int64_t>(stats.latency_samples));
  result->AddLayer("serve.engine.cache_bytes_mb",
                   static_cast<double>(stats.cache_bytes) / (1024.0 * 1024.0),
                   "MB", static_cast<int64_t>(stats.cache_entries));
  result->AddLayer("serve.server.rss_growth_mb", rss_end_mb - rss_start_mb,
                   "MB", 2);
}

void AddOpenLoopLayers(const OpenLoopOutcome& outcome, RunResult* result) {
  const std::vector<double> ms = outcome.recorder.LatenciesMs();
  const int64_t n = static_cast<int64_t>(ms.size());
  const double q = TailQuantileFor(n);
  result->AddLayer("serve.open_loop.p50_ms", Median(ms), "ms", n);
  result->AddLayer("serve.open_loop.tail_ms", Quantile(ms, q), "ms", n);
  std::printf("open loop: %lld answered, wall p50 %.3f ms, tail q%.3f %.3f "
              "ms, generator lateness p99 %.3f ms\n",
              static_cast<long long>(n), Median(ms), q, Quantile(ms, q),
              Quantile(outcome.recorder.LatenessMs(), 0.99));
}

void MeasureServedLayers(const Options& options, const DekgDataset& dataset,
                         core::DekgIlpModel& model,
                         const std::vector<std::vector<Triple>>& requests,
                         double rate_per_s, RunResult* result) {
  const std::string dir = options.work_dir + "/served-world";
  const std::string checkpoint = options.work_dir + "/served-model.ckpt";
  result->Check(WriteServeInputs(dataset, &model, dir, checkpoint),
                "write the served world");
  ServerProcess server;
  double setup_s = 0.0;
  std::string error;
  if (!server.Launch(options.serve_bin, dir, checkpoint, {}, options.work_dir,
                     &setup_s, &error)) {
    result->Check(false, "launch dekg_serve: " + error);
    return;
  }
  const double rss_start = CurrentRssMb(server.pid());
  std::vector<serve::ScoreRequest> sent;
  for (size_t i = 0; i < requests.size(); ++i) {
    serve::ScoreRequest request;
    request.request_id = i;
    request.triples = requests[i];
    sent.push_back(std::move(request));
  }
  OpenLoopOutcome outcome(sent.size());
  RunOpenLoop(server.port(), sent,
              PoissonSchedule(MixSeed(options.seed, 9), rate_per_s, sent.size()),
              /*connections=*/1, NowSeconds() + 0.01, &outcome);
  result->Check(outcome.failed == 0,
                "served replay requests are answered ok: " + outcome.error);
  serve::StatsResponse stats;
  result->Check(FetchStats(server.port(), &stats), "served replay STATS");
  AddOpenLoopLayers(outcome, result);
  AddServerLayers(stats, Median(outcome.recorder.LatenciesMs()), rss_start,
                  CurrentRssMb(server.pid()), result);
  result->Check(server.Shutdown(), "dekg_serve shuts down cleanly");
}

}  // namespace perfbench
