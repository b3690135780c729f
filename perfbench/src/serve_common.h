// Client-side machinery shared by the served workloads: the open-loop
// sender/receiver pairs, the closed-loop saturation phase, the dataset +
// checkpoint hand-off to dekg_serve, and the server-side layer figures.
#ifndef PERFBENCH_SERVE_COMMON_H_
#define PERFBENCH_SERVE_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "stats.h"

namespace perfbench {

// Splits `triples` into chunks of `chunk_size` in order; at most
// `max_chunks` chunks (0 = all).
std::vector<std::vector<dekg::Triple>> ChunksOf(
    const std::vector<dekg::Triple>& triples, size_t chunk_size,
    size_t max_chunks = 0);

// Writes the dataset directory and the trained model's checkpoint that
// dekg_serve loads. Returns false on I/O failure.
bool WriteServeInputs(const dekg::DekgDataset& dataset,
                      dekg::core::DekgIlpModel* model,
                      const std::string& dir, const std::string& checkpoint);

struct OpenLoopOutcome {
  explicit OpenLoopOutcome(size_t n) : recorder(n), responses(n) {}
  OpenLoopRecorder recorder;
  std::vector<dekg::serve::ScoreResponse> responses;
  int64_t failed = 0;  // transport failures + non-ok statuses
  std::string error;
  double trace_record_s = 0.0;  // time spent recording request spans
};

// Sends requests[i] at origin + due_s[i] (open loop) over `connections`
// connections; request i goes on connection i % connections, each with
// one sender and one receiver thread. `origin_s` is on the steady clock
// (NowSeconds()). Spans "serve.request" carry each request id when
// tracing is on.
void RunOpenLoop(uint16_t port,
                 const std::vector<dekg::serve::ScoreRequest>& requests,
                 const std::vector<double>& due_s, int connections,
                 double origin_s, OpenLoopOutcome* outcome);

// Sends one request and waits for its answer, reading `server`'s CPU
// clock before and after. With nothing else in flight on the server,
// *cpu_ms is the server CPU the request cost; *wall_ms is the client's
// round trip. Returns false on a transport failure or a non-ok status.
bool ScoreOnce(dekg::serve::Client* client, pid_t server,
               const dekg::serve::ScoreRequest& request,
               dekg::serve::ScoreResponse* response, double* cpu_ms,
               double* wall_ms, std::string* error);

// Closed-loop saturation: `connections` clients keep `depth` requests in
// flight each, until every one of `requests` is answered. Returns
// triples scored per second; *failed counts failed requests.
double RunClosedLoop(uint16_t port,
                     const std::vector<dekg::serve::ScoreRequest>& requests,
                     int connections, int depth, int64_t* failed,
                     std::string* error);

// Fetches STATS over a fresh connection.
bool FetchStats(uint16_t port, dekg::serve::StatsResponse* stats);

// serve.batcher.*, serve.transport_ms, serve.engine.cache_bytes_mb and
// serve.server.rss_growth_mb from one server's STATS and RSS readings.
void AddServerLayers(const dekg::serve::StatsResponse& stats,
                     double client_p50_ms, double rss_start_mb,
                     double rss_end_mb, RunResult* result);

// serve.open_loop.p50_ms and serve.open_loop.tail_ms: wall-clock latency
// from each request's due time, as a client at the offered rate sees it.
void AddOpenLoopLayers(const OpenLoopOutcome& outcome, RunResult* result);

// For a workload that does not serve: launches dekg_serve on its world
// and model, sends its requests open loop at `rate_per_s` over one
// connection, and adds the open-loop and server layers.
void MeasureServedLayers(const Options& options,
                         const dekg::DekgDataset& dataset,
                         dekg::core::DekgIlpModel& model,
                         const std::vector<std::vector<dekg::Triple>>& requests,
                         double rate_per_s, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_COMMON_H_
