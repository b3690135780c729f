// Inference engine of the online scoring server (DESIGN.md §9, §14).
//
// Owns the frozen DEKG-ILP model pointer and a shard's subgraph cache
// with its per-entry maintenance labels; reads graph + CLRM rows from an
// epoch-tagged immutable snapshot (serve/snapshot.h). Two modes share
// all scoring code:
//
//  * Standalone (PR 4–7 shape): the engine owns its SnapshotWriter.
//    Ingest applies the batch and catches the cache up synchronously,
//    so the public behavior — response counters included — is exactly
//    the pre-sharding engine's.
//  * Follower (one shard of a serve::Router): the engine borrows a
//    shared SnapshotWriter. It never ingests; at the start of every
//    ScoreBatch it loads the current snapshot and, if epochs advanced
//    since it last looked, collapses the missed IngestDeltas into one
//    combined batch and runs the PR-7 cache maintenance against it.
//    Collapsing is sound because ingest only adds edges: the snapshot
//    graph equals the cached graph plus the combined batch, which is
//    precisely the situation the patch/repair/fallback predicate
//    handles (DESIGN.md §13).
//
// Three operations, all invoked from one thread at a time (the
// scheduler thread, or one router fan-out worker per shard):
//
//  * ScoreBatch — scores a micro-batch of triples against the current
//    snapshot. Cache lookups and insertions are serial (index order);
//    extraction of misses and model scoring fan out over the PR-1
//    thread pool with read-only shared state, so results are
//    bit-identical at any thread count.
//  * CatchUpCache — the ingest-side cache maintenance, factored out so
//    the router can run it synchronously per shard (deterministic
//    server mode) or let each shard self-serve lazily.
//  * Stats — counter snapshot.
//
// Determinism contract: a triple scored with stream seed s produces the
// same bits as DekgIlpPredictor scoring it at an index i with
// MixSeed(123, i) == s against the statically built equivalent graph —
// regardless of micro-batch composition, cache state, shard assignment,
// or thread count. The CLRM fast path (ScoreEmbedded over materialized
// fusion rows) applies the identical op sequence to identical inputs;
// cached, patched, and fresh extractions are identical by determinism
// of extraction.
#ifndef DEKG_SERVE_ENGINE_H_
#define DEKG_SERVE_ENGINE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/dekg_ilp.h"
#include "graph/subgraph.h"
#include "serve/live_graph.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"

namespace dekg::serve {

struct EngineConfig {
  // Maximum resident cached subgraphs (0 = unlimited), enforced FIFO by
  // the engine so every removal also drops the entry's maintenance labels.
  int64_t cache_capacity = 4096;
  LiveGraphConfig live_graph;
  // Packed-batch assembly for GSM scoring (ScoreBatch Phase 3): every
  // item's subgraph is in hand by then, so groups run through
  // Gsm::ScoreSubgraphsPacked — one block-diagonal GNN forward per
  // group. Bitwise transparent (DESIGN.md §11); max_batch <= 1 restores
  // the per-item path.
  core::GsmBatchOptions gsm_batch;
  // In-place maintenance of affected cached subgraphs on ingest (patch /
  // repair, with fallback invalidation only on membership change). False
  // restores PR-4 invalidate-on-ingest — under sustained DEKG churn that
  // degenerates into a miss storm where re-extraction dominates scoring
  // latency (bench_churn measures the gap). Scores are bit-identical
  // either way.
  bool patch_cache = true;
  // Score memo: finished scores keyed by (triple, item seed), valid for
  // one snapshot epoch (flushed whenever the cache catches up to a newer
  // epoch, since scores depend on the graph). A score is a pure function
  // of (triple, seed, snapshot graph) — the engine determinism contract
  // — so replaying the stored double is bit-identical to recomputing it,
  // and repeated hot queries skip the GNN forward entirely. Capacity is
  // a hard bound on resident entries; when full, new scores are simply
  // not memoized (no eviction, so hit/miss behavior is a pure function
  // of the request history). 0 disables the memo — benches and tests
  // that measure the subgraph-cache path itself set 0.
  int64_t score_memo_capacity = 1 << 16;
  // Storage precision of the frozen serving model (DESIGN.md §15). fp32
  // is the exact mode — bit-identical to offline Evaluate, the
  // repository determinism contract. fp16/int8 quantize the materialized
  // CLRM fusion rows and the R-GCN dense transforms at engine startup
  // (the fp32 copies are dropped — that is the footprint reduction) and
  // score through quant/qkernels.h. Quantized scores are epsilon-gated
  // against fp32 (tests/quant_gate_test.cc) but remain bit-deterministic
  // across thread counts, batch compositions, and shard assignments.
  // Quantized GSM scoring always uses the tape-free packed path — the
  // per-item Var path stays fp32-only.
  quant::Precision precision = quant::Precision::kFp32;
};

// One unit of scoring work: the triple plus its fully derived Rng stream
// seed (MixSeed(request_seed, index_within_request) — derived by the
// batcher, so scores cannot depend on micro-batch composition).
struct ScoreItem {
  Triple triple;
  uint64_t seed = 0;
};

struct EngineStats {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_entries = 0;
  uint64_t cache_evictions = 0;    // capacity-driven removals
  uint64_t cache_invalidated = 0;  // ingest-driven removals
  uint64_t cache_patched = 0;      // ingest patches with unchanged labels
  uint64_t cache_repaired = 0;     // ingest patches that re-relaxed labels
  uint64_t cache_fallback = 0;     // membership changed: invalidated for
                                   // full re-extraction
  uint64_t cache_bytes = 0;
  uint64_t graph_triples = 0;
  uint64_t graph_entities = 0;
  uint64_t ingested_triples = 0;
  uint64_t embedding_refreshes = 0;  // CLRM rows recomputed after startup
  uint64_t memo_hits = 0;            // scores replayed from the memo
  uint64_t memo_misses = 0;          // scores that ran the full pipeline
  uint64_t memo_entries = 0;         // resident memoized scores
  // Frozen-model accounting (protocol v4): storage precision of the
  // frozen model (quant::Precision numeric value) and the byte footprint
  // of the materialized fusion rows / R-GCN dense transforms at that
  // precision.
  uint8_t precision = 0;
  uint64_t frozen_row_bytes = 0;
  uint64_t frozen_weight_bytes = 0;
};

class InferenceEngine {
 public:
  // Standalone mode. `model` must outlive the engine and is treated as
  // frozen (read-only). `base` is the built graph the server starts from
  // (offline: the train split). Materializes the CLRM embedding table at
  // construction, parallelized over entities.
  InferenceEngine(core::DekgIlpModel* model, KnowledgeGraph base,
                  const EngineConfig& config);

  // Follower mode: one shard of a router. `writer` is shared with the
  // other shards and must outlive the engine; this engine never calls
  // its Ingest. Starts caught up to the writer's current epoch (the
  // cache is empty, so there is nothing to maintain).
  InferenceEngine(core::DekgIlpModel* model, SnapshotWriter* writer,
                  const EngineConfig& config);

  // Writer-side graph view (serialize externally against ingest).
  const KnowledgeGraph& graph() const { return writer_->live(); }

  // Scoring-side validation (relation vocabulary, entity space).
  Status ValidateScore(const std::vector<Triple>& triples,
                       std::string* error) const {
    return ValidateTriplesForScoring(writer_->live(), triples, error);
  }

  // Scores every item against the current snapshot, catching the cache
  // up first if ingest epochs landed since the last batch. Items must
  // have passed validation against that snapshot (or an earlier one —
  // the graph only grows).
  std::vector<double> ScoreBatch(const std::vector<ScoreItem>& items);

  // Applies an emerging-triple batch (standalone mode only). Fills every
  // response field (including error/status); the graph is unchanged on
  // rejection. Cache maintenance runs synchronously, exactly as before
  // sharding.
  void Ingest(const std::vector<Triple>& triples, IngestResponse* response);

  // Brings the cache up to `snap`'s epoch: collapses the missed deltas
  // into one combined batch and patches / repairs / drops exactly the
  // affected resident entries. When `response` is non-null the
  // invalidated/patched/repaired counters are ADDED to it (the router
  // accumulates one response across shards). No-op when already caught
  // up.
  void CatchUpCache(const GraphSnapshot& snap, IngestResponse* response);

  uint64_t caught_up_epoch() const { return caught_up_epoch_; }

  EngineStats Stats() const;

  // Test hook: the materialized CLRM fusion row for an entity
  // (writer-side; serialize externally against ingest).
  const Tensor& EntityEmbedding(EntityId e) const { return writer_->Row(e); }

 private:
  // Everything the engine keeps per resident cached subgraph besides the
  // payload itself: the sparse blocked-BFS labels over the touched set
  // (what ingest-patching re-relaxes) and the insertion sequence number
  // that pairs the entry with its live FIFO queue slot.
  struct CachedMeta {
    TouchedLabels labels;
    uint64_t seq = 0;
  };
  struct FifoSlot {
    Triple triple;
    uint64_t seq = 0;
  };

  // (triple, derived item seed): exactly the inputs a score depends on
  // besides the snapshot graph, which the memo epoch-flush accounts for.
  struct MemoKey {
    Triple triple;
    uint64_t seed = 0;
    bool operator==(const MemoKey& o) const {
      return triple == o.triple && seed == o.seed;
    }
  };
  struct MemoKeyHash {
    size_t operator()(const MemoKey& k) const {
      const size_t h = TripleHash{}(k.triple);
      return h ^ (static_cast<size_t>(k.seed) * 0x9E3779B97F4A7C15ull + (h << 6));
    }
  };

  // The full scoring pipeline (cache lookup / extract / GNN / admit)
  // against one pinned snapshot — everything ScoreBatch did before the
  // memo front-end.
  std::vector<double> ScoreBatchAgainstSnapshot(
      const GraphSnapshot& snap, const std::vector<ScoreItem>& items);

  // Removes one cached key and its maintenance labels.
  void RemoveCached(const Triple& key);
  // FIFO-evicts until the resident count fits the capacity.
  void EnforceCapacity();

  core::DekgIlpModel* model_;
  EngineConfig config_;
  std::unique_ptr<SnapshotWriter> owned_writer_;  // standalone mode only
  SnapshotWriter* writer_;                        // always valid

  // Quantized R-GCN dense transforms, built once at construction when
  // config_.precision != fp32 and the model has a GSM (null otherwise).
  // Each engine owns its copy — weights are per-model, not per-shard
  // state, and the duplication is small next to the fusion rows.
  std::unique_ptr<quant::RgcnQuantWeights> qweights_;

  // The snapshot epoch the cache state is consistent with: every
  // resident entry's labels are a fresh blocked-BFS fixpoint against the
  // graph at this epoch.
  uint64_t caught_up_epoch_ = 0;

  // Subgraph cache (unlimited; capacity enforced here) plus the
  // maintenance bookkeeping. key_meta_ holds each resident key's sparse
  // labels + sequence number; CatchUpCache scans it for the entries an
  // ingest affects. fifo_ may hold stale slots (keys invalidated —
  // possibly re-inserted under a newer sequence — before eviction);
  // EnforceCapacity skips any slot whose sequence no longer matches the
  // resident entry, so a re-inserted key ages from its re-insertion and
  // effective capacity is never undercounted.
  SubgraphCache cache_{0};
  std::deque<FifoSlot> fifo_;
  std::unordered_map<Triple, CachedMeta, TripleHash> key_meta_;

  // Reusable stamped workspace for the single-writer ingest-patch path's
  // label rebuilds (CatchUpCache only; never shared with the read path).
  SubgraphWorkspace patch_workspace_;

  // Finished-score memo for the caught-up epoch (see
  // EngineConfig::score_memo_capacity). Flushed by CatchUpCache on every
  // epoch advance.
  std::unordered_map<MemoKey, double, MemoKeyHash> memo_;
  uint64_t memo_hits_ = 0;
  uint64_t memo_misses_ = 0;

  uint64_t insert_seq_ = 0;
  uint64_t evictions_ = 0;
  uint64_t invalidated_ = 0;
  uint64_t patched_ = 0;
  uint64_t repaired_ = 0;
  uint64_t fallback_ = 0;
};

}  // namespace dekg::serve

#endif  // DEKG_SERVE_ENGINE_H_
