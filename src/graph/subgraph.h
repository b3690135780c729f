// Enclosing-subgraph extraction and node labeling for GSM (Sec. IV-C).
//
// For a target link (e_i, r_k, e_j) the subgraph over the t-hop
// neighborhoods of e_i and e_j is extracted and every node u is labeled
// with the double-radius pair (d(i,u), d(j,u)), where d(i,u) is the
// shortest-path distance from e_i avoiding e_j (and vice versa). The head
// and tail are labeled (0,1) and (1,0).
//
// Two labeling policies are provided:
//  * kGrail  — prunes nodes with d(i,u) > t or d(j,u) > t (the original
//    GraIL enclosing subgraph). For a bridging link this leaves only the
//    two endpoint nodes: the topological limitation in action.
//  * kImproved — DEKG-ILP's labeling: such nodes are kept, and the
//    out-of-range distance is set to -1, whose one-hot encoding is the
//    all-zero vector. These nodes "simulate disconnected nodes" during
//    training, so the GNN learns to embed disconnected subgraph pairs.
//
// Extraction is output-sensitive (DESIGN.md §16): per-call cost is
// O(|touched| log |touched| + induced edges), independent of the number
// of entities in the graph. The distance fields live in a stamp-versioned
// SubgraphWorkspace — allocated once, never cleared — so the two blocked
// BFS passes and candidate generation touch only reached nodes, yet the
// result is bit-identical to the retained dense reference
// (ExtractSubgraphDense), which fills and scans O(num_entities) state.
#ifndef DEKG_GRAPH_SUBGRAPH_H_
#define DEKG_GRAPH_SUBGRAPH_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "kg/knowledge_graph.h"

namespace dekg {

enum class NodeLabeling {
  kGrail,
  kImproved,
};

// A node of the extracted subgraph. Distances use -1 for "unreachable
// within t hops (or at all)".
struct SubgraphNode {
  EntityId entity;
  int32_t dist_head;
  int32_t dist_tail;
};

// An edge between local node indices.
struct SubgraphEdge {
  int32_t src;  // local node index
  RelationId rel;
  int32_t dst;  // local node index
};

// Extracted subgraph around one target link. Node 0 is always the head,
// node 1 the tail (even when they have no neighborhood).
struct Subgraph {
  std::vector<SubgraphNode> nodes;
  std::vector<SubgraphEdge> edges;

  int32_t head_local() const { return 0; }
  int32_t tail_local() const { return 1; }
};

struct SubgraphConfig {
  // Neighborhood radius t.
  int32_t num_hops = 2;
  NodeLabeling labeling = NodeLabeling::kImproved;
  // Safety cap on node count (0 = unlimited). When exceeded, the farthest
  // nodes are dropped first (head/tail always kept; caps of 1 and 2 keep
  // exactly the two endpoints).
  int32_t max_nodes = 256;
};

namespace internal {

// A labeled candidate node awaiting the max_nodes cap. Implementation
// detail of AssembleSubgraph, exposed only so SubgraphWorkspace can own a
// reusable buffer of them.
struct ExtractCandidate {
  EntityId entity;
  int32_t dh;
  int32_t dt;
  int32_t order_key;
};

}  // namespace internal

// Reusable scratch state for repeated extractions. Extraction reads only
// a const KnowledgeGraph and writes only into the workspace, so concurrent
// extractions are safe as long as each thread owns its own workspace.
//
// The per-entity and per-edge arrays are stamp-versioned: a slot is valid
// only when its stamp matches the mark of the pass that wrote it, so
// "clearing" a field costs one counter increment instead of an
// O(num_entities) fill. The arrays are sized on demand (EnsureCapacity
// only grows them) and never zeroed between calls — reusing one workspace
// across graphs of different sizes is safe, because every extraction
// takes fresh stamps that no stale slot can match. When the 32-bit stamp
// counter runs out of headroom the arrays are zero-filled once and the
// counter restarts (wrap_resets counts these; one reset per ~1.4 billion
// extractions).
struct SubgraphWorkspace {
  // Blocked-BFS distance fields of the last ExtractSubgraph call:
  // dist_head[u] is valid iff head_stamp[u] == head_mark (&& head_mark
  // != 0), likewise for the tail field. HeadDistance/TailDistance wrap
  // the test and return -1 for "unreached".
  std::vector<int32_t> dist_head;
  std::vector<int32_t> dist_tail;
  std::vector<uint32_t> head_stamp;
  std::vector<uint32_t> tail_stamp;
  uint32_t head_mark = 0;
  uint32_t tail_mark = 0;

  // BFS visit order of the two passes (source first); doubles as the BFS
  // queue. |reached_head| + |reached_tail| is the per-extraction BFS cost.
  std::vector<EntityId> reached_head;
  std::vector<EntityId> reached_tail;

  // Ascending union of the two reached sets after ExtractSubgraph — the
  // touched set. Everything the extraction read besides the graph.
  std::vector<EntityId> touched;

  // Assembly scratch: local node index + membership stamp per entity, a
  // visited stamp per global edge id, and the candidate buffer.
  std::vector<int32_t> local_index;
  std::vector<uint32_t> local_stamp;
  std::vector<uint32_t> edge_stamp;
  std::vector<internal::ExtractCandidate> candidates;

  // Stamp counter state. `stamp` is the last issued stamp; 0 is never
  // issued, so zero-filled (fresh or reset) stamp slots are always
  // invalid. Public so tests can force the wrap path.
  uint32_t stamp = 0;
  uint64_t wrap_resets = 0;

  // Grows the per-entity / per-edge arrays to the given sizes (never
  // shrinks). New slots are zero-stamped, i.e. invalid.
  void EnsureNodeCapacity(int64_t num_entities);
  void EnsureEdgeCapacity(int64_t num_edges);

  // Guarantees `count` more stamps can be issued without wrapping past
  // UINT32_MAX; zero-fills every stamp array and restarts the counter
  // when they cannot (invalidating all previously written fields).
  void ReserveStamps(uint32_t count);
  // Issues the next stamp. Call ReserveStamps first; never returns 0.
  uint32_t NextStamp() { return ++stamp; }

  // Sparse reads of the last extraction's distance fields (-1 when the
  // entity was not reached by that pass).
  int32_t HeadDistance(EntityId u) const {
    const size_t i = static_cast<size_t>(u);
    return head_stamp[i] == head_mark && head_mark != 0 ? dist_head[i] : -1;
  }
  int32_t TailDistance(EntityId u) const {
    const size_t i = static_cast<size_t>(u);
    return tail_stamp[i] == tail_mark && tail_mark != 0 ? dist_tail[i] : -1;
  }
};

// A lazily constructed workspace owned by the calling thread, reused for
// its lifetime. The hot extraction paths (training prefill, evaluation,
// serving cache misses) route through this so repeated extractions touch
// only O(touched) state — a fresh workspace would pay an O(num_entities)
// allocation + zero-fill per call, which is exactly what the stamps
// exist to avoid.
SubgraphWorkspace* GetThreadLocalSubgraphWorkspace();

// Process-wide extraction accounting (relaxed atomics; totals are
// deterministic because each extraction's contribution is). Surfaced in
// the bench JSON trails (bench_extract, bench_train, bench_churn) so
// extraction-cost regressions are visible.
struct ExtractionCounters {
  uint64_t extractions = 0;     // sparse extractions performed
  uint64_t bfs_popped = 0;      // nodes popped across both BFS passes
  uint64_t candidates_kept = 0; // candidate nodes surviving the cap
};
ExtractionCounters GetExtractionCounters();
void ResetExtractionCounters();

// BFS distances from `source` to every node, avoiding `blocked` (distance
// computed as if `blocked` were deleted). Unreached nodes get -1. Distances
// greater than `max_depth` are not explored. O(num_entities): this is the
// dense reference form, used by tests and the patch property checks.
std::vector<int32_t> BfsDistances(const KnowledgeGraph& g, EntityId source,
                                  EntityId blocked, int32_t max_depth);

// Allocation-reusing dense form: distances land in *dist (resized to
// g.num_entities()); *frontier is scratch. Re-entrant over a const graph.
void BfsDistances(const KnowledgeGraph& g, EntityId source, EntityId blocked,
                  int32_t max_depth, std::vector<int32_t>* dist,
                  std::vector<EntityId>* frontier);

// Extracts the labeled subgraph around (head, ?, tail) from `g`. Any edge
// identical to the target triple (head, target_rel, tail) — or its exact
// inverse — is excluded, so a positive training link never sees itself.
// Uses the calling thread's reusable workspace.
Subgraph ExtractSubgraph(const KnowledgeGraph& g, EntityId head,
                         EntityId tail, RelationId target_rel,
                         const SubgraphConfig& config);

// Same, reusing the caller's workspace across calls (hot loops: training
// epochs, batched inference). Results are identical to the form above.
// On return the workspace holds the extraction's sparse state — the two
// stamped blocked-BFS distance fields and the ascending touched set —
// which TouchedEntities / TouchedEntityLabels below consume in
// O(touched). That state stays valid until the workspace's next
// extraction or rebuild.
Subgraph ExtractSubgraph(const KnowledgeGraph& g, EntityId head,
                         EntityId tail, RelationId target_rel,
                         const SubgraphConfig& config,
                         SubgraphWorkspace* workspace);

// Dense reference implementation: two O(num_entities) distance fills plus
// a full entity scan, assembled through its own map-based twin of the
// assembly step — the pre-stamping extraction path, kept verbatim so the
// sparse path can be differentially tested (and benched) against it.
// Bit-identical to ExtractSubgraph on every input by the candidate-order
// argument of DESIGN.md §16.
Subgraph ExtractSubgraphDense(const KnowledgeGraph& g, EntityId head,
                              EntityId tail, RelationId target_rel,
                              const SubgraphConfig& config);

// Entities the last extraction's result depends on: every u with
// HeadDistance(u) >= 0 or TailDistance(u) >= 0 (the union of the two
// blocked t-hop neighborhoods, endpoints included), ascending. A new edge
// can only change an extraction when at least one of its endpoints lies
// in this set — to alter either BFS field it must be reached through a
// node at blocked distance <= t-1, which is itself in the set, and an
// edge newly induced between kept nodes has both endpoints in it. The
// serve-layer cache maintenance tests each cached subgraph's set against
// the endpoints of ingested edges to find the entries an ingest affects.
// O(touched): reads the workspace's stored union, no entity scan.
std::vector<EntityId> TouchedEntities(const SubgraphWorkspace& workspace);

// Sparse restriction of the two blocked-BFS distance fields to the touched
// set: entities[i] ascending, dist_head[i]/dist_tail[i] its labels (-1 =
// outside that field's t-hop ball). This is everything an extraction
// depends on besides the graph itself, and it is small — O(touched set),
// not O(num_entities) — so the serve layer keeps one per cached subgraph
// to support in-place patching under ingest.
struct TouchedLabels {
  std::vector<EntityId> entities;
  std::vector<int32_t> dist_head;
  std::vector<int32_t> dist_tail;
};

// TouchedEntities plus the distance labels, read from the same sparse
// workspace state in O(touched).
TouchedLabels TouchedEntityLabels(const SubgraphWorkspace& workspace);

// In-place decrease-only re-relaxation of one blocked-BFS distance field
// after new edges were appended to `g` (which must already contain them).
// `entities` is the ascending touched set of the original extraction and
// *dist the field being patched (aligned with `entities`). New edges can
// only shorten distances, so the fixpoint is reached by label-correcting
// relaxation seeded from the new edges' endpoints; propagation walks
// g.IncidentEdges, so improvements that chain through several new edges
// of one batch are found.
//
// Returns false when some entity OUTSIDE `entities` would acquire a
// distance <= max_depth — i.e. a new node enters the t-hop ball, changing
// subgraph membership — in which case *dist is unspecified and the caller
// must fall back to full re-extraction. The detection is exact: relaxation
// only reaches an outside entity through an in-set node u with new
// distance < max_depth, and every such attempted improvement corresponds
// to a real path, so `false` fires iff membership really changed for this
// field. On true, *dist holds exactly the fresh blocked-BFS field
// restricted to `entities`, and *changed is set when any value moved.
bool RelaxDistancesAfterEdgeInsert(const KnowledgeGraph& g, EntityId source,
                                   EntityId blocked, int32_t max_depth,
                                   const std::vector<Triple>& new_edges,
                                   const std::vector<EntityId>& entities,
                                   std::vector<int32_t>* dist, bool* changed);

// Rebuilds the labeled subgraph for (head, ?, tail) from sparse labels
// instead of running the two blocked BFS passes. `labels` must equal the
// fresh fields restricted to the fresh touched set (the invariant
// RelaxDistancesAfterEdgeInsert maintains when it returns true). The
// result is bit-identical to ExtractSubgraph by construction: candidate
// generation walks labels.entities in the same ascending-entity order the
// extraction path uses, and node ordering, the max_nodes cap, and
// induced-edge enumeration run through the exact same assembly code. Cost
// is O(|touched| log |touched| + induced edges) — no O(num_entities) work.
Subgraph BuildSubgraphFromLabels(const KnowledgeGraph& g, EntityId head,
                                 EntityId tail, RelationId target_rel,
                                 const SubgraphConfig& config,
                                 const TouchedLabels& labels);

// Workspace-reusing form (hot ingest-patch loops). Consumes assembly
// scratch + one stamp; does not disturb the workspace's distance fields
// or touched set except through a (rare) stamp-wrap reset.
Subgraph BuildSubgraphFromLabels(const KnowledgeGraph& g, EntityId head,
                                 EntityId tail, RelationId target_rel,
                                 const SubgraphConfig& config,
                                 const TouchedLabels& labels,
                                 SubgraphWorkspace* workspace);

// Epoch-persistent cache of extracted subgraphs, keyed by the target
// triple. Extraction is deterministic over an immutable graph, so a cached
// subgraph is exactly what a fresh extraction would produce — serving from
// the cache is numerically transparent. The cache is NOT thread-safe:
// the training loop prefills it serially (from parallel-extracted results
// in fixed index order) and serves it read-only during the epoch.
//
// Eviction is FIFO over insertion order, which is deterministic because
// insertion order is deterministic and each key is inserted at most once
// while resident. Entry pointers are stable until that entry is evicted
// (Replace() swaps the payload behind the same pointer). Queue entries
// carry the insertion sequence number, so a key erased and later
// re-inserted cannot retire early through its old queue occurrence — the
// stale occurrence no longer matches the resident sequence and is skipped.
class SubgraphCache {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    int64_t entries = 0;
    int64_t bytes = 0;  // payload bytes of resident nodes + edges
  };

  // capacity = maximum resident subgraphs; 0 = unlimited.
  explicit SubgraphCache(int64_t capacity = 0);

  // Returns the cached subgraph for `triple` or null, counting a hit or
  // a miss.
  const Subgraph* Lookup(const Triple& triple);

  // Lookup without touching the hit/miss counters.
  const Subgraph* Find(const Triple& triple) const;

  // Stores `subgraph` under `triple` (no-op when already resident),
  // evicting the oldest insertion first when at capacity. Returns the
  // resident subgraph.
  const Subgraph* Insert(const Triple& triple, Subgraph subgraph);

  // Replaces the payload of a resident entry in place: same key, same
  // FIFO age, same stable Subgraph address (the contents are move-assigned
  // behind the pointer), byte accounting updated. Returns the resident
  // subgraph, or null when `triple` is not resident. This is the serve
  // layer's ingest-patch primitive — maintenance must not perturb the
  // deterministic eviction order the read-only serving contract relies on.
  const Subgraph* Replace(const Triple& triple, Subgraph subgraph);

  // Removes the entry for `triple`; returns true when it was resident.
  // The serve layer's delta ingester uses this to invalidate exactly the
  // entries a new edge can affect. Stale occurrences of erased keys in
  // the FIFO queue are skipped lazily at eviction time (their sequence
  // number no longer matches any resident entry).
  bool Erase(const Triple& triple);

  void Clear();
  // Zeroes hits/misses/evictions; entries/bytes reflect residency and are
  // kept. Used to scope hit-rate measurement to one epoch.
  void ResetCounters();

  int64_t capacity() const { return capacity_; }
  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    // unique_ptr payload keeps the Subgraph address stable across rehashes
    // and across Replace().
    std::unique_ptr<Subgraph> subgraph;
    uint64_t seq = 0;  // insertion sequence; pairs with the FIFO queue
  };
  struct QueueSlot {
    Triple triple;
    uint64_t seq = 0;
  };

  static int64_t PayloadBytes(const Subgraph& s);

  int64_t capacity_;
  Stats stats_;
  uint64_t next_seq_ = 0;
  std::unordered_map<Triple, Entry, TripleHash> map_;
  std::deque<QueueSlot> fifo_;
};

}  // namespace dekg

#endif  // DEKG_GRAPH_SUBGRAPH_H_
