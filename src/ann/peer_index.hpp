// The ANN peer-selection plane (DESIGN.md §16, §18): a drift-tolerant
// proximity index over live coordinates.
//
// The trained factors make "which peers should node i talk to" a k-NN
// query under the predicted quantity x̂ = u_query · v_member.  PeerIndex
// answers it with a graph-based dynamic index in the spirit of DEG/HNSW:
//
//  * structure: every member holds up to `degree` out-edges to members
//    whose *snapshot* v rows are Euclidean-near its own, chosen by greedy
//    beam search plus the relative-neighborhood prune (a candidate is
//    skipped while some already-chosen neighbor is closer to it than the
//    new member is).  Edges are directed; back-links are added while there
//    is room and re-pruned when a list overflows.
//  * search: greedy best-first beam over the adjacency, ranked by the
//    *live* bilinear score u_query · v_member — the graph only navigates;
//    every score reads the store at query time.  That split is the whole
//    staleness story: SGD drift can only degrade *routing* (which the
//    recall-under-drift tests bound), never the scores reported, and both
//    RTT (smallest-first) and ABW (largest-first) orderings ride the same
//    graph because edge selection is ordering-agnostic.
//  * coarse routing (DESIGN.md §18): with `ivf_cells > 0` an IVF-style
//    coarse quantizer sits above the graph — seeded k-means centroids over
//    a deterministic subsample of the snapshot v rows, one medoid entry
//    slot per cell.  A query scores every centroid (u · centroid — the
//    cell's mean member score), picks the best `ivf_nprobe` cells, and
//    seeds the beam from their medoids instead of from fixed evenly-spaced
//    slots; past n ≈ 10⁵ that lands the beam inside the right region in
//    O(cells) instead of walking there, which is what holds recall at the
//    million-node tier.  The coarse layer is routing only — like the graph
//    it is rebuilt from live rows on the RebuildAll escalation path and
//    drifts harmlessly in between.
//  * drift: Update(id) measures the member's v-row drift against its
//    snapshot and epsilon-skips below `drift_epsilon` — the common case for
//    one SGD step — otherwise refreshes the snapshot and re-links the
//    member's out-edges (stale in-edges are tolerated; they are routing
//    hints, not answers).  ApplyUpdates() drains an engine dirty set and
//    escalates to RebuildAll() when the drifted fraction makes per-member
//    re-linking more expensive than rebuilding.
//
// Exact mode: a search with ef >= Size() — or, with the coarse layer on,
// ivf_nprobe >= the cell count — bypasses the graph and runs
// eval::BruteForceKnnRow over the members in slot order, so an exact-mode
// query is bit-identical to the oracle by construction — the property the
// peer-selection parity and IVF exact-mode tests pin.
//
// Build (DESIGN.md §16): construction and RebuildAll insert slots in
// batches [b, b + max(1, b/32)).  Each batch draws its entry points
// serially, then (phase 1) searches the frozen graph of slots < b and
// writes each slot's out-edges, parallel over the batch, then (phase 2)
// applies the back-links grouped by target in (slot, edge) order,
// parallel over targets.  Add and Update are a batch of one.
//
// Determinism: entry points come from one internal Rng seeded by
// options.seed and are drawn in slot order; the coarse layer is built from
// a deterministic evenly-spaced subsample (no Rng draws, so enabling it
// never shifts the adjacency stream); all ranking uses the strict total
// order (key, slot); searches seed from the coarse medoids (or fixed
// evenly-spaced slots).  Seed + member order ⇒ adjacency, at any build-pool
// size (nullptr and 1 included); the same operation sequence after that
// always yields the same adjacency and the same query results, at any
// number of query threads.
//
// Concurrency (DESIGN.md §18): queries never mutate the store or the
// graph.  Each Search/SearchFrom leases a SearchScratch (visited epochs,
// beam heaps) from an internal free-list pool and folds its evaluation
// count into one atomic on release, so any number of threads may run
// const searches concurrently — results are bit-identical to a serial run
// because the walk is a pure function of (graph, entries, key function).
// A build or rebuild fans out over the caller's ThreadPool (phase-1
// workers lease scratches from the same free list) and returns after the
// join.  Mutators (Add/Remove/Update/ApplyUpdates/RebuildAll) are NOT safe
// against concurrent searches; callers serialize them behind a writer
// lock (svc::CoordinateService holds its reader–writer lock exclusively
// around every mutation).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/coordinate_store.hpp"
#include "core/messages.hpp"
#include "eval/brute_force_knn.hpp"

namespace dmfsgd::ann {

struct PeerIndexOptions {
  std::size_t degree = 16;            ///< max out-edges per member
  std::size_t ef_construction = 96;   ///< beam width for insert / re-link
  std::size_t ef_search = 96;         ///< default query beam width
  std::size_t entry_points = 4;       ///< beam seeds per search (coarse layer off)
  /// L2 drift of the v row below which Update() skips re-linking — small
  /// SGD steps move a row far less than the inter-member spacing.
  double drift_epsilon = 1e-3;
  /// ApplyUpdates() rebuilds instead of re-linking when more than this
  /// fraction of the members drifted past epsilon.
  double rebuild_fraction = 0.35;
  std::uint64_t seed = 97;

  // -- IVF coarse quantizer (DESIGN.md §18); 0 cells = off -------------------

  /// Coarse k-means cells over the snapshot v rows (clamped to Size()).
  /// Routing only: a query seeds its beam from the best `ivf_nprobe` cell
  /// medoids instead of fixed evenly-spaced slots.
  std::size_t ivf_cells = 0;
  /// Cells probed per query; >= the cell count is the exact mode (the
  /// whole search delegates to the brute-force oracle, bit-identical).
  std::size_t ivf_nprobe = 8;
  /// K-means training subsample cap (evenly spaced over the slots, so the
  /// coarse build is deterministic and O(sample · cells · rank), not
  /// O(Size · cells · rank) at the million-node tier).
  std::size_t ivf_sample = 32768;
  /// Lloyd refinement rounds; 0 keeps the evenly-spaced seeds as pivots.
  std::size_t ivf_iterations = 3;
};

class PeerIndex {
 public:
  /// Indexes every node of the store.  The store must outlive the index
  /// and must not shrink below the indexed ids (it never reallocates rows,
  /// so spans stay valid).  A `pool` spreads the build over its threads;
  /// the adjacency is the same at any pool size (nullptr = inline).
  /// Throws std::invalid_argument on bad options.
  PeerIndex(const core::CoordinateStore& store, const PeerIndexOptions& options,
            common::ThreadPool* pool = nullptr);

  /// Indexes an explicit member subset (e.g. one node's candidate peer
  /// set); slot order == `members` order, which exact-mode queries scan.
  /// Throws on duplicate or out-of-range members.
  PeerIndex(const core::CoordinateStore& store,
            std::span<const std::size_t> members,
            const PeerIndexOptions& options,
            common::ThreadPool* pool = nullptr);

  [[nodiscard]] std::size_t Size() const noexcept { return id_of_.size(); }
  [[nodiscard]] bool Contains(std::size_t id) const noexcept {
    return id < slot_of_.size() && slot_of_[id] != kNoSlot;
  }
  /// Member ids in slot order (exact-mode scan order).
  [[nodiscard]] std::span<const std::size_t> Members() const noexcept {
    return id_of_;
  }
  /// A member's current out-edges as node ids (determinism tests pin this).
  [[nodiscard]] std::vector<std::size_t> NeighborsOf(std::size_t id) const;

  /// Coarse cells currently built (0 when the IVF layer is off or empty).
  [[nodiscard]] std::size_t CellCount() const noexcept {
    return cell_entry_.size();
  }
  /// Member ids serving as cell entry medoids, in cell order (the IVF
  /// determinism tests pin this).
  [[nodiscard]] std::vector<std::size_t> CellEntries() const;

  /// k best members by u_query · v_member under `ordering`, read from the
  /// live store.  `ef` widens the beam (0 = options.ef_search; clamped to
  /// >= k); ef >= Size() is the exact mode.  Safe to call from any number
  /// of threads concurrently (not concurrently with mutators).  Throws on
  /// rank mismatch or k == 0.
  [[nodiscard]] eval::KnnResult Search(std::span<const double> query_u,
                                       std::size_t k, eval::KnnOrdering ordering,
                                       std::size_t ef = 0) const;

  /// Search with node `query`'s live u row; `query` itself (member or not)
  /// is excluded from the results.
  [[nodiscard]] eval::KnnResult SearchFrom(std::size_t query, std::size_t k,
                                           eval::KnnOrdering ordering,
                                           std::size_t ef = 0) const;

  /// Adds a member (a node joining the query plane).  Throws if already
  /// present or out of range.
  void Add(std::size_t id);

  /// Removes a member and every edge referencing it.  O(Size · degree) —
  /// bulk departures should RebuildAll() instead.  Throws if absent.
  void Remove(std::size_t id);

  /// Re-links `id` if its live v row drifted more than drift_epsilon from
  /// the indexed snapshot; returns whether a re-link happened.  Throws if
  /// absent.
  bool Update(std::size_t id);

  struct UpdateStats {
    std::size_t relinked = 0;      ///< members re-linked
    std::size_t epsilon_skips = 0; ///< members whose drift stayed under epsilon
    bool rebuilt = false;          ///< escalated to RebuildAll
  };

  /// Drains an engine dirty set (DeploymentEngine::TakeDirtyNodes):
  /// non-members are ignored, members are drift-checked, and the whole
  /// batch escalates to RebuildAll(pool) when more than rebuild_fraction
  /// of the membership drifted past epsilon.  Per-member re-links run
  /// inline.
  UpdateStats ApplyUpdates(std::span<const core::NodeId> ids,
                           common::ThreadPool* pool = nullptr);

  /// Rebuilds every edge — and the coarse layer — from the live store
  /// (bulk churn / drift), over `pool` like construction.  Keeps
  /// membership and slot order; a rebuild of an already-fresh index is a
  /// no-op on the adjacency (idempotence — pinned by tests).
  void RebuildAll(common::ThreadPool* pool = nullptr);

  /// Cumulative u·v-shaped evaluations performed by searches — member
  /// scores plus coarse centroid scores (the work an exact scan would
  /// spend Size() of per query) — the bench's cost model.
  [[nodiscard]] std::uint64_t ScoreEvaluations() const noexcept {
    return score_evals_.load(std::memory_order_relaxed);
  }

 private:
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = 0xffffffffu;

  /// A beam entry under the strict total order (key, slot); smaller key is
  /// better (query keys negate largest-first scores).
  struct RankedSlot {
    double key = 0.0;
    Slot slot = 0;
  };
  static bool Better(const RankedSlot& a, const RankedSlot& b) noexcept {
    return a.key < b.key || (a.key == b.key && a.slot < b.slot);
  }

  /// Per-search (and per-insert) mutable state, leased from an internal
  /// pool so searches and build workers on many threads never share a
  /// buffer (DESIGN.md §18).
  struct SearchScratch {
    std::vector<std::uint32_t> visited;  ///< epoch-marked visited set
    std::uint32_t epoch = 0;
    std::vector<RankedSlot> frontier;    ///< best-first beam frontier
    std::vector<RankedSlot> out;         ///< worst-on-top result heap
    std::vector<RankedSlot> cells;       ///< coarse-cell ranking buffer
    std::vector<Slot> entries;           ///< beam seed slots
    std::vector<RankedSlot> relink;      ///< LinkBack's re-prune candidates
    std::vector<Slot> chosen;            ///< SelectNeighbors' result
    std::vector<Slot> pruned;            ///< SelectNeighbors' backfill
    std::uint64_t score_evals = 0;       ///< folded into the index atomic
  };

  /// RAII lease: pops a scratch from the free list (or makes one), folds
  /// its evaluation count into score_evals_ and returns it on destruction.
  class ScratchLease {
   public:
    explicit ScratchLease(const PeerIndex& index);
    ~ScratchLease();
    ScratchLease(const ScratchLease&) = delete;
    ScratchLease& operator=(const ScratchLease&) = delete;
    [[nodiscard]] SearchScratch& operator*() const noexcept { return *scratch_; }
    [[nodiscard]] SearchScratch* operator->() const noexcept {
      return scratch_.get();
    }

   private:
    const PeerIndex* index_;
    std::unique_ptr<SearchScratch> scratch_;
  };

  [[nodiscard]] const double* Snapshot(Slot slot) const noexcept {
    return snap_v_.data() + static_cast<std::size_t>(slot) * rank_;
  }
  [[nodiscard]] double SnapDistanceSquared(Slot a, Slot b) const noexcept;
  [[nodiscard]] double DistanceSquaredToSnapshot(std::span<const double> row,
                                                 Slot slot) const noexcept;
  [[nodiscard]] std::span<const Slot> Edges(Slot slot) const noexcept {
    return {adj_.data() + static_cast<std::size_t>(slot) * options_.degree,
            adj_len_[slot]};
  }

  /// Appends a slot for `id` (snapshot copied from the live store) without
  /// linking it.
  Slot AppendSlot(std::size_t id);
  /// The one insert path: chooses and wires the out-edges of slots
  /// [begin, end) by beam search over the graph, each seeded from
  /// entry_points slots drawn from [0, linked) (rng_ draws, serial in slot
  /// order), then adds the back-links.  Requires a single slot or a batch
  /// no search from [0, linked) can reach (build: linked == begin).  The
  /// result equals inserting the slots one by one against the frozen
  /// graph, at any pool size.
  void InsertBatch(Slot begin, Slot end, std::size_t linked,
                   common::ThreadPool* pool);
  /// Links every slot, in batches [b, b + max(1, b/32)) against slots < b.
  void LinkAll(common::ThreadPool* pool);
  /// Relative-neighborhood prune over `candidates` (sorted best-first by
  /// distance to the subject's snapshot) into scratch.chosen; keeps up to
  /// degree, backfills with pruned candidates to keep the graph dense.
  void SelectNeighbors(const std::vector<RankedSlot>& candidates,
                       SearchScratch& scratch) const;
  /// Adds the back-edge to -> from, re-pruning to's list when full.
  void LinkBack(Slot to, Slot from, SearchScratch& scratch);

  /// (Re)builds the IVF coarse layer from the current snapshots: seeded
  /// k-means over an evenly-spaced subsample, one medoid entry per cell.
  /// Deterministic; draws nothing from rng_.
  void BuildCoarse();

  /// Greedy best-first beam search; key_of(slot) returns the ranking key.
  /// Fills scratch.out best-first with up to `ef` slots (minus `exclude`).
  template <typename KeyFn>
  void BeamSearch(std::span<const Slot> entries, std::size_t ef, Slot exclude,
                  const KeyFn& key_of, SearchScratch& scratch) const;

  [[nodiscard]] eval::KnnResult GraphSearch(std::span<const double> query_u,
                                            std::size_t k,
                                            eval::KnnOrdering ordering,
                                            std::size_t ef,
                                            std::size_t exclude_id,
                                            SearchScratch& scratch) const;

  /// The shared search body: explicit query row + id to exclude (pass
  /// store.NodeCount() for "none").
  [[nodiscard]] eval::KnnResult SearchFrom(std::size_t exclude_id, std::size_t k,
                                           eval::KnnOrdering ordering,
                                           std::size_t ef,
                                           std::span<const double> query_u) const;

  [[nodiscard]] std::unique_ptr<SearchScratch> AcquireScratch() const;
  void ReleaseScratch(std::unique_ptr<SearchScratch> scratch) const;

  const core::CoordinateStore* store_;
  PeerIndexOptions options_;
  std::size_t rank_;
  common::Rng rng_;

  std::vector<Slot> slot_of_;        // dense over node ids; kNoSlot = absent
  std::vector<std::size_t> id_of_;   // per slot
  std::vector<double> snap_v_;       // per slot: the indexed v row
  std::vector<Slot> adj_;            // per slot: `degree` edge slots
  std::vector<std::uint32_t> adj_len_;

  // IVF coarse layer (empty = off): k-means centers over snapshot v rows
  // and one medoid entry slot per cell.
  std::vector<double> centroids_;    // cell-major, rank_ doubles per cell
  std::vector<Slot> cell_entry_;

  // Search-scratch free list + the folded evaluation counter; the only
  // mutable state a const search touches, which is what makes concurrent
  // queries safe.
  mutable std::mutex scratch_mutex_;
  mutable std::vector<std::unique_ptr<SearchScratch>> scratch_pool_;
  mutable std::atomic<std::uint64_t> score_evals_{0};
};

}  // namespace dmfsgd::ann
