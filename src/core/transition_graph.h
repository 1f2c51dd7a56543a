// TransitionGraph: the frequency-based Markov graph of paper Section 2.2.
//
// Vertices are query templates; an edge (Qti -> Qtj) counts how many times
// Qtj executed within delta-t after Qti. P(Qtj | Qti; T <= delta_t) =
// we(Qti,Qtj) / wv(Qti). The graph is built online from a client's query
// stream by QueryStream::Process (Algorithm 1).
//
// Thread safety: the vertex map is lock-striped by template id so the
// concurrent runtime (src/rt/) can fold observations from many workers
// without a single hot mutex. All per-vertex operations (observations,
// probability reads, Successors) touch exactly one stripe; whole-graph
// statistics visit the stripes one at a time. The single-threaded
// event-loop path takes the same uncontended locks and is bit-identical
// to the unsynchronized implementation.
//
// Bounded memory (DESIGN.md §11): an optional edge cap triggers
// evidence-weighted pruning — when a stripe exceeds its share of the cap,
// the lowest-count edges (LRU tie-break on a per-stripe touch tick) are
// batch-evicted under that stripe's lock. With the cap at 0 (the default)
// behavior is byte-identical to the unbounded graph.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/sim_time.h"

namespace apollo::core {

class TransitionGraph {
 public:
  static constexpr size_t kDefaultStripes = 8;

  /// `max_edges` caps the edge count across the whole graph (0 =
  /// unbounded); each stripe gets an equal share.
  explicit TransitionGraph(util::SimDuration delta_t,
                           size_t num_stripes = kDefaultStripes,
                           size_t max_edges = 0)
      : delta_t_(delta_t) {
    if (num_stripes == 0) num_stripes = 1;
    stripes_.reserve(num_stripes);
    const size_t per_stripe_cap =
        max_edges == 0 ? 0 : std::max<size_t>(1, max_edges / num_stripes);
    for (size_t i = 0; i < num_stripes; ++i) {
      stripes_.push_back(std::make_unique<Stripe>());
      stripes_.back()->edge_cap = per_stripe_cap;
    }
  }

  util::SimDuration delta_t() const { return delta_t_; }

  /// wv(qt) += 1 : the template's window has closed one more time.
  void AddVertexObservation(uint64_t qt) {
    Stripe& s = StripeFor(qt);
    std::lock_guard<std::mutex> lock(s.mu);
    ++s.vertices[qt].count;
  }

  /// we(from, to) += 1 : `to` executed within delta-t after `from`.
  void AddEdgeObservation(uint64_t from, uint64_t to) {
    Stripe& s = StripeFor(from);
    std::lock_guard<std::mutex> lock(s.mu);
    Edge& e = s.vertices[from].out_edges[to];
    if (e.count == 0) ++s.edge_count;
    ++e.count;
    e.tick = ++s.tick;
    if (s.edge_cap != 0 && s.edge_count > s.edge_cap) PruneStripeLocked(s);
  }

  /// Number of closed windows for `qt` (the probability denominator).
  uint64_t VertexCount(uint64_t qt) const;

  /// Number of times `to` followed `from` within delta-t.
  uint64_t EdgeCount(uint64_t from, uint64_t to) const;

  /// P(to | from; T <= delta_t); 0 if `from` unseen.
  double TransitionProbability(uint64_t from, uint64_t to) const;

  /// All successors of `from` with probability >= min_probability,
  /// (template, probability) pairs (the paper's "related at tau").
  std::vector<std::pair<uint64_t, double>> Successors(
      uint64_t from, double min_probability) const;

  /// Sums transition probabilities from `from` over the subset of
  /// successors accepted by `pred` (used by the freshness model to total
  /// the probability of an invalidating write). `pred` runs under the
  /// vertex's stripe lock, so it must not call back into this graph.
  template <typename Pred>
  double SuccessorProbabilityMass(uint64_t from, Pred pred) const {
    const Stripe& s = StripeFor(from);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.vertices.find(from);
    if (it == s.vertices.end() || it->second.count == 0) return 0.0;
    double denom = static_cast<double>(it->second.count);
    double mass = 0.0;
    for (const auto& [to, e] : it->second.out_edges) {
      if (pred(to)) mass += static_cast<double>(e.count) / denom;
    }
    return mass;
  }

  size_t num_vertices() const;
  size_t num_edges() const;
  size_t num_stripes() const { return stripes_.size(); }

  /// Edges evicted by the cap so far.
  uint64_t pruned_edges() const;

  /// Counter bumped once per pruned edge (e.g. "learning_pruned_edges");
  /// call before concurrent use. Until then prunes go to
  /// obs::UnexportedCounter() (pruned_edges() counts them either way).
  void SetPruneCounter(obs::Counter* counter);

  // ---- Snapshot support (src/persist/, DESIGN.md §11) ----

  /// Canonical exported form: vertices sorted by id, out-edges sorted by
  /// destination, so identical graph contents always serialize to
  /// identical bytes.
  struct ExportedVertex {
    uint64_t id = 0;
    uint64_t count = 0;  // wv
    std::vector<std::pair<uint64_t, uint64_t>> edges;  // (to, we)
  };
  struct State {
    util::SimDuration delta_t = 0;
    std::vector<ExportedVertex> vertices;
  };

  State ExportState() const;

  /// Folds `state` into this graph (adds counts; typically called on a
  /// fresh graph). Restored edges enter with fresh recency ticks.
  void ImportState(const State& state);

  /// Approximate memory footprint (overhead reporting).
  size_t ApproximateBytes() const;

 private:
  struct Edge {
    uint64_t count = 0;  // we
    uint64_t tick = 0;   // stripe tick at last observation (LRU tie-break)
  };
  struct Vertex {
    uint64_t count = 0;  // wv
    std::unordered_map<uint64_t, Edge> out_edges;  // we
  };
  // Pruning state lives in the stripes (not the graph object) so the
  // graph's sizeof — which feeds the learning-state byte estimate the
  // benches print — is unchanged whether or not a cap is configured.
  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Vertex> vertices;
    size_t edge_count = 0;
    size_t edge_cap = 0;  // 0 = unbounded
    uint64_t tick = 0;
    uint64_t pruned = 0;
    obs::Counter* prune_counter = obs::UnexportedCounter();
  };

  /// Batch-evicts the weakest-evidence edges (count ascending, tick
  /// ascending) until the stripe is ~1/8 under its cap. Caller holds s.mu.
  void PruneStripeLocked(Stripe& s);

  Stripe& StripeFor(uint64_t qt) { return *stripes_[qt % stripes_.size()]; }
  const Stripe& StripeFor(uint64_t qt) const {
    return *stripes_[qt % stripes_.size()];
  }

  std::vector<std::unique_ptr<Stripe>> stripes_;
  util::SimDuration delta_t_;
};

}  // namespace apollo::core
