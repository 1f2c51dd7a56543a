#include "core/transition_graph.h"

#include <algorithm>

namespace apollo::core {

uint64_t TransitionGraph::VertexCount(uint64_t qt) const {
  const Stripe& s = StripeFor(qt);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.vertices.find(qt);
  return it == s.vertices.end() ? 0 : it->second.count;
}

uint64_t TransitionGraph::EdgeCount(uint64_t from, uint64_t to) const {
  const Stripe& s = StripeFor(from);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.vertices.find(from);
  if (it == s.vertices.end()) return 0;
  auto eit = it->second.out_edges.find(to);
  return eit == it->second.out_edges.end() ? 0 : eit->second.count;
}

double TransitionGraph::TransitionProbability(uint64_t from,
                                              uint64_t to) const {
  const Stripe& s = StripeFor(from);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.vertices.find(from);
  if (it == s.vertices.end() || it->second.count == 0) return 0.0;
  auto eit = it->second.out_edges.find(to);
  if (eit == it->second.out_edges.end()) return 0.0;
  return static_cast<double>(eit->second.count) /
         static_cast<double>(it->second.count);
}

std::vector<std::pair<uint64_t, double>> TransitionGraph::Successors(
    uint64_t from, double min_probability) const {
  std::vector<std::pair<uint64_t, double>> out;
  const Stripe& s = StripeFor(from);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.vertices.find(from);
  if (it == s.vertices.end() || it->second.count == 0) return out;
  double denom = static_cast<double>(it->second.count);
  for (const auto& [to, e] : it->second.out_edges) {
    double p = static_cast<double>(e.count) / denom;
    // >= : the paper treats an edge at exactly tau as related. Keep this
    // aligned with the freshness model's boundary (FreshnessAllows), which
    // likewise counts mass >= tau as significant.
    if (p >= min_probability) out.emplace_back(to, p);
  }
  return out;
}

size_t TransitionGraph::num_vertices() const {
  size_t n = 0;
  for (const auto& s : stripes_) {
    std::lock_guard<std::mutex> lock(s->mu);
    n += s->vertices.size();
  }
  return n;
}

size_t TransitionGraph::num_edges() const {
  size_t n = 0;
  for (const auto& s : stripes_) {
    std::lock_guard<std::mutex> lock(s->mu);
    for (const auto& [_, v] : s->vertices) n += v.out_edges.size();
  }
  return n;
}

uint64_t TransitionGraph::pruned_edges() const {
  uint64_t n = 0;
  for (const auto& s : stripes_) {
    std::lock_guard<std::mutex> lock(s->mu);
    n += s->pruned;
  }
  return n;
}

void TransitionGraph::SetPruneCounter(obs::Counter* counter) {
  for (const auto& s : stripes_) {
    std::lock_guard<std::mutex> lock(s->mu);
    s->prune_counter = counter;
  }
}

void TransitionGraph::PruneStripeLocked(Stripe& s) {
  // Evict down to ~7/8 of the cap in one batch so a hot stripe is not
  // re-pruned on every insertion.
  const size_t target = s.edge_cap - std::max<size_t>(1, s.edge_cap / 8);
  if (s.edge_count <= target) return;
  size_t evict = s.edge_count - target;

  struct Victim {
    uint64_t count;
    uint64_t tick;
    uint64_t from;
    uint64_t to;
  };
  std::vector<Victim> all;
  all.reserve(s.edge_count);
  for (const auto& [from, v] : s.vertices) {
    for (const auto& [to, e] : v.out_edges) {
      all.push_back(Victim{e.count, e.tick, from, to});
    }
  }
  if (evict > all.size()) evict = all.size();
  // Evidence-weighted LRU: weakest count first, oldest touch breaking
  // ties. (from, to) is a final deterministic tie-break so pruning is
  // reproducible for identical insertion histories.
  auto weaker = [](const Victim& a, const Victim& b) {
    if (a.count != b.count) return a.count < b.count;
    if (a.tick != b.tick) return a.tick < b.tick;
    if (a.from != b.from) return a.from < b.from;
    return a.to < b.to;
  };
  std::nth_element(all.begin(), all.begin() + evict - 1, all.end(), weaker);
  std::sort(all.begin(), all.begin() + evict, weaker);
  for (size_t i = 0; i < evict; ++i) {
    auto vit = s.vertices.find(all[i].from);
    if (vit == s.vertices.end()) continue;
    vit->second.out_edges.erase(all[i].to);
    --s.edge_count;
    ++s.pruned;
    // Vertices keep their wv count even with no surviving out-edges: the
    // denominator is evidence in its own right.
  }
  s.prune_counter->Inc(evict);
}

TransitionGraph::State TransitionGraph::ExportState() const {
  State st;
  st.delta_t = delta_t_;
  for (const auto& s : stripes_) {
    std::lock_guard<std::mutex> lock(s->mu);
    for (const auto& [id, v] : s->vertices) {
      ExportedVertex ev;
      ev.id = id;
      ev.count = v.count;
      ev.edges.reserve(v.out_edges.size());
      for (const auto& [to, e] : v.out_edges) ev.edges.emplace_back(to, e.count);
      std::sort(ev.edges.begin(), ev.edges.end());
      st.vertices.push_back(std::move(ev));
    }
  }
  std::sort(st.vertices.begin(), st.vertices.end(),
            [](const ExportedVertex& a, const ExportedVertex& b) {
              return a.id < b.id;
            });
  return st;
}

void TransitionGraph::ImportState(const State& state) {
  for (const ExportedVertex& ev : state.vertices) {
    Stripe& s = StripeFor(ev.id);
    std::lock_guard<std::mutex> lock(s.mu);
    Vertex& v = s.vertices[ev.id];
    v.count += ev.count;
    for (const auto& [to, count] : ev.edges) {
      Edge& e = v.out_edges[to];
      if (e.count == 0) ++s.edge_count;
      e.count += count;
      e.tick = ++s.tick;
    }
    if (s.edge_cap != 0 && s.edge_count > s.edge_cap) PruneStripeLocked(s);
  }
}

size_t TransitionGraph::ApproximateBytes() const {
  size_t total = sizeof(*this);
  for (const auto& s : stripes_) {
    std::lock_guard<std::mutex> lock(s->mu);
    for (const auto& [_, v] : s->vertices) {
      total += 48 + v.out_edges.size() * 24;
    }
  }
  return total;
}

}  // namespace apollo::core
