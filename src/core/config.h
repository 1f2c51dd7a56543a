// ApolloConfig: every tunable of the predictive framework.
//
// Defaults follow the paper's Section 4.7 choices for TPC-W/TPC-C:
// delta_t = 15 s (largest of several transition-graph windows, Section
// 3.4.1), tau = 0.01, alpha = 0, plus simulator-level costs for the edge
// deployment.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache_policy.h"
#include "util/sim_time.h"

namespace apollo::core {

struct ApolloConfig {
  // ---- Learning parameters (paper Sections 2.2-2.3, 4.7) ----

  /// Windows for the per-client transition graphs, ascending. The largest
  /// is the primary delta-t used for relationship discovery; the smaller
  /// ones feed the freshness model (Section 3.4.1). The sub-second window
  /// matters: freshness estimates for predictions are ~one query round
  /// trip, and a window much larger than that overstates the probability
  /// of an invalidating write landing "while f is executing".
  std::vector<util::SimDuration> delta_ts = {
      util::Millis(250), util::Seconds(1), util::Seconds(5),
      util::Seconds(15)};

  /// Minimum transition probability for two templates to be "related".
  double tau = 0.01;

  /// Number of co-occurrence observations a parameter mapping must survive
  /// before it is trusted (Section 2.3's verification period).
  int verification_period = 3;

  /// Minimum cost (probability x mean response time, in simulated ms) an
  /// ADQ must have to be reloaded after a write (Section 3.4.2). 0 reloads
  /// every ADQ.
  double alpha = 0.0;

  // ---- Prediction mechanics ----

  /// How many rows of a source result set are fanned out when
  /// instantiating a dependent query (1 = first row only). Fan-out is what
  /// lets Apollo prefetch the per-item queries of TPC-C's Stock Level in
  /// parallel while the terminal walks them serially.
  int max_fanout_rows = 4;

  /// Maximum chained predictive executions from one client query.
  int max_pipeline_depth = 8;

  // ---- Bounded learning memory (DESIGN.md §11) ----

  /// Cap on edges per transition graph (each per-client, per-delta-t
  /// graph). Exceeding it triggers evidence-weighted LRU pruning,
  /// counted in the `learning_pruned_edges` metric. 0 = unbounded (the
  /// default).
  size_t max_transition_edges = 0;

  /// Cap on (src, dst) pairs tracked by the ParamMapper, pruned the same
  /// way (`learning_pruned_pairs`). 0 = unbounded.
  size_t max_param_pairs = 0;

  // ---- Result-cache eviction policy (DESIGN.md §13) ----

  /// Admission/eviction scheme for the shared result cache. kLru is the
  /// legacy default (byte-identical behaviour); kTinyLfu adds Count-Min-
  /// Sketch frequency admission; kTinyLfuCost additionally weighs entries
  /// by observed miss cost x prediction confidence, so a high-probability
  /// predictive prefetch outlives an equally-recent cold one-off.
  cache::CachePolicy cache_policy = cache::CachePolicy::kLru;

  /// W-TinyLFU window share of each cache shard's byte budget (only
  /// consulted when cache_policy != kLru).
  double cache_window_fraction = 0.01;

  // ---- Feature toggles (ablation experiments) ----

  bool enable_prediction = true;       // master switch (off = Memcached)
  bool enable_pipelining = true;       // Section 2.4
  bool enable_freshness_check = true;  // Section 3.4.1
  bool enable_adq_reload = true;       // Section 3.4.2
  bool enable_pubsub_dedup = true;     // Section 3.3

  // ---- Simulated deployment costs ----

  /// Middleware CPU time consumed per client query (parse, hash, session
  /// bookkeeping).
  util::SimDuration engine_overhead_per_query = util::Micros(60);

  /// Middleware CPU time consumed per predictive execution set up.
  util::SimDuration engine_overhead_per_prediction = util::Micros(40);

  /// Middleware worker pool width (paper: 16 vCPUs; 4 for the weak
  /// m4.xlarge instances of Figure 8(c)).
  int engine_servers = 16;
};

}  // namespace apollo::core
