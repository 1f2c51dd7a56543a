// ClientSession: per-client middleware state (paper Section 3.2), shared
// by both middleware hosts and the prediction engine.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/version_vector.h"
#include "common/result_set.h"
#include "common/value.h"
#include "core/config.h"
#include "core/middleware.h"
#include "core/query_stream.h"
#include "sql/template_cache.h"
#include "util/sim_time.h"

namespace apollo::core {

/// Per-client session state. The stream and the members after it are
/// learning state, populated only by hosts that run a PredictionEngine.
struct ClientSession {
  /// Per-client stream retention (entries); bounds memory.
  static constexpr size_t kMaxStreamEntries = 1024;

  explicit ClientSession(ClientId id_, const ApolloConfig& config)
      : id(id_),
        stream(config.delta_ts, kMaxStreamEntries,
               config.max_transition_edges) {}

  ClientId id;
  cache::VersionVector vv;

  // Learning state (used by the PredictionEngine).
  QueryStream stream;
  struct RecentExecution {
    common::ResultSetPtr result;
    util::SimTime time = 0;
  };
  /// Latest result set per read-only template (pipeline inputs, Section
  /// 2.3-2.4).
  std::unordered_map<uint64_t, RecentExecution> recent;
  /// Last client execution time per template. Mapping observations are
  /// scoped to source executions newer than the destination's previous
  /// execution, so a query is never attributed to a stale source from an
  /// earlier transaction that happens to sit inside delta-t.
  std::unordered_map<uint64_t, util::SimTime> last_seen;
  /// Per-FDQ satisfied-dependency sets (Algorithm 4 state).
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> satisfied;
};

/// A client query the engine learns from.
struct ObservedQuery {
  /// The admitted template entry (never null; owned by the host's
  /// TemplateCache).
  const sql::CachedTemplate* tpl = nullptr;
  std::vector<common::Value> params;
  common::ResultSetPtr result;  // nullptr on write, error or pending
  /// The query's own result is still in flight (the runtime learns before
  /// issuing, so predictions can ride the same round trip). The template
  /// counts as fresh in dependency checks, and FDQs whose sources need
  /// its rows are deferred to the sink.
  bool result_pending = false;

  uint64_t template_id() const { return tpl->info.fingerprint; }
  bool read_only() const { return tpl->info.read_only; }
};

}  // namespace apollo::core
