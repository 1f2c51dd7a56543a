// Snapshot collect and apply for the four learned-state sections
// (templates, sessions, parameter mappings, dependency graph), written
// once for both middleware hosts (DESIGN.md §11).
//
// A host describes where its learned state lives with a LearnedState
// view; the two session callbacks apply the host's own locking. The
// event-loop middleware calls these directly; the rt runtime calls them
// with every learn shard held (collect copies under the locks, encoding
// runs after they are released).
#pragma once

#include <functional>
#include <string>

#include "core/client_session.h"
#include "core/config.h"
#include "core/dependency_graph.h"
#include "core/param_mapper.h"
#include "core/prediction_engine.h"
#include "obs/trace_log.h"
#include "persist/snapshot.h"
#include "persist/state_codec.h"
#include "util/sim_time.h"

namespace apollo::persist {

using SessionFn = std::function<void(core::ClientSession&)>;

/// Where a host keeps its learned state.
struct LearnedState {
  sql::TemplateCache* templates = nullptr;
  /// Null for hosts that learn no correlations (the Memcached and Fido
  /// configurations): their snapshots carry no mapper or dependency-graph
  /// section, and such sections count as unknown on restore.
  core::PredictionEngine* engine = nullptr;
  const core::ApolloConfig* config = nullptr;
  /// Calls `fn` on every session.
  std::function<void(const SessionFn& fn)> for_each_session;
  /// Calls `fn` on session `id`, creating it if absent.
  std::function<void(core::ClientId id, const SessionFn& fn)> with_session;
};

/// A plain copy of the learned state, ready to encode.
struct LearnedStateCopy {
  sql::TemplateCache::State templates;
  SessionsState sessions;
  bool has_engine = false;
  core::ParamMapper::State mapper;
  core::DependencyGraph::State deps;
};

/// Copies the learned state. Every transition window already closed by
/// `now` is folded into the graphs first (the scanner is lazy), so only
/// still-open windows stay out of the snapshot.
LearnedStateCopy CopyLearnedState(const LearnedState& state,
                                  util::SimTime now);

/// The snapshot image of `copy`, sections in canonical order.
std::string EncodeLearnedState(LearnedStateCopy copy,
                               uint64_t created_at_us);

/// Applies a parsed snapshot section by section. Damaged sections are
/// skipped and counted (with a trace event when `trace` is enabled);
/// every intact one loads. Never fails.
void ApplySnapshot(const Snapshot& snap, const LearnedState& state,
                   RestoreStats* stats, obs::TraceLog* trace);

}  // namespace apollo::persist
