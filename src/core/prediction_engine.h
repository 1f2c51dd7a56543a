// PredictionEngine: Apollo's learning and prediction decisions (paper
// Sections 2-3), written once and driven by both middleware hosts.
//
// The engine owns the correlation state learned across sessions — the
// ParamMapper (Section 2.3) and the FDQ/ADQ DependencyGraph — and borrows
// the host's sql::TemplateCache and ApolloConfig. It is the only home of the
// learning pass (stream append, recent results, parameter-mapping
// observations, FDQ invalidation), Algorithm 3 (FDQ discovery), Algorithm
// 4 (dependency readiness), the instantiation of ready FDQs, the Section
// 3.4.1 freshness model, the Section 3.4.2 ADQ reload and the runtime
// estimate behind them.
//
// Two hosts drive it: core::ApolloMiddleware on the simulator's event loop
// and rt::ConcurrentApollo on real threads. Host differences enter only
// through these seams, never through a branch on which host is calling:
//   - `now` is an argument (simulated time, or the runtime's clock);
//   - decided predictions go to a PredictionSink in decision order. The
//     simulator's sink executes each one at once; the runtime's collects
//     a plan it co-issues on one batched round trip;
//   - an optional veto is consulted once per prediction that passed the
//     freshness check (the runtime's brownout gates);
//   - counters and the trace log are host-supplied pointers;
//   - Learn returns the FDQ ids it invalidated. The calling session's
//     satisfied sets are already cleared; the host clears every other
//     session's under its own locking rules.
//
// The engine takes no locks of its own. A host calls it for one session
// at a time per session; the shared structures (mapper, dependency graph,
// template cache, transition graphs) carry their own internal locking.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result_set.h"
#include "core/client_session.h"
#include "core/config.h"
#include "core/dependency_graph.h"
#include "core/param_mapper.h"
#include "obs/observability.h"
#include "sql/template_cache.h"
#include "util/sim_time.h"

namespace apollo::core {

/// One decided predictive execution: an FDQ instantiated from the
/// session's recent results.
struct PredictionItem {
  uint64_t template_id = 0;
  std::string sql;
  int depth = 0;  // pipeline depth (0 = triggered by a client query)
  /// Observed probability that the client issues this template within
  /// delta-t of the trigger; rides into the cache entry so cost-aware
  /// eviction can weigh it (DESIGN.md §13).
  double probability = 0.0;
};

/// Receives the engine's decisions in decision order.
class PredictionSink {
 public:
  virtual void Issue(const PredictionItem& item) = 0;
  /// `f` needs source rows of the query whose result is still pending;
  /// the host passes it back to OnResultLanded once the result is in.
  virtual void Defer(Fdq* f) = 0;

 protected:
  ~PredictionSink() = default;
};

class PredictionEngine {
 public:
  /// Host-supplied instruments, all required; only the trace log is
  /// optional (null = off).
  struct Instruments {
    obs::Counter* fdqs_discovered = nullptr;
    obs::Counter* fdqs_invalidated = nullptr;
    obs::Counter* adq_reloads = nullptr;
    obs::Counter* skipped_fresh = nullptr;       // Section 3.4.1 veto
    obs::Counter* skipped_incomplete = nullptr;  // no source row to use
    obs::Counter* skipped_invalid = nullptr;     // instantiation failed
    obs::Counter* find_fdq_calls = nullptr;
    obs::Counter* construct_fdq_calls = nullptr;
    obs::Gauge* find_fdq_wall_us = nullptr;       // real time
    obs::Gauge* construct_fdq_wall_us = nullptr;  // real time
    obs::TraceLog* trace = nullptr;
  };

  /// True vetoes the prediction of `f` (the host records why).
  using Veto = std::function<bool(const ClientSession& session, const Fdq& f,
                                  uint64_t trigger)>;

  /// `config` and `templates` must outlive the engine.
  PredictionEngine(const ApolloConfig& config,
                   const sql::TemplateCache* templates,
                   Instruments instruments, Veto veto = nullptr);

  /// Learning pass for one client query: stream append (Algorithm 1
  /// input), recent results and parameter-mapping observations (Section
  /// 2.3). Returns the FDQ ids whose mapping was disproven and which were
  /// removed.
  std::vector<uint64_t> Learn(ClientSession& session, const ObservedQuery& q,
                              util::SimTime now);

  /// Algorithm 2: discovers FDQs related to `q` (Algorithm 3), marks `q`
  /// satisfied in its dependents (Algorithm 4) and predicts every FDQ
  /// that became ready.
  void Predict(ClientSession& session, const ObservedQuery& q,
               util::SimTime now, PredictionSink& sink);

  /// Section 3.4.2: reloads the valuable ADQ hierarchies whose tables the
  /// write `q` just changed.
  void ReloadAdqs(ClientSession& session, const ObservedQuery& q,
                  util::SimTime now, PredictionSink& sink);

  /// A predicted result landed: it becomes a pipeline input, and the FDQs
  /// it makes ready are predicted one level deeper (Section 2.4).
  void OnPredictionCompleted(ClientSession& session, uint64_t template_id,
                             common::ResultSetPtr result, int depth,
                             util::SimTime now, PredictionSink& sink);

  /// The pending result of client query `template_id` landed: it becomes
  /// a pipeline input, and the FDQs deferred on it are decided again.
  void OnResultLanded(ClientSession& session, uint64_t template_id,
                      common::ResultSetPtr result,
                      const std::vector<Fdq*>& deferred, util::SimTime now,
                      PredictionSink& sink);

  /// Observed mean remote execution time of `tpl`, or a fixed fallback
  /// for templates never executed remotely.
  static double ExpectedExecUs(const sql::CachedTemplate* tpl);

  /// Called with every decided item before it reaches the sink. A
  /// diagnostic seam (tests compare decisions across hosts); must be set
  /// before traffic starts and be safe to call from the host's threads.
  void SetDecisionObserver(
      std::function<void(ClientId, const PredictionItem&)> observer) {
    observer_ = std::move(observer);
  }

  ParamMapper& mapper() { return mapper_; }
  DependencyGraph& dependency_graph() { return deps_; }

  /// Learned cross-session state (mapper + dependency graph).
  size_t ApproximateBytes() const;

 private:
  std::vector<Fdq*> FindNewFdqs(ClientSession& session, uint64_t qt);
  std::vector<Fdq*> MarkReadyDependency(ClientSession& session, uint64_t qt);

  /// True if every dependency of `f` has a fresh result in the session
  /// (`pending_fresh`, 0 = none, counts as fresh).
  bool DepsFresh(const ClientSession& session, const Fdq& f,
                 util::SimTime now, uint64_t pending_fresh) const;

  /// Instantiates `f` (fan-out over source rows bounded by config) and
  /// hands the instances to the sink. `trigger` is the template whose
  /// execution made `f` ready (freshness-model anchor).
  void TryPredict(ClientSession& session, Fdq* f, uint64_t trigger,
                  int depth, util::SimTime now, uint64_t pending_fresh,
                  PredictionSink& sink);

  /// Section 3.4.1: false if an invalidating write is likely before the
  /// prediction could be consumed.
  bool FreshnessAllows(const ClientSession& session, const Fdq& f,
                       uint64_t trigger, util::SimTime now,
                       uint64_t pending_fresh) const;

  /// Expected time (us) to execute `f` including unexecuted dependencies.
  double EstimateRuntimeUs(const ClientSession& session, const Fdq& f,
                           util::SimTime now, uint64_t pending_fresh,
                           std::unordered_set<uint64_t>& visiting) const;

  /// Tables read by `f` and its dependency closure.
  void CollectReadTables(const Fdq& f,
                         std::unordered_set<std::string>* tables) const;

  void Trace(obs::TraceEventType type, const ClientSession& session,
             uint64_t template_id,
             obs::SkipReason reason = obs::SkipReason::kNone,
             uint64_t aux = 0) const {
    if (in_.trace != nullptr && in_.trace->enabled()) {
      in_.trace->Record(type, session.id, template_id, reason, aux);
    }
  }

  const ApolloConfig& config_;
  const sql::TemplateCache& templates_;
  Instruments in_;
  Veto veto_;
  std::function<void(ClientId, const PredictionItem&)> observer_;
  ParamMapper mapper_;
  DependencyGraph deps_;
};

}  // namespace apollo::core
