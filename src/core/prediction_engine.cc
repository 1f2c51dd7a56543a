#include "core/prediction_engine.h"

#include <algorithm>
#include <chrono>

#include "sql/template.h"
#include "util/wall_clock.h"

namespace apollo::core {

namespace {
/// Fallback runtime estimate for templates never executed remotely.
constexpr double kDefaultRuntimeUs = 100'000.0;  // 100 ms

/// How long a recorded result set stays usable as a pipeline input.
constexpr util::SimDuration kRecentResultTtl = util::Seconds(30);
}  // namespace

PredictionEngine::PredictionEngine(const ApolloConfig& config,
                                   const sql::TemplateCache* templates,
                                   Instruments instruments, Veto veto)
    : config_(config),
      templates_(*templates),
      in_(instruments),
      veto_(std::move(veto)),
      mapper_(config.verification_period, ParamMapper::kDefaultStripes,
              config.max_param_pairs) {}

double PredictionEngine::ExpectedExecUs(const sql::CachedTemplate* tpl) {
  return (tpl != nullptr && tpl->mean_exec_us > 0) ? tpl->mean_exec_us.load()
                                                   : kDefaultRuntimeUs;
}

size_t PredictionEngine::ApproximateBytes() const {
  return mapper_.ApproximateBytes() + deps_.ApproximateBytes();
}

std::vector<uint64_t> PredictionEngine::Learn(ClientSession& session,
                                              const ObservedQuery& q,
                                              util::SimTime now) {
  std::vector<uint64_t> invalidated;

  // --- Stream + transition graphs (Algorithm 1) ---
  session.stream.Append(q.template_id(), now);
  session.stream.Process(now);

  if (q.read_only() && q.result != nullptr) {
    session.recent[q.template_id()] = {q.result, now};
  }

  // --- Parameter-mapping observations (Section 2.3) ---
  // Sources older than this query's own previous execution belong to an
  // earlier transaction; attributing the current parameters to them would
  // produce spurious disproofs (e.g. TPC-C's by-id vs by-name customer
  // lookup variants).
  util::SimTime prev_dst_time = -1;
  {
    auto lit = session.last_seen.find(q.template_id());
    if (lit != session.last_seen.end()) prev_dst_time = lit->second;
    session.last_seen[q.template_id()] = now;
  }
  const util::SimDuration primary_dt = session.stream.primary().delta_t();
  if (!q.read_only() || q.params.empty()) return invalidated;
  auto entries = session.stream.EntriesWithin(now, primary_dt);
  if (!entries.empty()) entries.pop_back();  // drop the current query
  std::unordered_set<uint64_t> seen;
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (it->qt == q.template_id()) continue;
    if (it->time <= prev_dst_time) break;  // earlier transaction
    if (!seen.insert(it->qt).second) continue;
    auto rit = session.recent.find(it->qt);
    if (rit == session.recent.end()) continue;
    if (rit->second.result == nullptr) continue;
    if (rit->second.time + primary_dt < now) continue;
    bool disproven = mapper_.ObservePair(it->qt, *rit->second.result,
                                         q.template_id(), q.params);
    if (disproven) {
      Trace(obs::TraceEventType::kMappingDisproven, session, q.template_id(),
            obs::SkipReason::kNone, /*aux=*/it->qt);
    }
    if (disproven && deps_.Contains(q.template_id())) {
      // Drop the FDQ; it may be re-discovered from surviving mappings
      // (the disproven pair itself stays invalid in the mapper).
      std::vector<uint64_t> adq_revoked;
      deps_.Remove(q.template_id(), &adq_revoked);
      // Satisfaction state is keyed by FDQ id; a later re-discovery with
      // different dependencies must not inherit the removed node's
      // counts. This session's goes now, the host clears the others'.
      session.satisfied.erase(q.template_id());
      invalidated.push_back(q.template_id());
      in_.fdqs_invalidated->Inc();
      Trace(obs::TraceEventType::kFdqInvalidated, session, q.template_id(),
            obs::SkipReason::kNone, /*aux=*/it->qt);
      for (uint64_t revoked : adq_revoked) {
        Trace(obs::TraceEventType::kAdqRevoked, session, revoked);
      }
    }
  }
  return invalidated;
}

void PredictionEngine::Predict(ClientSession& session, const ObservedQuery& q,
                               util::SimTime now, PredictionSink& sink) {
  const uint64_t pending_fresh =
      (q.result_pending && q.read_only()) ? q.template_id() : 0;
  std::vector<Fdq*> new_fdqs = FindNewFdqs(session, q.template_id());
  std::vector<Fdq*> ready = MarkReadyDependency(session, q.template_id());
  for (Fdq* f : new_fdqs) {
    // A freshly discovered FDQ is runnable right away if its dependencies
    // all have recent results in this session.
    if (DepsFresh(session, *f, now, pending_fresh) &&
        std::find(ready.begin(), ready.end(), f) == ready.end()) {
      ready.push_back(f);
    }
  }
  for (Fdq* f : ready) {
    TryPredict(session, f, q.template_id(), /*depth=*/0, now, pending_fresh,
               sink);
  }
}

void PredictionEngine::OnPredictionCompleted(ClientSession& session,
                                             uint64_t template_id,
                                             common::ResultSetPtr result,
                                             int depth, util::SimTime now,
                                             PredictionSink& sink) {
  session.recent[template_id] = {std::move(result), now};
  if (!config_.enable_pipelining) return;
  if (depth + 1 > config_.max_pipeline_depth) return;
  // Pipelining (Section 2.4): a predicted result satisfies dependencies of
  // further FDQs, which now execute with its output as input.
  for (Fdq* f : MarkReadyDependency(session, template_id)) {
    TryPredict(session, f, template_id, depth + 1, now,
               /*pending_fresh=*/0, sink);
  }
}

void PredictionEngine::OnResultLanded(ClientSession& session,
                                      uint64_t template_id,
                                      common::ResultSetPtr result,
                                      const std::vector<Fdq*>& deferred,
                                      util::SimTime now,
                                      PredictionSink& sink) {
  session.recent[template_id] = {std::move(result), now};
  for (Fdq* f : deferred) {
    TryPredict(session, f, template_id, /*depth=*/0, now,
               /*pending_fresh=*/0, sink);
  }
}

std::vector<Fdq*> PredictionEngine::FindNewFdqs(ClientSession& session,
                                                uint64_t qt) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<Fdq*> out;

  auto related = session.stream.primary().Successors(qt, config_.tau);
  std::vector<uint64_t> candidates;
  candidates.reserve(related.size() + 1);
  for (const auto& [id, _] : related) candidates.push_back(id);
  candidates.push_back(qt);

  for (uint64_t id : candidates) {
    if (deps_.Contains(id)) continue;  // already_seen_deps
    const sql::CachedTemplate* tpl = templates_.GetByFingerprint(id);
    if (tpl == nullptr || !tpl->info.read_only) continue;
    auto sources = mapper_.GetSources(id, tpl->info.num_placeholders);
    if (!sources.complete) continue;

    const auto c0 = std::chrono::steady_clock::now();
    std::vector<SourceRef> chosen;
    chosen.reserve(sources.per_param.size());
    for (const auto& options : sources.per_param) {
      // Prefer a source that is already a known FDQ/ADQ (deepens
      // pipelines); otherwise take the first confirmed mapping.
      const SourceRef* pick = &options.front();
      for (const auto& opt : options) {
        const Fdq* src_fdq = deps_.Get(opt.src);
        if (src_fdq != nullptr && !src_fdq->invalid) {
          pick = &opt;
          break;
        }
      }
      chosen.push_back(*pick);
    }
    std::vector<uint64_t> upgraded;
    Fdq* f = deps_.Add(id, std::move(chosen), &upgraded);
    in_.fdqs_discovered->Inc();
    Trace(obs::TraceEventType::kFdqTagged, session, id,
          obs::SkipReason::kNone, /*aux=*/f->deps.size());
    if (f->is_adq) {
      Trace(obs::TraceEventType::kAdqTagged, session, id);
    }
    for (uint64_t up : upgraded) {
      Trace(obs::TraceEventType::kAdqTagged, session, up);
    }
    in_.construct_fdq_wall_us->Add(util::WallMicrosSince(c0));
    in_.construct_fdq_calls->Inc();
    out.push_back(f);
  }

  in_.find_fdq_wall_us->Add(util::WallMicrosSince(t0));
  in_.find_fdq_calls->Inc();
  return out;
}

std::vector<Fdq*> PredictionEngine::MarkReadyDependency(ClientSession& session,
                                                        uint64_t qt) {
  std::vector<Fdq*> ready;
  for (Fdq* f : deps_.DependentsOf(qt)) {
    if (f->invalid) continue;
    auto& sat = session.satisfied[f->id];
    sat.insert(qt);
    if (sat.size() >= f->deps.size()) {
      ready.push_back(f);
      sat.clear();  // reset: must be satisfied again next time
    }
  }
  return ready;
}

bool PredictionEngine::DepsFresh(const ClientSession& session, const Fdq& f,
                                 util::SimTime now,
                                 uint64_t pending_fresh) const {
  for (uint64_t dep : f.deps) {
    if (dep == pending_fresh) continue;  // result lands on this round trip
    auto it = session.recent.find(dep);
    if (it == session.recent.end() || it->second.result == nullptr) {
      return false;
    }
    if (it->second.time + kRecentResultTtl < now) return false;
  }
  return true;
}

void PredictionEngine::TryPredict(ClientSession& session, Fdq* f,
                                  uint64_t trigger, int depth,
                                  util::SimTime now, uint64_t pending_fresh,
                                  PredictionSink& sink) {
  if (f->invalid) return;
  if (pending_fresh != 0) {
    // Source rows that must come from the trigger's own pending result
    // are not here yet: park the whole FDQ until they land, when the
    // decision re-runs with `recent` filled.
    for (const SourceRef& src : f->sources) {
      if (src.src == pending_fresh) {
        sink.Defer(f);
        return;
      }
    }
  }
  const sql::CachedTemplate* tpl = templates_.GetByFingerprint(f->id);
  if (tpl == nullptr) return;

  if (config_.enable_freshness_check &&
      !FreshnessAllows(session, *f, trigger, now, pending_fresh)) {
    in_.skipped_fresh->Inc();
    Trace(obs::TraceEventType::kPredictionSkipped, session, f->id,
          obs::SkipReason::kFreshness, /*aux=*/trigger);
    return;
  }
  if (veto_ && veto_(session, *f, trigger)) return;

  // Confidence of this prediction — the observed probability the client
  // issues f within delta-t of the trigger — rides into the cache entry
  // so cost-aware eviction can weigh it (DESIGN.md §13).
  const double probability =
      session.stream.primary().TransitionProbability(trigger, f->id);

  // Instantiate one prediction per source row (bounded fan-out). Row r of
  // every source feeds fan-out instance r; sources are usually single-row
  // lookups, so the common case is one prediction from row 0.
  PredictionItem item;
  item.template_id = f->id;
  item.depth = depth;
  item.probability = probability;
  for (int row = 0; row < config_.max_fanout_rows; ++row) {
    std::vector<common::Value> params(f->sources.size());
    bool instantiable = true;
    for (size_t p = 0; p < f->sources.size(); ++p) {
      const SourceRef& s = f->sources[p];
      auto it = session.recent.find(s.src);
      if (it == session.recent.end() || it->second.result == nullptr ||
          it->second.time + kRecentResultTtl < now) {
        instantiable = false;
        break;
      }
      const common::ResultSet& rs = *it->second.result;
      if (static_cast<size_t>(row) >= rs.num_rows() ||
          static_cast<size_t>(s.col) >= rs.num_columns()) {
        instantiable = false;  // source has no row `row` (or bad column)
        break;
      }
      params[p] = rs.At(static_cast<size_t>(row),
                        static_cast<size_t>(s.col));
    }
    if (!instantiable) {
      // Row 0 failing means no instance could be built at all; rows > 0
      // simply exhaust the fan-out.
      if (row == 0) {
        in_.skipped_incomplete->Inc();
        Trace(obs::TraceEventType::kPredictionSkipped, session, f->id,
              obs::SkipReason::kIncompleteSources, /*aux=*/trigger);
      }
      break;
    }
    auto status =
        sql::InstantiateTo(tpl->info.template_text, params, &item.sql);
    if (!status.ok()) {
      in_.skipped_invalid->Inc();
      Trace(obs::TraceEventType::kPredictionSkipped, session, f->id,
            obs::SkipReason::kInvalidSql, /*aux=*/trigger);
      break;
    }
    if (observer_) observer_(session.id, item);
    sink.Issue(item);
    if (f->sources.empty()) break;  // parameterless: exactly one instance
  }
}

double PredictionEngine::EstimateRuntimeUs(
    const ClientSession& session, const Fdq& f, util::SimTime now,
    uint64_t pending_fresh, std::unordered_set<uint64_t>& visiting) const {
  if (!visiting.insert(f.id).second) return 0.0;  // dependency loop
  const double own = ExpectedExecUs(templates_.GetByFingerprint(f.id));
  double dep_max = 0.0;
  for (uint64_t dep : f.deps) {
    // A dependency with a fresh result contributes nothing: its output is
    // already available to forward.
    if (dep == pending_fresh) continue;
    auto it = session.recent.find(dep);
    if (it != session.recent.end() && it->second.result != nullptr &&
        it->second.time + kRecentResultTtl >= now) {
      continue;
    }
    const Fdq* d = deps_.Get(dep);
    const double est =
        (d != nullptr && !d->invalid)
            ? EstimateRuntimeUs(session, *d, now, pending_fresh, visiting)
            : ExpectedExecUs(templates_.GetByFingerprint(dep));
    dep_max = std::max(dep_max, est);
  }
  visiting.erase(f.id);
  return own + dep_max;
}

void PredictionEngine::CollectReadTables(
    const Fdq& f, std::unordered_set<std::string>* tables) const {
  std::vector<uint64_t> frontier = {f.id};
  std::unordered_set<uint64_t> visited;
  while (!frontier.empty()) {
    uint64_t id = frontier.back();
    frontier.pop_back();
    if (!visited.insert(id).second) continue;
    const sql::CachedTemplate* tpl = templates_.GetByFingerprint(id);
    if (tpl != nullptr) {
      for (const auto& t : tpl->info.tables_read) tables->insert(t);
    }
    const Fdq* node = deps_.Get(id);
    if (node != nullptr) {
      for (uint64_t dep : node->deps) frontier.push_back(dep);
    }
  }
}

bool PredictionEngine::FreshnessAllows(const ClientSession& session,
                                       const Fdq& f, uint64_t trigger,
                                       util::SimTime now,
                                       uint64_t pending_fresh) const {
  std::unordered_set<uint64_t> visiting;
  double est_us = EstimateRuntimeUs(session, f, now, pending_fresh, visiting);
  const TransitionGraph& graph = session.stream.GraphCovering(
      static_cast<util::SimDuration>(est_us));

  std::unordered_set<std::string> read_tables;
  CollectReadTables(f, &read_tables);

  double invalidation_mass = graph.SuccessorProbabilityMass(
      trigger, [&](uint64_t succ) {
        const sql::CachedTemplate* tpl = templates_.GetByFingerprint(succ);
        if (tpl == nullptr || tpl->info.read_only) return false;
        for (const auto& t : tpl->info.tables_written) {
          if (read_tables.count(t) > 0) return true;
        }
        return false;
      });
  // < tau, matching Successors' >= tau: invalidation mass at exactly tau
  // is significant and vetoes the prediction.
  return invalidation_mass < config_.tau;
}

void PredictionEngine::ReloadAdqs(ClientSession& session,
                                  const ObservedQuery& q, util::SimTime now,
                                  PredictionSink& sink) {
  const uint64_t total = std::max<uint64_t>(1, templates_.total_observations());

  for (const Fdq* f : deps_.Adqs()) {
    const sql::CachedTemplate* tpl = templates_.GetByFingerprint(f->id);
    if (tpl == nullptr) continue;

    // Only hierarchies whose data was just written need reloading.
    std::unordered_set<std::string> read_tables;
    CollectReadTables(*f, &read_tables);
    bool affected = false;
    for (const auto& t : q.tpl->info.tables_written) {
      if (read_tables.count(t) > 0) {
        affected = true;
        break;
      }
    }
    if (!affected) continue;

    // cost(Qt) = P(Qt) * mean_rt(Qt)  [Section 3.4.2], in probability x ms.
    double p = static_cast<double>(tpl->observations) /
               static_cast<double>(total);
    double cost = p * tpl->mean_exec_us / 1000.0;
    if (cost < config_.alpha) continue;

    in_.adq_reloads->Inc();
    Trace(obs::TraceEventType::kAdqReload, session, f->id,
          obs::SkipReason::kNone, /*aux=*/q.template_id());
    // Execute the hierarchy's roots; pipelining fills in dependents as
    // their inputs land.
    std::vector<const Fdq*> frontier = {f};
    std::unordered_set<uint64_t> visited;
    while (!frontier.empty()) {
      const Fdq* node = frontier.back();
      frontier.pop_back();
      if (!visited.insert(node->id).second) continue;
      if (node->deps.empty()) {
        TryPredict(session, const_cast<Fdq*>(node), q.template_id(),
                   /*depth=*/0, now, /*pending_fresh=*/0, sink);
        continue;
      }
      bool all_known = true;
      for (uint64_t dep : node->deps) {
        const Fdq* d = deps_.Get(dep);
        if (d == nullptr) {
          all_known = false;
          continue;
        }
        frontier.push_back(d);
      }
      if (!all_known && DepsFresh(session, *node, now, /*pending_fresh=*/0)) {
        // Cannot regenerate inputs, but recent results still instantiate it.
        TryPredict(session, const_cast<Fdq*>(node), q.template_id(),
                   /*depth=*/0, now, /*pending_fresh=*/0, sink);
      }
    }
  }
}

}  // namespace apollo::core
