#include "persist/learned_state.h"

#include <algorithm>

namespace apollo::persist {

namespace {

/// The delta-t ladder QueryStream builds from a config (sorted, with the
/// same 15 s fallback); restores validate snapshots against it up front so
/// a sessions section either applies to every session or to none.
std::vector<util::SimDuration> ConfigLadder(const core::ApolloConfig& config) {
  std::vector<util::SimDuration> ladder = config.delta_ts;
  std::sort(ladder.begin(), ladder.end());
  if (ladder.empty()) ladder.push_back(util::Seconds(15));
  return ladder;
}

bool LadderMatches(const std::vector<core::TransitionGraph::State>& graphs,
                   const std::vector<util::SimDuration>& ladder) {
  if (graphs.size() != ladder.size()) return false;
  for (size_t i = 0; i < graphs.size(); ++i) {
    if (graphs[i].delta_t != ladder[i]) return false;
  }
  return true;
}

/// Decodes and applies one intact section. Returns false for a known type
/// this host does not keep (the engine sections, with prediction off).
/// kNotFound marks an unknown type; any other error marks the section
/// corrupt.
util::Result<bool> ApplySection(uint32_t type, const std::string& payload,
                                const LearnedState& state,
                                RestoreStats* stats) {
  switch (type) {
    case kSectionTemplates: {
      sql::TemplateCache::State st;
      APOLLO_ASSIGN_OR_RETURN(st, DecodeTemplates(payload));
      stats->templates += st.templates.size();
      state.templates->ImportState(st);
      return true;
    }
    case kSectionSessions: {
      SessionsState st;
      APOLLO_ASSIGN_OR_RETURN(st, DecodeSessions(payload));
      const auto ladder = ConfigLadder(*state.config);
      for (const SessionState& s : st.sessions) {
        if (!LadderMatches(s.graphs, ladder)) {
          return util::Status::InvalidArgument(
              "sessions section delta-t ladder differs from config");
        }
      }
      for (const SessionState& s : st.sessions) {
        state.with_session(s.id, [&s](core::ClientSession& session) {
          util::Status gs = session.stream.ImportGraphState(s.graphs);
          (void)gs;  // ladder pre-validated above
          for (const auto& [fdq, deps] : s.satisfied) {
            auto& set = session.satisfied[fdq];
            set.insert(deps.begin(), deps.end());
          }
        });
      }
      stats->sessions += st.sessions.size();
      return true;
    }
    case kSectionParamMapper: {
      if (state.engine == nullptr) return false;
      core::ParamMapper::State st;
      APOLLO_ASSIGN_OR_RETURN(st, DecodeParamMapper(payload));
      stats->pairs += st.pairs.size();
      state.engine->mapper().ImportState(st);
      return true;
    }
    case kSectionDependencyGraph: {
      if (state.engine == nullptr) return false;
      core::DependencyGraph::State st;
      APOLLO_ASSIGN_OR_RETURN(st, DecodeDependencyGraph(payload));
      stats->fdqs += st.fdqs.size();
      state.engine->dependency_graph().ImportState(st);
      return true;
    }
    default:
      break;
  }
  return util::Status::NotFound("unknown section type " +
                                std::to_string(type));
}

}  // namespace

LearnedStateCopy CopyLearnedState(const LearnedState& state,
                                  util::SimTime now) {
  LearnedStateCopy copy;
  copy.templates = state.templates->ExportState();
  state.for_each_session([&](core::ClientSession& session) {
    session.stream.Process(now);
    SessionState s;
    s.id = session.id;
    s.graphs = session.stream.ExportGraphState();
    s.satisfied.reserve(session.satisfied.size());
    for (const auto& [fdq, deps] : session.satisfied) {
      std::vector<uint64_t> sorted_deps(deps.begin(), deps.end());
      std::sort(sorted_deps.begin(), sorted_deps.end());
      s.satisfied.emplace_back(fdq, std::move(sorted_deps));
    }
    std::sort(s.satisfied.begin(), s.satisfied.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    copy.sessions.sessions.push_back(std::move(s));
  });
  if (state.engine != nullptr) {
    copy.has_engine = true;
    copy.mapper = state.engine->mapper().ExportState();
    copy.deps = state.engine->dependency_graph().ExportState();
  }
  return copy;
}

std::string EncodeLearnedState(LearnedStateCopy copy,
                               uint64_t created_at_us) {
  std::sort(copy.sessions.sessions.begin(), copy.sessions.sessions.end(),
            [](const SessionState& a, const SessionState& b) {
              return a.id < b.id;
            });
  SnapshotWriter w;
  w.AddSection(kSectionTemplates, EncodeTemplates(copy.templates));
  w.AddSection(kSectionSessions, EncodeSessions(copy.sessions));
  if (copy.has_engine) {
    w.AddSection(kSectionParamMapper, EncodeParamMapper(copy.mapper));
    w.AddSection(kSectionDependencyGraph, EncodeDependencyGraph(copy.deps));
  }
  return w.Serialize(created_at_us);
}

void ApplySnapshot(const Snapshot& snap, const LearnedState& state,
                   RestoreStats* stats, obs::TraceLog* trace) {
  const bool tracing = trace != nullptr && trace->enabled();
  stats->sections_total = static_cast<uint32_t>(snap.sections.size());
  stats->truncated = snap.truncated;
  for (const SnapshotSection& sec : snap.sections) {
    stats->snapshot_bytes += kSectionHeaderBytes + sec.payload.size();
    if (sec.crc_ok) {
      util::Result<bool> applied =
          ApplySection(sec.type, sec.payload, state, stats);
      if (applied.ok() && *applied) {
        ++stats->sections_loaded;
        continue;
      }
      if (applied.ok()) {
        ++stats->sections_skipped;
      } else if (applied.status().code() == util::StatusCode::kNotFound) {
        ++stats->sections_unknown;
      } else {
        ++stats->sections_corrupt;
      }
    } else {
      ++stats->sections_corrupt;
    }
    if (tracing) {
      trace->Record(obs::TraceEventType::kSnapshotSectionSkipped, -1, 0,
                    obs::SkipReason::kNone, sec.type);
    }
  }
  stats->snapshot_bytes += kHeaderBytes;
  if (tracing) {
    trace->Record(obs::TraceEventType::kSnapshotRestored, -1, 0,
                  obs::SkipReason::kNone, stats->sections_loaded);
  }
}

}  // namespace apollo::persist
