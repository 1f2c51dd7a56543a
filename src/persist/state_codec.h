// Codecs between the core learning structures' canonical State forms and
// snapshot section payloads (DESIGN.md §11).
//
// Encoders consume the already-canonical (sorted) State structs, so equal
// learning state always produces identical payload bytes — the snapshot →
// restore → snapshot byte-identity property the round-trip tests assert.
// Decoders run on untrusted bytes: every read is bounds-checked through
// persist::ByteReader, element counts are validated against the payload
// size before any allocation, and trailing garbage is rejected.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/dependency_graph.h"
#include "core/middleware.h"
#include "core/param_mapper.h"
#include "core/transition_graph.h"
#include "sql/template_cache.h"
#include "util/result.h"

namespace apollo::persist {

std::string EncodeTemplates(const sql::TemplateCache::State& st);
util::Result<sql::TemplateCache::State> DecodeTemplates(
    std::string_view payload);

std::string EncodeParamMapper(const core::ParamMapper::State& st);
util::Result<core::ParamMapper::State> DecodeParamMapper(
    std::string_view payload);

std::string EncodeDependencyGraph(const core::DependencyGraph::State& st);
util::Result<core::DependencyGraph::State> DecodeDependencyGraph(
    std::string_view payload);

/// Per-session persisted learning state: the per-delta-t transition
/// graphs plus the Algorithm-4 satisfied-dependency sets. Stream entries,
/// cursors, recent results/params, last-seen times and the version vector
/// are transient (or deliberately untrusted) and never travel.
struct SessionState {
  core::ClientId id = 0;
  std::vector<core::TransitionGraph::State> graphs;  // ascending delta-t
  /// (fdq id, sorted satisfied dependency ids), sorted by fdq id.
  std::vector<std::pair<uint64_t, std::vector<uint64_t>>> satisfied;
};

struct SessionsState {
  std::vector<SessionState> sessions;  // sorted by client id
};

std::string EncodeSessions(const SessionsState& st);
util::Result<SessionsState> DecodeSessions(std::string_view payload);

}  // namespace apollo::persist
