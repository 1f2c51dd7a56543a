#include "persist/state_codec.h"

#include "persist/wire.h"

namespace apollo::persist {
namespace {

util::Status Corrupt(const char* what) {
  return util::Status::InvalidArgument(std::string("corrupt ") + what +
                                       " section payload");
}

void EncodeGraph(ByteWriter& w, const core::TransitionGraph::State& g) {
  w.I64(g.delta_t);
  w.U32(static_cast<uint32_t>(g.vertices.size()));
  for (const auto& v : g.vertices) {
    w.U64(v.id);
    w.U64(v.count);
    w.U32(static_cast<uint32_t>(v.edges.size()));
    for (const auto& [to, count] : v.edges) {
      w.U64(to);
      w.U64(count);
    }
  }
}

bool DecodeGraph(ByteReader& r, core::TransitionGraph::State* g) {
  g->delta_t = r.I64();
  uint32_t nv = r.U32();
  if (!r.CanHold(nv, 20)) return false;  // id + count + edge count
  g->vertices.reserve(nv);
  for (uint32_t i = 0; i < nv; ++i) {
    core::TransitionGraph::ExportedVertex v;
    v.id = r.U64();
    v.count = r.U64();
    uint32_t ne = r.U32();
    if (!r.CanHold(ne, 16)) return false;
    v.edges.reserve(ne);
    for (uint32_t e = 0; e < ne; ++e) {
      uint64_t to = r.U64();
      uint64_t count = r.U64();
      v.edges.emplace_back(to, count);
    }
    g->vertices.push_back(std::move(v));
  }
  return r.ok();
}

}  // namespace

std::string EncodeTemplates(const sql::TemplateCache::State& st) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(st.templates.size()));
  for (const auto& t : st.templates) {
    w.U64(t.id);
    w.Str(t.template_text);
    w.U32(static_cast<uint32_t>(t.num_placeholders));
    w.U8(t.read_only ? 1 : 0);
    w.U32(static_cast<uint32_t>(t.tables_read.size()));
    for (const auto& s : t.tables_read) w.Str(s);
    w.U32(static_cast<uint32_t>(t.tables_written.size()));
    for (const auto& s : t.tables_written) w.Str(s);
    w.U64(t.executions);
    w.Dbl(t.mean_exec_us);
    w.U64(t.observations);
  }
  return w.Take();
}

util::Result<sql::TemplateCache::State> DecodeTemplates(
    std::string_view payload) {
  ByteReader r(payload);
  sql::TemplateCache::State st;
  uint32_t n = r.U32();
  if (!r.CanHold(n, 45)) return Corrupt("templates");
  st.templates.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    sql::TemplateCache::ExportedTemplate t;
    t.id = r.U64();
    t.template_text = r.Str();
    t.num_placeholders = static_cast<int>(r.U32());
    t.read_only = r.U8() != 0;
    uint32_t nr = r.U32();
    if (!r.CanHold(nr, 4)) return Corrupt("templates");
    for (uint32_t j = 0; j < nr; ++j) t.tables_read.push_back(r.Str());
    uint32_t nw = r.U32();
    if (!r.CanHold(nw, 4)) return Corrupt("templates");
    for (uint32_t j = 0; j < nw; ++j) t.tables_written.push_back(r.Str());
    t.executions = r.U64();
    t.mean_exec_us = r.Dbl();
    t.observations = r.U64();
    st.templates.push_back(std::move(t));
  }
  if (!r.Done()) return Corrupt("templates");
  return st;
}

std::string EncodeParamMapper(const core::ParamMapper::State& st) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(st.verification_period));
  w.U32(static_cast<uint32_t>(st.pairs.size()));
  for (const auto& p : st.pairs) {
    w.U64(p.src);
    w.U64(p.dst);
    w.U32(static_cast<uint32_t>(p.observations));
    w.U32(static_cast<uint32_t>(p.masks.size()));
    for (uint64_t m : p.masks) w.U64(m);
    w.U8(p.confirmed ? 1 : 0);
    w.U8(p.invalidated ? 1 : 0);
    w.U32(p.supports);
    w.U32(p.violations);
  }
  return w.Take();
}

util::Result<core::ParamMapper::State> DecodeParamMapper(
    std::string_view payload) {
  ByteReader r(payload);
  core::ParamMapper::State st;
  st.verification_period = static_cast<int>(r.U32());
  uint32_t n = r.U32();
  if (!r.CanHold(n, 34)) return Corrupt("param_mapper");
  st.pairs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    core::ParamMapper::ExportedPair p;
    p.src = r.U64();
    p.dst = r.U64();
    p.observations = static_cast<int32_t>(r.U32());
    uint32_t nm = r.U32();
    if (!r.CanHold(nm, 8)) return Corrupt("param_mapper");
    p.masks.reserve(nm);
    for (uint32_t j = 0; j < nm; ++j) p.masks.push_back(r.U64());
    p.confirmed = r.U8() != 0;
    p.invalidated = r.U8() != 0;
    p.supports = r.U32();
    p.violations = r.U32();
    st.pairs.push_back(std::move(p));
  }
  if (!r.Done()) return Corrupt("param_mapper");
  return st;
}

std::string EncodeDependencyGraph(const core::DependencyGraph::State& st) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(st.fdqs.size()));
  for (const auto& f : st.fdqs) {
    w.U64(f.id);
    w.U32(static_cast<uint32_t>(f.sources.size()));
    for (const auto& s : f.sources) {
      w.U64(s.src);
      w.U32(static_cast<uint32_t>(s.col));
    }
    w.U8(f.is_adq ? 1 : 0);
    w.U8(f.invalid ? 1 : 0);
  }
  return w.Take();
}

util::Result<core::DependencyGraph::State> DecodeDependencyGraph(
    std::string_view payload) {
  ByteReader r(payload);
  core::DependencyGraph::State st;
  uint32_t n = r.U32();
  if (!r.CanHold(n, 14)) return Corrupt("dependency_graph");
  st.fdqs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    core::DependencyGraph::ExportedFdq f;
    f.id = r.U64();
    uint32_t ns = r.U32();
    if (!r.CanHold(ns, 12)) return Corrupt("dependency_graph");
    f.sources.reserve(ns);
    for (uint32_t j = 0; j < ns; ++j) {
      core::SourceRef ref;
      ref.src = r.U64();
      ref.col = static_cast<int>(r.U32());
      f.sources.push_back(ref);
    }
    f.is_adq = r.U8() != 0;
    f.invalid = r.U8() != 0;
    st.fdqs.push_back(std::move(f));
  }
  if (!r.Done()) return Corrupt("dependency_graph");
  return st;
}

std::string EncodeSessions(const SessionsState& st) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(st.sessions.size()));
  for (const auto& s : st.sessions) {
    w.U32(static_cast<uint32_t>(s.id));
    w.U32(static_cast<uint32_t>(s.graphs.size()));
    for (const auto& g : s.graphs) EncodeGraph(w, g);
    w.U32(static_cast<uint32_t>(s.satisfied.size()));
    for (const auto& [fdq, deps] : s.satisfied) {
      w.U64(fdq);
      w.U32(static_cast<uint32_t>(deps.size()));
      for (uint64_t d : deps) w.U64(d);
    }
  }
  return w.Take();
}

util::Result<SessionsState> DecodeSessions(std::string_view payload) {
  ByteReader r(payload);
  SessionsState st;
  uint32_t n = r.U32();
  if (!r.CanHold(n, 12)) return Corrupt("sessions");
  st.sessions.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SessionState s;
    s.id = static_cast<core::ClientId>(r.U32());
    uint32_t ng = r.U32();
    if (!r.CanHold(ng, 12)) return Corrupt("sessions");
    s.graphs.reserve(ng);
    for (uint32_t g = 0; g < ng; ++g) {
      core::TransitionGraph::State gs;
      if (!DecodeGraph(r, &gs)) return Corrupt("sessions");
      s.graphs.push_back(std::move(gs));
    }
    uint32_t nsat = r.U32();
    if (!r.CanHold(nsat, 12)) return Corrupt("sessions");
    s.satisfied.reserve(nsat);
    for (uint32_t j = 0; j < nsat; ++j) {
      uint64_t fdq = r.U64();
      uint32_t nd = r.U32();
      if (!r.CanHold(nd, 8)) return Corrupt("sessions");
      std::vector<uint64_t> deps;
      deps.reserve(nd);
      for (uint32_t d = 0; d < nd; ++d) deps.push_back(r.U64());
      s.satisfied.emplace_back(fdq, std::move(deps));
    }
    st.sessions.push_back(std::move(s));
  }
  if (!r.Done()) return Corrupt("sessions");
  return st;
}

}  // namespace apollo::persist
