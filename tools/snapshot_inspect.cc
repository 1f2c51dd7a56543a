// snapshot_inspect: dump an Apollo learned-state snapshot (DESIGN.md §11).
//
//   snapshot_inspect [--json] <snapshot-file>
//   snapshot_inspect --diff <snapshot-a> <snapshot-b>
//
// Prints the header, per-section framing (type, size, CRC verdict) and a
// decoded summary of each known section. Damaged sections are reported,
// not fatal — the tool sees exactly what the loader's partial recovery
// would. Exit status: 0 if the header parsed, 1 otherwise.
//
// --diff compares two edges' snapshots section by section (templates by
// id, correlation pairs by (src,dst), dependency graphs by fdq id,
// sessions by client) and reports per-section drift — the operator's view
// of how far two cluster edges' learned state has diverged (DESIGN.md
// §15). Exit status: 0 if identical, 1 if drifted, 2 on parse error.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>

#include "persist/snapshot.h"
#include "persist/state_codec.h"

namespace {

using namespace apollo;  // tool-only brevity

void PrintJsonEscaped(const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::printf("\\%c", c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", c);
    } else {
      std::putchar(c);
    }
  }
}

void SummarizeSectionText(const persist::SnapshotSection& sec) {
  switch (sec.type) {
    case persist::kSectionTemplates: {
      auto st = persist::DecodeTemplates(sec.payload);
      if (!st.ok()) {
        std::printf("    <decode failed: %s>\n", st.status().message().c_str());
        return;
      }
      std::printf("    %zu templates\n", st->templates.size());
      for (const auto& t : st->templates) {
        std::printf("    - id=%016" PRIx64 " execs=%" PRIu64 " obs=%" PRIu64
                    " mean_us=%.1f %s\n      %s\n",
                    t.id, t.executions, t.observations, t.mean_exec_us,
                    t.read_only ? "ro" : "rw", t.template_text.c_str());
      }
      break;
    }
    case persist::kSectionParamMapper: {
      auto st = persist::DecodeParamMapper(sec.payload);
      if (!st.ok()) {
        std::printf("    <decode failed: %s>\n", st.status().message().c_str());
        return;
      }
      std::printf("    verification_period=%d, %zu pairs\n",
                  st->verification_period, st->pairs.size());
      for (const auto& p : st->pairs) {
        std::printf("    - %016" PRIx64 " -> %016" PRIx64
                    " obs=%d conf=%d inval=%d sup=%u viol=%u\n",
                    p.src, p.dst, p.observations, p.confirmed ? 1 : 0,
                    p.invalidated ? 1 : 0, p.supports, p.violations);
      }
      break;
    }
    case persist::kSectionDependencyGraph: {
      auto st = persist::DecodeDependencyGraph(sec.payload);
      if (!st.ok()) {
        std::printf("    <decode failed: %s>\n", st.status().message().c_str());
        return;
      }
      std::printf("    %zu fdqs\n", st->fdqs.size());
      for (const auto& f : st->fdqs) {
        std::printf("    - fdq=%016" PRIx64 " sources=%zu%s%s\n", f.id,
                    f.sources.size(), f.is_adq ? " adq" : "",
                    f.invalid ? " INVALID" : "");
      }
      break;
    }
    case persist::kSectionSessions: {
      auto st = persist::DecodeSessions(sec.payload);
      if (!st.ok()) {
        std::printf("    <decode failed: %s>\n", st.status().message().c_str());
        return;
      }
      std::printf("    %zu sessions\n", st->sessions.size());
      for (const auto& s : st->sessions) {
        std::printf("    - client=%d graphs=%zu satisfied=%zu\n", s.id,
                    s.graphs.size(), s.satisfied.size());
        for (const auto& g : s.graphs) {
          uint64_t edges = 0;
          for (const auto& v : g.vertices) edges += v.edges.size();
          std::printf("      dt=%" PRId64 "us vertices=%zu edges=%" PRIu64
                      "\n",
                      static_cast<int64_t>(g.delta_t), g.vertices.size(),
                      edges);
          for (const auto& v : g.vertices) {
            std::printf("        v=%016" PRIx64 " wv=%" PRIu64 ":", v.id,
                        v.count);
            for (const auto& [to, we] : v.edges) {
              std::printf(" ->%016" PRIx64 "(we=%" PRIu64 ")", to, we);
            }
            std::printf("\n");
          }
        }
      }
      break;
    }
    default:
      std::printf("    <unknown section type>\n");
  }
}

void SummarizeSectionJson(const persist::SnapshotSection& sec) {
  switch (sec.type) {
    case persist::kSectionTemplates: {
      auto st = persist::DecodeTemplates(sec.payload);
      if (!st.ok()) break;
      std::printf(",\"templates\":[");
      bool first = true;
      for (const auto& t : st->templates) {
        std::printf("%s{\"id\":\"%016" PRIx64 "\",\"executions\":%" PRIu64
                    ",\"observations\":%" PRIu64 ",\"mean_exec_us\":%.3f,"
                    "\"read_only\":%s,\"text\":\"",
                    first ? "" : ",", t.id, t.executions, t.observations,
                    t.mean_exec_us, t.read_only ? "true" : "false");
        PrintJsonEscaped(t.template_text);
        std::printf("\"}");
        first = false;
      }
      std::printf("]");
      break;
    }
    case persist::kSectionParamMapper: {
      auto st = persist::DecodeParamMapper(sec.payload);
      if (!st.ok()) break;
      std::printf(",\"verification_period\":%d,\"pairs\":[",
                  st->verification_period);
      bool first = true;
      for (const auto& p : st->pairs) {
        std::printf("%s{\"src\":\"%016" PRIx64 "\",\"dst\":\"%016" PRIx64
                    "\",\"observations\":%d,\"confirmed\":%s,"
                    "\"invalidated\":%s,\"supports\":%u,\"violations\":%u}",
                    first ? "" : ",", p.src, p.dst, p.observations,
                    p.confirmed ? "true" : "false",
                    p.invalidated ? "true" : "false", p.supports,
                    p.violations);
        first = false;
      }
      std::printf("]");
      break;
    }
    case persist::kSectionDependencyGraph: {
      auto st = persist::DecodeDependencyGraph(sec.payload);
      if (!st.ok()) break;
      std::printf(",\"fdqs\":[");
      bool first = true;
      for (const auto& f : st->fdqs) {
        std::printf("%s{\"id\":\"%016" PRIx64 "\",\"sources\":%zu,"
                    "\"is_adq\":%s,\"invalid\":%s}",
                    first ? "" : ",", f.id, f.sources.size(),
                    f.is_adq ? "true" : "false", f.invalid ? "true" : "false");
        first = false;
      }
      std::printf("]");
      break;
    }
    case persist::kSectionSessions: {
      auto st = persist::DecodeSessions(sec.payload);
      if (!st.ok()) break;
      std::printf(",\"sessions\":[");
      bool first = true;
      for (const auto& s : st->sessions) {
        std::printf("%s{\"client\":%d,\"graphs\":[", first ? "" : ",", s.id);
        bool gfirst = true;
        for (const auto& g : s.graphs) {
          uint64_t edges = 0, wv = 0;
          for (const auto& v : g.vertices) {
            edges += v.edges.size();
            wv += v.count;
          }
          std::printf("%s{\"delta_t_us\":%" PRId64 ",\"vertices\":%zu,"
                      "\"edges\":%" PRIu64 ",\"total_wv\":%" PRIu64 "}",
                      gfirst ? "" : ",", static_cast<int64_t>(g.delta_t),
                      g.vertices.size(), edges, wv);
          gfirst = false;
        }
        std::printf("],\"satisfied\":%zu}", s.satisfied.size());
        first = false;
      }
      std::printf("]");
      break;
    }
    default:
      break;
  }
}

int Run(const std::string& path, bool json) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 1;
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  auto snap = persist::ParseSnapshot(bytes);
  if (!snap.ok()) {
    std::fprintf(stderr, "error: %s\n", snap.status().message().c_str());
    return 1;
  }

  if (json) {
    std::printf("{\"file\":\"");
    PrintJsonEscaped(path);
    std::printf("\",\"bytes\":%zu,\"format_version\":%u,"
                "\"created_at_us\":%" PRIu64 ",\"declared_sections\":%u,"
                "\"truncated\":%s,\"sections\":[",
                bytes.size(), snap->format_version, snap->created_at_us,
                snap->section_count, snap->truncated ? "true" : "false");
    bool first = true;
    for (const auto& sec : snap->sections) {
      std::printf("%s{\"type\":%u,\"name\":\"%s\",\"payload_bytes\":%zu,"
                  "\"crc_ok\":%s,\"crc_stored\":\"%08x\","
                  "\"crc_computed\":\"%08x\"",
                  first ? "" : ",", sec.type, persist::SectionName(sec.type),
                  sec.payload.size(), sec.crc_ok ? "true" : "false",
                  sec.crc_stored, sec.crc_computed);
      if (sec.crc_ok) SummarizeSectionJson(sec);
      std::printf("}");
      first = false;
    }
    std::printf("]}\n");
    return 0;
  }

  std::printf("snapshot   : %s (%zu bytes)\n", path.c_str(), bytes.size());
  std::printf("format     : v%u, created_at_us=%" PRIu64 "\n",
              snap->format_version, snap->created_at_us);
  std::printf("sections   : %zu present, %u declared%s\n",
              snap->sections.size(), snap->section_count,
              snap->truncated ? "  [TRUNCATED]" : "");
  for (const auto& sec : snap->sections) {
    std::printf("  [%-16s] type=%u payload=%zu bytes crc=%s",
                persist::SectionName(sec.type), sec.type, sec.payload.size(),
                sec.crc_ok ? "ok" : "BAD");
    if (!sec.crc_ok) {
      std::printf(" (stored=%08x computed=%08x)", sec.crc_stored,
                  sec.crc_computed);
    }
    std::printf("\n");
    if (sec.crc_ok) SummarizeSectionText(sec);
  }
  return 0;
}

// Decoded view of one snapshot used by --diff. A section that is absent
// or failed its CRC simply stays empty; the diff then reports everything
// on the other side as present-only-there, mirroring what the partial
// loader would actually recover.
struct DecodedSnapshot {
  bool templates_ok = false;
  sql::TemplateCache::State templates;
  bool mapper_ok = false;
  core::ParamMapper::State mapper;
  bool graph_ok = false;
  core::DependencyGraph::State graph;
  bool sessions_ok = false;
  persist::SessionsState sessions;
};

bool LoadDecoded(const std::string& path, DecodedSnapshot* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return false;
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  auto snap = persist::ParseSnapshot(bytes);
  if (!snap.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                 snap.status().message().c_str());
    return false;
  }
  for (const auto& sec : snap->sections) {
    if (!sec.crc_ok) continue;
    switch (sec.type) {
      case persist::kSectionTemplates:
        if (auto st = persist::DecodeTemplates(sec.payload); st.ok()) {
          out->templates = std::move(*st);
          out->templates_ok = true;
        }
        break;
      case persist::kSectionParamMapper:
        if (auto st = persist::DecodeParamMapper(sec.payload); st.ok()) {
          out->mapper = std::move(*st);
          out->mapper_ok = true;
        }
        break;
      case persist::kSectionDependencyGraph:
        if (auto st = persist::DecodeDependencyGraph(sec.payload); st.ok()) {
          out->graph = std::move(*st);
          out->graph_ok = true;
        }
        break;
      case persist::kSectionSessions:
        if (auto st = persist::DecodeSessions(sec.payload); st.ok()) {
          out->sessions = std::move(*st);
          out->sessions_ok = true;
        }
        break;
      default:
        break;
    }
  }
  return true;
}

// Per-section drift tally. "changed" means the key exists on both sides
// with different learned values; presence drift is counted separately so
// an operator can tell "B has not learned this yet" from "B disagrees".
struct Drift {
  size_t only_a = 0;
  size_t only_b = 0;
  size_t changed = 0;
  size_t common = 0;
  bool Any() const { return only_a + only_b + changed > 0; }
};

void PrintDrift(const char* name, const Drift& d) {
  std::printf("  [%-16s] only_a=%zu only_b=%zu changed=%zu common=%zu%s\n",
              name, d.only_a, d.only_b, d.changed, d.common,
              d.Any() ? "" : "  (identical)");
}

int Diff(const std::string& path_a, const std::string& path_b) {
  DecodedSnapshot a, b;
  if (!LoadDecoded(path_a, &a) || !LoadDecoded(path_b, &b)) return 2;
  std::printf("diff       : A=%s B=%s\n", path_a.c_str(), path_b.c_str());
  bool drifted = false;

  // Templates by id: drift on execution/observation counters or text.
  {
    Drift d;
    std::map<uint64_t, const sql::TemplateCache::ExportedTemplate*> bm;
    for (const auto& t : b.templates.templates) bm[t.id] = &t;
    for (const auto& t : a.templates.templates) {
      auto it = bm.find(t.id);
      if (it == bm.end()) {
        ++d.only_a;
        continue;
      }
      ++d.common;
      const auto& o = *it->second;
      if (t.executions != o.executions || t.observations != o.observations ||
          t.template_text != o.template_text) {
        ++d.changed;
      }
      bm.erase(it);
    }
    d.only_b = bm.size();
    PrintDrift("templates", d);
    drifted |= d.Any();
  }

  // Correlation pairs by (src,dst): drift on confirmation state or
  // support/violation evidence.
  {
    Drift d;
    std::map<std::pair<uint64_t, uint64_t>, const core::ParamMapper::ExportedPair*> bm;
    for (const auto& p : b.mapper.pairs) bm[{p.src, p.dst}] = &p;
    for (const auto& p : a.mapper.pairs) {
      auto it = bm.find({p.src, p.dst});
      if (it == bm.end()) {
        ++d.only_a;
        continue;
      }
      ++d.common;
      const auto& o = *it->second;
      if (p.confirmed != o.confirmed || p.invalidated != o.invalidated ||
          p.observations != o.observations || p.supports != o.supports ||
          p.violations != o.violations) {
        ++d.changed;
      }
      bm.erase(it);
    }
    d.only_b = bm.size();
    PrintDrift("param_mapper", d);
    drifted |= d.Any();
  }

  // Dependency graph by fdq id: drift on source-set size or flags.
  {
    Drift d;
    std::map<uint64_t, const core::DependencyGraph::ExportedFdq*> bm;
    for (const auto& f : b.graph.fdqs) bm[f.id] = &f;
    for (const auto& f : a.graph.fdqs) {
      auto it = bm.find(f.id);
      if (it == bm.end()) {
        ++d.only_a;
        continue;
      }
      ++d.common;
      const auto& o = *it->second;
      if (f.sources.size() != o.sources.size() || f.is_adq != o.is_adq ||
          f.invalid != o.invalid) {
        ++d.changed;
      }
      bm.erase(it);
    }
    d.only_b = bm.size();
    PrintDrift("dependency_graph", d);
    drifted |= d.Any();
  }

  // Sessions by client id: drift on graph count or total edge weight.
  {
    Drift d;
    std::map<core::ClientId, const persist::SessionState*> bm;
    for (const auto& s : b.sessions.sessions) bm[s.id] = &s;
    auto weight = [](const persist::SessionState& s) {
      uint64_t w = 0;
      for (const auto& g : s.graphs) {
        for (const auto& v : g.vertices) {
          w += v.count;
          w += v.edges.size();
        }
      }
      return w;
    };
    for (const auto& s : a.sessions.sessions) {
      auto it = bm.find(s.id);
      if (it == bm.end()) {
        ++d.only_a;
        continue;
      }
      ++d.common;
      if (s.graphs.size() != it->second->graphs.size() ||
          weight(s) != weight(*it->second)) {
        ++d.changed;
      }
      bm.erase(it);
    }
    d.only_b = bm.size();
    PrintDrift("sessions", d);
    drifted |= d.Any();
  }

  std::printf("verdict    : %s\n", drifted ? "DRIFTED" : "identical");
  return drifted ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool diff = false;
  const char* path = nullptr;
  const char* path_b = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--diff") == 0) {
      diff = true;
    } else if (path == nullptr) {
      path = argv[i];
    } else if (diff && path_b == nullptr) {
      path_b = argv[i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json] <snapshot-file>\n"
                   "       %s --diff <snapshot-a> <snapshot-b>\n",
                   argv[0], argv[0]);
      return 1;
    }
  }
  if (path == nullptr || (diff && path_b == nullptr)) {
    std::fprintf(stderr,
                 "usage: %s [--json] <snapshot-file>\n"
                 "       %s --diff <snapshot-a> <snapshot-b>\n",
                 argv[0], argv[0]);
    return 1;
  }
  if (diff) return Diff(path, path_b);
  return Run(path, json);
}
