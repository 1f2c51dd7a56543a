#include "sql/template_cache.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "sql/parser.h"

namespace apollo::sql {

namespace {

/// Fixed sizes behind ApproximateBytes: a catalog header and one record per
/// template (fingerprint, text and table-list handles, placeholder count,
/// read-only flag, three statistics). Fixed rather than sizeof-derived so
/// the learning-state figure reads the same on every platform.
constexpr size_t kCatalogHeaderBytes = 104;
constexpr size_t kTemplateRecordBytes = 120;

/// Type-strict equality: the lex-key → template mapping is only recorded
/// when the scanner extracted exactly what the full parse extracted, so a
/// fast-path hit is bit-identical by construction. Value::operator== is too
/// lenient here (INT 3 == DOUBLE 3.0 would mask a divergence).
bool SameParams(const std::vector<common::Value>& a,
                const std::vector<common::Value>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].type() != b[i].type() || a[i] != b[i]) return false;
  }
  return true;
}

}  // namespace

util::Result<AdmittedQuery> TemplateCache::Admit(const std::string& sql) {
  // Scratch reused across admissions on this thread: the key buffer keeps
  // its capacity (params are moved out on every hit, so only the small
  // reserve recurs).
  thread_local LexTemplateResult lex;
  const bool lex_ok = LexTemplatize(sql, &lex);
  if (lex_ok) {
    CachedTemplatePtr tpl;
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      auto it = by_lex_key_.find(lex.key);
      if (it != by_lex_key_.end()) tpl = it->second;
    }
    if (tpl != nullptr &&
        static_cast<int>(lex.params.size()) == tpl->info.num_placeholders) {
      AdmittedQuery q;
      q.tpl = std::move(tpl);
      q.params = std::move(lex.params);
      q.via_fast_path = true;
      APOLLO_RETURN_NOT_OK(
          InstantiateTo(q.tpl->info.template_text, q.params,
                        &q.canonical_text));
      fast_hits_.fetch_add(1, std::memory_order_relaxed);
      return q;
    }
  }

  // First sight / bail: full parse, then seed the cache so the next query
  // with this lex key takes the fast path.
  auto info = Templatize(sql);
  if (!info.ok()) return info.status();
  fallbacks_.fetch_add(1, std::memory_order_relaxed);

  AdmittedQuery q;
  q.params = std::move(info->params);
  q.canonical_text = std::move(info->canonical_text);
  info->params.clear();
  info->canonical_text.clear();
  const bool map_lex_key = lex_ok && SameParams(lex.params, q.params);
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    q.tpl = InternLocked(std::move(*info));
    if (map_lex_key) by_lex_key_.emplace(std::move(lex.key), q.tpl);
  }
  return q;
}

const CachedTemplate* TemplateCache::GetByFingerprint(
    uint64_t fingerprint) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = by_fingerprint_.find(fingerprint);
  return it != by_fingerprint_.end() ? it->second.get() : nullptr;
}

size_t TemplateCache::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return by_fingerprint_.size();
}

size_t TemplateCache::ApproximateBytes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t total = kCatalogHeaderBytes;
  for (const auto& [_, tpl] : by_fingerprint_) {
    total += kTemplateRecordBytes + tpl->info.template_text.size();
    for (const auto& t : tpl->info.tables_read) total += t.size() + 16;
    for (const auto& t : tpl->info.tables_written) total += t.size() + 16;
  }
  return total;
}

TemplateCache::State TemplateCache::ExportState() const {
  State st;
  std::shared_lock<std::shared_mutex> lock(mu_);
  st.templates.reserve(by_fingerprint_.size());
  for (const auto& [id, tpl] : by_fingerprint_) {
    ExportedTemplate et;
    et.id = id;
    et.template_text = tpl->info.template_text;
    et.num_placeholders = tpl->info.num_placeholders;
    et.read_only = tpl->info.read_only;
    et.tables_read = tpl->info.tables_read;
    et.tables_written = tpl->info.tables_written;
    et.executions = tpl->executions.load(std::memory_order_relaxed);
    et.mean_exec_us = tpl->mean_exec_us.load(std::memory_order_relaxed);
    et.observations = tpl->observations.load(std::memory_order_relaxed);
    st.templates.push_back(std::move(et));
  }
  std::sort(st.templates.begin(), st.templates.end(),
            [](const ExportedTemplate& a, const ExportedTemplate& b) {
              return a.id < b.id;
            });
  return st;
}

void TemplateCache::ImportState(const State& state) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (const ExportedTemplate& et : state.templates) {
    if (by_fingerprint_.count(et.id) > 0) continue;  // live state wins
    TemplateInfo info;
    info.fingerprint = et.id;
    info.template_text = et.template_text;
    info.num_placeholders = et.num_placeholders;
    info.read_only = et.read_only;
    info.tables_read = et.tables_read;
    info.tables_written = et.tables_written;
    const CachedTemplatePtr tpl = InternLocked(std::move(info));
    tpl->executions.store(et.executions, std::memory_order_relaxed);
    tpl->mean_exec_us.store(et.mean_exec_us, std::memory_order_relaxed);
    tpl->observations.store(et.observations, std::memory_order_relaxed);
    // Keep total_observations() equal to the sum of per-template counts.
    total_observations_.fetch_add(et.observations,
                                  std::memory_order_relaxed);
  }
}

CachedTemplatePtr TemplateCache::InternLocked(TemplateInfo&& info) {
  auto it = by_fingerprint_.find(info.fingerprint);
  if (it != by_fingerprint_.end()) return it->second;
  auto entry = std::make_shared<CachedTemplate>();
  entry->info = std::move(info);
  // Re-parse the template text once to get the parameterized statement. The
  // parser assigns placeholder indices in token order, which is template
  // print order — i.e. the order of every admitted query's params vector.
  auto stmt = Parse(entry->info.template_text);
  if (stmt.ok()) entry->statement = std::move(*stmt);
  CachedTemplatePtr shared = std::move(entry);
  by_fingerprint_.emplace(shared->info.fingerprint, shared);
  return shared;
}

}  // namespace apollo::sql
