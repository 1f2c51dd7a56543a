// Concurrent template cache (parse-once admission, DESIGN.md Section 10):
// each host's one catalog of query templates, keyed by the 64-bit
// fingerprint of their constant-independent parse tree (paper Section 3).
//
// Memoizes one CachedTemplate per template fingerprint: the TemplateInfo
// produced by the full parse plus the parameterized Statement re-parsed from
// the template text, and the template's runtime statistics. Admission goes
// through Admit(): the lex fast path (fast_path.h) resolves repeat queries to
// their cached template without building an AST; first sights and lexically
// ambiguous queries fall back to the full parse and seed the cache.
//
// Invariants:
//  - A CachedTemplate's info and statement are immutable after insertion;
//    only its atomic statistics change. Entries are published as
//    shared_ptr<const CachedTemplate> and never evicted, so readers may hold
//    them (or raw pointers to them) for the cache's lifetime.
//  - Equal lex keys imply equal fingerprints (enforced by construction: a
//    lex key is only mapped after a successful full parse of a query with
//    that key, and the scanner's normalization mirrors the tokenizer's).
//  - `statement` is parsed from template_text, so its placeholder indices
//    are in template print order == the params vector order.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/value.h"
#include "sql/ast.h"
#include "sql/fast_path.h"
#include "sql/template.h"
#include "util/result.h"
#include "util/sim_time.h"

namespace apollo::sql {

/// One immutable, shareable template: the constant-independent TemplateInfo
/// plus the parameterized statement used by the prepared execution path.
struct CachedTemplate {
  /// Template-level metadata. `params` and `canonical_text` are cleared —
  /// they are per-query, not per-template (see AdmittedQuery).
  TemplateInfo info;
  /// Statement parsed from info.template_text, every literal a placeholder
  /// whose index is the position in a query's params vector. Null when the
  /// template text does not round-trip through the parser; such templates
  /// simply never use the prepared path.
  std::unique_ptr<const Statement> statement;

  // Runtime statistics: execution count and mean for the freshness model's
  // runtime estimate (Section 3.4.1), stream observations for P(Qt) in the
  // ADQ reload cost (Section 3.4.2).
  mutable std::atomic<uint64_t> executions{0};    // completed remote runs
  mutable std::atomic<double> mean_exec_us{0.0};  // mean DB round-trip time
  mutable std::atomic<uint64_t> observations{0};  // times seen in a stream

  /// Records one completed execution's response time (cumulative mean).
  /// The count is claimed with fetch_add, then the mean folds in via CAS;
  /// concurrent updates may fold in a slightly different order, which is
  /// acceptable for an estimate. Single-threaded, this computes exactly
  /// the sequential cumulative mean.
  void RecordExecution(util::SimDuration exec_time) const {
    uint64_t n = executions.fetch_add(1, std::memory_order_relaxed) + 1;
    double sample = static_cast<double>(exec_time);
    double cur = mean_exec_us.load(std::memory_order_relaxed);
    double next;
    do {
      next = cur + (sample - cur) / static_cast<double>(n);
    } while (!mean_exec_us.compare_exchange_weak(cur, next,
                                                 std::memory_order_relaxed));
  }
};

using CachedTemplatePtr = std::shared_ptr<const CachedTemplate>;

/// One admitted query: its (shared, immutable) template plus the per-query
/// state — bound parameters and the canonical cache-key text.
struct AdmittedQuery {
  CachedTemplatePtr tpl;
  std::vector<common::Value> params;
  /// Canonical text with constants in place (the KvCache key / trace text).
  std::string canonical_text;
  /// True when the lex fast path resolved this query (no AST was built).
  bool via_fast_path = false;

  uint64_t fingerprint() const { return tpl->info.fingerprint; }
  const std::string& template_text() const { return tpl->info.template_text; }
  bool read_only() const { return tpl->info.read_only; }
  int num_placeholders() const { return tpl->info.num_placeholders; }
  const std::vector<std::string>& tables_read() const {
    return tpl->info.tables_read;
  }
  const std::vector<std::string>& tables_written() const {
    return tpl->info.tables_written;
  }
  /// True when this query can run through the prepared execution path:
  /// the template round-tripped through the parser and every placeholder
  /// has a bound value.
  bool preparable() const {
    return tpl->statement != nullptr &&
           static_cast<int>(params.size()) == tpl->info.num_placeholders;
  }
};

/// Thread-safe fingerprint-keyed template cache. Entries are interned once
/// and never evicted: the template universe is the workload's statement set,
/// bounded and small.
class TemplateCache {
 public:
  /// Admits one query: lex fast path when possible, full parse otherwise.
  /// Returns the same fingerprint/params/canonical text the full
  /// parse+print route would produce, or the parse error.
  util::Result<AdmittedQuery> Admit(const std::string& sql);

  /// Returns the template for `fingerprint`, or nullptr.
  const CachedTemplate* GetByFingerprint(uint64_t fingerprint) const;

  /// Total stream observations across all templates (denominator for
  /// P(Qt) in the ADQ reload cost function).
  uint64_t total_observations() const {
    return total_observations_.load(std::memory_order_relaxed);
  }
  /// Counts one stream observation of `tpl`, an entry of this cache.
  void BumpObservations(const CachedTemplate& tpl) {
    tpl.observations.fetch_add(1, std::memory_order_relaxed);
    total_observations_.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t fast_hits() const {
    return fast_hits_.load(std::memory_order_relaxed);
  }
  uint64_t fallbacks() const {
    return fallbacks_.load(std::memory_order_relaxed);
  }
  size_t size() const;

  /// Approximate footprint of the catalog as learning state (overhead
  /// reporting): a fixed record per template plus its text and table
  /// names. Prepared statements and lex keys are admission-path state and
  /// not counted.
  size_t ApproximateBytes() const;

  // ---- Snapshot support (src/persist/, DESIGN.md §11) ----

  /// Canonical exported form (sorted by id). The prepared statement and
  /// lex keys do not travel: an imported entry re-parses its statement
  /// from the template text and gains its lex key at its first full-parse
  /// admission.
  struct ExportedTemplate {
    uint64_t id = 0;
    std::string template_text;
    int num_placeholders = 0;
    bool read_only = false;
    std::vector<std::string> tables_read;
    std::vector<std::string> tables_written;
    uint64_t executions = 0;
    double mean_exec_us = 0.0;
    uint64_t observations = 0;
  };
  struct State {
    std::vector<ExportedTemplate> templates;
  };

  State ExportState() const;

  /// Installs `state`'s templates, skipping ids already present (live
  /// state wins). total_observations() absorbs the imported counts.
  void ImportState(const State& state);

 private:
  /// Inserts (or finds) the entry for `info`, parsing the template text into
  /// the prepared statement on first insertion. Caller must hold `mu_`.
  CachedTemplatePtr InternLocked(TemplateInfo&& info);

  mutable std::shared_mutex mu_;
  std::unordered_map<uint64_t, CachedTemplatePtr> by_fingerprint_;
  std::unordered_map<std::string, CachedTemplatePtr> by_lex_key_;
  std::atomic<uint64_t> fast_hits_{0};
  std::atomic<uint64_t> fallbacks_{0};
  std::atomic<uint64_t> total_observations_{0};
};

}  // namespace apollo::sql
