// Query executor for the Apollo SQL dialect.
//
// Planning is deliberately simple but index-aware: equality predicates
// (column = literal, or column = column already bound by an earlier join
// step) drive hash-index lookups, and when every probe value is non-NULL
// the equalities that supplied the probe are not checked again (the
// probe compared those cells already; `NULL = NULL` is false, so a NULL
// probe value keeps them). `col IN (literals)` on an indexed column
// becomes one probe per element; a leading relation that would be scanned
// is pre-filtered through a selective inner relation (semijoin);
// `col LIKE 'prefix%'` on an ordered-indexed column reads the prefix's
// ranges; everything else falls back to filtered scans. Joins are
// processed in FROM order with index-nested-loop where an index applies.
// Aggregation supports COUNT/COUNT DISTINCT/SUM/MIN/MAX/AVG with GROUP BY,
// plus DISTINCT, ORDER BY and LIMIT; ORDER BY ... LIMIT n keeps a bounded
// top-n heap instead of sorting every row, and COUNT(*), MIN(col) and
// MAX(col) over a whole table read its row count and the ends of an
// ordered index. DESIGN.md Section 14 gives each path's cost_rows rule.
#pragma once

#include <vector>

#include "common/result_set.h"
#include "common/value.h"
#include "db/catalog.h"
#include "sql/ast.h"
#include "util/result.h"

namespace apollo::db {

/// Whether an execution also computes ResultSet::cost_rows, the rows the
/// reference scan plan (no IN-list probe, semijoin, prefix range or index
/// aggregate) would have examined. That count is plan-independent, so a cost model charged on
/// it does not move when the plan does; it costs a walk over the rows the
/// probes skipped, so only callers that charge execution cost ask for it.
enum class CostRows { kSkip, kCount };

class Executor {
 public:
  explicit Executor(Catalog* catalog) : catalog_(catalog) {}

  /// Executes one statement. For writes the result set is empty but
  /// `affected_rows` is populated. `rows_examined` is always populated
  /// with the rows the executed plan touched; `cost_rows` only under
  /// CostRows::kCount (it is 0 otherwise).
  util::Result<common::ResultSetPtr> Execute(const sql::Statement& stmt);

  /// Prepared execution: `stmt` may contain placeholder expressions, which
  /// are bound to `params` by placeholder index. Placeholder equality
  /// predicates drive index probes exactly like literals, so a prepared
  /// statement plans identically to its instantiated text. `params` may be
  /// null (then any placeholder is an error, as in Execute above).
  util::Result<common::ResultSetPtr> Execute(
      const sql::Statement& stmt, const std::vector<common::Value>* params,
      CostRows cost = CostRows::kSkip);

  /// Turning the probe plans (IN-list and semijoin probes, prefix ranges,
  /// index aggregates) off selects the reference scan plan, which tests
  /// compare the probe plan against. On by default.
  void set_semijoin_prefilter(bool on) { semijoin_prefilter_ = on; }

 private:
  Catalog* catalog_;
  bool semijoin_prefilter_ = true;
};

}  // namespace apollo::db
