// Row and ResultSet: the tabular unit flowing between the database engine,
// the cache, and the Apollo prediction framework.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/value.h"

namespace apollo::common {

/// A single tuple.
using Row = std::vector<Value>;

/// An immutable-after-construction query result: column names plus rows.
///
/// Result sets also carry bookkeeping the simulator and framework use:
/// `rows_examined` and `cost_rows` (execution work) and `affected_rows`
/// (writes). Result sets are shared via shared_ptr so the cache, waiting
/// subscribers and predictive pipelines never copy payloads.
class ResultSet {
 public:
  ResultSet() = default;
  explicit ResultSet(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<Row>& rows() const { return rows_; }
  size_t num_rows() const { return rows_.size(); }
  size_t num_columns() const { return columns_.size(); }
  bool empty() const { return rows_.empty(); }

  void AddRow(Row row) { rows_.push_back(std::move(row)); }
  void Reserve(size_t n) { rows_.reserve(n); }

  /// Index of a named column, or -1. Matches case-insensitively and also
  /// matches a qualified name's suffix ("C_ID" matches "CUSTOMER.C_ID").
  int ColumnIndex(const std::string& name) const;

  /// Cell accessor; requires valid indices.
  const Value& At(size_t row, size_t col) const { return rows_[row][col]; }

  /// First cell of the first row, or NULL if empty. Convenience for
  /// single-value lookups (MAX(...), COUNT(*), id lookups).
  Value ScalarOrNull() const {
    if (rows_.empty() || rows_[0].empty()) return Value::Null();
    return rows_[0][0];
  }

  /// Rows the executed plan touched while producing this result
  /// (includes scanned and probed rows that did not match).
  uint64_t rows_examined() const { return rows_examined_; }
  void set_rows_examined(uint64_t n) { rows_examined_ = n; }

  /// Rows the reference scan plan would have examined: the simulator's
  /// execution-cost input, independent of the plan that ran. Populated
  /// only when the caller asks for it, up to the caller's bound
  /// (db::CostRows): exact while below the bound, some value >= the bound
  /// otherwise; 0 when not asked for.
  uint64_t cost_rows() const { return cost_rows_; }
  void set_cost_rows(uint64_t n) { cost_rows_ = n; }

  /// Rows changed by a write statement.
  uint64_t affected_rows() const { return affected_rows_; }
  void set_affected_rows(uint64_t n) { affected_rows_ = n; }

  /// Approximate memory footprint for cache budgeting.
  size_t ByteSize() const;

  /// Renders a small ASCII table (debugging / examples).
  std::string ToString(size_t max_rows = 20) const;

 private:
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
  uint64_t rows_examined_ = 0;
  uint64_t cost_rows_ = 0;
  uint64_t affected_rows_ = 0;
};

using ResultSetPtr = std::shared_ptr<const ResultSet>;

}  // namespace apollo::common
