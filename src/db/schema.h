// Table schema definitions for the in-memory relational engine.
#pragma once

#include <string>
#include <vector>

#include "common/value.h"
#include "util/result.h"

namespace apollo::db {

struct ColumnDef {
  std::string name;  // stored uppercased
  common::ValueType type = common::ValueType::kInt;
};

/// Secondary index definition over one or more columns (hash index,
/// equality lookups).
struct IndexDef {
  std::string name;
  std::vector<std::string> columns;  // uppercased
};

/// Ordered index over one column: rows sorted by that column's value
/// (Value::Compare order, NULLs first). Planned separately from the hash
/// indexes, so equality plans never pick one; it serves MIN/MAX and
/// prefix LIKE.
struct OrderedIndexDef {
  std::string name;
  std::string column;  // uppercased
};

/// Schema: ordered columns plus index definitions. The first index, if any
/// is named "PRIMARY", is unique; others are non-unique.
class Schema {
 public:
  Schema() = default;
  Schema(std::string table_name, std::vector<ColumnDef> columns)
      : table_name_(std::move(table_name)), columns_(std::move(columns)) {
    Normalize();
  }

  const std::string& table_name() const { return table_name_; }
  const std::vector<ColumnDef>& columns() const { return columns_; }
  const std::vector<IndexDef>& indexes() const { return indexes_; }
  const std::vector<OrderedIndexDef>& ordered_indexes() const {
    return ordered_indexes_;
  }
  size_t num_columns() const { return columns_.size(); }

  /// Index of a column by (case-insensitive) name, or -1.
  int ColumnIndex(const std::string& name) const;

  /// Adds a hash index over `columns`. Returns false if a column is
  /// unknown.
  bool AddIndex(std::string index_name, std::vector<std::string> columns);

  /// Adds an ordered index over `column`. Returns false if the column is
  /// unknown.
  bool AddOrderedIndex(std::string index_name, std::string column);

 private:
  void Normalize();

  std::string table_name_;
  std::vector<ColumnDef> columns_;
  std::vector<IndexDef> indexes_;
  std::vector<OrderedIndexDef> ordered_indexes_;
};

}  // namespace apollo::db
