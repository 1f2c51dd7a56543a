// Table: row store plus hash indexes for equality lookups and ordered
// single-column indexes for MIN/MAX and prefix ranges.
//
// Rows live in a deque (stable ids); deletes tombstone rows and unlink them
// from indexes. Hash indexes are multimaps keyed by the combined hash of
// the indexed column values, verified on probe. An ordered index keeps one
// 24-byte entry per live row (a key summary, a pointer to the key cell,
// the RowId), sorted by (key, RowId) in blocks of a few hundred entries:
// an insert searches in O(log n) and moves one block, and an in-order
// insert appends.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result_set.h"
#include "db/schema.h"
#include "util/result.h"

namespace apollo::db {

using RowId = uint32_t;

class Table {
 public:
  explicit Table(Schema schema);
  // Ordered indexes point into the rows, so a copy would alias them.
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const Schema& schema() const { return schema_; }

  /// Number of live rows.
  size_t num_rows() const { return live_count_; }

  /// Appends a row (must match schema arity). Values are coerced to the
  /// column type where loss-free (int <-> double).
  util::Status Insert(common::Row row);

  /// True if the row id is live.
  bool IsLive(RowId id) const { return id < live_.size() && live_[id]; }

  /// Total slots (live + tombstoned); iterate [0, NumSlots()) with IsLive.
  size_t NumSlots() const { return rows_.size(); }

  const common::Row& At(RowId id) const { return rows_[id]; }

  /// Replaces column values of a live row, maintaining all indexes.
  void UpdateRow(RowId id, const std::vector<int>& col_indexes,
                 const std::vector<common::Value>& new_values);

  /// Tombstones a live row and removes it from all indexes.
  void DeleteRow(RowId id);

  /// Finds the index (position in schema().indexes()) whose columns are a
  /// subset of `equality_cols`, preferring the most selective (most
  /// columns). Returns -1 if none.
  int FindUsableIndex(const std::vector<int>& equality_cols) const;

  /// Probes index `idx` with the given key values (one per index column, in
  /// index column order). Appends matching live row ids to `out`.
  void IndexLookup(int idx, const std::vector<common::Value>& key,
                   std::vector<RowId>* out) const;

  /// Columns (schema positions) of index `idx`.
  const std::vector<int>& IndexColumns(int idx) const {
    return index_col_positions_[idx];
  }

  /// Position in schema().ordered_indexes() of the ordered index on column
  /// `col`, or -1. FindUsableIndex never returns an ordered index.
  int FindOrderedIndex(int col) const;

  /// The live row holding the smallest (largest) non-NULL key of ordered
  /// index `oidx`, if any. NULLs sort first, so MIN skips them.
  std::optional<RowId> OrderedMin(int oidx) const;
  std::optional<RowId> OrderedMax(int oidx) const;

  /// Appends, in key order, the live rows whose key of ordered index
  /// `oidx` is a string starting with `prefix` (byte for byte).
  void OrderedPrefixRows(int oidx, std::string_view prefix,
                         std::vector<RowId>* out) const;

 private:
  // A live row's key, read in place (a row's cells never move), its id,
  // and an order-preserving summary of the key: a smaller head means a
  // smaller key, so only equal heads read the key itself.
  struct OrderedEntry {
    uint64_t head;
    const common::Value* key;
    RowId id;
  };
  // Entries sorted by (key, id), cut into non-empty sorted blocks; a block
  // splits in half when it passes 2 * kOrderedBlock entries.
  struct OrderedIndex {
    int col = -1;
    std::vector<std::vector<OrderedEntry>> blocks;
  };
  static constexpr size_t kOrderedBlock = 256;
  static uint64_t OrderedHead(const common::Value& v);
  static bool OrderedLess(const OrderedEntry& a, const OrderedEntry& b);
  // Block and offset of the first entry for which `before` is false;
  // `before` must hold on a prefix of the index. {blocks.size(), 0} if none.
  template <typename Pred>
  static std::pair<size_t, size_t> OrderedPartition(const OrderedIndex& ix,
                                                    Pred before);
  void OrderedInsert(OrderedIndex& ix, RowId id);
  void OrderedErase(OrderedIndex& ix, RowId id);

  uint64_t IndexKeyHash(int idx, const common::Row& row) const;
  static uint64_t KeyHash(const std::vector<common::Value>& key);

  Schema schema_;
  std::deque<common::Row> rows_;
  std::vector<bool> live_;
  size_t live_count_ = 0;

  // One multimap per index: key hash -> row id.
  std::vector<std::unordered_multimap<uint64_t, RowId>> index_maps_;
  std::vector<std::vector<int>> index_col_positions_;
  std::vector<OrderedIndex> ordered_;  // one per schema ordered index
};

}  // namespace apollo::db
