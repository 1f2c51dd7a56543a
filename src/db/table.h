// Table: row store plus hash indexes for equality lookups and ordered
// single-column indexes for MIN/MAX and prefix ranges.
//
// Rows live in fixed-size chunks of cells, num_columns Values per row, one
// row after another; a chunk never moves once allocated, so a RowId and a
// pointer to a cell stay valid for the table's lifetime. Deletes tombstone
// rows and unlink them from indexes. A hash index is one flat
// open-addressing table keyed by a hash of the indexed column values (one
// multiply/xor-shift mix per cell): a slot holds one row id inline, or
// points to the list of ids when several rows share the hash.
// A probe verifies every candidate's key cells and returns the ids of one
// hash newest first (an id re-added by UpdateRow counts as new); ORDER BY
// ties and GROUP BY's first-appearance order follow that order. An
// ordered index keeps one 24-byte entry per live row (a key summary, a
// pointer to the key cell, the RowId), sorted by (key, RowId) in blocks
// of a few hundred entries: an insert searches in O(log n) and moves one
// block, and an in-order insert appends.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
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

  /// Appends a row after CoerceRow, moving its cells into the store.
  util::Status Insert(common::Row row);

  /// Checks a row against the schema without inserting it: the arity must
  /// match, INT and DOUBLE values are converted to the column's numeric
  /// type, and any other type mismatch is a TypeError (NULL fits every
  /// column).
  util::Status CoerceRow(common::Row* row) const;

  /// Converts or rejects one value for column `col`, as CoerceRow does.
  util::Status CoerceValue(int col, common::Value* v) const;

  /// True if the row id is live.
  bool IsLive(RowId id) const { return id < live_.size() && live_[id]; }

  /// Total slots (live + tombstoned); iterate [0, NumSlots()) with IsLive.
  size_t NumSlots() const { return live_.size(); }

  /// The cells of row `id` (any slot, live or tombstoned).
  std::span<const common::Value> At(RowId id) const {
    return {Cells(id), num_columns_};
  }

  /// Replaces column values of a live row, maintaining all indexes. The
  /// values must already fit their columns (CoerceValue).
  void UpdateRow(RowId id, const std::vector<int>& col_indexes,
                 const std::vector<common::Value>& new_values);

  /// Tombstones a live row and removes it from all indexes.
  void DeleteRow(RowId id);

  /// Finds the index (position in schema().indexes()) whose columns are a
  /// subset of `equality_cols`, preferring the most selective (most
  /// columns). Returns -1 if none.
  int FindUsableIndex(const std::vector<int>& equality_cols) const;

  /// Probes index `idx` with the given key values (one per index column, in
  /// index column order, read in place). Appends the live rows whose key
  /// cells equal the key (Value::Compare) to `out`, newest insert first.
  void IndexLookup(int idx, std::span<const common::Value* const> key,
                   std::vector<RowId>* out) const;

  /// Columns (schema positions) of index `idx`.
  const std::vector<int>& IndexColumns(int idx) const {
    return hash_[idx].cols;
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

  // One hash index: linear probing over a power-of-two slot array kept at
  // most 3/4 full, with backward-shift deletion (no tombstones). A slot
  // holds a key hash and either its one row id or the position in `lists`
  // of its ids, oldest first.
  struct HashIndex {
    struct Slot {
      uint64_t hash = 0;
      RowId id = 0;  // the row id, or the position in `lists`
      enum : uint8_t { kEmpty, kOne, kList } state = kEmpty;
    };
    std::vector<int> cols;
    std::vector<Slot> slots;
    size_t used = 0;
    std::vector<std::vector<RowId>> lists;
    std::vector<RowId> free_lists;  // positions in `lists` to reuse

    size_t Home(uint64_t hash) const;
    // The slot holding `hash`, or the empty slot that ends its probe.
    size_t Find(uint64_t hash) const;
    // The row ids under `hash`, oldest first (empty if none).
    std::span<const RowId> Ids(uint64_t hash) const;
    void Add(uint64_t hash, RowId id);
    void Remove(uint64_t hash, RowId id);
    void Grow();
  };

  uint64_t RowKeyHash(const HashIndex& ix, RowId id) const;

  // Rows per chunk: a power of two, so a RowId splits into chunk and row
  // with a shift and a mask.
  static constexpr size_t kChunkRowsLog2 = 8;
  static constexpr size_t kChunkRows = size_t{1} << kChunkRowsLog2;
  // The first cell of row `id`.
  common::Value* Cells(RowId id) const {
    return chunks_[id >> kChunkRowsLog2].get() +
           (id & (kChunkRows - 1)) * num_columns_;
  }

  Schema schema_;
  size_t num_columns_;
  std::vector<std::unique_ptr<common::Value[]>> chunks_;
  std::vector<bool> live_;  // one per slot
  size_t live_count_ = 0;

  std::vector<HashIndex> hash_;  // one per schema index
  std::vector<OrderedIndex> ordered_;  // one per schema ordered index
};

}  // namespace apollo::db
