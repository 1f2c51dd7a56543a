#include "db/table.h"

#include <algorithm>
#include <cstring>
#include <tuple>

#include "util/hash.h"

namespace apollo::db {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  index_maps_.resize(schema_.indexes().size());
  for (const auto& def : schema_.indexes()) {
    std::vector<int> positions;
    for (const auto& col : def.columns) {
      positions.push_back(schema_.ColumnIndex(col));
    }
    index_col_positions_.push_back(std::move(positions));
  }
  for (const auto& def : schema_.ordered_indexes()) {
    ordered_.push_back({schema_.ColumnIndex(def.column), {}});
  }
}

uint64_t Table::KeyHash(const std::vector<common::Value>& key) {
  uint64_t h = 0x12345;
  for (const auto& v : key) h = util::HashCombine(h, v.Hash());
  return h;
}

uint64_t Table::IndexKeyHash(int idx, const common::Row& row) const {
  uint64_t h = 0x12345;
  for (int pos : index_col_positions_[idx]) {
    h = util::HashCombine(h, row[pos].Hash());
  }
  return h;
}

util::Status Table::Insert(common::Row row) {
  if (row.size() != schema_.num_columns()) {
    return util::Status::InvalidArgument(
        "row arity mismatch for table " + schema_.table_name() + ": got " +
        std::to_string(row.size()) + ", want " +
        std::to_string(schema_.num_columns()));
  }
  // Coerce numeric values to declared column type.
  for (size_t i = 0; i < row.size(); ++i) {
    const auto want = schema_.columns()[i].type;
    auto& v = row[i];
    if (v.is_null()) continue;
    if (want == common::ValueType::kDouble && v.is_int()) {
      v = common::Value::Double(static_cast<double>(v.AsInt()));
    } else if (want == common::ValueType::kInt && v.is_double()) {
      v = common::Value::Int(static_cast<int64_t>(v.AsDoubleRaw()));
    } else if (want != v.type()) {
      return util::Status::TypeError(
          "type mismatch for column " + schema_.columns()[i].name +
          " of table " + schema_.table_name());
    }
  }
  RowId id = static_cast<RowId>(rows_.size());
  rows_.push_back(std::move(row));
  live_.push_back(true);
  ++live_count_;
  for (size_t idx = 0; idx < index_maps_.size(); ++idx) {
    index_maps_[idx].emplace(IndexKeyHash(static_cast<int>(idx), rows_[id]),
                             id);
  }
  for (auto& ix : ordered_) OrderedInsert(ix, id);
  return util::Status::OK();
}

void Table::UpdateRow(RowId id, const std::vector<int>& col_indexes,
                      const std::vector<common::Value>& new_values) {
  // Unlink from indexes whose columns change.
  auto updates = [&](int col) {
    return std::find(col_indexes.begin(), col_indexes.end(), col) !=
           col_indexes.end();
  };
  std::vector<bool> index_touched(index_maps_.size(), false);
  for (size_t idx = 0; idx < index_maps_.size(); ++idx) {
    for (int pos : index_col_positions_[idx]) {
      if (updates(pos)) {
        index_touched[idx] = true;
        break;
      }
    }
  }
  for (auto& ix : ordered_) {
    if (updates(ix.col)) OrderedErase(ix, id);
  }
  for (size_t idx = 0; idx < index_maps_.size(); ++idx) {
    if (!index_touched[idx]) continue;
    auto range =
        index_maps_[idx].equal_range(IndexKeyHash(static_cast<int>(idx),
                                                  rows_[id]));
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second == id) {
        index_maps_[idx].erase(it);
        break;
      }
    }
  }
  for (size_t i = 0; i < col_indexes.size(); ++i) {
    auto& v = rows_[id][col_indexes[i]];
    common::Value nv = new_values[i];
    const auto want = schema_.columns()[col_indexes[i]].type;
    if (!nv.is_null()) {
      if (want == common::ValueType::kDouble && nv.is_int()) {
        nv = common::Value::Double(static_cast<double>(nv.AsInt()));
      } else if (want == common::ValueType::kInt && nv.is_double()) {
        nv = common::Value::Int(static_cast<int64_t>(nv.AsDoubleRaw()));
      }
    }
    v = std::move(nv);
  }
  for (size_t idx = 0; idx < index_maps_.size(); ++idx) {
    if (!index_touched[idx]) continue;
    index_maps_[idx].emplace(IndexKeyHash(static_cast<int>(idx), rows_[id]),
                             id);
  }
  for (auto& ix : ordered_) {
    if (updates(ix.col)) OrderedInsert(ix, id);
  }
}

void Table::DeleteRow(RowId id) {
  if (!IsLive(id)) return;
  for (size_t idx = 0; idx < index_maps_.size(); ++idx) {
    auto range = index_maps_[idx].equal_range(
        IndexKeyHash(static_cast<int>(idx), rows_[id]));
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second == id) {
        index_maps_[idx].erase(it);
        break;
      }
    }
  }
  for (auto& ix : ordered_) OrderedErase(ix, id);
  live_[id] = false;
  --live_count_;
}

int Table::FindUsableIndex(const std::vector<int>& equality_cols) const {
  int best = -1;
  size_t best_len = 0;
  for (size_t idx = 0; idx < index_col_positions_.size(); ++idx) {
    const auto& cols = index_col_positions_[idx];
    bool usable = !cols.empty();
    for (int pos : cols) {
      if (std::find(equality_cols.begin(), equality_cols.end(), pos) ==
          equality_cols.end()) {
        usable = false;
        break;
      }
    }
    if (usable && cols.size() > best_len) {
      best = static_cast<int>(idx);
      best_len = cols.size();
    }
  }
  return best;
}

void Table::IndexLookup(int idx, const std::vector<common::Value>& key,
                        std::vector<RowId>* out) const {
  uint64_t h = KeyHash(key);
  auto range = index_maps_[idx].equal_range(h);
  const auto& cols = index_col_positions_[idx];
  for (auto it = range.first; it != range.second; ++it) {
    RowId id = it->second;
    if (!IsLive(id)) continue;
    bool match = true;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (rows_[id][cols[i]] != key[i]) {
        match = false;
        break;
      }
    }
    if (match) out->push_back(id);
  }
}

uint64_t Table::OrderedHead(const common::Value& v) {
  // The type class leads, in Value::Compare's order: NULL, numeric, string.
  // Numbers compare as doubles across INT and DOUBLE, so a number's head
  // is its double's order-preserving bits; a string's is its first 7
  // bytes. Both only drop low bits, so heads never contradict Compare.
  switch (v.type()) {
    case common::ValueType::kNull:
      return 0;
    case common::ValueType::kInt:
    case common::ValueType::kDouble: {
      double d = v.ToDouble();
      if (d == 0) d = 0;  // -0.0 equals 0.0
      uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof(bits));
      bits = (bits >> 63) != 0 ? ~bits : bits | (1ull << 63);
      return (1ull << 62) | (bits >> 2);
    }
    case common::ValueType::kString: {
      const std::string& str = v.AsString();
      uint64_t head = 0;
      for (size_t i = 0; i < 7; ++i) {
        head = (head << 8) |
               (i < str.size() ? static_cast<unsigned char>(str[i]) : 0u);
      }
      return (2ull << 62) | head;
    }
  }
  return 0;
}

bool Table::OrderedLess(const OrderedEntry& a, const OrderedEntry& b) {
  if (a.head != b.head) return a.head < b.head;
  const int c = a.key->Compare(*b.key);
  return c < 0 || (c == 0 && a.id < b.id);
}

template <typename Pred>
std::pair<size_t, size_t> Table::OrderedPartition(const OrderedIndex& ix,
                                                  Pred before) {
  auto block = std::partition_point(
      ix.blocks.begin(), ix.blocks.end(),
      [&](const std::vector<OrderedEntry>& b) { return before(b.back()); });
  if (block == ix.blocks.end()) return {ix.blocks.size(), 0};
  auto at = std::partition_point(block->begin(), block->end(), before);
  return {static_cast<size_t>(block - ix.blocks.begin()),
          static_cast<size_t>(at - block->begin())};
}

void Table::OrderedInsert(OrderedIndex& ix, RowId id) {
  const common::Value& key = rows_[id][ix.col];
  const OrderedEntry entry{OrderedHead(key), &key, id};
  size_t b = 0;
  size_t at = 0;
  if (ix.blocks.empty()) {
    ix.blocks.emplace_back();
  } else if (OrderedLess(ix.blocks.back().back(), entry)) {
    b = ix.blocks.size() - 1;  // past every entry: append
    at = ix.blocks[b].size();
  } else {
    std::tie(b, at) = OrderedPartition(
        ix, [&](const OrderedEntry& e) { return OrderedLess(e, entry); });
  }
  std::vector<OrderedEntry>& block = ix.blocks[b];
  block.insert(block.begin() + static_cast<ptrdiff_t>(at), entry);
  if (block.size() > 2 * kOrderedBlock) {
    std::vector<OrderedEntry> tail(block.begin() + kOrderedBlock,
                                   block.end());
    block.resize(kOrderedBlock);
    ix.blocks.insert(ix.blocks.begin() + static_cast<ptrdiff_t>(b) + 1,
                     std::move(tail));
  }
}

void Table::OrderedErase(OrderedIndex& ix, RowId id) {
  const common::Value& key = rows_[id][ix.col];
  const OrderedEntry entry{OrderedHead(key), &key, id};
  auto [b, at] = OrderedPartition(
      ix, [&](const OrderedEntry& e) { return OrderedLess(e, entry); });
  if (b == ix.blocks.size() || ix.blocks[b][at].id != id) return;
  std::vector<OrderedEntry>& block = ix.blocks[b];
  block.erase(block.begin() + static_cast<ptrdiff_t>(at));
  if (block.empty()) {
    ix.blocks.erase(ix.blocks.begin() + static_cast<ptrdiff_t>(b));
  }
}

int Table::FindOrderedIndex(int col) const {
  for (size_t i = 0; i < ordered_.size(); ++i) {
    if (ordered_[i].col == col) return static_cast<int>(i);
  }
  return -1;
}

std::optional<RowId> Table::OrderedMin(int oidx) const {
  const OrderedIndex& ix = ordered_[oidx];
  auto [b, at] = OrderedPartition(
      ix, [](const OrderedEntry& e) { return e.key->is_null(); });
  if (b == ix.blocks.size()) return std::nullopt;
  return ix.blocks[b][at].id;
}

std::optional<RowId> Table::OrderedMax(int oidx) const {
  const OrderedIndex& ix = ordered_[oidx];
  if (ix.blocks.empty() || ix.blocks.back().back().key->is_null()) {
    return std::nullopt;
  }
  return ix.blocks.back().back().id;
}

void Table::OrderedPrefixRows(int oidx, std::string_view prefix,
                              std::vector<RowId>* out) const {
  const OrderedIndex& ix = ordered_[oidx];
  // Every non-string value sorts before every string.
  auto [b, at] = OrderedPartition(ix, [&](const OrderedEntry& e) {
    return !e.key->is_string() || std::string_view(e.key->AsString()) < prefix;
  });
  for (; b < ix.blocks.size(); ++b, at = 0) {
    const std::vector<OrderedEntry>& block = ix.blocks[b];
    for (; at < block.size(); ++at) {
      const common::Value& v = *block[at].key;
      if (!v.is_string() ||
          std::string_view(v.AsString()).substr(0, prefix.size()) != prefix) {
        return;
      }
      out->push_back(block[at].id);
    }
  }
}

}  // namespace apollo::db
