#include "db/table.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>
#include <tuple>

namespace apollo::db {

Table::Table(Schema schema)
    : schema_(std::move(schema)), num_columns_(schema_.num_columns()) {
  for (const auto& def : schema_.indexes()) {
    HashIndex& ix = hash_.emplace_back();
    for (const auto& col : def.columns) {
      ix.cols.push_back(schema_.ColumnIndex(col));
    }
  }
  for (const auto& def : schema_.ordered_indexes()) {
    ordered_.push_back({schema_.ColumnIndex(def.column), {}});
  }
}

namespace {

constexpr uint64_t kKeyHashSeed = 0x12345;

// Folds one cell into a key hash: one multiply/xor-shift round. The probe
// verifies candidates with Value::Compare, so values it calls equal must
// fold alike: an integral DOUBLE folds as its INT (as Value::Hash does,
// -0.0 included). A string folds its Value::Hash.
uint64_t FoldCell(uint64_t h, const common::Value& v) {
  uint64_t word = 0;
  switch (v.type()) {
    case common::ValueType::kNull:
      word = 0x9ae16a3b2f90404full;
      break;
    case common::ValueType::kInt:
      word = static_cast<uint64_t>(v.AsInt());
      break;
    case common::ValueType::kDouble: {
      const double d = v.AsDoubleRaw();
      if (d == std::floor(d) && std::abs(d) < 9.2e18) {
        word = static_cast<uint64_t>(static_cast<int64_t>(d));
      } else {
        std::memcpy(&word, &d, sizeof(word));
        word = ~word;
      }
      break;
    }
    case common::ValueType::kString:
      word = v.Hash();
      break;
  }
  h = (h ^ word) * 0xbf58476d1ce4e5b9ull;
  return h ^ (h >> 31);
}

}  // namespace

uint64_t Table::RowKeyHash(const HashIndex& ix, RowId id) const {
  const common::Value* row = Cells(id);
  uint64_t h = kKeyHashSeed;
  for (int pos : ix.cols) h = FoldCell(h, row[pos]);
  return h;
}

size_t Table::HashIndex::Home(uint64_t hash) const {
  // Fibonacci hashing: the product's high bits pick the slot.
  const int bits = std::countr_zero(slots.size());
  return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ull) >> (64 - bits));
}

size_t Table::HashIndex::Find(uint64_t hash) const {
  const size_t mask = slots.size() - 1;
  size_t i = Home(hash);
  while (slots[i].state != Slot::kEmpty && slots[i].hash != hash) {
    i = (i + 1) & mask;
  }
  return i;
}

std::span<const RowId> Table::HashIndex::Ids(uint64_t hash) const {
  if (slots.empty()) return {};
  const Slot& s = slots[Find(hash)];
  switch (s.state) {
    case Slot::kEmpty:
      return {};
    case Slot::kOne:
      return {&s.id, 1};
    case Slot::kList:
      return lists[s.id];
  }
  return {};
}

void Table::HashIndex::Grow() {
  std::vector<Slot> old = std::move(slots);
  slots.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
  for (const Slot& s : old) {
    if (s.state != Slot::kEmpty) slots[Find(s.hash)] = s;  // hashes differ
  }
}

void Table::HashIndex::Add(uint64_t hash, RowId id) {
  if (4 * (used + 1) > 3 * slots.size()) Grow();
  Slot& s = slots[Find(hash)];
  switch (s.state) {
    case Slot::kEmpty:
      s = {hash, id, Slot::kOne};
      ++used;
      return;
    case Slot::kOne: {
      RowId list;
      if (free_lists.empty()) {
        list = static_cast<RowId>(lists.size());
        lists.emplace_back();
      } else {
        list = free_lists.back();
        free_lists.pop_back();
      }
      lists[list] = {s.id, id};
      s.id = list;
      s.state = Slot::kList;
      return;
    }
    case Slot::kList:
      lists[s.id].push_back(id);
      return;
  }
}

void Table::HashIndex::Remove(uint64_t hash, RowId id) {
  if (slots.empty()) return;
  size_t i = Find(hash);
  Slot& s = slots[i];
  if (s.state == Slot::kList) {
    std::vector<RowId>& ids = lists[s.id];
    auto it = std::find(ids.rbegin(), ids.rend(), id);
    if (it == ids.rend()) return;
    ids.erase(std::next(it).base());
    if (ids.size() == 1) {
      const RowId list = s.id;
      s.id = ids[0];
      s.state = Slot::kOne;
      lists[list] = {};
      free_lists.push_back(list);
    }
    return;
  }
  if (s.state != Slot::kOne || s.id != id) return;
  // Backward shift: pull later entries of the cluster into the hole unless
  // their home lies cyclically in (hole, j], where they already sit.
  const size_t mask = slots.size() - 1;
  for (size_t j = (i + 1) & mask; slots[j].state != Slot::kEmpty;
       j = (j + 1) & mask) {
    const size_t k = Home(slots[j].hash);
    const bool stays = i <= j ? (i < k && k <= j) : (i < k || k <= j);
    if (stays) continue;
    slots[i] = slots[j];
    i = j;
  }
  slots[i] = Slot{};
  --used;
}

util::Status Table::CoerceValue(int col, common::Value* v) const {
  const auto want = schema_.columns()[col].type;
  if (v->is_null() || v->type() == want) return util::Status::OK();
  if (want == common::ValueType::kDouble && v->is_int()) {
    *v = common::Value::Double(static_cast<double>(v->AsInt()));
  } else if (want == common::ValueType::kInt && v->is_double()) {
    *v = common::Value::Int(static_cast<int64_t>(v->AsDoubleRaw()));
  } else {
    return util::Status::TypeError("type mismatch for column " +
                                   schema_.columns()[col].name +
                                   " of table " + schema_.table_name());
  }
  return util::Status::OK();
}

util::Status Table::CoerceRow(common::Row* row) const {
  if (row->size() != schema_.num_columns()) {
    return util::Status::InvalidArgument(
        "row arity mismatch for table " + schema_.table_name() + ": got " +
        std::to_string(row->size()) + ", want " +
        std::to_string(schema_.num_columns()));
  }
  for (size_t i = 0; i < row->size(); ++i) {
    APOLLO_RETURN_NOT_OK(CoerceValue(static_cast<int>(i), &(*row)[i]));
  }
  return util::Status::OK();
}

util::Status Table::Insert(common::Row row) {
  APOLLO_RETURN_NOT_OK(CoerceRow(&row));
  const RowId id = static_cast<RowId>(live_.size());
  if ((id & (kChunkRows - 1)) == 0) {
    chunks_.push_back(
        std::make_unique<common::Value[]>(kChunkRows * num_columns_));
  }
  std::move(row.begin(), row.end(), Cells(id));
  live_.push_back(true);
  ++live_count_;
  for (HashIndex& ix : hash_) ix.Add(RowKeyHash(ix, id), id);
  for (auto& ix : ordered_) OrderedInsert(ix, id);
  return util::Status::OK();
}

void Table::UpdateRow(RowId id, const std::vector<int>& col_indexes,
                      const std::vector<common::Value>& new_values) {
  // Unlink from indexes whose columns change; relinking puts the row
  // first among its key's ids.
  auto updates = [&](int col) {
    return std::find(col_indexes.begin(), col_indexes.end(), col) !=
           col_indexes.end();
  };
  std::vector<HashIndex*> touched;
  for (HashIndex& ix : hash_) {
    if (std::any_of(ix.cols.begin(), ix.cols.end(), updates)) {
      touched.push_back(&ix);
      ix.Remove(RowKeyHash(ix, id), id);
    }
  }
  for (auto& ix : ordered_) {
    if (updates(ix.col)) OrderedErase(ix, id);
  }
  common::Value* row = Cells(id);
  for (size_t i = 0; i < col_indexes.size(); ++i) {
    row[col_indexes[i]] = new_values[i];
  }
  for (HashIndex* ix : touched) ix->Add(RowKeyHash(*ix, id), id);
  for (auto& ix : ordered_) {
    if (updates(ix.col)) OrderedInsert(ix, id);
  }
}

void Table::DeleteRow(RowId id) {
  if (!IsLive(id)) return;
  for (HashIndex& ix : hash_) ix.Remove(RowKeyHash(ix, id), id);
  for (auto& ix : ordered_) OrderedErase(ix, id);
  live_[id] = false;
  --live_count_;
}

int Table::FindUsableIndex(const std::vector<int>& equality_cols) const {
  int best = -1;
  size_t best_len = 0;
  for (size_t idx = 0; idx < hash_.size(); ++idx) {
    const auto& cols = hash_[idx].cols;
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

void Table::IndexLookup(int idx, std::span<const common::Value* const> key,
                        std::vector<RowId>* out) const {
  const HashIndex& ix = hash_[idx];
  uint64_t h = kKeyHashSeed;
  for (const common::Value* v : key) h = FoldCell(h, *v);
  const std::span<const RowId> ids = ix.Ids(h);
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    const RowId id = *it;
    if (!IsLive(id)) continue;
    const common::Value* row = Cells(id);
    bool match = true;
    for (size_t i = 0; i < ix.cols.size(); ++i) {
      if (row[ix.cols[i]] != *key[i]) {
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
  const common::Value& key = Cells(id)[ix.col];
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
  const common::Value& key = Cells(id)[ix.col];
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
