#include "db/schema.h"

#include "util/string_util.h"

namespace apollo::db {

void Schema::Normalize() {
  table_name_ = util::ToUpperAscii(table_name_);
  for (auto& c : columns_) c.name = util::ToUpperAscii(c.name);
}

int Schema::ColumnIndex(const std::string& name) const {
  std::string want = util::ToUpperAscii(name);
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == want) return static_cast<int>(i);
  }
  return -1;
}

bool Schema::AddIndex(std::string index_name,
                      std::vector<std::string> columns) {
  IndexDef def;
  def.name = std::move(index_name);
  for (auto& c : columns) {
    std::string up = util::ToUpperAscii(c);
    if (ColumnIndex(up) < 0) return false;
    def.columns.push_back(std::move(up));
  }
  indexes_.push_back(std::move(def));
  return true;
}

bool Schema::AddOrderedIndex(std::string index_name, std::string column) {
  std::string up = util::ToUpperAscii(column);
  if (ColumnIndex(up) < 0) return false;
  ordered_indexes_.push_back({std::move(index_name), std::move(up)});
  return true;
}

}  // namespace apollo::db
