#include "common/result_set.h"

#include "util/string_util.h"

namespace apollo::common {

int ResultSet::ColumnIndex(const std::string& name) const {
  std::string want = util::ToUpperAscii(name);
  for (size_t i = 0; i < columns_.size(); ++i) {
    std::string have = util::ToUpperAscii(columns_[i]);
    if (have == want) return static_cast<int>(i);
  }
  // Suffix match on qualified names, both directions.
  for (size_t i = 0; i < columns_.size(); ++i) {
    std::string have = util::ToUpperAscii(columns_[i]);
    size_t dot = have.rfind('.');
    if (dot != std::string::npos && have.substr(dot + 1) == want) {
      return static_cast<int>(i);
    }
    size_t wdot = want.rfind('.');
    if (wdot != std::string::npos && want.substr(wdot + 1) == have) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

size_t ResultSet::ByteSize() const {
  // A fixed header (its vectors and counters, one cache line) rather than
  // sizeof(ResultSet): bookkeeping fields added to the class must not move
  // the cache budgets the simulated figures are measured under.
  constexpr size_t kHeaderBytes = 64;
  size_t total = kHeaderBytes;
  for (const auto& c : columns_) total += c.size() + sizeof(std::string);
  for (const auto& row : rows_) {
    total += sizeof(Row);
    for (const auto& v : row) total += v.ByteSize();
  }
  return total;
}

std::string ResultSet::ToString(size_t max_rows) const {
  std::string out;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += " | ";
    out += columns_[i];
  }
  out += "\n";
  size_t shown = 0;
  for (const auto& row : rows_) {
    if (shown++ >= max_rows) {
      out += "... (" + std::to_string(rows_.size() - max_rows) +
             " more rows)\n";
      break;
    }
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += " | ";
      out += row[i].ToDisplayString();
    }
    out += "\n";
  }
  return out;
}

}  // namespace apollo::common
