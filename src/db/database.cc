#include "db/database.h"

#include <mutex>

#include "sql/parser.h"
#include "util/string_util.h"

namespace apollo::db {

Database::Database() : executor_(&catalog_) {}

util::Status Database::CreateTable(Schema schema) {
  std::unique_lock lock(mu_);
  std::string name = schema.table_name();
  APOLLO_RETURN_NOT_OK(catalog_.CreateTable(std::move(schema)));
  versions_[name] = 1;
  return util::Status::OK();
}

Table* Database::GetTable(const std::string& name) {
  return catalog_.GetTable(name);
}

util::Result<common::ResultSetPtr> Database::Execute(const std::string& sql) {
  auto stmt = sql::Parse(sql);
  if (!stmt.ok()) return stmt.status();
  return ExecuteStatement(**stmt);
}

util::Result<common::ResultSetPtr> Database::ExecuteStatement(
    const sql::Statement& stmt, CostRows cost) {
  return RunStatement(stmt, nullptr, cost);
}

util::Result<common::ResultSetPtr> Database::ExecutePrepared(
    const sql::Statement& stmt, const std::vector<common::Value>& params,
    CostRows cost) {
  return RunStatement(stmt, &params, cost);
}

util::Result<common::ResultSetPtr> Database::RunStatement(
    const sql::Statement& stmt, const std::vector<common::Value>* params,
    CostRows cost) {
  const bool read_only = stmt.IsReadOnly();
  constexpr auto relaxed = std::memory_order_relaxed;
  if (read_only) {
    std::shared_lock lock(mu_);
    auto rs = executor_.Execute(stmt, params, cost);
    if (rs.ok()) {
      // Relaxed counting under the shared lock: exact totals, no unique
      // lock on the read path.
      queries_executed_.fetch_add(1, relaxed);
      reads_.fetch_add(1, relaxed);
      rows_examined_.fetch_add((*rs)->rows_examined(), relaxed);
    }
    return rs;
  }
  std::unique_lock lock(mu_);
  auto rs = executor_.Execute(stmt, params, cost);
  if (rs.ok()) {
    queries_executed_.fetch_add(1, relaxed);
    writes_.fetch_add(1, relaxed);
    rows_examined_.fetch_add((*rs)->rows_examined(), relaxed);
    for (const auto& t : stmt.TablesWritten()) {
      ++versions_[util::ToUpperAscii(t)];
    }
  }
  return rs;
}

uint64_t Database::TableVersion(const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = versions_.find(util::ToUpperAscii(name));
  return it == versions_.end() ? 0 : it->second;
}

std::unordered_map<std::string, uint64_t> Database::VersionsOf(
    const std::vector<std::string>& tables) const {
  std::shared_lock lock(mu_);
  std::unordered_map<std::string, uint64_t> out;
  for (const auto& t : tables) {
    std::string up = util::ToUpperAscii(t);
    auto it = versions_.find(up);
    out[up] = it == versions_.end() ? 0 : it->second;
  }
  return out;
}

DatabaseStats Database::stats() const {
  constexpr auto relaxed = std::memory_order_relaxed;
  DatabaseStats s;
  s.queries_executed = queries_executed_.load(relaxed);
  s.reads = reads_.load(relaxed);
  s.writes = writes_.load(relaxed);
  s.rows_examined = rows_examined_.load(relaxed);
  return s;
}

size_t Database::ApproximateDataBytes() const {
  std::shared_lock lock(mu_);
  return catalog_.ApproximateDataBytes();
}

}  // namespace apollo::db
