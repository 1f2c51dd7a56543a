// Database: the engine front-end Apollo talks to.
//
// Wraps a Catalog + Executor behind a thread-safe SQL interface and
// maintains a monotonically increasing version per table, bumped on every
// write. Apollo's client-session consistency (paper Section 3.2) is built
// on these versions.
#pragma once

#include <atomic>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result_set.h"
#include "db/catalog.h"
#include "db/executor.h"
#include "sql/ast.h"
#include "util/result.h"

namespace apollo::db {

/// Execution statistics exposed for the experiments' overhead reporting.
struct DatabaseStats {
  uint64_t queries_executed = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t rows_examined = 0;
};

class Database {
 public:
  Database();

  /// Creates a table; fails if it already exists.
  util::Status CreateTable(Schema schema);

  /// Direct table access for data loaders (not thread-safe against
  /// concurrent Execute calls; loaders run before the simulation starts).
  Table* GetTable(const std::string& name);

  /// `false` selects the reference scan plan; see
  /// Executor::set_semijoin_prefilter. Call before concurrent execution
  /// starts (not synchronized).
  void set_semijoin_prefilter(bool on) {
    executor_.set_semijoin_prefilter(on);
  }

  /// Parses and executes one statement.
  util::Result<common::ResultSetPtr> Execute(const std::string& sql);

  /// Executes a pre-parsed statement. `cost` asks for
  /// ResultSet::cost_rows up to a bound: exact below it, some value at or
  /// past it otherwise (see db::CostRows).
  util::Result<common::ResultSetPtr> ExecuteStatement(
      const sql::Statement& stmt, CostRows cost = CostRows::kSkip);

  /// Prepared execution: runs a cached parameterized statement with the
  /// given bound values — no SQL text, no parse. Semantically identical to
  /// executing the instantiated text.
  util::Result<common::ResultSetPtr> ExecutePrepared(
      const sql::Statement& stmt, const std::vector<common::Value>& params,
      CostRows cost = CostRows::kSkip);

  /// Current version of a table (0 if never written).
  uint64_t TableVersion(const std::string& name) const;

  /// Versions of several tables at once (a consistent snapshot).
  std::unordered_map<std::string, uint64_t> VersionsOf(
      const std::vector<std::string>& tables) const;

  DatabaseStats stats() const;

  /// Approximate bytes of data stored (for the "5% of DB size" cache rule).
  size_t ApproximateDataBytes() const;

 private:
  util::Result<common::ResultSetPtr> RunStatement(
      const sql::Statement& stmt, const std::vector<common::Value>* params,
      CostRows cost);

  mutable std::shared_mutex mu_;
  Catalog catalog_;
  Executor executor_;
  std::unordered_map<std::string, uint64_t> versions_;
  // Stats are relaxed atomics so the read path can count under the shared
  // lock instead of re-acquiring the unique lock per query (which made the
  // stats update the read path's only contention point).
  std::atomic<uint64_t> queries_executed_{0};
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> rows_examined_{0};
};

}  // namespace apollo::db
