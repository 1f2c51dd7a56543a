// DbGateway: the runtime's remote-database port.
//
// Where the simulator's net::RemoteDatabase models the WAN with simulated
// delays and callbacks on the event loop, the gateway talks to the same
// db::Database from real threads: each execution pays a (configurable)
// real-time round trip, runs the statement, and reports the table-version
// snapshot the paper's session consistency needs. Completions are
// delivered as rt::Future values.
//
// ExecuteBatchAsync, the gateway's one entry point, never parks a thread
// for the round trip (DESIGN.md Section 14): pending operations sit in a
// deadline min-heap drained by one WAN timer thread. When an operation
// comes due, the timer dispatches a completion task to the pool (kClient
// class, never shed) that executes the statement(s) against the database
// and fulfills the per-statement promises — so Future::Then continuations
// run on pool workers and no thread anywhere sleeps per in-flight
// operation. A batch already due when it is submitted (rtt 0) skips the
// heap, the timer and the pool: it completes on the submitting thread
// before ExecuteBatchAsync returns ("due now runs now"), so its futures
// are ready on return and continuations registered on them run inline on
// the caller. ExecuteBatchAsync coalesces any number of statements into
// ONE round trip: the batch pays a single RTT, the statements execute
// sequentially at "the remote" in submission order (a read after a write
// in the same batch sees the written data), and each statement's result
// is demultiplexed into its own Future.
//
// Version-stamp discipline: for reads the snapshot is taken BEFORE the
// statement runs. A concurrent write between snapshot and execution can
// make the stamp *older* than the data — a conservative understamp that
// at worst causes a spurious cache miss — but never newer, so a stale
// result can never satisfy a session's freshness requirement. Writes
// snapshot AFTER executing, when the bumped versions are exactly the ones
// the writing client has observed.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result_set.h"
#include "db/database.h"
#include "obs/observability.h"
#include "rt/future.h"
#include "rt/thread_pool.h"
#include "sql/template_cache.h"
#include "util/result.h"

namespace apollo::rt {

/// Per-query completion budget (absolute wall-clock point). kNoDeadline
/// means unbounded — the legacy behavior. Deadline-aware admission
/// (DESIGN.md Section 12) propagates this from ConcurrentApollo::Execute
/// down to the gateway, which cancels work whose remaining budget cannot
/// cover the WAN round trip instead of queueing it.
using Deadline = std::chrono::steady_clock::time_point;
inline constexpr Deadline kNoDeadline = Deadline::max();

/// Outcome of one remote execution: result plus the version snapshot used
/// for cache stamps and session vector advances.
struct RemoteResult {
  util::Result<common::ResultSetPtr> result =
      util::Result<common::ResultSetPtr>(nullptr);
  std::unordered_map<std::string, uint64_t> versions;
};

/// One statement of a batched round trip. Either `sql` (text path) or
/// `tpl` + `params` (prepared path; the statement is never re-parsed).
struct BatchStatement {
  std::string sql;
  sql::CachedTemplatePtr tpl;
  std::vector<common::Value> params;
  bool is_write = false;
  /// Tables whose versions stamp the result (read: snapshot-before,
  /// write: snapshot-after).
  std::vector<std::string> tables;
};

struct DbGatewayConfig {
  /// Real-time WAN round trip added to every execution. This is what the
  /// throughput benchmark overlaps across workers: with an I/O-bound
  /// round trip, N concurrent sessions approach N× the single-session
  /// throughput regardless of core count.
  std::chrono::microseconds rtt{2000};
  /// Transport fault injection for soak tests: every Nth *statement*
  /// fails with Unavailable after paying the round trip and before
  /// touching the database (the statement provably did not run). In a
  /// batch the counter advances per sub-statement, so a mid-batch fault
  /// fails only the affected sub-statements while the rest of the batch
  /// completes. 0 disables.
  uint32_t fail_every_n = 0;
};

class DbGateway {
 public:
  /// `obs` may be null (a private bundle is created); `metric_prefix`
  /// qualifies the gateway's instruments ("rt.gateway." from the
  /// runtime).
  DbGateway(db::Database* db, DbGatewayConfig config,
            obs::Observability* obs = nullptr,
            const std::string& metric_prefix = "rt.gateway.");
  ~DbGateway();

  DbGateway(const DbGateway&) = delete;
  DbGateway& operator=(const DbGateway&) = delete;

  /// Coalesces `stmts` into a single WAN round trip: the batch pays one
  /// RTT in the timer heap, then a pool task (kClient, keyed by `session`
  /// for fair queueing) executes the statements in order and fulfills one
  /// future per statement. No thread sleeps while the batch is in flight.
  /// A batch whose due time is not after its submission (rtt 0) executes
  /// here, on the calling thread, and every future is ready on return.
  /// If `deadline` cannot cover the round trip, every future fails fast
  /// with DeadlineExceeded (nothing executes). After Shutdown the futures
  /// fail with Unavailable. `pool` may be null (completion then runs on
  /// the timer thread — shutdown drains only).
  ///
  /// Contract: the caller holds no lock across this call — no session
  /// mutex, learn shard or session-table lock in ConcurrentApollo — since
  /// a due-now batch runs the statements, and any continuation registered
  /// on its futures, on the calling thread. The caller may be a pool
  /// worker (a prediction batch); the completion never blocks on a Future.
  std::vector<Future<RemoteResult>> ExecuteBatchAsync(
      ThreadPool* pool, std::vector<BatchStatement> stmts,
      Deadline deadline = kNoDeadline, uint64_t session = 0);

  /// Stops the WAN timer thread. Operations still pending in the heap are
  /// failed with Unavailable (their Then-continuations run on the calling
  /// or timer thread). Idempotent; also run by the destructor. Call after
  /// client threads have stopped issuing work.
  void Shutdown();

  /// Batches currently waiting in the timer heap (never a due-now one).
  size_t pending_batches() const;

  /// Batches accepted (into the heap, or run at once when due now), and
  /// batches fully completed (every statement's future fulfilled and the
  /// continuations registered by then run, or failed at shutdown). Equal
  /// totals mean nothing is in flight; a due-now batch's later-registered
  /// continuations run on its submitting thread, inside the caller.
  uint64_t batches_accepted() const { return batches_accepted_.load(); }
  uint64_t batches_completed() const { return batches_completed_.load(); }

  const DbGatewayConfig& config() const { return config_; }

 private:
  struct PendingBatch {
    std::chrono::steady_clock::time_point due;
    uint64_t seq = 0;  // FIFO tiebreak for identical due times
    std::vector<BatchStatement> stmts;
    std::vector<Promise<RemoteResult>> promises;
    ThreadPool* pool = nullptr;
    uint64_t session = 0;
  };
  struct BatchLater {
    bool operator()(const std::shared_ptr<PendingBatch>& a,
                    const std::shared_ptr<PendingBatch>& b) const {
      if (a->due != b->due) return a->due > b->due;
      return a->seq > b->seq;
    }
  };

  /// Executes one statement with no WAN delay (the round trip was already
  /// paid in the timer heap), honoring per-statement fault injection.
  RemoteResult ExecuteNoDelay(const BatchStatement& stmt);

  /// Runs every statement of a due batch in order and fulfills the
  /// promises. Runs on a pool worker normally; on the submitting thread
  /// when the batch was due on arrival; on the timer thread when the pool
  /// refused the completion task (shutdown drain).
  void CompleteBatch(const std::shared_ptr<PendingBatch>& batch);

  void TimerLoop();

  /// Fails every statement of `batch` with Unavailable (shutdown drain).
  void FailBatch(const std::shared_ptr<PendingBatch>& batch);

  db::Database* db_;
  DbGatewayConfig config_;
  std::atomic<uint64_t> op_counter_{0};
  std::atomic<uint64_t> batches_accepted_{0};
  std::atomic<uint64_t> batches_completed_{0};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::priority_queue<std::shared_ptr<PendingBatch>,
                      std::vector<std::shared_ptr<PendingBatch>>, BatchLater>
      heap_;
  uint64_t next_seq_ = 0;
  bool stop_ = false;
  std::thread timer_;

  std::unique_ptr<obs::Observability> owned_obs_;  // fallback when none given
  obs::Counter* batches_;
  obs::Counter* batch_statements_;
  obs::HistogramMetric* batch_size_;
};

}  // namespace apollo::rt
