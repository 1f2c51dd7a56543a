#include "rt/db_gateway.h"

#include <utility>

namespace apollo::rt {

DbGateway::DbGateway(db::Database* db, DbGatewayConfig config,
                     obs::Observability* obs,
                     const std::string& metric_prefix)
    : db_(db), config_(config) {
  if (obs == nullptr) {
    owned_obs_ = std::make_unique<obs::Observability>();
    obs = owned_obs_.get();
  }
  obs::MetricsRegistry& m = obs->metrics;
  batches_ = m.RegisterCounter(metric_prefix + "batches");
  batch_statements_ = m.RegisterCounter(metric_prefix + "batch_statements");
  batch_size_ = m.RegisterHistogram(metric_prefix + "batch_size");
  timer_ = std::thread([this] { TimerLoop(); });
}

DbGateway::~DbGateway() { Shutdown(); }

RemoteResult DbGateway::ExecuteNoDelay(const BatchStatement& stmt) {
  RemoteResult out;
  if (config_.fail_every_n > 0) {
    const uint64_t n = op_counter_.fetch_add(1, std::memory_order_relaxed);
    if ((n + 1) % config_.fail_every_n == 0) {
      // Per-statement fault: the batch already paid its round trip; this
      // statement provably did not reach the database (safe to retry),
      // while its batch-mates complete normally.
      out.result = util::Status::Unavailable("injected transport fault");
      return out;
    }
  }
  if (!stmt.is_write) {
    // Snapshot first: an understamp is safe, a stale-as-fresh stamp is not.
    out.versions = db_->VersionsOf(stmt.tables);
    out.result = stmt.tpl != nullptr
                     ? db_->ExecutePrepared(*stmt.tpl->statement, stmt.params)
                     : db_->Execute(stmt.sql);
    return out;
  }
  out.result = stmt.tpl != nullptr
                   ? db_->ExecutePrepared(*stmt.tpl->statement, stmt.params)
                   : db_->Execute(stmt.sql);
  if (out.result.ok()) out.versions = db_->VersionsOf(stmt.tables);
  return out;
}

void DbGateway::CompleteBatch(const std::shared_ptr<PendingBatch>& batch) {
  // In-order execution is the wire contract: a read batched after a write
  // sees the written rows and the bumped table versions.
  for (size_t i = 0; i < batch->stmts.size(); ++i) {
    batch->promises[i].Set(ExecuteNoDelay(batch->stmts[i]));
  }
  batches_completed_.fetch_add(1);
}

void DbGateway::FailBatch(const std::shared_ptr<PendingBatch>& batch) {
  for (const auto& p : batch->promises) {
    RemoteResult r;
    r.result = util::Status::Unavailable("gateway shut down");
    p.Set(std::move(r));
  }
  batches_completed_.fetch_add(1);
}

std::vector<Future<RemoteResult>> DbGateway::ExecuteBatchAsync(
    ThreadPool* pool, std::vector<BatchStatement> stmts, Deadline deadline,
    uint64_t session) {
  std::vector<Future<RemoteResult>> futures;
  futures.reserve(stmts.size());
  std::vector<Promise<RemoteResult>> promises(stmts.size());
  for (const auto& p : promises) futures.push_back(p.GetFuture());
  if (stmts.empty()) return futures;

  if (deadline != kNoDeadline &&
      std::chrono::steady_clock::now() + config_.rtt > deadline) {
    // Fail fast without paying the round trip: the whole batch shares one
    // envelope, so a budget that cannot cover the RTT dooms every
    // statement equally.
    for (const auto& p : promises) {
      RemoteResult r;
      r.result = util::Status::DeadlineExceeded("query budget exhausted");
      p.Set(std::move(r));
    }
    return futures;
  }

  auto batch = std::make_shared<PendingBatch>();
  const auto now = std::chrono::steady_clock::now();
  batch->due = now + config_.rtt;
  batch->stmts = std::move(stmts);
  batch->promises = std::move(promises);
  batch->pool = pool;
  batch->session = session;
  // Due now runs now: a batch with no round trip left to wait out (rtt 0)
  // completes on this thread, with no timer wake, pool task or waiter
  // wake-up in between.
  const bool due_now = batch->due <= now;

  bool rejected = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      rejected = true;
    } else {
      batches_accepted_.fetch_add(1);
      if (!due_now) {
        batch->seq = next_seq_++;
        heap_.push(batch);
      }
    }
  }
  if (rejected) {
    for (const auto& p : batch->promises) {
      RemoteResult r;
      r.result = util::Status::Unavailable("gateway shut down");
      p.Set(std::move(r));
    }
    return futures;
  }
  batches_->Inc();
  batch_statements_->Inc(static_cast<int64_t>(batch->stmts.size()));
  batch_size_->Record(static_cast<int64_t>(batch->stmts.size()));
  if (due_now) {
    CompleteBatch(batch);
  } else {
    cv_.notify_one();
  }
  return futures;
}

void DbGateway::TimerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (heap_.empty()) {
      if (stop_) return;
      cv_.wait(lock, [&] { return stop_ || !heap_.empty(); });
      continue;
    }
    auto batch = heap_.top();
    if (!stop_) {
      // Wait out the remaining round trip; a newly enqueued earlier-due
      // batch or shutdown re-evaluates from the top.
      if (cv_.wait_until(lock, batch->due, [&] {
            return stop_ || heap_.top() != batch;
          })) {
        continue;
      }
    }
    heap_.pop();
    lock.unlock();
    // Dispatch off the timer thread so a slow statement never delays other
    // batches' due times. kClient class: completions are real client work
    // and must not be shed at the predictive watermark.
    bool dispatched =
        batch->pool != nullptr &&
        batch->pool->Submit(TaskClass::kClient, batch->session,
                            [this, batch] { CompleteBatch(batch); });
    if (!dispatched) {
      if (stop_) {
        // Shutdown drain: do not touch the database, fail the statements.
        FailBatch(batch);
      } else {
        // No pool (bare gateway in tests) or pool closed mid-run: complete
        // on the timer thread rather than losing the batch.
        CompleteBatch(batch);
      }
    }
    lock.lock();
  }
}

void DbGateway::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (timer_.joinable()) timer_.join();
  // Anything still heaped when the timer exited: fail it here.
  std::priority_queue<std::shared_ptr<PendingBatch>,
                      std::vector<std::shared_ptr<PendingBatch>>, BatchLater>
      leftovers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftovers.swap(heap_);
  }
  while (!leftovers.empty()) {
    FailBatch(leftovers.top());
    leftovers.pop();
  }
}

size_t DbGateway::pending_batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return heap_.size();
}

}  // namespace apollo::rt
