#include "rt/thread_pool.h"

namespace apollo::rt {

ThreadPool::ThreadPool(ThreadPoolConfig config, obs::Observability* obs,
                       const std::string& metric_prefix)
    : config_(std::move(config)), queue_(config_.queue_capacity) {
  if (config_.num_threads < 1) config_.num_threads = 1;
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
  if (config_.predictive_watermark == 0 ||
      config_.predictive_watermark > config_.queue_capacity) {
    config_.predictive_watermark = config_.queue_capacity / 2;
    if (config_.predictive_watermark == 0) config_.predictive_watermark = 1;
  }
  if (obs == nullptr) {
    owned_obs_ = std::make_unique<obs::Observability>();
    obs = owned_obs_.get();
  }
  obs_ = obs;
  obs::MetricsRegistry& m = obs_->metrics;
  const std::string& p = metric_prefix;
  submitted_client_ = m.RegisterCounter(p + "submitted_client");
  submitted_predictive_ = m.RegisterCounter(p + "submitted_predictive");
  rejected_predictive_ = m.RegisterCounter(p + "rejected_predictive");
  queue_wait_.reserve(static_cast<size_t>(config_.num_threads));
  for (int i = 0; i < config_.num_threads; ++i) {
    queue_wait_.push_back(m.RegisterHistogram(
        p + "worker" + std::to_string(i) + ".queue_wait_wall_us"));
  }
  workers_.reserve(static_cast<size_t>(config_.num_threads));
  for (int i = 0; i < config_.num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(TaskClass klass, uint64_t session,
                        std::function<void()> fn) {
  Task task{std::move(fn), std::chrono::steady_clock::now()};
  // Counted before the push: a worker may run the task at once.
  accepted_.fetch_add(1);
  if (klass == TaskClass::kPredictive) {
    // Reject-predictions-first: a deep queue means the pool is behind, and
    // speculation queued now would execute too late to help anyway.
    if (queue_depth() >= config_.predictive_watermark ||
        !queue_.TryPush(session, std::move(task))) {
      accepted_.fetch_sub(1);
      rejected_predictive_->Inc();
      return false;
    }
    submitted_predictive_->Inc();
    return true;
  }
  if (!queue_.Push(session, std::move(task))) {
    accepted_.fetch_sub(1);
    return false;  // closed
  }
  submitted_client_->Inc();
  return true;
}

void ThreadPool::WorkerLoop(int index) {
  obs::HistogramMetric* wait_hist =
      queue_wait_[static_cast<size_t>(index)];
  Task task;
  while (queue_.Pop(&task)) {
    auto now = std::chrono::steady_clock::now();
    const int64_t sojourn_us =
        std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                              task.enqueued)
            .count();
    wait_hist->Record(sojourn_us);
    if (config_.sojourn_callback) config_.sojourn_callback(sojourn_us);
    task.fn();
    executed_.fetch_add(1);
  }
}

void ThreadPool::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  queue_.Close();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

}  // namespace apollo::rt
