// SessionFairQueue: bounded MPMC work queue with per-session round-robin
// dequeue (DESIGN.md Section 12); the ThreadPool's feed.
//
// A plain FIFO over every producer lets one hot session that floods the
// pool feed — a misbehaving client, or a session whose prediction fan-out
// explodes — put its whole backlog ahead of every other session's next
// client query. This queue keeps one FIFO per session key and drains them
// round-robin, one task per session per turn: a session with a single
// queued query waits behind at most one task from each other active
// session, never behind a hot session's entire backlog. Per-session order
// is preserved (each session's lane is FIFO).
//
// Push blocks on the shared budget (total capacity across sessions),
// TryPush is the backpressure probe, Close drains then stops. The
// capacity is global, not per-session — fairness governs ORDER, while
// admission control (the predictive watermark / brownout controller)
// governs VOLUME.
//
// Implementation: mutex + two condition variables, one deque per active
// session, and a round-robin ring of session keys. Tasks each cover a
// WAN round trip, so the lock is never the bottleneck; the
// microbenchmarks in bench/micro_core.cc put a number on it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace apollo::rt {

template <typename T>
class SessionFairQueue {
 public:
  explicit SessionFairQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Blocks until there is room (or the queue is closed). Returns false
  /// only if the queue was closed.
  bool Push(uint64_t session, T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return closed_ || size_ < capacity_; });
    if (closed_) return false;
    PushLocked(session, std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; false when full or closed.
  bool TryPush(uint64_t session, T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || size_ >= capacity_) return false;
      PushLocked(session, std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available; false when the queue is closed
  /// and drained. Items are delivered round-robin across sessions, FIFO
  /// within a session.
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || size_ > 0; });
    if (size_ == 0) return false;  // closed and drained
    PopLocked(out);
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  /// Wakes all blocked producers and consumers; Pop keeps returning
  /// queued items until drained, then false.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }
  size_t capacity() const { return capacity_; }

  /// Sessions with at least one queued task (diagnostics).
  size_t active_sessions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.size();
  }

 private:
  void PushLocked(uint64_t session, T item) {
    auto [it, inserted] = lanes_.try_emplace(session);
    it->second.push_back(std::move(item));
    if (it->second.size() == 1) {
      // Lane was empty: (re)enter the round-robin ring. Insert at the
      // cursor so a newly active session waits one full turn, which keeps
      // a pathological empty/refill lane from jumping the queue.
      ring_.insert(ring_.begin() + static_cast<long>(cursor_), session);
      ++cursor_;
      if (cursor_ >= ring_.size()) cursor_ = 0;
    }
    ++size_;
  }

  void PopLocked(T* out) {
    if (cursor_ >= ring_.size()) cursor_ = 0;
    const uint64_t session = ring_[cursor_];
    auto it = lanes_.find(session);
    std::deque<T>& lane = it->second;
    *out = std::move(lane.front());
    lane.pop_front();
    if (lane.empty()) {
      // Keep the (empty) lane object for reuse, but leave the ring.
      ring_.erase(ring_.begin() + static_cast<long>(cursor_));
      if (cursor_ >= ring_.size()) cursor_ = 0;
    } else {
      ++cursor_;
      if (cursor_ >= ring_.size()) cursor_ = 0;
    }
    --size_;
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::unordered_map<uint64_t, std::deque<T>> lanes_;
  std::vector<uint64_t> ring_;  // active sessions, round-robin order
  size_t cursor_ = 0;           // next session to serve
  size_t size_ = 0;
  bool closed_ = false;
};

}  // namespace apollo::rt
