// Promise/Future: one-shot value channel for remote I/O completions.
//
// Unlike std::promise/std::future this pair is copyable (shared state via
// shared_ptr), so a Promise can be captured in std::function-based
// callbacks — core::ReadProtocol's Waiter, thread-pool tasks — which
// require copy-constructible closures. Futures support blocking Get() for
// client worker threads, a non-blocking Ready() poll, and continuation
// chaining via Then() for fully-async completion paths (DESIGN.md
// Section 14): a continuation runs on whatever thread fulfills the
// promise, or inline if the value already landed. The gateway fulfills a
// batch that waited out a round trip from a pool task, so its
// continuations run on the pool; a batch due on arrival (rtt 0) is
// fulfilled on the submitting thread before its futures are returned, so
// its continuations run inline on that thread — a client thread or a pool
// worker.
//
// Rule enforced by convention (DESIGN.md Sections 9/14): pool worker
// threads never block on a Future — only client worker threads do — so
// the pool cannot deadlock on its own completions. Async consumers use
// Then() instead of Get()/Take().
#pragma once

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace apollo::rt {

template <typename T>
struct FutureState {
  std::mutex mu;
  std::condition_variable cv;
  std::optional<T> value;
  /// Continuations registered before the value landed; run (in
  /// registration order) by the Set() that fulfills the promise, outside
  /// the state lock.
  std::vector<std::function<void(const T&)>> continuations;
};

template <typename T>
class Future {
 public:
  Future() : state_(std::make_shared<FutureState<T>>()) {}
  explicit Future(std::shared_ptr<FutureState<T>> state)
      : state_(std::move(state)) {}

  /// Blocks until the value is set, then returns a copy.
  T Get() const {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->value.has_value(); });
    return *state_->value;
  }

  /// Blocks until the value is set and moves it out (single consumer).
  T Take() {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->value.has_value(); });
    T out = std::move(*state_->value);
    state_->value.reset();
    return out;
  }

  bool Ready() const {
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->value.has_value();
  }

  /// Registers a continuation to run with the value. If the value is
  /// already set the continuation runs inline on the calling thread;
  /// otherwise it runs on the thread that fulfills the promise, after the
  /// value is stored and outside the state lock. Do not mix Then() with
  /// Take() on the same future: Take() moves the value out and a later
  /// continuation would observe a moved-from value.
  void Then(std::function<void(const T&)> fn) {
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      if (!state_->value.has_value()) {
        state_->continuations.push_back(std::move(fn));
        return;
      }
    }
    // Value already present: it is immutable from here on (Set() ignores
    // later sets and this future is not Take()n by contract above).
    fn(*state_->value);
  }

 private:
  template <typename U>
  friend class Promise;
  std::shared_ptr<FutureState<T>> state_;
};

template <typename T>
class Promise {
 public:
  Promise() : state_(std::make_shared<FutureState<T>>()) {}

  Future<T> GetFuture() const { return Future<T>(state_); }

  /// Sets the value and wakes waiters, then runs any continuations
  /// registered via Future::Then (in registration order, outside the
  /// lock). Second and later sets are ignored (a benign race between a
  /// publisher and a fallback path).
  void Set(T value) const {
    std::vector<std::function<void(const T&)>> continuations;
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      if (state_->value.has_value()) return;
      state_->value = std::move(value);
      continuations.swap(state_->continuations);
    }
    state_->cv.notify_all();
    for (auto& fn : continuations) fn(*state_->value);
  }

 private:
  std::shared_ptr<FutureState<T>> state_;
};

}  // namespace apollo::rt
