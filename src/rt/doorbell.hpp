// Doorbell: the sleep/wake primitive for runtimes hosted on dedicated
// kernel threads (ip_shard).
//
// A Runtime's host thread sits in run() while there is work; when the
// runtime goes quiescent the host loop parks on a Doorbell instead of
// spinning. Any kernel thread that injects work (Runtime::post_external,
// rt::IoBridge, a cross-shard channel) rings the bell to resume it. The
// ring counter makes ring() sticky: a ring that arrives between the runtime
// going quiescent and the host reaching wait() is not lost, and each wait()
// consumes one ring.
//
// Only a parked waiter costs the ringer a lock and a notify. ring() bumps
// the atomic counter and then loads `sleeping_`; wait() stores `sleeping_`
// under the mutex and then re-reads the counter before it blocks. Both
// pairs are seq_cst (Dekker), so either the ringer sees the waiter asleep
// and notifies it under the mutex, or the waiter sees the new ring and
// does not block. Ringing a runtime that is busy is one atomic add and one
// load.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace infopipe::rt {

class Doorbell {
 public:
  /// Wakes the waiter (now or, thanks to the counter, at its next wait()).
  /// Thread-safe; callable from any kernel thread and cheap enough for the
  /// external-post notification hook.
  void ring() {
    rings_.fetch_add(1, std::memory_order_seq_cst);
    if (!sleeping_.load(std::memory_order_seq_cst)) return;
    const std::lock_guard lk(mutex_);
    cv_.notify_one();
  }

  /// Blocks until ring() has been called more often than wait() has
  /// consumed. Intended for a single waiter (the runtime's host thread).
  void wait() {
    if (rings_.load(std::memory_order_seq_cst) <= consumed_) {
      std::unique_lock lk(mutex_);
      sleeping_.store(true, std::memory_order_seq_cst);
      cv_.wait(lk, [this] {
        return rings_.load(std::memory_order_seq_cst) > consumed_;
      });
      sleeping_.store(false, std::memory_order_relaxed);
    }
    ++consumed_;
  }

  /// Number of rings so far (diagnostics).
  [[nodiscard]] std::uint64_t rings() const {
    return rings_.load(std::memory_order_acquire);
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<std::uint64_t> rings_{0};
  std::atomic<bool> sleeping_{false};
  std::uint64_t consumed_ = 0;  ///< waiter-owned
};

}  // namespace infopipe::rt
