#include "rt/clock.hpp"

#include <chrono>
#include <thread>

namespace infopipe::rt {

namespace {
Time steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

RealClock::RealClock() : epoch_(steady_now_ns()) {}

Time RealClock::now() const { return steady_now_ns() - epoch_; }

void RealClock::wait_until(Time t) {
  std::unique_lock lk(m_);
  waiting_.store(true, std::memory_order_seq_cst);
  const Time delta = t - now();
  if (delta > 0) {
    cv_.wait_for(lk, std::chrono::nanoseconds(delta), [this] {
      return interrupted_.load(std::memory_order_seq_cst);
    });
  }
  waiting_.store(false, std::memory_order_relaxed);
  // Consume the interrupt. An exchange, not a store: if it reads an
  // interrupt's flag it synchronizes with the interrupter, so whatever was
  // posted before that interrupt is visible once this wait returns.
  (void)interrupted_.exchange(false, std::memory_order_seq_cst);
}

void RealClock::interrupt_wait() {
  interrupted_.store(true, std::memory_order_seq_cst);
  if (!waiting_.load(std::memory_order_seq_cst)) return;
  const std::lock_guard lk(m_);
  cv_.notify_all();
}

}  // namespace infopipe::rt
