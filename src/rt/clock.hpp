// Clock abstraction: the scheduler is written against this interface so the
// whole middleware can run either against the machine's monotonic clock or
// against a deterministic virtual clock (discrete-event simulation).
//
// The paper evaluated on real hardware with a real clock; we default to the
// virtual clock so every experiment in bench/ is deterministic and fast, and
// provide RealClock for wall-clock runs (see DESIGN.md §3, substitutions).
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>

#include "rt/types.hpp"

namespace infopipe::rt {

/// Interface used by the Runtime for all time queries and idle waits.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current time.
  [[nodiscard]] virtual Time now() const = 0;

  /// Returns true if the clock can be advanced programmatically (virtual
  /// time). The scheduler uses this to decide whether an idle period should
  /// jump the clock forward or block the hosting OS thread.
  [[nodiscard]] virtual bool is_virtual() const = 0;

  /// Wait until `t`. VirtualClock jumps immediately; RealClock sleeps the
  /// hosting OS thread. Called by the scheduler only when no user-level
  /// thread is runnable.
  virtual void wait_until(Time t) = 0;

  /// Wakes a wait_until() in progress, or makes the next one return at
  /// once (thread-safe). Used when external messages are posted from other
  /// OS threads (rt::IoBridge); a virtual clock never blocks, so the default
  /// is a no-op.
  virtual void interrupt_wait() {}
};

/// Deterministic discrete-event clock. Time advances only via wait_until()
/// (from the idle scheduler) or advance_to() (from tests).
class VirtualClock final : public Clock {
 public:
  explicit VirtualClock(Time start = 0) : now_(start) {}

  [[nodiscard]] Time now() const override { return now_; }
  [[nodiscard]] bool is_virtual() const override { return true; }
  void wait_until(Time t) override { advance_to(t); }

  /// Move time forward. Moving backwards is a programming error and is
  /// ignored (time is monotonic).
  void advance_to(Time t) {
    if (t > now_) now_ = t;
  }
  void advance_by(Time d) { advance_to(now_ + d); }

 private:
  Time now_;
};

/// Monotonic wall-clock. now() is steady_clock relative to construction so
/// that timestamps are small and comparable with VirtualClock traces.
///
/// An interrupt is sticky: one that arrives while no wait_until() runs makes
/// the next one return at once. Only an interrupt that finds a wait in
/// progress takes the mutex and notifies; interrupting a runtime that is
/// busy is one atomic store and one load. interrupt_wait() stores
/// `interrupted_` and then loads `waiting_`; wait_until() stores `waiting_`
/// under the mutex and then re-reads `interrupted_` before it blocks. Both
/// pairs are seq_cst (Dekker), so one side always sees the other.
class RealClock final : public Clock {
 public:
  RealClock();

  [[nodiscard]] Time now() const override;
  [[nodiscard]] bool is_virtual() const override { return false; }
  void wait_until(Time t) override;
  void interrupt_wait() override;

 private:
  Time epoch_;  // steady_clock time at construction, in ns
  std::mutex m_;
  std::condition_variable cv_;
  std::atomic<bool> interrupted_{false};
  std::atomic<bool> waiting_{false};  ///< a wait_until() holds or awaits cv_
};

}  // namespace infopipe::rt
