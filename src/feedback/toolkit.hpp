// The feedback toolkit: sensors, actuators and periodic control loops wired
// through the platform (§2.1, §3.1).
//
// Sensors are ordinary pipeline components (or probes of buffers); control
// values travel as control events through the event service, so a feedback
// loop can span "remote" ends of a pipeline exactly like the Figure 1
// configuration: a sensor on the consumer side steers a drop filter on the
// producer side.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/buffer.hpp"
#include "core/component.hpp"
#include "core/pump.hpp"
#include "core/realization.hpp"
#include "feedback/controller.hpp"
#include "obs/metrics.hpp"
#include "rt/runtime.hpp"

namespace infopipe::fb {

/// Payload of kEventSensorReport events.
struct SensorReport {
  std::string sensor;
  double value = 0.0;
};

/// A recurring task on its own middleware thread: the scaffold for
/// controllers that sample sensors and drive actuators. The callback runs at
/// the given period until stop() (or destruction).
class PeriodicTask {
 public:
  PeriodicTask(rt::Runtime& rt, std::string name, rt::Time period,
               std::function<void(rt::Time now)> body,
               rt::Priority priority = rt::kPriorityControl);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void start();
  void stop();
  /// Like stop(), but additionally makes the ticking thread destroy ITSELF
  /// when it notices (returning kTerminate from its code function instead of
  /// parking). For a task that must be torn down from inside its own tick —
  /// re-homing a feedback loop onto another shard, say — where kill() is
  /// impossible: a thread cannot kill itself mid-dispatch. After retire()
  /// the task must not be start()ed again; destroy it once convenient (the
  /// destructor's kill degrades to a no-op when the thread already exited).
  void retire();
  [[nodiscard]] bool active() const noexcept { return active_; }

 private:
  rt::Runtime* rt_;
  rt::ThreadId tid_ = rt::kNoThread;
  rt::Time period_;
  std::function<void(rt::Time)> body_;
  bool active_ = false;
  bool stop_requested_ = false;
  bool retired_ = false;
};

/// Pass-through pipeline component measuring the flow rate. Arrivals are
/// counted over fixed windows (count/elapsed — unbiased even for bursty
/// flows) and the per-window rates are low-pass filtered. At every window
/// boundary the sensor broadcasts a kEventSensorReport with the smoothed
/// rate, so controllers anywhere in the pipeline can react (Figure 1's
/// consumer-side sensor).
class RateSensor : public FunctionComponent {
 public:
  RateSensor(std::string name, double alpha = 0.2,
             rt::Time window = rt::milliseconds(500), bool report = true)
      : FunctionComponent(std::move(name)),
        filter_(alpha),
        window_(window),
        report_(report) {}

  [[nodiscard]] double rate_hz() const noexcept { return filter_.value(); }
  [[nodiscard]] std::uint64_t observed() const noexcept { return seen_; }
  [[nodiscard]] int reports_sent() const noexcept { return reports_; }

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  Item convert(Item x) override {
    const rt::Time now = pipeline_now();
    if (seen_ == 0) window_start_ = now;
    ++seen_;
    ++in_window_;
    if (now - window_start_ >= window_ && now > window_start_) {
      const double rate = static_cast<double>(in_window_) * 1e9 /
                          static_cast<double>(now - window_start_);
      filter_.update(rate);
      window_start_ = now;
      in_window_ = 0;
      if (report_) {
        ++reports_;
        broadcast(Event{kEventSensorReport,
                        SensorReport{name(), filter_.value()}});
      }
    }
    return x;
  }

 private:
  LowPassFilter filter_;
  rt::Time window_;
  bool report_;
  std::uint64_t seen_ = 0;
  std::uint64_t in_window_ = 0;
  rt::Time window_start_ = 0;
  int reports_ = 0;
};

/// Measures per-item latency (now - item.timestamp) instead of rate;
/// otherwise like RateSensor. Reports smoothed latency in milliseconds.
class LatencySensor : public FunctionComponent {
 public:
  LatencySensor(std::string name, double alpha = 0.2,
                std::uint64_t report_every = 10)
      : FunctionComponent(std::move(name)),
        filter_(alpha),
        report_every_(report_every) {}

  [[nodiscard]] double latency_ms() const noexcept { return filter_.value(); }

  [[nodiscard]] EventSet accepted_events() const override {
    return EventSet::none();
  }

 protected:
  Item convert(Item x) override {
    // Item::timestamp defaults to 0 = "never stamped"; such an item would
    // read as the whole pipeline-clock epoch (multi-second bogus latency)
    // and poison the filter, so it contributes no sample.
    if (x.timestamp != 0) {
      const double lat_ms =
          static_cast<double>(pipeline_now() - x.timestamp) / 1e6;
      filter_.update(lat_ms);
    }
    ++seen_;
    if (report_every_ > 0 && seen_ % report_every_ == 0) {
      broadcast(Event{kEventSensorReport,
                      SensorReport{name(), filter_.value()}});
    }
    return x;
  }

 private:
  LowPassFilter filter_;
  std::uint64_t report_every_;
  std::uint64_t seen_ = 0;
};

/// A feedback loop: samples a reading, runs a controller, drives an
/// actuator — on its own thread at a fixed period. This is the generic
/// shape of §3.1's "more elaborate approaches [that] adjust CPU allocations
/// among pipeline stages according to feedback from buffer fill levels".
///
/// Readings and actuations are usually bound by NAME through the endpoint
/// layer (endpoint.hpp) — resolve a SensorRef/ActuatorRef against a
/// Realization or a shard::ShardedRealization — rather than by constructing
/// the std::functions by hand.
///
/// The loop publishes itself through the home runtime's MetricsRegistry:
/// `fb.loop.<name>.output` and `.error` gauges, `.steps` and `.actuations`
/// counters, so a registry snapshot shows every loop's trajectory (prefixed
/// `shard<i>.` when the loop lives on a shard).
///
/// Thread ownership: the loop's periodic task lives on the runtime passed
/// in. Construct/destroy it ON that runtime's kernel thread; `exec` routes
/// start()/stop()/destruction there for callers on other kernel threads
/// (the sharded binder passes ShardGroup::run_on). Default: run inline.
class FeedbackLoop {
 public:
  using Reading = std::function<double()>;
  using Actuate = std::function<void(double)>;
  using Exec = std::function<void(const std::function<void()>&)>;

  /// A new home for the loop, produced by a HomeCheck: the runtime to move
  /// to plus the endpoint functions re-resolved for it (readings that cache
  /// per-shard state — rate windows, remote-probe tasks — must be rebuilt
  /// for the new vantage point) and the Exec that routes onto it.
  struct Rebind {
    rt::Runtime* rt = nullptr;
    Reading read;
    Actuate act;
    Exec exec;
  };
  /// Consulted at the top of every step (i.e. on the loop's current home
  /// thread). Returning a Rebind moves the loop there: the current periodic
  /// task retires (it cannot be destroyed from its own tick), a fresh task
  /// spawns on the new runtime — through the new Exec — and the metric
  /// handles re-resolve against the new registry. The binder installs an
  /// epoch check against ShardedRealization::migrations() here so a loop
  /// follows its sensor when the rebalancer moves the observed section.
  using HomeCheck = std::function<std::optional<Rebind>()>;

  /// The controller maps (setpoint - reading) to an absolute actuation
  /// value via a PI controller bounded to [out_min, out_max].
  FeedbackLoop(rt::Runtime& rt, std::string name, rt::Time period,
               Reading read, double setpoint, PIController controller,
               Actuate actuate, Exec exec = {});
  ~FeedbackLoop();

  FeedbackLoop(const FeedbackLoop&) = delete;
  FeedbackLoop& operator=(const FeedbackLoop&) = delete;

  void start();
  void stop();
  void set_setpoint(double s) noexcept {
    setpoint_.store(s, std::memory_order_relaxed);
  }

  /// Installs (or clears) the migration-aware homing hook. Call before
  /// start(), or from the loop's own home thread.
  void set_home_check(HomeCheck hc) { home_check_ = std::move(hc); }
  /// Homes the loop has moved through (0 until the first rebind).
  [[nodiscard]] int rehomes() const noexcept {
    return rehomes_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] double last_output() const noexcept {
    return last_out_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double last_error() const noexcept {
    return last_err_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] int steps() const noexcept {
    return steps_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] int actuations() const noexcept {
    return actuations_.load(std::memory_order_relaxed);
  }

 private:
  void step();
  /// Re-resolves the fb.loop.* metric handles against `rt`'s registry. Must
  /// run on `rt`'s kernel thread.
  void bind_metrics(rt::Runtime& rt);
  /// Moves the loop to `rb`. Runs from step(), i.e. inside the current
  /// task's own tick — which is why the old task retires (self-terminates)
  /// instead of being destroyed, and is kept in retired_ until the loop
  /// dies: its code function (and captured `this`) is still on the old
  /// shard's stack when this returns.
  void apply_rebind(Rebind rb);

  std::string name_;
  PIController controller_;
  Reading read_;
  Actuate actuate_;
  std::atomic<double> setpoint_;
  rt::Time period_;
  std::atomic<double> last_out_{0.0};
  std::atomic<double> last_err_{0.0};
  std::atomic<int> steps_{0};
  std::atomic<int> actuations_{0};
  std::atomic<int> rehomes_{0};
  obs::Gauge* out_gauge_ = nullptr;
  obs::Gauge* err_gauge_ = nullptr;
  obs::Counter* steps_ctr_ = nullptr;
  obs::Counter* act_ctr_ = nullptr;
  Exec exec_;
  std::unique_ptr<PeriodicTask> task_;
  HomeCheck home_check_;
  /// Retired tasks with the Exec that reaches their home runtime; destroyed
  /// at loop teardown, each on its own shard.
  std::vector<std::pair<std::unique_ptr<PeriodicTask>, Exec>> retired_;
};

// The old by-reference helpers fill_fraction(const Buffer&) and
// pump_rate_actuator(Realization&, AdaptivePump&) are gone: they bound by
// C++ reference, so they could not cross a shard cut and dangled if the
// component died first. Bind by name instead (endpoint.hpp):
//   resolve_reading(real, fill_fraction("<buffer>"))
//   resolve_actuate(real, pump_rate("<pump>"))

}  // namespace infopipe::fb
