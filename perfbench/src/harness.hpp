// Measurement plumbing shared by the three workloads: clocks, a fixed-size
// latency histogram, benchmark-owned probe components, span recording and
// the result a run prints.
//
// Clock discipline: every cross-component latency is a difference of
// std::chrono::steady_clock stamps taken by benchmark code. Item::timestamp
// and VideoDisplay's own latency figure are never compared across
// runtimes: each rt::RealClock has its own epoch and a frame's pts is
// stream-relative.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/component.hpp"
#include "media/mpeg.hpp"
#include "obs/metrics.hpp"

namespace pb {

using infopipe::Item;

/// steady_clock, in nanoseconds since its (process-wide) epoch.
[[nodiscard]] std::int64_t now_ns();
/// CPU time consumed by every thread of this process, in seconds.
[[nodiscard]] double process_cpu_s();
/// Peak resident set size of this process (VmHWM), in MB, since the start
/// or the last reset_peak_rss().
[[nodiscard]] double peak_rss_mb();
/// Restarts the kernel's peak-RSS count at the current RSS, so one play's
/// or one segment's peak can be read on its own. Best effort: where the
/// reset is refused, peaks run from the process start.
void reset_peak_rss();
/// The build this binary came from, as JSON members: build_type (the
/// CMAKE_BUILD_TYPE it was configured with), compiler and cxx_flags.
[[nodiscard]] std::string build_provenance();
/// Sleeps until the steady-clock instant `t_ns`.
void sleep_until_ns(std::int64_t t_ns);

/// Log-linear histogram of non-negative integer samples (nanoseconds by
/// convention) with 128 sub-buckets per octave. Its memory is fixed, so the
/// benchmark's own bookkeeping does not grow with run length or throughput
/// and cannot show up in peak_rss_mb. Quantiles interpolate by rank inside
/// the bucket, so they are continuous, not bucket midpoints.
class Hist {
 public:
  void add(std::int64_t v);
  void merge(const Hist& o);
  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  /// Nearest-rank quantile, q in [0,1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] std::int64_t min() const noexcept { return n_ == 0 ? 0 : min_; }

 private:
  static constexpr int kSub = 128;
  static constexpr int kOctaves = 30;  ///< up to ~2^38 ns (~4.5 min)
  static constexpr int kBuckets = 2 * kSub + kOctaves * kSub;
  static int index(std::uint64_t v);
  static double lower(int idx);
  static double width(int idx);

  std::array<std::uint64_t, kBuckets> c_{};
  std::uint64_t n_ = 0;
  std::int64_t min_ = 0;
};

/// n / d, or 0 when there is nothing to divide by.
[[nodiscard]] inline double per(double n, double d) {
  return d > 0 ? n / d : 0.0;
}

/// Quantile q in [0,1] of a small vector of per-play values, interpolated
/// linearly between order statistics (copied, sorted); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

// ---- spans ---------------------------------------------------------------------

/// One traced interval. Spans of one item share `seq`; `parent` is the id of
/// the enclosing span (0 for a root).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t seq = 0;
};

/// In-memory span store with a fixed capacity; written once, when the run
/// ends. Single-threaded: workloads add spans from the main thread after a
/// play has finished, from the per-item stamp arrays.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) { spans_.reserve(capacity); }
  /// Returns the new span's id, or 0 when the log is full.
  std::uint64_t add(const char* name, std::int64_t start, std::int64_t end,
                    std::uint64_t parent, std::uint64_t seq);
  [[nodiscard]] bool full() const noexcept {
    return spans_.size() == spans_.capacity();
  }
  /// JSON lines, one span per line. Returns false when the file cannot be
  /// written.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

// ---- result ----------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::uint64_t samples = 0;
};

/// Name and unit of every per-layer metric, in BENCHMARK.json's order.
struct MetricDef {
  const char* name;
  const char* unit;
};
extern const std::array<MetricDef, 35> kPerLayerMetrics;

/// What one run reports. `end_to_end` is printed with --trace 0 and
/// `per_layer` with --trace 1; `info` (p99, jitter, rates) is printed as
/// text beside them and never gated.
struct Result {
  bool correct = true;
  /// A correctness failure that makes the run's numbers meaningless (a
  /// digest mismatch): the binary exits nonzero after printing.
  bool fatal = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  /// Every metric of kPerLayerMetrics; one a workload does not exercise
  /// reads 0 with 0 samples.
  std::vector<Metric> per_layer;
  std::vector<Metric> info;
  std::vector<std::string> errors;
  std::vector<std::string> notes;

  Result();
  void e2e(std::string name, std::string unit, double v, std::uint64_t n) {
    end_to_end.push_back({std::move(name), std::move(unit), v, n});
  }
  /// Sets a per-layer metric; throws std::logic_error on an unknown name.
  void layer(const std::string& name, double v, std::uint64_t n);
  void note_info(std::string name, std::string unit, double v,
                 std::uint64_t n) {
    info.push_back({std::move(name), std::move(unit), v, n});
  }
  /// Records a correctness failure: `n` failed operations plus a message.
  void fail(const std::string& why, std::uint64_t n) {
    correct = false;
    failed += n;
    errors.push_back(why);
  }
};

/// What every play of a player workload measures.
struct PlayBase {
  bool finished = false;
  double setup_s = 0;
  double cpu_s = 0;
  double fps = 0;
  double first_item_us = 0;
  std::uint64_t displayed = 0;
  std::uint64_t corrupt = 0;
  double rss_mb = 0;  ///< peak resident memory during the play
};

/// Counts `frames` attempted and fails the play when it did not finish, lost
/// frames or showed corrupt ones; true when it did none of these.
bool check_delivery(const PlayBase& p, std::uint64_t frames,
                    const std::string& what, Result& r);

/// |arrival interval - origin interval| of consecutive frames, for display
/// jitter.
void add_jitter(Hist& h, const std::vector<std::int64_t>& origin,
                const std::vector<std::int64_t>& arrival);

/// The end-to-end metrics of one run. Latency and time to the first item
/// are pooled over every item of the run, so a slow stretch counts with
/// its share of the items. Throughput and CPU come per play or one-second
/// segment and the run reports their median; peak_rss_mb is the largest
/// peak of the first `rss_plays` plays or segments (0: all of them) and
/// setup_s the median of its samples.
struct EndToEnd {
  std::vector<double> fps, cpu_us_per_item, rss_mb, setup_s;
  std::size_t rss_plays = 0;
  Hist latency, first_item;
  std::uint64_t items = 0;
  /// Adds one untraced play of `frames` frames whose latency is
  /// arrival - origin per frame.
  void add_play(const PlayBase& p, const std::vector<std::int64_t>& origin,
                const std::vector<std::int64_t>& arrival, std::uint64_t frames);
  /// Adds every end-to-end metric to `r`, and as info p99 and minimum
  /// latency and the time to the first item: on the player workloads that
  /// is one wake-up-bound sample per play and spreads too much between
  /// runs on a shared host to gate.
  void report(Result& r) const;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  /// Where the traced run writes its spans ("" = do not write).
  std::string span_path;
};

// ---- benchmark-owned components ---------------------------------------------------

/// Pass-through probe: stamps steady_clock into slots[item.seq]. Optionally
/// injects a stall (a busy wait) when a given seq passes — the self-test
/// uses it to show the open-loop generator does not hide a stall.
class StampProbe : public infopipe::FunctionComponent {
 public:
  StampProbe(std::string name, std::vector<std::int64_t>* slots)
      : FunctionComponent(std::move(name)), slots_(slots) {}
  void set_stall(std::uint64_t at_seq, std::int64_t ns) {
    stall_seq_ = at_seq;
    stall_ns_ = ns;
  }

 protected:
  Item convert(Item x) override;

 private:
  std::vector<std::int64_t>* slots_;
  std::uint64_t stall_seq_ = ~std::uint64_t{0};
  std::int64_t stall_ns_ = 0;
};

/// VideoDisplay that stamps each frame's arrival (before the display's own
/// work) and completion (after it, which includes the frame-release
/// broadcast), and signals end-of-stream to a waiting main thread.
class StampedDisplay : public infopipe::media::VideoDisplay {
 public:
  StampedDisplay(std::string name, double fps, std::vector<std::int64_t>* in,
                 std::vector<std::int64_t>* out)
      : VideoDisplay(std::move(name), fps), in_(in), out_(out) {}

  /// Blocks until end-of-stream reached the display or `timeout_ns`
  /// passes. While waiting, calls `tick` every `tick_ns` (0 = never).
  template <typename Tick>
  bool wait_eos(std::int64_t timeout_ns, std::int64_t tick_ns, Tick tick) {
    const std::int64_t deadline = now_ns() + timeout_ns;
    std::unique_lock<std::mutex> lk(mu_);
    while (!eos_seen_) {
      const std::int64_t now = now_ns();
      if (now >= deadline) return false;
      const std::int64_t step =
          tick_ns > 0 ? std::min(tick_ns, deadline - now) : deadline - now;
      cv_.wait_for(lk, std::chrono::nanoseconds(step));
      if (!eos_seen_ && tick_ns > 0) {
        lk.unlock();
        tick();
        lk.lock();
      }
    }
    return true;
  }
  [[nodiscard]] std::int64_t eos_ns() const noexcept {
    return eos_ns_.load(std::memory_order_acquire);
  }

 protected:
  void consume(Item x) override;
  void on_eos() override;

 private:
  std::vector<std::int64_t>* in_;
  std::vector<std::int64_t>* out_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool eos_seen_ = false;
  std::atomic<std::int64_t> eos_ns_{0};
};

/// MpegFileSource that stamps each frame's emission. Unrealized, it also
/// serves as a tape: next() produces the movie's frames in order.
class StampedMovie : public infopipe::media::MpegFileSource {
 public:
  StampedMovie(std::string name, infopipe::media::StreamConfig cfg,
               std::vector<std::int64_t>* emit)
      : MpegFileSource(std::move(name), std::move(cfg)), emit_(emit) {}
  Item next() { return generate(); }

 protected:
  Item generate() override;

 private:
  std::vector<std::int64_t>* emit_;
};

/// The movie every workload plays: the repository's default GOP and frame
/// sizes; the seed only moves the per-frame size variation.
[[nodiscard]] infopipe::media::StreamConfig movie_config(std::uint64_t seed,
                                                         std::uint64_t frames);

/// Per-seq stamp slots, allocated once per workload and reused by every
/// play, so the benchmark's own memory does not depend on run length.
struct StampSet {
  std::vector<std::vector<std::int64_t>> t;
  StampSet(std::size_t kinds, std::size_t frames)
      : t(kinds, std::vector<std::int64_t>(frames, 0)) {}
  std::vector<std::int64_t>* operator[](std::size_t k) { return &t[k]; }
  void clear() {
    for (auto& v : t) std::fill(v.begin(), v.end(), 0);
  }
};

/// Totals of the counters the per-layer metrics divide by items, summed
/// over every runtime in a snapshot: a group snapshot prefixes each shard's
/// rows ("shard0.rt.dispatches"), a single runtime's does not.
struct MetricSums {
  double rt_dispatches = 0, rt_switches = 0, rt_messages = 0, rt_timers = 0;
  double core_control = 0, core_handoffs = 0;
  double pool_hits = 0, pool_misses = 0, pool_slab_bytes = 0;
  void add(const infopipe::obs::MetricsSnapshot& s);
  /// Adds another play's totals; slab bytes keep the larger footprint.
  void merge(const MetricSums& o);
};

}  // namespace pb
