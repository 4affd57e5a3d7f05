#include "harness.hpp"

#include <time.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

namespace pb {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec(), so it
  // would report the launching interpreter's peak when that is larger.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);  // 5: reset the peak RSS to the current RSS
    std::fclose(f);
  }
}

namespace {
std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}
}  // namespace

std::string build_provenance() {
  return std::string("\"build_type\": \"") + json_escape(PB_BUILD_TYPE) +
         "\", \"compiler\": \"" + json_escape(PB_CXX_ID) + " " +
         json_escape(PB_CXX_VERSION) + "\", \"cxx_flags\": \"" +
         json_escape(PB_CXX_FLAGS) + "\"";
}

void sleep_until_ns(std::int64_t t_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t_ns)));
}

// ---- Hist ------------------------------------------------------------------------

int Hist::index(std::uint64_t v) {
  if (v < 2 * kSub) return static_cast<int>(v);
  const int msb = 63 - std::countl_zero(v);
  const int shift = msb - 7;  // v >> shift lands in [kSub, 2 * kSub)
  const int idx = 2 * kSub + (shift - 1) * kSub +
                  static_cast<int>((v >> shift) - kSub);
  return std::min(idx, kBuckets - 1);
}

double Hist::lower(int idx) {
  if (idx < 2 * kSub) return idx;
  const int j = idx - 2 * kSub;
  const int shift = j / kSub + 1;
  return std::ldexp(static_cast<double>(j % kSub + kSub), shift);
}

double Hist::width(int idx) {
  if (idx < 2 * kSub) return 1.0;
  return std::ldexp(1.0, (idx - 2 * kSub) / kSub + 1);
}

void Hist::add(std::int64_t v) {
  const std::uint64_t u = v < 0 ? 0 : static_cast<std::uint64_t>(v);
  ++c_[static_cast<std::size_t>(index(u))];
  if (n_ == 0 || v < min_) min_ = v;
  ++n_;
}

void Hist::merge(const Hist& o) {
  for (std::size_t i = 0; i < c_.size(); ++i) c_[i] += o.c_[i];
  if (o.n_ > 0 && (n_ == 0 || o.min_ < min_)) min_ = o.min_;
  n_ += o.n_;
}

double Hist::quantile(double q) const {
  if (n_ == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n_))));
  std::uint64_t before = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = c_[static_cast<std::size_t>(i)];
    if (before + c >= rank) {
      // Spread the bucket's samples evenly over its width.
      const double frac =
          (static_cast<double>(rank - before) - 0.5) / static_cast<double>(c);
      return lower(i) + frac * width(i);
    }
    before += c;
  }
  return lower(kBuckets - 1);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// ---- result ----------------------------------------------------------------------

const std::array<MetricDef, 35> kPerLayerMetrics{{
    {"rt.dispatches_per_item", "1/item"},
    {"rt.context_switches_per_item", "1/item"},
    {"rt.messages_sent_per_item", "1/item"},
    {"rt.timer_wakeups_per_item", "1/item"},
    {"rt.timer_lag_p90_us", "us"},
    {"core.control_dispatched_per_item", "1/item"},
    {"core.handoffs_per_item", "1/item"},
    {"core.buffer_block_share", "ratio"},
    {"core.self_us.decode", "us"},
    {"core.self_us.filter", "us"},
    {"core.self_us.present", "us"},
    {"shard.chan.hop_us_p50", "us"},
    {"shard.chan.wakeups_per_item", "1/item"},
    {"shard.chan.put_blocks_per_item", "1/item"},
    {"shard.chan.take_blocks_per_item", "1/item"},
    {"shard.speedup_vs_1", "ratio"},
    {"balance.busy_share_max", "ratio"},
    {"mem.pool.hit_ratio", "ratio"},
    {"mem.pool.misses_per_item", "1/item"},
    {"mem.pool.slab_bytes", "bytes"},
    {"net.marshal_us_p50", "us"},
    {"net.unmarshal_us_p50", "us"},
    {"net.send_us_p50", "us"},
    {"net.wire_us_p50", "us"},
    {"net.wire_us_p90", "us"},
    {"net.sock.bytes_per_frame", "bytes"},
    {"session.open_call_us_p50", "us"},
    {"session.open_call_us_p90", "us"},
    {"session.close_call_us_p50", "us"},
    {"session.rejected", "count"},
    {"session.delivered_ratio", "ratio"},
    {"media.decode_us_p50", "us"},
    {"media.display.jitter_p99_us", "us"},
    {"media.corrupt", "count"},
    {"trace.overhead", "ratio"},
}};

Result::Result() {
  for (const MetricDef& d : kPerLayerMetrics) {
    per_layer.push_back({d.name, d.unit, 0.0, 0});
  }
}

void Result::layer(const std::string& name, double v, std::uint64_t n) {
  for (Metric& m : per_layer) {
    if (m.name == name) {
      m.value = v;
      m.samples = n;
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

bool check_delivery(const PlayBase& p, std::uint64_t frames,
                    const std::string& what, Result& r) {
  r.attempted += frames;
  const std::uint64_t missing = frames - std::min(frames, p.displayed);
  if (p.finished && missing == 0 && p.corrupt == 0) return true;
  r.fail(what + ": " + std::to_string(missing) + " frames missing, " +
             std::to_string(p.corrupt) + " corrupt",
         std::max<std::uint64_t>(1, missing + p.corrupt));
  return false;
}

void add_jitter(Hist& h, const std::vector<std::int64_t>& origin,
                const std::vector<std::int64_t>& arrival) {
  for (std::size_t i = 1; i < arrival.size(); ++i) {
    const std::int64_t shown = arrival[i] - arrival[i - 1];
    const std::int64_t made = origin[i] - origin[i - 1];
    h.add(shown > made ? shown - made : made - shown);
  }
}

void EndToEnd::add_play(const PlayBase& p,
                        const std::vector<std::int64_t>& origin,
                        const std::vector<std::int64_t>& arrival,
                        std::uint64_t frames) {
  for (std::uint64_t f = 0; f < frames; ++f) latency.add(arrival[f] - origin[f]);
  fps.push_back(p.fps);
  cpu_us_per_item.push_back(p.cpu_s * 1e6 / static_cast<double>(frames));
  rss_mb.push_back(p.rss_mb);
  setup_s.push_back(p.setup_s);
  first_item.add(static_cast<std::int64_t>(p.first_item_us * 1e3));
  items += frames;
}

void EndToEnd::report(Result& r) const {
  const auto n = [](const std::vector<double>& v) {
    return static_cast<std::uint64_t>(v.size());
  };
  const std::size_t peaks =
      rss_plays == 0 ? rss_mb.size() : std::min(rss_plays, rss_mb.size());
  const auto last = rss_mb.begin() + static_cast<std::ptrdiff_t>(peaks);
  const double rss = peaks == 0 ? 0.0 : *std::max_element(rss_mb.begin(), last);
  r.e2e("frames_per_s", "frames/s", median(fps), n(fps));
  r.e2e("latency_p50_us", "us", latency.quantile(0.50) / 1e3, latency.count());
  r.e2e("latency_p90_us", "us", latency.quantile(0.90) / 1e3, latency.count());
  r.e2e("cpu_us_per_item", "us", median(cpu_us_per_item), items);
  r.e2e("peak_rss_mb", "MB", rss, peaks);
  r.e2e("setup_s", "s", median(setup_s), n(setup_s));
  r.note_info("latency_p99_us", "us", latency.quantile(0.99) / 1e3,
              latency.count());
  r.note_info("latency_min_us", "us", static_cast<double>(latency.min()) / 1e3,
              latency.count());
  r.note_info("first_item_p50_us", "us", first_item.quantile(0.50) / 1e3,
              first_item.count());
  r.note_info("first_item_p90_us", "us", first_item.quantile(0.90) / 1e3,
              first_item.count());
}

// ---- SpanLog ---------------------------------------------------------------------

std::uint64_t SpanLog::add(const char* name, std::int64_t start,
                           std::int64_t end, std::uint64_t parent,
                           std::uint64_t seq) {
  if (full()) return 0;
  const std::uint64_t id = next_id_++;
  spans_.push_back(Span{name, start, end, id, parent, seq});
  return id;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"seq\":%llu}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.seq));
  }
  return std::fclose(f) == 0;
}

// ---- components ------------------------------------------------------------------

Item StampProbe::convert(Item x) {
  if (x.is_data() && x.seq < slots_->size()) {
    if (x.seq == stall_seq_) {
      const std::int64_t until = now_ns() + stall_ns_;
      while (now_ns() < until) {
      }
    }
    (*slots_)[x.seq] = now_ns();
  }
  return x;
}

void StampedDisplay::consume(Item x) {
  const std::uint64_t seq = x.seq;
  const bool slot = x.is_data() && seq < in_->size();
  if (slot) (*in_)[seq] = now_ns();
  VideoDisplay::consume(std::move(x));
  if (slot) (*out_)[seq] = now_ns();
}

void StampedDisplay::on_eos() {
  VideoDisplay::on_eos();
  eos_ns_.store(now_ns(), std::memory_order_release);
  {
    const std::lock_guard<std::mutex> lk(mu_);
    eos_seen_ = true;
  }
  cv_.notify_all();
}

Item StampedMovie::generate() {
  Item x = MpegFileSource::generate();
  if (emit_ != nullptr && x.is_data() && x.seq < emit_->size()) {
    (*emit_)[x.seq] = now_ns();
  }
  return x;
}

infopipe::media::StreamConfig movie_config(std::uint64_t seed,
                                           std::uint64_t frames) {
  infopipe::media::StreamConfig c;
  c.frames = frames;
  c.seed = seed;
  return c;
}

// ---- MetricSums ------------------------------------------------------------------

namespace {
bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0 &&
         (s.size() == n || s[s.size() - n - 1] == '.');
}
}  // namespace

void MetricSums::add(const infopipe::obs::MetricsSnapshot& s) {
  for (const infopipe::obs::MetricValue& m : s.metrics) {
    const double c = static_cast<double>(m.count);
    if (ends_with(m.name, "rt.dispatches")) rt_dispatches += c;
    else if (ends_with(m.name, "rt.context_switches")) rt_switches += c;
    else if (ends_with(m.name, "rt.messages_sent")) rt_messages += c;
    else if (ends_with(m.name, "rt.timer_wakeups")) rt_timers += c;
    else if (ends_with(m.name, "core.control_dispatched")) core_control += c;
    else if (ends_with(m.name, "core.handoffs")) core_handoffs += c;
    else if (ends_with(m.name, "mem.pool.hits")) pool_hits += c;
    else if (ends_with(m.name, "mem.pool.misses")) pool_misses += c;
    else if (ends_with(m.name, "mem.pool.slab_bytes")) pool_slab_bytes += m.value;
  }
}

void MetricSums::merge(const MetricSums& o) {
  rt_dispatches += o.rt_dispatches;
  rt_switches += o.rt_switches;
  rt_messages += o.rt_messages;
  rt_timers += o.rt_timers;
  core_control += o.core_control;
  core_handoffs += o.core_handoffs;
  pool_hits += o.pool_hits;
  pool_misses += o.pool_misses;
  pool_slab_bytes = std::max(pool_slab_bytes, o.pool_slab_bytes);
}

}  // namespace pb
