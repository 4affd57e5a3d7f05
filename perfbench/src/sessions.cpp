// sessions: a 2-shard session server built from one SharedPlan.
//
// A SessionTable realizes one engine per shard (wheel source -> governor ->
// the benchmark's two probe stages -> latency sensor -> sink) and a
// SessionAcceptor admits over a LoadAccountant. The run holds a fixed
// population with staggered cadences, mixed QoS classes and 64 B / 1 KiB
// payloads, opened over a ramp so their phases spread. During the measured
// window the main thread opens one churn session and closes the oldest on a
// fixed schedule (each tick at a seeded offset inside its 10 ms slot), in
// an open loop (a late tick runs at once and the schedule is kept), with no
// QoS loops: the offered load does not depend on the system.
//
// Lateness is pipeline_now() - timestamp on the item's own shard (the
// engine stamps the due time), so no clock is compared across runtimes.
// An item that was due more than kGraceNs before its session closed but
// never arrived counts as failed, as does a rejected open.
#include <algorithm>
#include <memory>
#include <random>
#include <unordered_map>

#include "balance/accountant.hpp"
#include "core/infopipes.hpp"
#include "session/acceptor.hpp"
#include "session/plan.hpp"
#include "session/table.hpp"
#include "shard/shard_group.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using namespace infopipe;
using session::SessionId;
using session::SessionParams;

constexpr int kShards = 2;
constexpr int kPopulation = 2000;
constexpr std::int64_t kRampNs = 1'000'000'000;  ///< population open ramp
constexpr double kChurnHz = 100.0;               ///< opens (and closes) per s
constexpr int kChurnLive = 100;                  ///< churn sessions held
constexpr int kSetups = 21;                      ///< set-ups per run
constexpr std::int64_t kSetupGapNs = 100'000'000;
constexpr std::int64_t kSegmentNs = 1'000'000'000;
constexpr std::int64_t kGraceNs = 100'000'000;
constexpr std::int64_t kSampleEveryNs = 50'000'000;  ///< LoadAccountant tick
constexpr std::int64_t kDrainNs = 50'000'000;  ///< after the last close
constexpr std::size_t kSpanCap = 20000;         ///< per shard
constexpr std::uint64_t kSpanSessionEvery = 16;

/// Per-shard probe state. Written only by the shard's engine thread; read
/// by the main thread after the group has stopped.
struct ShardProbe {
  /// Index of the window's current one-second segment; -1 outside it.
  const std::atomic<int>* segment = nullptr;
  const std::atomic<bool>* tracing = nullptr;
  Hist lag_ns;  ///< first stage: due -> emitted (the wheel's timer lag)
  Hist late_ns;  ///< last stage, in the window: due -> delivered
  std::vector<std::uint64_t> delivered;  ///< per segment
  struct Rec {
    rt::Time first_due = 0;
    std::uint64_t count = 0;
  };
  std::unordered_map<SessionId, Rec> recs;
  std::vector<std::pair<SessionId, std::int64_t>> first_arrival;
  std::vector<Span> spans;
  std::int64_t offset = 0;  ///< steady clock minus this shard's clock
};

/// The benchmark's engine stage. The first instance measures the wheel's
/// timer lag; the last records delivery (lateness, per-session counts, the
/// first arrival of each session, sampled spans).
class SessionProbe : public FunctionComponent {
 public:
  SessionProbe(std::string name, ShardProbe* st, bool last)
      : FunctionComponent(std::move(name)), st_(st), last_(last) {}

 protected:
  Item convert(Item x) override {
    if (st_ == nullptr || !x.is_data()) return x;
    const rt::Time now = pipeline_now();
    const int seg = st_->segment->load(std::memory_order_relaxed);
    if (!last_) {
      if (seg >= 0) st_->lag_ns.add(now - x.timestamp);
      return x;
    }
    const std::int64_t steady = now_ns();
    st_->offset = steady - now;
    const auto id = static_cast<SessionId>(static_cast<std::uint32_t>(x.kind));
    ShardProbe::Rec& r = st_->recs[id];
    if (r.count++ == 0) {
      r.first_due = x.timestamp;
      st_->first_arrival.emplace_back(id, steady);
    }
    if (seg >= 0) {
      st_->late_ns.add(now - x.timestamp);
      ++st_->delivered[static_cast<std::size_t>(seg)];
    }
    if (st_->tracing->load(std::memory_order_relaxed) &&
        (id >> 8) % kSpanSessionEvery == 0 && st_->spans.size() < kSpanCap) {
      st_->spans.push_back(Span{"session.item", x.timestamp + st_->offset,
                                steady, 0, 0, x.seq});
    }
    return x;
  }

 private:
  ShardProbe* st_;
  bool last_;
};

/// The population: a fixed multiset of parameters (cadences 10..60 Hz in
/// 5 Hz steps, gold/silver/bronze, 64 B and 1 KiB payloads), so the offered
/// load is the same for every seed; the seed only shuffles which session
/// gets which parameters, and so the order they open in.
std::vector<SessionParams> population(std::uint64_t seed) {
  std::vector<SessionParams> v;
  v.reserve(kPopulation);
  for (int i = 0; i < kPopulation; ++i) {
    SessionParams p;
    p.rate_hz = 10.0 + 5.0 * static_cast<double>(i % 11);
    p.qos = static_cast<session::QosClass>(i % session::kNumClasses);
    p.payload_bytes = (i / 3) % 2 == 0 ? 64 : 1024;
    v.push_back(p);
  }
  std::mt19937_64 rng(seed);
  std::shuffle(v.begin(), v.end(), rng);
  return v;
}

/// One set-up: what has to exist before the first session can be opened.
struct Server {
  std::unique_ptr<shard::ShardGroup> group;
  std::unique_ptr<session::SessionTable> table;
  std::unique_ptr<balance::LoadAccountant> acct;
  std::unique_ptr<session::SessionAcceptor> acceptor;

  /// Everything is built before the shard threads launch, so the engines
  /// are realized inline rather than through cross-thread calls.
  explicit Server(std::vector<ShardProbe>* probes) {
    group = std::make_unique<shard::ShardGroup>(kShards);
    session::EngineSpec spec;
    spec.stages = [probes](int shard) {
      ShardProbe* st = shard >= 0 ? &(*probes)[static_cast<std::size_t>(shard)]
                                  : nullptr;
      std::vector<std::unique_ptr<Component>> v;
      v.push_back(std::make_unique<SessionProbe>("probe.emit", st, false));
      v.push_back(std::make_unique<SessionProbe>("probe.deliver", st, true));
      return v;
    };
    table = std::make_unique<session::SessionTable>(
        *group, session::SharedPlan::analyze(std::move(spec)));
    acct = std::make_unique<balance::LoadAccountant>(*group);
    acceptor = std::make_unique<session::SessionAcceptor>(*table, *acct);
    group->launch();
  }
  ~Server() {
    acceptor.reset();
    acct.reset();
    table.reset();
    group->stop();
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
};

/// Bookkeeping of one opened session, on the main thread.
struct Opened {
  SessionParams params;
  std::int64_t open_call = 0;  ///< steady, before acceptor.open()
  std::int64_t close_call = 0;
  bool churn = false;
};

}  // namespace

Result run_sessions(const Options& o) {
  Result r;
  const std::vector<SessionParams> pop = population(o.seed);
  const auto window_ns = static_cast<std::int64_t>(o.seconds * 1e9);
  const auto segments =
      static_cast<std::size_t>((window_ns + kSegmentNs - 1) / kSegmentNs);
  std::atomic<int> segment{-1};
  std::atomic<bool> tracing{false};
  std::vector<ShardProbe> probes(kShards);
  for (ShardProbe& p : probes) {
    p.segment = &segment;
    p.tracing = &tracing;
    p.delivered.resize(segments);
  }

  // Set up several times, spaced out so the samples do not all see the
  // host in one instant; the last server is the one measured.
  std::vector<double> setup;
  std::unique_ptr<Server> srv;
  for (int s = 0; s < kSetups; ++s) {
    if (srv) {
      srv.reset();
      sleep_until_ns(now_ns() + kSetupGapNs);
    }
    const std::int64_t t0 = now_ns();
    srv = std::make_unique<Server>(&probes);
    setup.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  std::unordered_map<SessionId, Opened> opened;
  Hist open_ns, close_ns;
  std::uint64_t opens = 0, rejected = 0;
  std::int64_t next_sample = now_ns();
  const auto tick = [&] {
    if (now_ns() >= next_sample) {
      srv->acct->sample();
      next_sample += kSampleEveryNs;
    }
  };
  const auto open = [&](const SessionParams& p, bool churn) -> SessionId {
    const std::int64_t t = now_ns();
    const session::SessionAcceptor::OpenResult res = srv->acceptor->open(p);
    open_ns.add(now_ns() - t);
    ++opens;
    if (!res.ok) {
      ++rejected;
      return 0;
    }
    opened[res.id] = Opened{p, t, 0, churn};
    return res.id;
  };
  const auto close = [&](SessionId id) {
    const std::int64_t t = now_ns();
    opened[id].close_call = t;
    srv->acceptor->close(id);
    close_ns.add(now_ns() - t);
  };

  // Ramp: the population opens one session every kRampNs / kPopulation.
  std::vector<SessionId> held;
  const std::int64_t ramp0 = now_ns();
  for (int i = 0; i < kPopulation; ++i) {
    sleep_until_ns(ramp0 + kRampNs * i / kPopulation);
    tick();
    if (const SessionId id = open(pop[static_cast<std::size_t>(i)], false)) {
      held.push_back(id);
    }
  }

  // Measured window, in one-second segments: churn on a fixed schedule. Each
  // tick sits at a seeded random offset inside its 10 ms slot, so the opens
  // sample every phase of the engines' wheel instead of one. A traced run
  // records spans in its second half only; the first half is its untraced
  // baseline.
  const auto churn_period = static_cast<std::int64_t>(1e9 / kChurnHz);
  std::mt19937_64 jitter(o.seed);
  std::vector<SessionId> churn;  // FIFO of live churn sessions
  std::size_t churn_head = 0;
  std::vector<std::int64_t> seg_start(segments + 1);
  std::vector<double> seg_cpu(segments + 1);
  std::vector<double> seg_rss(segments);  ///< peak resident memory
  const std::int64_t w0 = now_ns();
  for (std::int64_t j = 0;; ++j) {
    const std::int64_t slot = w0 + j * churn_period;
    const auto seg = static_cast<std::size_t>((slot - w0) / kSegmentNs);
    if (static_cast<int>(seg) != segment.load()) {
      sleep_until_ns(slot);
      seg_start[seg] = now_ns();
      seg_cpu[seg] = process_cpu_s();
      if (seg > 0) seg_rss[seg - 1] = peak_rss_mb();
      if (seg == segments) break;
      reset_peak_rss();
      if (o.trace && seg >= segments / 2) tracing.store(true);
      segment.store(static_cast<int>(seg));
    }
    sleep_until_ns(slot + static_cast<std::int64_t>(
                              jitter() % static_cast<std::uint64_t>(churn_period)));
    tick();
    if (churn.size() - churn_head >= kChurnLive) close(churn[churn_head++]);
    const SessionParams& p = pop[static_cast<std::size_t>(j) % pop.size()];
    if (const SessionId id = open(p, true)) churn.push_back(id);
  }
  segment.store(-1);
  tracing.store(false);

  for (const SessionId id : held) close(id);
  for (std::size_t i = churn_head; i < churn.size(); ++i) close(churn[i]);
  sleep_until_ns(now_ns() + kDrainNs);
  srv->acct->sample();
  double busy_max = 0;
  for (const double b : srv->acct->snapshot().busy) busy_max = std::max(busy_max, b);
  MetricSums sums;
  sums.add(srv->group->metrics_snapshot());
  srv.reset();  // engines shut down, shard threads joined

  // Due-versus-delivered accounting, per session.
  std::uint64_t due_total = 0, delivered_ok = 0, missing = 0, total_items = 0;
  for (auto& [id, s] : opened) {
    const ShardProbe& pr = probes[static_cast<std::size_t>(session::shard_of_session(id))];
    const auto period = static_cast<rt::Time>(1e9 / s.params.rate_hz);
    const rt::Time close_rt = s.close_call - pr.offset - kGraceNs;
    const auto it = pr.recs.find(id);
    const std::uint64_t got = it == pr.recs.end() ? 0 : it->second.count;
    const rt::Time first =
        it == pr.recs.end() ? s.open_call - pr.offset : it->second.first_due;
    const std::uint64_t expected =
        close_rt >= first ? static_cast<std::uint64_t>((close_rt - first) / period) + 1
                          : 0;
    due_total += expected;
    delivered_ok += std::min(got, expected);
    missing += expected > got ? expected - got : 0;
    total_items += got;
  }
  r.attempted = due_total + opens;
  if (missing > 0) {
    r.fail(std::to_string(missing) + " items due but not delivered", missing);
  }
  if (rejected > 0) r.fail(std::to_string(rejected) + " opens rejected", rejected);

  // End-to-end values: throughput, CPU and memory per one-second segment;
  // lateness and the churn sessions' first items (those opened inside the
  // window) pooled over the run.
  EndToEnd e2e;
  e2e.setup_s = setup;
  for (const ShardProbe& pr : probes) {
    for (const auto& [id, t] : pr.first_arrival) {
      const auto it = opened.find(id);
      if (it == opened.end() || !it->second.churn) continue;
      if (it->second.open_call - w0 < window_ns) {
        e2e.first_item.add(t - it->second.open_call);
      }
    }
  }
  Hist lag;
  std::vector<double> cpu_untraced, cpu_traced;
  for (std::size_t g = 0; g < segments; ++g) {
    std::uint64_t items = 0;
    for (const ShardProbe& pr : probes) items += pr.delivered[g];
    const double secs = static_cast<double>(seg_start[g + 1] - seg_start[g]) / 1e9;
    const double cpu_us = per((seg_cpu[g + 1] - seg_cpu[g]) * 1e6,
                              static_cast<double>(items));
    (o.trace && g >= segments / 2 ? cpu_traced : cpu_untraced).push_back(cpu_us);
    e2e.fps.push_back(per(static_cast<double>(items), secs));
    e2e.cpu_us_per_item.push_back(cpu_us);
    e2e.rss_mb.push_back(seg_rss[g]);
    e2e.items += items;
  }
  for (const ShardProbe& pr : probes) {
    lag.merge(pr.lag_ns);
    e2e.latency.merge(pr.late_ns);
  }

  if (!o.trace) {
    e2e.report(r);
  } else {
    const auto f = static_cast<double>(total_items);
    r.layer("rt.dispatches_per_item", per(sums.rt_dispatches, f), total_items);
    r.layer("rt.context_switches_per_item", per(sums.rt_switches, f), total_items);
    r.layer("rt.messages_sent_per_item", per(sums.rt_messages, f), total_items);
    r.layer("rt.timer_wakeups_per_item", per(sums.rt_timers, f), total_items);
    r.layer("rt.timer_lag_p90_us", lag.quantile(0.9) / 1e3, lag.count());
    r.layer("core.control_dispatched_per_item", per(sums.core_control, f), total_items);
    r.layer("core.handoffs_per_item", per(sums.core_handoffs, f), total_items);
    r.layer("balance.busy_share_max", busy_max, kShards);
    r.layer("mem.pool.hit_ratio",
            per(sums.pool_hits, sums.pool_hits + sums.pool_misses),
            static_cast<std::uint64_t>(sums.pool_hits + sums.pool_misses));
    r.layer("mem.pool.misses_per_item", per(sums.pool_misses, f), total_items);
    r.layer("mem.pool.slab_bytes", sums.pool_slab_bytes, kShards);
    r.layer("session.open_call_us_p50", open_ns.quantile(0.5) / 1e3, open_ns.count());
    r.layer("session.open_call_us_p90", open_ns.quantile(0.9) / 1e3, open_ns.count());
    r.layer("session.close_call_us_p50", close_ns.quantile(0.5) / 1e3, close_ns.count());
    r.layer("session.rejected", static_cast<double>(rejected), opens);
    r.layer("session.delivered_ratio",
            per(static_cast<double>(delivered_ok), static_cast<double>(due_total)),
            due_total);
    // Traced over untraced CPU per item: at least 1, lower is cheaper.
    r.layer("trace.overhead", per(median(cpu_traced), median(cpu_untraced)),
            static_cast<std::uint64_t>(cpu_traced.size()));
  }
  r.note_info("timer_lag_p90_us", "us", lag.quantile(0.9) / 1e3, lag.count());
  r.note_info("sessions_opened", "count", static_cast<double>(opens), opens);
  r.note_info("items_due", "count", static_cast<double>(due_total), due_total);
  if (o.trace && !o.span_path.empty()) {
    SpanLog log(kShards * kSpanCap);
    for (const ShardProbe& pr : probes) {
      for (const Span& s : pr.spans) log.add(s.name, s.start_ns, s.end_ns, 0, s.seq);
    }
    if (!log.write(o.span_path)) {
      r.notes.push_back("could not write spans to " + o.span_path);
    }
  }
  return r;
}

}  // namespace pb
