// player_tcp: the movie played in an open loop over loopback TCP.
//
//   generator -> marshal -> digest.tx -> NetSender ~ TCP ~ NetReceiver
//             -> digest.rx -> unmarshal -> decoder -> display
//
// Both SocketTransports and the whole pipeline live on one RealClock
// runtime with one IoBridge (the layout of TcpRig in bench/bench_net.cpp);
// the main thread drives the runtime. The generator is the benchmark's
// own: it keeps the ideal schedule t0 + k/rate, so a late frame goes out at
// once and later frames are still due at their original instants — a stall
// shows in the latency of every frame it delays (no coordinated omission).
// ClockedPump cannot play this role: it re-anchors after a stall.
//
// Latency is display arrival minus the frame's due time, both on the
// steady clock. The rate is fixed well below the path's capacity (see
// perfbench/README.md), so frames_per_s reads back the offered rate unless
// the path falls behind.
#include <memory>
#include <optional>

#include "core/infopipes.hpp"
#include "net/netpipe.hpp"
#include "net/socket_transport.hpp"
#include "replay/digest.hpp"
#include "rt/io_bridge.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using namespace infopipe;
using namespace infopipe::media;

/// Open-loop frame rate: about a sixth of the path's capacity (~47k
/// frames/s on a 4-vCPU x86-64 VM), so the path keeps up even while the
/// shared host runs several times slower than usual. At 4000 frames/s the
/// runtime idled ~200 us between frames, long enough for the VM's vCPU to
/// halt, so most frames waited for the host to run the vCPU again and
/// latency_p90_us followed the host's load (0.13 to 1.2 ms between runs).
constexpr double kRateHz = 8000.0;
constexpr std::uint64_t kFrames = 2500;  ///< per play
constexpr std::int64_t kConnectTimeoutNs = 10'000'000'000;
constexpr std::int64_t kPlayTimeoutNs = 60'000'000'000;
/// How often the main thread, while driving the runtime, looks for EOS.
/// The runtime sleeps until its next timer or socket event in between.
constexpr rt::Time kSliceNs = 2'000'000;
constexpr rt::Time kConnectSliceNs = 20'000;
constexpr std::uint64_t kSpanEvery = 16;
/// peak_rss_mb counts the first this many untraced plays. Every play builds
/// a new Runtime, whose buffer pool is immortal (src/mem/pool.hpp), so the
/// process grows by a few tens of KB per play; over all plays the peak
/// would follow how many plays fit in the run, not the path's own need.
constexpr std::size_t kRssPlays = 8;

enum Stamp : std::size_t {
  kDue,      ///< ideal send instant (generator schedule)
  kSent,     ///< generator actually fired
  kWireTx,   ///< traced: before NetSender
  kWireRx,   ///< traced: after NetReceiver
  kDecIn,    ///< traced: before the decoder
  kDecOut,   ///< traced: after the decoder
  kDispIn,   ///< display arrival
  kDispOut,  ///< display done
  kStamps,
};

/// Open-loop frame generator: an active source firing frame k of its tape
/// at t0 + k/rate of the runtime clock, t0 being the instant pumping
/// starts.
/// The schedule is never re-anchored: when the section falls behind,
/// next_fire() returns a past instant and the driver fires at once.
class OpenLoopGenerator : public ActiveSource {
 public:
  OpenLoopGenerator(std::string name, const std::vector<Item>* tape,
                    double rate_hz, std::vector<std::int64_t>* due,
                    std::vector<std::int64_t>* sent)
      : ActiveSource(std::move(name), rt::kPriorityTimer),
        tape_(tape),
        rate_hz_(rate_hz),
        due_(due),
        sent_(sent) {}

  [[nodiscard]] Typespec output_offer(int) const override {
    return Typespec{{props::kItemType, std::string("video")},
                    {props::kFormats, StringSet{"mpeg"}}};
  }

 protected:
  void prepare(rt::Time now) override {
    t0_ = now;
    k_ = 0;
    // RealClock is steady_clock minus a fixed epoch: one offset converts
    // the schedule to steady-clock due times.
    offset_ = now_ns() - now;
  }
  [[nodiscard]] rt::Time next_fire(rt::Time) override { return t0_ + ideal(k_); }
  Item generate() override {
    if (k_ >= tape_->size()) return Item::eos();
    const std::uint64_t k = k_++;
    (*due_)[k] = t0_ + ideal(k) + offset_;
    (*sent_)[k] = now_ns();
    return (*tape_)[k];
  }

 private:
  [[nodiscard]] rt::Time ideal(std::uint64_t k) const {
    return static_cast<rt::Time>(static_cast<double>(k) * 1e9 / rate_hz_);
  }

  const std::vector<Item>* tape_;
  double rate_hz_;
  std::vector<std::int64_t>* due_;
  std::vector<std::int64_t>* sent_;
  rt::Time t0_ = 0;
  std::int64_t offset_ = 0;
  std::uint64_t k_ = 0;
};

/// Transport decorator timing each send() into a histogram when one is set.
class TimedTransport : public net::Transport {
 public:
  explicit TimedTransport(net::Transport& inner) : inner_(&inner) {}
  void attach_receiver(rt::ThreadId tid) override {
    inner_->attach_receiver(tid);
  }
  void send(rt::Runtime& rt, Item packet) override {
    if (hist == nullptr) {
      inner_->send(rt, std::move(packet));
      return;
    }
    const std::int64_t t0 = now_ns();
    inner_->send(rt, std::move(packet));
    hist->add(now_ns() - t0);
  }
  [[nodiscard]] double bandwidth() const override { return inner_->bandwidth(); }
  [[nodiscard]] std::string kind() const override { return inner_->kind(); }
  [[nodiscard]] std::string endpoint() const override {
    return inner_->endpoint();
  }

  Hist* hist = nullptr;

 private:
  net::Transport* inner_;
};

/// Histograms the traced plays fill from inside the codec and transport.
struct NetTimes {
  Hist marshal_ns, unmarshal_ns, send_ns;
};

template <typename F>
auto timed(Hist* h, F&& f) {
  if (h == nullptr) return f();
  const std::int64_t t0 = now_ns();
  auto out = f();
  h->add(now_ns() - t0);
  return out;
}

std::unique_ptr<net::SocketTransport> listen_on(rt::Runtime& rtm,
                                                rt::IoBridge& io) {
  net::SocketConfig c;
  c.port = 0;
  return net::SocketTransport::listen(rtm, io, c);
}

std::unique_ptr<net::SocketTransport> connect_to(rt::Runtime& rtm,
                                                 rt::IoBridge& io,
                                                 std::uint16_t port) {
  net::SocketConfig c;
  c.port = port;
  return net::SocketTransport::connect(rtm, io, c);
}

struct TcpPlay {
  rt::Runtime rtm{std::make_unique<rt::RealClock>()};
  rt::IoBridge io{rtm};
  std::unique_ptr<net::SocketTransport> server = listen_on(rtm, io);
  std::unique_ptr<net::SocketTransport> client =
      connect_to(rtm, io, server->local_port());
  TimedTransport tx_link{*client};
  OpenLoopGenerator gen;
  net::MarshalFilter marshal;
  replay::DigestProbe tx_digest{"digest.tx"};
  StampProbe wire_tx;
  net::NetSender sender{"tx", tx_link, "sender"};
  net::NetReceiver receiver{"rx", *server, "sender"};
  StampProbe wire_rx;
  replay::DigestProbe rx_digest{"digest.rx"};
  net::UnmarshalFilter unmarshal;
  StampProbe dec_in;
  MpegDecoder decoder{"decoder"};
  StampProbe dec_out;
  StampedDisplay display;
  Pipeline p;
  std::optional<Realization> real;

  TcpPlay(const std::vector<Item>* tape, StampSet& st, NetTimes* times,
          bool probes)
      : gen("generator", tape, kRateHz, st[kDue], st[kSent]),
        marshal(
            "marshal",
            [times](const Item& x) {
              return timed(times ? &times->marshal_ns : nullptr,
                           [&] { return encode_frame(x); });
            },
            "video"),
        wire_tx("probe.wire-tx", st[kWireTx]),
        wire_rx("probe.wire-rx", st[kWireRx]),
        unmarshal(
            "unmarshal",
            [times](const std::vector<std::uint8_t>& b) {
              return timed(times ? &times->unmarshal_ns : nullptr,
                           [&] { return decode_frame(b); });
            },
            "video"),
        dec_in("probe.dec-in", st[kDecIn]),
        dec_out("probe.dec-out", st[kDecOut]),
        display("display", kRateHz, st[kDispIn], st[kDispOut]) {
    if (times != nullptr) tx_link.hist = &times->send_ns;
    std::vector<Component*> tx{&gen, &marshal, &tx_digest};
    if (probes) tx.push_back(&wire_tx);
    tx.push_back(&sender);
    std::vector<Component*> rx{&receiver};
    if (probes) rx.push_back(&wire_rx);
    rx.insert(rx.end(), {&rx_digest, &unmarshal});
    if (probes) rx.push_back(&dec_in);
    rx.push_back(&decoder);
    if (probes) rx.push_back(&dec_out);
    rx.push_back(&display);
    for (const auto* chain : {&tx, &rx}) {
      for (std::size_t i = 0; i + 1 < chain->size(); ++i) {
        p.connect(*(*chain)[i], *(*chain)[i + 1]);
      }
    }
  }

  /// Drives the runtime from this thread until `done()` or the timeout,
  /// checking `done()` every `slice` of runtime time.
  template <typename Pred>
  bool drive(Pred done, std::int64_t timeout_ns, rt::Time slice) {
    const std::int64_t deadline = now_ns() + timeout_ns;
    while (!done()) {
      if (now_ns() >= deadline) return false;
      rtm.run_until(rtm.now() + slice);
    }
    return true;
  }
};

struct Play : PlayBase {
  std::uint64_t tx_digest = 0, rx_digest = 0;
  std::uint64_t tx_items = 0, rx_items = 0;
  double bytes_sent = 0;
  MetricSums sums;
};

Play play(const std::vector<Item>& tape, StampSet& st, NetTimes* times,
          std::uint64_t stall_seq, std::int64_t stall_ns) {
  st.clear();
  Play out;
  reset_peak_rss();
  const std::int64_t t0 = now_ns();
  TcpPlay tp(&tape, st, times, times != nullptr || stall_ns > 0);
  if (stall_ns > 0) tp.wire_rx.set_stall(stall_seq, stall_ns);
  tp.real.emplace(tp.rtm, tp.p);
  // A short slice while connecting, so set-up time is not rounded up to
  // the playing slice.
  if (!tp.drive([&] { return tp.server->connected() && tp.client->connected(); },
                kConnectTimeoutNs, kConnectSliceNs)) {
    return out;
  }
  const double cpu0 = process_cpu_s();
  const std::int64_t start_call = now_ns();
  out.setup_s = static_cast<double>(start_call - t0) / 1e9;
  tp.real->start();
  out.finished =
      tp.drive([&] { return tp.display.eos(); }, kPlayTimeoutNs, kSliceNs);
  out.cpu_s = process_cpu_s() - cpu0;
  out.sums.add(tp.real->metrics_snapshot());
  const VideoDisplay::Stats ds = tp.display.stats();
  out.displayed = ds.displayed;
  out.corrupt = ds.corrupt + tp.decoder.stats().corrupt;
  out.tx_digest = tp.tx_digest.digest();
  out.rx_digest = tp.rx_digest.digest();
  out.tx_items = tp.tx_digest.items();
  out.rx_items = tp.rx_digest.items();
  out.bytes_sent = static_cast<double>(tp.client->stats().bytes_sent);
  out.rss_mb = peak_rss_mb();
  const std::int64_t eos = tp.display.eos_ns();
  const std::int64_t first_due = (*st[kDue])[0];
  if (out.finished && eos > first_due) {
    out.fps = static_cast<double>(out.displayed) /
              (static_cast<double>(eos - first_due) / 1e9);
    out.first_item_us =
        static_cast<double>((*st[kDispIn])[0] - start_call) / 1e3;
  }
  return out;
}

/// Checks one play's outputs and records any failure; true when every
/// frame arrived intact.
bool check(const Play& p, const std::string& what, Result& r) {
  if (!check_delivery(p, kFrames, what, r)) return false;
  if (p.tx_digest != p.rx_digest || p.tx_items != p.rx_items) {
    r.fail(what + ": receiver-side digest differs from the sender side",
           kFrames);
    r.fatal = true;
    return false;
  }
  return true;
}

}  // namespace

Result run_player_tcp(const Options& o, std::uint64_t stall_seq,
                      std::int64_t stall_ns) {
  Result r;
  // The input: the movie's first kFrames frames, generated once from the
  // seed.
  std::vector<Item> tape;
  tape.reserve(kFrames);
  {
    StampedMovie movie("movie.mpg", movie_config(o.seed, kFrames), nullptr);
    for (std::uint64_t i = 0; i < kFrames; ++i) tape.push_back(movie.next());
  }
  StampSet st(kStamps, kFrames);
  SpanLog spans(o.trace ? 40000 : 0);
  NetTimes times;

  EndToEnd e2e;  // untraced plays
  e2e.rss_plays = kRssPlays;
  Hist jitter;
  double cpu_u = 0, frames_u = 0, cpu_t = 0, frames_t = 0;
  // Per-layer accumulators (traced plays).
  Hist lag_ns, wire_ns, decoder_ns, layer_jitter;
  MetricSums sums;
  double decode_self_ns = 0, present_self_ns = 0, bytes = 0;
  std::uint64_t corrupt = 0;

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  for (int i = 0; now_ns() < deadline || i < 2; ++i) {
    // A traced run alternates untraced and traced plays, so the trace
    // overhead is measured within the run.
    const bool traced = o.trace && i % 2 == 1;
    const Play p =
        play(tape, st, traced ? &times : nullptr, stall_seq, stall_ns);
    corrupt += p.corrupt;  // every play, passing or not
    if (!check(p, "play " + std::to_string(i), r)) continue;
    const auto& t = st.t;
    add_jitter(traced ? layer_jitter : jitter, t[kDue], t[kDispIn]);
    if (!traced) {
      e2e.add_play(p, t[kDue], t[kDispIn], kFrames);
      cpu_u += p.cpu_s;
      frames_u += static_cast<double>(p.displayed);
      continue;
    }
    cpu_t += p.cpu_s;
    frames_t += static_cast<double>(p.displayed);
    sums.merge(p.sums);
    bytes += p.bytes_sent;
    for (std::uint64_t f = 0; f < kFrames; ++f) {
      lag_ns.add(t[kSent][f] - t[kDue][f]);
      wire_ns.add(t[kWireRx][f] - t[kWireTx][f]);
      decoder_ns.add(t[kDecOut][f] - t[kDecIn][f]);
      decode_self_ns += static_cast<double>(t[kDecOut][f] - t[kWireRx][f]);
      present_self_ns += static_cast<double>(t[kDispOut][f] - t[kDecOut][f]);
      if (f % kSpanEvery == 0 && !spans.full()) {
        const std::uint64_t root =
            spans.add("frame", t[kDue][f], t[kDispOut][f], 0, f);
        spans.add("generator.lag", t[kDue][f], t[kSent][f], root, f);
        spans.add("send", t[kSent][f], t[kWireTx][f], root, f);
        spans.add("wire", t[kWireTx][f], t[kWireRx][f], root, f);
        const std::uint64_t dec =
            spans.add("decode", t[kWireRx][f], t[kDecOut][f], root, f);
        spans.add("decoder", t[kDecIn][f], t[kDecOut][f], dec, f);
        spans.add("display", t[kDispIn][f], t[kDispOut][f], root, f);
      }
    }
  }

  const auto plays = static_cast<std::uint64_t>(e2e.fps.size());
  if (!o.trace) {
    e2e.report(r);
  } else {
    const double f = frames_t;
    const auto nf = static_cast<std::uint64_t>(f);
    r.layer("rt.dispatches_per_item", per(sums.rt_dispatches, f), nf);
    r.layer("rt.context_switches_per_item", per(sums.rt_switches, f), nf);
    r.layer("rt.messages_sent_per_item", per(sums.rt_messages, f), nf);
    r.layer("rt.timer_wakeups_per_item", per(sums.rt_timers, f), nf);
    r.layer("rt.timer_lag_p90_us", lag_ns.quantile(0.9) / 1e3, lag_ns.count());
    r.layer("core.control_dispatched_per_item", per(sums.core_control, f), nf);
    r.layer("core.handoffs_per_item", per(sums.core_handoffs, f), nf);
    r.layer("core.self_us.decode", per(decode_self_ns / 1e3, f), nf);
    r.layer("core.self_us.present", per(present_self_ns / 1e3, f), nf);
    r.layer("mem.pool.hit_ratio",
            per(sums.pool_hits, sums.pool_hits + sums.pool_misses),
            static_cast<std::uint64_t>(sums.pool_hits + sums.pool_misses));
    r.layer("mem.pool.misses_per_item", per(sums.pool_misses, f), nf);
    r.layer("mem.pool.slab_bytes", sums.pool_slab_bytes, 1);
    r.layer("net.marshal_us_p50", times.marshal_ns.quantile(0.5) / 1e3,
            times.marshal_ns.count());
    r.layer("net.unmarshal_us_p50", times.unmarshal_ns.quantile(0.5) / 1e3,
            times.unmarshal_ns.count());
    r.layer("net.send_us_p50", times.send_ns.quantile(0.5) / 1e3,
            times.send_ns.count());
    r.layer("net.wire_us_p50", wire_ns.quantile(0.5) / 1e3, wire_ns.count());
    r.layer("net.wire_us_p90", wire_ns.quantile(0.9) / 1e3, wire_ns.count());
    r.layer("net.sock.bytes_per_frame", per(bytes, f), nf);
    r.layer("media.decode_us_p50", decoder_ns.quantile(0.5) / 1e3,
            decoder_ns.count());
    r.layer("media.display.jitter_p99_us", layer_jitter.quantile(0.99) / 1e3,
            layer_jitter.count());
    r.layer("media.corrupt", static_cast<double>(corrupt), r.attempted);
    // Traced over untraced CPU per frame: at least 1, lower is cheaper.
    r.layer("trace.overhead", per(per(cpu_t, frames_t), per(cpu_u, frames_u)), nf);
  }
  r.note_info("display_jitter_p99_us", "us", jitter.quantile(0.99) / 1e3,
              jitter.count());
  r.note_info("offered_rate", "frames/s", kRateHz, plays);
  r.note_info("frames_per_play", "frames", static_cast<double>(kFrames), plays);
  if (o.trace && !o.span_path.empty() && !spans.write(o.span_path)) {
    r.notes.push_back("could not write spans to " + o.span_path);
  }
  return r;
}

}  // namespace pb
