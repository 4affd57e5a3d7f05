// player_burst: the paper's Figure-1 video chain, saturated, on 3 shards.
//
//   movie -> decode-pump -> decoder -> [decoded] -> filter-pump -> drop-filter
//         -> [filtered] -> present-pump -> resizer -> digest -> display
//
// Each pump drives one section and the partitioner cuts at both buffers, so
// each section gets a shard and the buffers become ShardChannels. Every
// pump is a default FreeRunningPump (no batching) and the decoder's cost is
// 0 (its cost is a sleep, which would measure the timer, not the glue).
// The resizer shares the display's section: placed on another shard it
// fails composition (see perfbench/README.md, known defects).
//
// One "play" builds a fresh shard group and realization, plays a fixed
// frame count closed-loop through the blocking buffers, and tears down. A
// run repeats plays until its time is up. Set-up ends where start() is
// called: start() waits for each shard to take the start event, which on
// a busy shard measures the flow, not the set-up.
#include <memory>
#include <optional>

#include "balance/accountant.hpp"
#include "core/infopipes.hpp"
#include "replay/digest.hpp"
#include "shard/shard_group.hpp"
#include "shard/sharded_realization.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using namespace infopipe;
using namespace infopipe::media;

constexpr std::uint64_t kFrames = 40000;  ///< per play
constexpr int kShards = 3;
constexpr std::size_t kBufferCap = 32;
constexpr int kResizeWidth = 640;
constexpr int kResizeHeight = 360;
constexpr std::int64_t kPlayTimeoutNs = 60'000'000'000;
constexpr std::int64_t kSampleEveryNs = 20'000'000;  ///< LoadAccountant tick
constexpr std::uint64_t kSpanEvery = 64;  ///< traced frames written as spans

enum Stamp : std::size_t {
  kEmit,     ///< source generate()
  kDecIn,    ///< traced: before the decoder
  kDecOut,   ///< traced: after the decoder (decode section exit)
  kFiltIn,   ///< traced: filter section entry
  kFiltOut,  ///< traced: filter section exit
  kPresIn,   ///< traced: present section entry
  kDispIn,   ///< display arrival
  kDispOut,  ///< display done (after the frame-release broadcast)
  kStamps,
};

struct Chain {
  StampedMovie movie;
  FreeRunningPump decode_pump{"decode-pump"};
  StampProbe dec_in;
  MpegDecoder decoder{"decoder"};
  StampProbe dec_out;
  Buffer decoded{"decoded", kBufferCap};
  FreeRunningPump filter_pump{"filter-pump"};
  StampProbe filt_in;
  FrameDropFilter filter{"drop-filter"};
  StampProbe filt_out;
  Buffer filtered{"filtered", kBufferCap};
  FreeRunningPump present_pump{"present-pump"};
  StampProbe pres_in;
  Resizer resizer{"resizer", kResizeWidth, kResizeHeight};
  replay::DigestProbe digest{"digest"};
  StampedDisplay display;
  Pipeline p;

  Chain(std::uint64_t seed, StampSet& st, bool traced)
      : movie("movie.mpg", movie_config(seed, kFrames), st[kEmit]),
        dec_in("probe.dec-in", st[kDecIn]),
        dec_out("probe.dec-out", st[kDecOut]),
        filt_in("probe.filt-in", st[kFiltIn]),
        filt_out("probe.filt-out", st[kFiltOut]),
        pres_in("probe.pres-in", st[kPresIn]),
        display("display", 30.0, st[kDispIn], st[kDispOut]) {
    std::vector<Component*> c{&movie, &decode_pump};
    const auto probe = [&](StampProbe& s) {
      if (traced) c.push_back(&s);
    };
    probe(dec_in);
    c.push_back(&decoder);
    probe(dec_out);
    c.insert(c.end(), {&decoded, &filter_pump});
    probe(filt_in);
    c.push_back(&filter);
    probe(filt_out);
    c.insert(c.end(), {&filtered, &present_pump});
    probe(pres_in);
    c.insert(c.end(), {&resizer, &digest, &display});
    for (std::size_t i = 0; i + 1 < c.size(); ++i) p.connect(*c[i], *c[i + 1]);
  }
};

struct Play : PlayBase {
  std::uint64_t digest = 0;
  std::uint64_t digest_items = 0;
  double busy_max = 0;
  StatsSnapshot stats;
  MetricSums sums;
};

Play play(int shards, std::uint64_t seed, StampSet& st, bool traced) {
  st.clear();
  Play out;
  reset_peak_rss();
  const std::int64_t t0 = now_ns();
  auto group = std::make_unique<shard::ShardGroup>(shards);
  auto chain = std::make_unique<Chain>(seed, st, traced);
  auto real = std::make_unique<shard::ShardedRealization>(*group, chain->p);
  std::optional<balance::LoadAccountant> acct;
  if (traced) acct.emplace(*real);
  group->launch();
  const double cpu0 = process_cpu_s();
  const std::int64_t start_call = now_ns();
  out.setup_s = static_cast<double>(start_call - t0) / 1e9;
  real->start();
  out.finished = chain->display.wait_eos(
      kPlayTimeoutNs, acct ? kSampleEveryNs : 0, [&] { acct->sample(); });
  out.cpu_s = process_cpu_s() - cpu0;
  if (out.finished) out.finished = real->wait_finished(std::chrono::seconds(10));
  out.stats = real->stats_snapshot();
  out.sums.add(real->metrics_snapshot());
  if (acct) {
    acct->sample();
    for (const double b : acct->snapshot().busy) {
      out.busy_max = std::max(out.busy_max, b);
    }
  }
  group->stop();
  real.reset();
  out.rss_mb = peak_rss_mb();

  const VideoDisplay::Stats ds = chain->display.stats();
  out.displayed = ds.displayed;
  out.corrupt = ds.corrupt + chain->decoder.stats().corrupt;
  out.digest = chain->digest.digest();
  out.digest_items = chain->digest.items();
  const std::int64_t first_emit = (*st[kEmit])[0];
  const std::int64_t eos = chain->display.eos_ns();
  if (out.finished && eos > first_emit) {
    out.fps = static_cast<double>(out.displayed) /
              (static_cast<double>(eos - first_emit) / 1e9);
    out.first_item_us =
        static_cast<double>((*st[kDispIn])[0] - start_call) / 1e3;
  }
  return out;
}

/// Accumulates the per-layer numbers over the traced plays.
struct Layers {
  Hist decoder_ns, hop_ns, jitter_ns;
  double decode_self_ns = 0, filter_self_ns = 0, present_self_ns = 0;
  double frames = 0;
  MetricSums sums;
  double chan_wakeups = 0, chan_put_blocks = 0, chan_take_blocks = 0;
  double block_ops = 0, buffer_ops = 0;
  std::vector<double> busy_max;
};

void add_traced(Layers& l, const Play& p, StampSet& st, SpanLog& spans) {
  const auto& t = st.t;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    l.decoder_ns.add(t[kDecOut][i] - t[kDecIn][i]);
    l.hop_ns.add(t[kFiltIn][i] - t[kDecOut][i]);
    l.hop_ns.add(t[kPresIn][i] - t[kFiltOut][i]);
    l.decode_self_ns += static_cast<double>(t[kDecOut][i] - t[kEmit][i]);
    l.filter_self_ns += static_cast<double>(t[kFiltOut][i] - t[kFiltIn][i]);
    l.present_self_ns += static_cast<double>(t[kDispOut][i] - t[kPresIn][i]);
    if (i % kSpanEvery == 0 && !spans.full()) {
      const std::uint64_t root =
          spans.add("frame", t[kEmit][i], t[kDispOut][i], 0, i);
      const std::uint64_t dec =
          spans.add("decode", t[kEmit][i], t[kDecOut][i], root, i);
      spans.add("decoder", t[kDecIn][i], t[kDecOut][i], dec, i);
      spans.add("hop.decoded", t[kDecOut][i], t[kFiltIn][i], root, i);
      spans.add("filter", t[kFiltIn][i], t[kFiltOut][i], root, i);
      spans.add("hop.filtered", t[kFiltOut][i], t[kPresIn][i], root, i);
      const std::uint64_t pres =
          spans.add("present", t[kPresIn][i], t[kDispOut][i], root, i);
      spans.add("display", t[kDispIn][i], t[kDispOut][i], pres, i);
    }
  }
  l.frames += static_cast<double>(p.displayed);
  l.sums.merge(p.sums);
  for (const ChannelStats& c : p.stats.channels) {
    l.chan_wakeups += static_cast<double>(c.wakeups);
    l.chan_put_blocks += static_cast<double>(c.flow.put_blocks);
    l.chan_take_blocks += static_cast<double>(c.flow.take_blocks);
    l.block_ops += static_cast<double>(c.flow.put_blocks + c.flow.take_blocks);
    l.buffer_ops += static_cast<double>(c.flow.puts + c.flow.takes);
  }
  for (const BufferStats& b : p.stats.buffers) {
    l.block_ops += static_cast<double>(b.put_blocks + b.take_blocks);
    l.buffer_ops += static_cast<double>(b.puts + b.takes);
  }
  l.busy_max.push_back(p.busy_max);
}

/// Checks one play against the 1-shard reference and records any failure;
/// true when the play is complete and correct.
bool check(const Play& p, const Play& ref, const std::string& what,
           Result& r) {
  if (!check_delivery(p, kFrames, what, r)) return false;
  if (p.digest != ref.digest || p.digest_items != ref.digest_items) {
    r.fail(what + ": display digest differs from the 1-shard reference",
           kFrames);
    r.fatal = true;
    return false;
  }
  return true;
}

}  // namespace

Result run_player_burst(const Options& o) {
  Result r;
  StampSet st(kStamps, kFrames);
  SpanLog spans(o.trace ? 40000 : 0);

  // The correctness reference: the same movie on one shard.
  const Play ref = play(1, o.seed, st, false);
  if (!check(ref, ref, "1-shard reference play", r)) {
    r.fatal = true;
    return r;
  }

  EndToEnd e2e;  // untraced 3-shard plays
  std::vector<double> fps_t3, fps_u1{ref.fps};
  Hist jitter;
  Layers layers;
  std::uint64_t corrupt = ref.corrupt;  // every play, passing or not
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  // Untraced runs play 3-shard movies back to back. A traced run cycles
  // untraced 3-shard, traced 3-shard and untraced 1-shard plays, so the
  // trace overhead and the 3-vs-1 speed-up come from one run.
  for (int i = 0; now_ns() < deadline || i < 3; ++i) {
    const int phase = o.trace ? i % 3 : 0;
    const bool traced = phase == 1;
    const int shards = phase == 2 ? 1 : kShards;
    const Play p = play(shards, o.seed, st, traced);
    corrupt += p.corrupt;
    if (!check(p, ref, "play " + std::to_string(i), r)) continue;
    if (phase == 2) {
      fps_u1.push_back(p.fps);
    } else if (traced) {
      fps_t3.push_back(p.fps);
      add_traced(layers, p, st, spans);
      add_jitter(layers.jitter_ns, st.t[kEmit], st.t[kDispIn]);
    } else {
      e2e.add_play(p, st.t[kEmit], st.t[kDispIn], kFrames);
      add_jitter(jitter, st.t[kEmit], st.t[kDispIn]);
    }
  }

  const auto plays = static_cast<std::uint64_t>(e2e.fps.size());
  const double fps_u3 = median(e2e.fps);
  if (!o.trace) {
    e2e.report(r);
  } else {
    const Layers& l = layers;
    const auto n = static_cast<std::uint64_t>(l.frames);
    r.layer("rt.dispatches_per_item", per(l.sums.rt_dispatches, l.frames), n);
    r.layer("rt.context_switches_per_item", per(l.sums.rt_switches, l.frames), n);
    r.layer("rt.messages_sent_per_item", per(l.sums.rt_messages, l.frames), n);
    r.layer("rt.timer_wakeups_per_item", per(l.sums.rt_timers, l.frames), n);
    r.layer("core.control_dispatched_per_item", per(l.sums.core_control, l.frames), n);
    r.layer("core.handoffs_per_item", per(l.sums.core_handoffs, l.frames), n);
    r.layer("core.buffer_block_share", per(l.block_ops, l.buffer_ops),
            static_cast<std::uint64_t>(l.buffer_ops));
    r.layer("core.self_us.decode", per(l.decode_self_ns / 1e3, l.frames), n);
    r.layer("core.self_us.filter", per(l.filter_self_ns / 1e3, l.frames), n);
    r.layer("core.self_us.present", per(l.present_self_ns / 1e3, l.frames), n);
    r.layer("shard.chan.hop_us_p50", l.hop_ns.quantile(0.5) / 1e3, l.hop_ns.count());
    r.layer("shard.chan.wakeups_per_item", per(l.chan_wakeups, l.frames), n);
    r.layer("shard.chan.put_blocks_per_item", per(l.chan_put_blocks, l.frames), n);
    r.layer("shard.chan.take_blocks_per_item", per(l.chan_take_blocks, l.frames), n);
    r.layer("shard.speedup_vs_1", per(fps_u3, median(fps_u1)),
            static_cast<std::uint64_t>(fps_u1.size()));
    r.layer("balance.busy_share_max", median(l.busy_max),
            static_cast<std::uint64_t>(l.busy_max.size()));
    r.layer("mem.pool.hit_ratio",
            per(l.sums.pool_hits, l.sums.pool_hits + l.sums.pool_misses),
            static_cast<std::uint64_t>(l.sums.pool_hits + l.sums.pool_misses));
    r.layer("mem.pool.misses_per_item", per(l.sums.pool_misses, l.frames), n);
    r.layer("mem.pool.slab_bytes", l.sums.pool_slab_bytes, 1);
    r.layer("media.decode_us_p50", l.decoder_ns.quantile(0.5) / 1e3,
            l.decoder_ns.count());
    r.layer("media.display.jitter_p99_us", l.jitter_ns.quantile(0.99) / 1e3,
            l.jitter_ns.count());
    r.layer("media.corrupt", static_cast<double>(corrupt), r.attempted);
    // Untraced over traced throughput: at least 1, lower is cheaper.
    r.layer("trace.overhead", per(fps_u3, median(fps_t3)),
            static_cast<std::uint64_t>(fps_t3.size()));
  }
  r.note_info("display_jitter_p99_us", "us", jitter.quantile(0.99) / 1e3, jitter.count());
  r.note_info("frames_per_s_1shard", "frames/s", median(fps_u1),
              static_cast<std::uint64_t>(fps_u1.size()));
  r.note_info("frames_per_play", "frames", static_cast<double>(kFrames), plays);
  if (o.trace && !o.span_path.empty() && !spans.write(o.span_path)) {
    r.notes.push_back("could not write spans to " + o.span_path);
  }
  r.notes.push_back("reference digest " + std::to_string(ref.digest));
  return r;
}

}  // namespace pb
