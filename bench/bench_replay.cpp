// ip_replay: what does schedule recording cost the paths it taps?
//
// The dormant rows are the acceptance claim behind INFOPIPE_RECORD=off made
// measurable: with no sink installed a tap is one relaxed atomic load and a
// not-taken branch, so BM_TapDormant should sit within noise of
// BM_TapCompiledOut (the same loop with the tap call absent). BM_TapLive
// prices the other end — a ScheduleRecorder actually appending frames under
// its mutex — which is the cost a RECORDED run pays, never a production one.
//
// BM_ChannelPushPop then measures the real carrier: a ShardChannel ring
// cycle with the taps dormant vs recording, the per-item number to compare
// against bench_shard's batched-movement rows.
//
// BM_StreamDigest prices the check a DigestProbe (and every recorded flow)
// runs on each item: session::StreamDigest over one payload of 64 B, 1 KiB
// and 3 KiB (about a marshalled player frame), plus seq and kind.
#include <benchmark/benchmark.h>

#include "bench_obs.hpp"

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/infopipes.hpp"
#include "replay/recorder.hpp"
#include "rt/runtime.hpp"
#include "session/session.hpp"
#include "shard/channel.hpp"

using namespace infopipe;

namespace {

// A counter the optimizer cannot see through, standing in for the work a
// dispatch loop does around the tap.
std::uint64_t g_work = 0;

void BM_TapCompiledOut(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    g_work += ++i;
    benchmark::DoNotOptimize(g_work);
  }
}
BENCHMARK(BM_TapCompiledOut);

void BM_TapDormant(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    g_work += ++i;
    replay::note_dispatch(&g_work, i, 1);
    benchmark::DoNotOptimize(g_work);
  }
}
BENCHMARK(BM_TapDormant);

void BM_TapLive(benchmark::State& state) {
  replay::ScheduleRecorder rec;
  const bool saved = config().record;
  config().record = true;
  (void)rec.install();
  std::uint64_t i = 0;
  for (auto _ : state) {
    g_work += ++i;
    replay::note_dispatch(&g_work, i, 1);
    benchmark::DoNotOptimize(g_work);
  }
  rec.uninstall();
  config().record = saved;
  state.counters["frames"] =
      static_cast<double>(rec.frames_recorded());
}
BENCHMARK(BM_TapLive);

/// One ring cycle (try_push + try_pop) per iteration; `recording` selects
/// dormant taps (0) or an installed ScheduleRecorder (1).
void BM_ChannelPushPop(benchmark::State& state) {
  rt::Runtime rtm;
  shard::ShardChannel ch("bench.replay", 64);
  ch.bind_producer(rtm, 0);
  ch.bind_consumer(rtm, 1);
  replay::ScheduleRecorder rec;
  const bool saved = config().record;
  if (state.range(0) != 0) {
    config().record = true;
    (void)rec.install();
  }
  for (auto _ : state) {
    Item x = Item::token(1);
    benchmark::DoNotOptimize(ch.try_push(x));
    benchmark::DoNotOptimize(ch.try_pop());
  }
  rec.uninstall();
  config().record = saved;
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelPushPop)->Arg(0)->Arg(1);

void BM_StreamDigest(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> payload(n);
  for (std::size_t i = 0; i < n; ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  session::StreamDigest d;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    d.update(payload.data(), n);
    d.update_u64(seq++);
    d.update_u64(7);
    benchmark::DoNotOptimize(d.h);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_StreamDigest)->Arg(64)->Arg(1024)->Arg(3072);

}  // namespace

OBSBENCH_MAIN();
