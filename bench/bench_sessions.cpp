// ip_session scalability: the price of a flow, and how many fit.
//
// The two claims the session layer makes, measured:
//
//  1. Opening a session is a STAMP, not a realization. BM_OpenCloseStamp
//     times open_on()+close() against the shared per-shard engines (a
//     counter increment and two queue pushes); BM_OpenCloseRealize flips
//     the INFOPIPE_SESSIONS kill switch and times the identical call when
//     every open plans and realizes its own solo pipeline — the classic
//     per-flow cost. The ratio between the two is the headline number and
//     the acceptance bar is >= 10x.
//
//  2. Tens of thousands of live flows fit in one process.
//     BM_HoldTenThousandSessions opens 10,000 sessions with staggered
//     cadences over a launched 2-shard group, holds them pumping on real
//     clocks, and reports live count, aggregate item rate and the merged
//     p50/p99 inter-item jitter (|actual - scheduled| per session, from
//     the engines' wait-free histograms). The realization counter stays at
//     n_shards throughout — one plan, stamped 10,000 times.
//
//  3. The per-item work of an engine, without the engine: BM_SessionItem
//     fills one session payload (64 B inline, 1 KiB pooled), wraps it as
//     an Item and folds it into the per-session digest — what cycle() and
//     SessionSink::consume() spend on each item besides wheel and glue.
//
// Accepts --metrics-out=FILE: dumps per-scenario counters.
#include <benchmark/benchmark.h>

#include "bench_obs.hpp"

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "core/infopipes.hpp"
#include "rt/clock.hpp"
#include "session/engine.hpp"
#include "session/plan.hpp"
#include "session/session.hpp"
#include "session/table.hpp"
#include "shard/shard_group.hpp"

namespace {

using namespace infopipe;
using namespace infopipe::session;

shard::ShardGroup::GroupOptions manual_opts() {
  shard::ShardGroup::GroupOptions opt;
  opt.clock_factory = [] { return std::make_unique<rt::VirtualClock>(); };
  opt.manual = true;
  return opt;
}

/// Manual group: open_on/close run to completion inline with no engine
/// threads competing, so the loop times exactly the per-flow admission
/// cost of the selected mode and nothing else.
void open_close_loop(benchmark::State& state) {
  shard::ShardGroup group(2, manual_opts());
  const auto plan = SharedPlan::analyze(EngineSpec{});
  SessionTable table(group, plan);
  int shard = 0;
  rt::Time t = 0;
  for (auto _ : state) {
    const SessionId id =
        table.open_on(shard, SessionParams{QosClass::kBronze, 10.0, 64});
    table.close(id);
    // Drive the shard runtimes so each mode also pays its engine-side
    // work: the stamp path drains two queue ops; the realize path
    // dispatches start/shutdown and reclaims the solo flow's threads
    // (without this the manual runtimes never run and memory just grows).
    group.step_until(t += rt::microseconds(10));
    shard ^= 1;
  }
  state.counters["realizations"] = static_cast<double>(table.realizations());
  state.SetItemsProcessed(state.iterations());
}

void BM_OpenCloseStamp(benchmark::State& state) {
  config().sessions = true;
  open_close_loop(state);
}
BENCHMARK(BM_OpenCloseStamp);

void BM_OpenCloseRealize(benchmark::State& state) {
  config().sessions = false;
  open_close_loop(state);
  config().sessions = true;
}
BENCHMARK(BM_OpenCloseRealize);

void BM_HoldTenThousandSessions(benchmark::State& state) {
  constexpr int kSessions = 10000;
  constexpr auto kHold = std::chrono::seconds(3);

  for (auto _ : state) {
    shard::ShardGroup group(2);
    group.launch();
    const auto plan = SharedPlan::analyze(EngineSpec{});
    SessionTable table(group, plan);

    std::vector<SessionId> ids;
    ids.reserve(kSessions);
    for (int i = 0; i < kSessions; ++i) {
      SessionParams p;
      p.qos = static_cast<QosClass>(i % kNumClasses);
      // Staggered cadences (0.5 .. 3.65 Hz) so the flows decohere after
      // the first tick instead of firing as one synchronized burst.
      p.rate_hz = 0.5 + 0.35 * static_cast<double>(i % 10);
      p.payload_bytes = 64;
      ids.push_back(table.open_on(i % group.size(), p));
    }

    std::this_thread::sleep_for(kHold);

    const JitterSnapshot j = table.jitter();
    const std::uint64_t items = table.items_total();
    state.counters["live_sessions"] = static_cast<double>(table.live());
    state.counters["realizations"] = static_cast<double>(table.realizations());
    state.counters["items_total"] = static_cast<double>(items);
    state.counters["items_per_sec"] =
        static_cast<double>(items) /
        std::chrono::duration<double>(kHold).count();
    state.counters["jitter_p50_ns"] = static_cast<double>(j.p50_ns);
    state.counters["jitter_p99_ns"] = static_cast<double>(j.p99_ns);
    state.counters["jitter_samples"] = static_cast<double>(j.samples);

    for (SessionId id : ids) table.close(id);
    table.stop();
    group.stop();
  }
}
BENCHMARK(BM_HoldTenThousandSessions)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_SessionItem(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const SessionId id = make_session_id(12345, 1);
  std::vector<std::uint8_t> scratch;
  StreamDigest d;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    const Item x = make_session_item(scratch, id, seq, rt::Time(seq), bytes);
    digest_item(d, x);
    ++seq;
    benchmark::DoNotOptimize(d.h);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SessionItem)->Arg(64)->Arg(1024);

}  // namespace

OBSBENCH_MAIN();
