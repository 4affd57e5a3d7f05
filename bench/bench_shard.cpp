// Sharded throughput: the same CPU-bound four-section chain executed on a
// single runtime (baseline) and on ShardGroups of 1, 2 and 4 shards.
//
// Each section carries a spin-work stage, so on a multi-core host the
// sections genuinely overlap once they sit on different kernel threads and
// throughput scales with the shard count (until the cross-shard channel
// hop dominates). On a single-core host the sharded numbers collapse to
// the baseline plus channel overhead — record the host's core count next
// to any archived result.
//
// Accepts --metrics-out=FILE: dumps the merged per-shard registries
// (shard<i>.-prefixed rows plus chan.* channel rows) per shard count.
#include <benchmark/benchmark.h>

#include "bench_obs.hpp"

#include <chrono>
#include <cstdint>
#include <string>

#include "core/infopipes.hpp"
#include "shard/shard_group.hpp"
#include "shard/sharded_realization.hpp"

namespace {

using namespace infopipe;

constexpr std::uint64_t kItems = 2000;
constexpr int kSpins = 2000;

/// CPU-bound stage: an LCG churn per item, heavy enough that compute (not
/// scheduling) dominates a section's cost.
class SpinWork : public FunctionComponent {
 public:
  using FunctionComponent::FunctionComponent;

 protected:
  Item convert(Item x) override {
    std::uint64_t acc = x.seq + 1;
    for (int i = 0; i < kSpins; ++i) {
      acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    benchmark::DoNotOptimize(acc);
    return x;
  }
};

/// Four sections separated by three passive buffers; every section does
/// the same spin work, so an even 2- or 4-way partition balances.
struct FourStageChain {
  CountingSource src{"src", kItems};
  FreeRunningPump p1{"p1"};
  SpinWork w1{"w1"};
  Buffer b1{"b1", 64};
  FreeRunningPump p2{"p2"};
  SpinWork w2{"w2"};
  Buffer b2{"b2", 64};
  FreeRunningPump p3{"p3"};
  SpinWork w3{"w3"};
  Buffer b3{"b3", 64};
  FreeRunningPump p4{"p4"};
  SpinWork w4{"w4"};
  CountingSink sink{"sink"};
  Pipeline pipe;

  FourStageChain() {
    pipe.connect(src, 0, p1, 0);
    pipe.connect(p1, 0, w1, 0);
    pipe.connect(w1, 0, b1, 0);
    pipe.connect(b1, 0, p2, 0);
    pipe.connect(p2, 0, w2, 0);
    pipe.connect(w2, 0, b2, 0);
    pipe.connect(b2, 0, p3, 0);
    pipe.connect(p3, 0, w3, 0);
    pipe.connect(w3, 0, b3, 0);
    pipe.connect(b3, 0, p4, 0);
    pipe.connect(p4, 0, w4, 0);
    pipe.connect(w4, 0, sink, 0);
  }
};

void BM_SingleRuntimeBaseline(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    FourStageChain c;
    rt::Runtime rtm;
    Realization real(rtm, c.pipe);
    state.ResumeTiming();
    real.start();
    rtm.run();
    state.PauseTiming();
    if (c.sink.count() != kItems) {
      state.SkipWithError("baseline lost items");
      return;
    }
    obsbench::capture(rtm, "BM_SingleRuntimeBaseline");
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(kItems));
    state.ResumeTiming();
  }
}
BENCHMARK(BM_SingleRuntimeBaseline)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ShardThroughput(benchmark::State& state) {
  const int n_shards = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    FourStageChain c;
    shard::ShardGroup group(n_shards);
    shard::ShardedRealization real(group, c.pipe);
    // start() inside the window: the shard threads begin moving items the
    // moment it is called.
    state.ResumeTiming();
    real.start();
    real.wait_finished(std::chrono::seconds(120));
    state.PauseTiming();
    if (c.sink.count() != kItems) {
      state.SkipWithError("sharded run lost items");
      return;
    }
    if (obsbench::enabled()) {
      obsbench::captured()["BM_ShardThroughput/" + std::to_string(n_shards)] =
          real.metrics_snapshot().to_json();
    }
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(kItems));
    state.ResumeTiming();
  }
  state.counters["shards"] = n_shards;
}
// Real time, not CPU time: the bench thread parks in wait_finished while
// the shard threads do the work.
BENCHMARK(BM_ShardThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Cross-shard item movement, batched vs per-item (ARCHITECTURE §15). No
// spin work: token items through src -> pump -> [cut] -> pump -> sink on 2
// shards, so items/sec measures the movement machinery itself — driver
// cycles, buffer locks, channel pushes — which is exactly what spans
// amortize. max_batch = 1 is the per-item baseline; max_batch = 0 encodes
// "batched pumps (64) but INFOPIPE_BATCH=off", which must collapse onto
// that baseline.

constexpr std::uint64_t kFlowItems = 200000;

void BM_CrossShardBatchedFlow(benchmark::State& state) {
  const auto arg = static_cast<std::size_t>(state.range(0));
  const std::size_t mb = arg == 0 ? 64 : arg;
  config().batching = arg != 0;
  for (auto _ : state) {
    state.PauseTiming();
    CountingSource src{"src", kFlowItems};
    FreeRunningPump p1{PumpSpec{.name = "p1", .max_batch = mb}};
    Buffer buf{"buf", 256};
    FreeRunningPump p2{PumpSpec{.name = "p2", .max_batch = mb}};
    CountingSink sink{"sink"};
    Pipeline pipe;
    pipe.connect(src, 0, p1, 0);
    pipe.connect(p1, 0, buf, 0);
    pipe.connect(buf, 0, p2, 0);
    pipe.connect(p2, 0, sink, 0);
    shard::ShardGroup group(2);
    shard::ShardedRealization real(group, pipe);
    state.ResumeTiming();
    real.start();
    real.wait_finished(std::chrono::seconds(120));
    state.PauseTiming();
    if (sink.count() != kFlowItems) {
      state.SkipWithError("batched flow lost items");
      return;
    }
    if (obsbench::enabled()) {
      obsbench::captured()["BM_CrossShardBatchedFlow/" +
                           std::to_string(arg)] =
          real.metrics_snapshot().to_json();
    }
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(kFlowItems));
    state.ResumeTiming();
  }
  state.counters["max_batch"] = static_cast<double>(mb);
  state.counters["batching"] = arg != 0 ? 1 : 0;
  config().batching = true;
}
BENCHMARK(BM_CrossShardBatchedFlow)
    ->Arg(1)   // per-item baseline
    ->Arg(8)
    ->Arg(64)
    ->Arg(0)   // max_batch=64 under the kill switch: must match Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

OBSBENCH_MAIN();
