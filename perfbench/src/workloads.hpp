// The three benchmark workloads. Each builds its inputs from the seed,
// measures for Options::seconds, checks its outputs, and fills a Result
// with every end-to-end metric (untraced run) or every per-layer metric
// (traced run). The metric names are the ones BENCHMARK.json lists.
#pragma once

#include <cstdint>

#include "harness.hpp"

namespace pb {

/// Saturated Figure-1 chain on 3 shards, closed loop through blocking
/// buffers: source -> decode pump -> decoder -> buffer -> pump -> drop
/// filter -> buffer -> pump -> resizer -> display.
Result run_player_burst(const Options& o);

/// The movie in an open loop at a fixed frame rate over loopback TCP:
/// generator -> marshal -> NetSender ~ TCP ~ NetReceiver -> unmarshal ->
/// decoder -> display, both socket ends on one RealClock runtime. A nonzero
/// `stall_ns` busy-waits that long in the receive-side probe when frame
/// `stall_seq` passes; the self-test uses it to check that a stall shows in
/// the latency.
Result run_player_tcp(const Options& o, std::uint64_t stall_seq = 0,
                      std::int64_t stall_ns = 0);

/// A 2-shard SessionTable over one SharedPlan with a SessionAcceptor: a
/// fixed population with staggered cadences plus open/close churn at a
/// fixed rate, in an open loop.
Result run_sessions(const Options& o);

}  // namespace pb
