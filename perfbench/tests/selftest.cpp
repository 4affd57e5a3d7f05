// perfbench_selftest: checks the benchmark's own measurement machinery.
//
//  * Hist quantiles match a known distribution.
//  * Clock discipline: every latency the open-loop workloads record is >= 0
//    (a negative one would mean two clocks with different epochs were
//    subtracted).
//  * Coordinated-omission guard: a stall injected into a probe stage of
//    the loopback-TCP player raises latency_p90_us by about the stall, as
//    an open-loop generator must show it. A generator that re-anchored its
//    schedule after the stall would delay one frame and hide the rest.
//
// Exits 0 when every check passes, 1 otherwise.
#include <cmath>
#include <cstdio>
#include <string>

#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

double metric(const pb::Result& r, const std::string& name) {
  for (const auto* list : {&r.end_to_end, &r.info}) {
    for (const pb::Metric& m : *list) {
      if (m.name == name) return m.value;
    }
  }
  return NAN;
}

void hist_quantiles() {
  pb::Hist h;
  for (int v = 1; v <= 100000; ++v) h.add(v * 10);  // 10 ns .. 1 ms
  const double p50 = h.quantile(0.5);
  const double p90 = h.quantile(0.9);
  check(std::abs(p50 - 500000) < 5000 && std::abs(p90 - 900000) < 9000,
        "Hist p50/p90 within 1% (" + std::to_string(p50) + ", " +
            std::to_string(p90) + ")");
  check(h.count() == 100000 && h.min() == 10, "Hist count and min");
}

pb::Options short_run(const char* workload, double seconds) {
  pb::Options o;
  o.workload = workload;
  o.seed = 7;
  o.seconds = seconds;
  return o;
}

void tcp_stall_and_clocks() {
  // A run shorter than one play still plays two.
  const pb::Options o = short_run("player_tcp", 0.1);
  const pb::Result base = pb::run_player_tcp(o);
  check(base.correct && base.failed == 0, "player_tcp baseline is correct");
  check(metric(base, "latency_min_us") >= 0.0,
        "player_tcp: every recorded latency >= 0");

  // 100 ms stall at frame 200 of each 2500-frame play at 8000 frames/s: the
  // next ~800 frames (32% of the play) are all due while the receive path
  // is stuck.
  const pb::Result stalled = pb::run_player_tcp(o, 200, 100'000'000);
  const double before = metric(base, "latency_p90_us");
  const double after = metric(stalled, "latency_p90_us");
  check(stalled.correct, "player_tcp with a stall is still correct");
  check(after > before + 10'000.0,
        "stall raises latency_p90_us (" + std::to_string(before) + " -> " +
            std::to_string(after) + " us)");
}

void sessions_clocks() {
  const pb::Result r = pb::run_sessions(short_run("sessions", 1.0));
  check(r.correct && r.failed == 0, "sessions run is correct");
  check(metric(r, "latency_min_us") >= 0.0,
        "sessions: every recorded latency >= 0");
}

}  // namespace

int main() {
  hist_quantiles();
  tcp_stall_and_clocks();
  sessions_clocks();
  std::printf("%s\n", failures == 0 ? "all checks passed" : "checks FAILED");
  return failures == 0 ? 0 : 1;
}
