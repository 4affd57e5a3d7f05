// perfbench_e2e: runs one workload of the repository benchmark.
//
//   perfbench_e2e --workload player_burst|player_tcp|sessions --seed N
//                 --seconds S --trace 0|1 [--spans FILE]
//
// Prints one text line per metric (name, value, unit, sample count), a
// provenance line, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 on any correctness failure, 2 on bad arguments.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

void print_metric(const char* kind, const pb::Metric& m) {
  std::printf("%-7s %-36s %16.6f %-9s (n=%llu)\n", kind, m.name.c_str(),
              m.value, m.unit.c_str(),
              static_cast<unsigned long long>(m.samples));
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_e2e --workload player_burst|player_tcp|"
               "sessions --seed N --seconds S --trace 0|1 [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") o.workload = v;
      else if (k == "--seed") o.seed = std::stoull(v);
      else if (k == "--seconds") o.seconds = std::stod(v);
      else if (k == "--trace") o.trace = v == "1";
      else if (k == "--spans") o.span_path = v;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 == 0 || o.seconds <= 0) return usage();

  pb::Result r;
  try {
    if (o.workload == "player_burst") r = pb::run_player_burst(o);
    else if (o.workload == "player_tcp") r = pb::run_player_tcp(o);
    else if (o.workload == "sessions") r = pb::run_sessions(o);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }

  const auto& gated = o.trace ? r.per_layer : r.end_to_end;
  for (const pb::Metric& m : gated) print_metric("metric", m);
  for (const pb::Metric& m : r.info) print_metric("info", m);
  for (const std::string& n : r.notes) std::printf("note    %s\n", n.c_str());
  for (const std::string& e : r.errors) {
    std::printf("error   %s\n", e.c_str());
  }
  std::printf("info    fail_ratio = %.6g (%llu failed / %llu attempted)\n",
              r.attempted > 0 ? static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                              : 0.0,
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::printf(
      "provenance {%s, \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}\n",
      pb::build_provenance().c_str(), o.workload.c_str(),
      static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);

  std::string js = "{\"correct\": ";
  js += r.correct ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(r.attempted);
  js += ", \"failed\": " + std::to_string(r.failed);
  js += ", \"metrics\": {";
  bool first = true;
  for (const pb::Metric& m : gated) {
    char v[64];
    std::snprintf(v, sizeof v, "%.17g", m.value);
    if (!first) js += ", ";
    first = false;
    js += "\"" + m.name + "\": {\"value\": " + v + ", \"unit\": \"" + m.unit +
          "\"}";
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  std::fflush(stdout);
  return r.correct && !r.fatal ? 0 : 1;
}
