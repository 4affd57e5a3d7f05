#!/usr/bin/env python3
"""The repository benchmark: build perfbench in Release, run one workload.

Run from the repository root:

  python3 perfbench/run.py --workload player_burst|player_tcp|sessions \\
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the middleware libraries
from src/ plus the benchmark binary) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later calls rebuild
incrementally. The binary prints one line per metric (name, value, unit,
sample count); this script adds a provenance line (git sha, build type,
compiler and flags, nproc, CPU governor, seed) and passes the binary's
last line, one JSON object, through as its own last line after checking
it against BENCHMARK.json. --trace 1 also writes the run's spans to
<build dir>/spans-<workload>-<seed>.jsonl. Exits nonzero, without a JSON
line, when the build or run fails, and nonzero after it when an output is
incorrect.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("player_burst", "player_tcp", "sessions")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.realpath(os.path.join(ROOT, base))
    if os.path.commonpath([path, os.path.realpath(ROOT)]) != os.path.realpath(ROOT):
        path = os.path.join(ROOT, ".bench_build")  # stay inside the checkout
    return os.path.join(path, "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"middleware sources not found under {ROOT}/src")
        return False
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", bdir, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def host_provenance():
    sha = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            sha = out.stdout.strip()
    governor = "unknown"
    try:
        with open("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor") as f:
            governor = f.read().strip()
    except OSError:
        pass
    return {"git_sha": sha, "nproc": os.cpu_count(), "governor": governor}


def expected_metrics(trace):
    """Metric name -> unit that BENCHMARK.json promises for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if want is not None and got != want:
        return f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    bdir = build_dir()
    if not build(bdir):
        log("build failed")
        return 2
    if args.self_test:
        exe = os.path.join(bdir, "perfbench_selftest")
        return subprocess.run([exe], timeout=RUN_TIMEOUT_S).returncode

    cmd = [os.path.join(bdir, "perfbench_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(bdir, f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3
    sys.stderr.write(out.stderr)
    lines = out.stdout.splitlines()
    has_result = bool(lines) and lines[-1].startswith("{")
    if out.returncode not in (0, 1) or not has_result:
        problem = f"{args.workload} failed (exit {out.returncode})"
    else:
        problem = check_result(lines[-1], args.trace)
    if problem:
        print("\n".join(lines[:-1] if has_result else lines))
        log(problem)
        return out.returncode or 4
    for line in lines[:-1]:
        if line.startswith("provenance "):
            prov = json.loads(line[len("provenance "):])
            prov.update(host_provenance())
            line = "provenance " + json.dumps(prov)
        print(line)
    print(lines[-1], flush=True)
    return out.returncode


if __name__ == "__main__":
    sys.exit(main())
