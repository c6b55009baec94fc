#!/usr/bin/env python3
"""Build and run the dsearch repository benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload serve --seed 1 --seconds 15 --trace 0
      One run. The last stdout line is the result object
      {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
      end_to_end metrics of BENCHMARK.json (for a workload it does not
      list, the HUMAN_METRICS below), with --trace 1 the per_layer ones
      (the traced ladder). Exit status 1, and no result line, when
      the build fails or a metric is missing; status 1 with
      "correct": false when an output check failed.

  python3 perfbench/run.py --all [--seed N] [--seconds S]
      Every workload, untraced then traced; prints every metric by name
      and unit and the tracing overhead, and exits non-zero if any output
      check failed.

  python3 perfbench/run.py --smoke
      All four workloads at tiny scale, both modes, in seconds; checks
      that every metric is emitted with its unit and every output check
      ran.

The program is built from the checkout's sources with CMake into a
tree of this checkout's own under $CARGO_TARGET_DIR (default
.bench_build) before each run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# Metrics each workload prints besides the BENCHMARK.json ones, by name
# and unit. A workload BENCHMARK.json does not list reports these alone.
HUMAN_METRICS = {
    "build": {"build_mb_per_s": "MB/s", "op_tail_ms": "ms",
              "cold_start_ms": "ms", "fail_rate": "ratio"},
    "serve": {"setup_s": "s", "index_bytes_per_input_byte": "ratio",
              "query_p50_ms": "ms", "query_p99_ms": "ms",
              "max_qps_at_slo": "1/s", "cold_start_ms": "ms",
              "fail_rate": "ratio"},
    "sharded": {"setup_s": "s", "index_bytes_per_input_byte": "ratio",
                "query_p50_ms": "ms", "query_p99_ms": "ms",
                "max_qps_at_slo": "1/s", "shard_p99_ms": "ms",
                "cold_start_ms": "ms", "fail_rate": "ratio"},
    "live": {"query_p50_ms": "ms", "query_p99_ms": "ms",
             "visible_p50_ms": "ms", "visible_p90_ms": "ms",
             "write_bytes_per_changed_byte": "ratio", "op_tail_ms": "ms",
             "cold_start_ms": "ms", "fail_rate": "ratio"},
}
# The output checks each run must make; the smoke mode asserts them.
REQUIRED_CHECKS = {
    "build": ["build.parallel_equals_sequential",
              "build.round_trip_equals_built",
              "build.first_answer_equals_sequential"],
    "serve": ["serve.distinct_equals_direct",
              "serve.ref.answers_match_direct"],
    "sharded": ["sharded.distinct_equals_unsharded",
                "sharded.global_docs_equal_unsharded",
                "sharded.ref.answers_match_direct"],
    "live": ["live.marker_returns_exactly_rewritten",
             "live.older_marker_exact", "live.deleted_never_return",
             "live.compaction_ok"],
    "ladder": ["ladder.serve.answers_match_direct",
               "ladder.sharded.answers_match_direct",
               "live.marker_returns_exactly_rewritten", "trace.written"],
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def cmake_dir():
    """This checkout's CMake tree under the build directory.

    CMake keeps the source directory of its first configure in the
    cache, so a tree shared by two checkouts would quietly build the
    first one's sources; each checkout path gets its own tree.
    """
    tag = hashlib.sha1(HERE.encode()).hexdigest()[:12]
    return os.path.join(build_dir(), "cmake-" + tag)


def cached_source_dir(out):
    with open(os.path.join(out, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build():
    """Configure (once) and build the perfbench program; its path."""
    out = cmake_dir()
    log = sys.stderr
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=log, stderr=log)
        if r.returncode != 0:
            fail("cmake configure failed")
    source = cached_source_dir(out)
    if source is None or os.path.realpath(source) != os.path.realpath(HERE):
        fail("%s was configured for %s, not %s" % (out, source, HERE))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                        "-j", jobs], stdout=log, stderr=log)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench")


def flags_for(config, workload, smoke):
    flags = dict(config["common"])
    spec = config["workloads"][workload]
    flags["scale"] = spec["scale"]
    flags.update(spec["flags"])
    if smoke:
        flags["scale"] = config["smoke"]["scale"]
        flags.update(config["smoke"]["flags"])
    args = []
    for key, value in flags.items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        args += ["--" + key, str(value)]
    return args


def run_program(binary, config, workload, seed, seconds, trace, smoke=False):
    """Run the program once; (exit code, stdout lines, report dict)."""
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--work-dir", os.path.join(build_dir(), "work")]
    args += flags_for(config, workload, smoke)
    try:
        r = subprocess.run(args, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("%s run exceeded %d s" % (workload, RUN_TIMEOUT_S))
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("%s produced no output (exit %d)" % (workload, r.returncode))
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("%s: last line is not a result: %r" % (workload, lines[-1]))
    return r.returncode, lines[:-1], report


def listed(bench, workload):
    return any(w["name"] == workload for w in bench["workloads"])


def result_metrics(bench, workload, trace):
    """{name: unit} of the metrics a run's result line carries."""
    if trace:
        return {m["name"]: m["unit"] for m in bench["per_layer"]}
    if listed(bench, workload):
        return {m["name"]: m["unit"] for m in bench["end_to_end"]}
    return dict(HUMAN_METRICS[workload])


def wrong_metrics(report, wanted):
    """Problems with the wanted metrics: missing, or another unit."""
    bad = []
    for name, unit in wanted.items():
        got = report["metrics"].get(name)
        if got is None:
            bad.append("%s missing" % name)
        elif got["unit"] != unit:
            bad.append("%s has unit %s, expected %s"
                       % (name, got["unit"], unit))
    return bad


def result_line(report, wanted):
    """The contract result: exactly the wanted metrics."""
    bad = wrong_metrics(report, wanted)
    if bad:
        fail("metric " + "; ".join(bad))
    out = {name: {"value": report["metrics"][name]["value"], "unit": unit}
           for name, unit in wanted.items()}
    return {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": out}


def checks_run(lines):
    names = {}
    for line in lines:
        parts = line.split()
        if parts and parts[0] == "check":
            names[parts[1]] = (int(parts[3]), int(parts[5]))
    return names


def one(args, bench, binary):
    config = load_json(os.path.join(HERE, "workloads.json"))
    names = list(config["workloads"])
    if args.workload not in names:
        fail("unknown workload %r (have %s)" % (args.workload, names))
    code, lines, report = run_program(binary, config, args.workload,
                                      args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    result = result_line(report, result_metrics(bench, args.workload,
                                                args.trace))
    if result["attempted"] < 1:
        fail("no operations attempted")
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and code == 0 else 1)


def run_all(args, bench, binary, smoke):
    config = load_json(os.path.join(HERE, "workloads.json"))
    seconds = config["smoke"]["seconds"] if smoke else args.seconds
    ok = True
    for name in config["workloads"]:
        for trace in (False, True):
            started = time.time()
            code, lines, report = run_program(binary, config, name, args.seed,
                                              seconds, trace, smoke)
            wall = time.time() - started
            print("== %s %s  (%.1f s)  correct=%s attempted=%d failed=%d"
                  % (name, "traced" if trace else "untraced", wall,
                     report["correct"], report["attempted"],
                     report["failed"]))
            for line in lines:
                if line.startswith(("metric ", "rate ", "phase ")) or (
                        line.startswith("check ") and " failed    0" not in
                        line):
                    print("  " + line)
            wanted = result_metrics(bench, name, trace)
            if not trace:
                wanted.update(HUMAN_METRICS[name])
            bad = wrong_metrics(report, wanted)
            if bad:
                print("  WRONG metrics: %s" % "; ".join(bad))
                ok = False
            ran = checks_run(lines)
            needed = REQUIRED_CHECKS["ladder" if trace else name]
            not_run = [c for c in needed if ran.get(c, (0, 0))[0] == 0]
            if not_run:
                print("  checks NOT RUN: %s" % ", ".join(not_run))
                ok = False
            if code != 0 or not report["correct"]:
                print("  OUTPUT CHECK FAILED")
                ok = False
    print("all workloads: %s" % ("ok" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(bench_path):
        fail("BENCHMARK.json not found at the checkout root")
    bench = load_json(bench_path)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not (args.all or args.smoke or args.workload):
        fail("give --workload NAME, --all or --smoke")
    binary = build()
    if args.all or args.smoke:
        run_all(args, bench, binary, args.smoke)
    one(args, bench, binary)


if __name__ == "__main__":
    main()
