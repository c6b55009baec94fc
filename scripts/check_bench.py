#!/usr/bin/env python3
"""Perf regression gate over BENCH_micro.json.

Runs the bench_micro binary (JSON-emit mode: the google-benchmark
suite is filtered out, only the Stage 2+3 comparison runs), then
compares the fresh numbers against the committed baseline and fails
on a throughput regression beyond the threshold.

Gated metrics (higher is better):
  zero_copy.tokens_per_sec
  zero_copy.postings_per_sec

The committed baseline carries the absolute throughput of whatever
machine produced it, so the legacy pipeline is used as a speed
canary: when fresh legacy throughput lands within --canary of the
baseline's, the machines are comparable and absolute throughput is
gated. On a visibly different machine the gate falls back to the
relative zero-copy-vs-legacy speedup, which cancels machine speed.

Known blind spot: a change that slows BOTH pipelines by more than
--canary on the baseline's own machine is indistinguishable from
slower hardware, and the speedup fallback cancels it out. The gate
prints a loud warning in that case; regenerate the baseline on the
current machine (run bench_micro, commit BENCH_micro.json) to
restore absolute gating, which does catch shared-path regressions.

The sealed-segment compression ratio (raw bytes over compressed
block bytes) is gated absolutely: it is machine-independent, so
fresh sealed_segment.compression_ratio must stay >= --min-ratio
(default 2.0) regardless of the canary.

The posting-codec head-to-head is gated the same way: the
posting_decode.packed_vs_varint throughput ratio (bit-packed SIMD
block decode over delta+varint, same lists, same machine) must stay
>= --min-decode-ratio (default 2.0), and intersection.speedup (bulk
SIMD AND over the per-doc seekGE merge) must stay >=
--min-intersect-speedup (default 1.2); both are ratios from one
machine, so they hold anywhere. The absolute bit-packed decode
throughput (posting_decode.packed_postings_per_sec, ~4e9 on the
baseline box) is gated against --min-decode-pps (default 1e9) only
when the canary says the machines are comparable, and reported as
advisory otherwise.

query_exec.speedup — the planner/operator execution path (compile a
QueryPlan per query, evaluate its operator tree: what every serving
tier runs) over the legacy recursive AST walk on the same synthetic
snapshot — is also a same-machine ratio, gated absolutely at
>= --min-query-exec-speedup (default 0.95): the unified execution
layer may not cost more than 5% against the code it replaced.

build_tail.speedup — Implementation 2's step after Stage 3 on four
round-robin lanes with two threads: the legacy joinParallel -> seal
(concatenate, sort, encode) over the merge-and-pack seal (k-way merge
and pack per term share) — is a same-machine ratio, gated absolutely
at >= --min-build-tail-speedup (default 1.5) on every host.

Advisory metrics (reported, never fatal):
alloc_bytes_per_block_ratio, sealed_segment.seal_postings_per_sec,
sealed_segment.decode_postings_per_sec, plus whichever of
absolute/speedup was not gated.

The binary is run --repeats times and the best run is kept, which
filters scheduler noise out of the gate.

With --server-bench, the query-serving benchmark (bench_search_server)
also runs; its BENCH_server.json "search_server" section is compared
to the committed baseline's. The serving speedup — persistent
QueryServer QPS over the naive fresh-pool-per-query path on the same
corpus and machine — is a ratio, so it is gated absolutely
(>= --min-server-speedup, default 1.0); absolute server QPS is gated
against the baseline only when the canary says the machines are
comparable, and reported as advisory otherwise.

With --overload (requires --server-bench), the benchmark's overload
section is additionally gated on the machine-independent
graceful-degradation properties: under a 2x-capacity open-loop load
some queries complete AND some are refused (shed + timed_out > 0 —
the overload went somewhere accountable), while the p99 latency of
the *accepted* queries stays within --overload-p99-factor times the
configured deadline (default 2.0: the deadline bounds queue wait, so
accepted answers cannot be arbitrarily stale).

With --live (requires --server-bench), the benchmark's live_index
section is gated on the zero-downtime-churn properties, all
machine-independent: QPS during corpus churn stays within
--min-churn-ratio of the steady-state QPS on the same corpus and
machine (default 0.8 — background scanning, delta building and
compaction may not eat the serving capacity), hot-swaps actually
happened during the churn window (swaps > 0 — the ratio was measured
against real republishing, not an idle pipeline), and the churn p99
stays under --live-p99-ms (default 100 ms — a hot-swap must never
pause in-flight queries; a lock-holding publish would show up here
first). Update-visibility latency is reported as advisory: its floor
is the configured scan interval, a tuning choice rather than a
regression signal.

With --shard-bench, the sharded serving-tier benchmark
(bench_shard_broker) also runs; adding --shard gates its
BENCH_shard.json "shard_broker" section. The machine-independent
properties are always fatal: under the skewed-hotness flood no
submitted query may be lost (every future resolves), some queries
must complete, some replies must be partial (the hot shard's refusals
degraded them instead of hanging the broker), the hot shard must have
actually shed or timed out work, and the accepted-query p99 must stay
under a loose sanity ceiling (10x the summed shard + broker admission
deadlines — a miss there means a query bypassed admission control
entirely). The sharp gates — QPS(4 shards) >= --min-shard-scaling x
QPS(1 shard), and accepted p99 within --shard-p99-factor of the
summed deadlines — only bind when the canary says the machines are
comparable AND the fresh host has >= 4 cores; a 1-core box runs N
shard workers on one CPU, so its scaling curve is flat by
construction and both are reported as advisory.

Usage:
  check_bench.py --baseline BENCH_micro.json --bench ./bench_micro \
                 [--server-bench ./bench_search_server] [--overload] \
                 [--shard-bench ./bench_shard_broker] [--shard] \
                 [--threshold 0.10] [--repeats 2]

Exit status: 0 ok, 1 regression, 2 harness failure.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

GATED = [
    ("zero_copy", "tokens_per_sec"),
    ("zero_copy", "postings_per_sec"),
]
CANARY = ("legacy", "tokens_per_sec")
ADVISORY = ["alloc_bytes_per_block_ratio"]


def run_bench(bench, workdir):
    """Run bench_micro in workdir; return its parsed JSON output."""
    cmd = [os.path.abspath(bench), "--benchmark_filter=^$"]
    result = subprocess.run(
        cmd, cwd=workdir, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, timeout=600)
    if result.returncode != 0:
        sys.stderr.write(result.stdout.decode(errors="replace"))
        raise RuntimeError(f"{cmd} exited {result.returncode}")
    path = os.path.join(workdir, "BENCH_micro.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def best_of(runs):
    """Keep the run with the highest primary gated throughput."""
    return max(runs, key=lambda r: r["zero_copy"]["tokens_per_sec"])


def run_server_bench(bench, workdir):
    """Run bench_search_server in workdir; return its JSON section.

    The binary exits 1 when the server fails to beat the naive path —
    that verdict is re-derived from the JSON by the gate below, so
    both 0 and 1 count as a successful measurement here.
    """
    cmd = [os.path.abspath(bench)]
    result = subprocess.run(
        cmd, cwd=workdir, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, timeout=600)
    if result.returncode not in (0, 1):
        sys.stderr.write(result.stdout.decode(errors="replace"))
        raise RuntimeError(f"{cmd} exited {result.returncode}")
    path = os.path.join(workdir, "BENCH_server.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["search_server"]


def run_shard_bench(bench, workdir):
    """Run bench_shard_broker in workdir; return its JSON section.

    The binary exits 1 when the degradation properties fail — that
    verdict is re-derived from the JSON by gate_shard, so both 0 and
    1 count as a successful measurement here.
    """
    cmd = [os.path.abspath(bench)]
    result = subprocess.run(
        cmd, cwd=workdir, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, timeout=600)
    if result.returncode not in (0, 1):
        sys.stderr.write(result.stdout.decode(errors="replace"))
        raise RuntimeError(f"{cmd} exited {result.returncode}")
    path = os.path.join(workdir, "BENCH_shard.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["shard_broker"]


def gate_shard(fresh, comparable, min_scaling, p99_factor):
    """Gate the shard_broker section; return failed metric names.

    The lossless/degraded/absorbed properties are counters and hold
    on any machine. The scaling ratio and the sharp p99 bound need
    real parallel hardware: they bind only when the canary says the
    machines are comparable AND the fresh host has >= 4 cores.
    """
    failures = []
    skew = fresh.get("skew")
    if skew is None:
        print("check_bench: shard bench emitted no skew section",
              file=sys.stderr)
        return ["shard_broker.skew"]

    cores = fresh.get("cores", 0)
    sharp = comparable and cores >= 4

    lost = skew["lost"]
    status = "OK" if lost == 0 else "REGRESSION"
    if lost != 0:
        failures.append("shard_broker.skew.lost")
    print(f"shard_broker.skew.lost: {lost} of {skew['submitted']} "
          f"(gate == 0: every submitted query must resolve) {status}")

    completed = skew["completed"]
    status = "OK" if completed > 0 else "REGRESSION"
    if completed == 0:
        failures.append("shard_broker.skew.completed")
    print(f"shard_broker.skew.completed: {completed} "
          f"(gate > 0) {status}")

    partial = skew["partial"]
    status = "OK" if partial > 0 else "REGRESSION"
    if partial == 0:
        failures.append("shard_broker.skew.partial")
    print(f"shard_broker.skew.partial: {partial} "
          f"(gate > 0: a flooded hot shard must degrade replies to "
          f"partial, not hang the broker) {status}")

    absorbed = skew["hot_shard_shed"] + skew["hot_shard_timed_out"]
    status = "OK" if absorbed > 0 else "REGRESSION"
    if absorbed == 0:
        failures.append("shard_broker.skew.hot_shard_shed+timed_out")
    print(f"shard_broker.skew.hot_shard_shed+timed_out: "
          f"{skew['hot_shard_shed']}+{skew['hot_shard_timed_out']} "
          f"(gate > 0: the flood must be absorbed as counted "
          f"refusals) {status}")

    # Both admission layers bound the accepted tail by construction;
    # the loose 10x ceiling is machine-independent (it catches a
    # query path that bypasses admission control), the sharp factor
    # needs hardware that can actually keep up.
    budget_ms = skew["deadline_ms"] + skew["broker_deadline_ms"]
    p99_ms = skew["accepted_p99_ms"]
    ceiling_ms = 10.0 * budget_ms
    status = "OK" if p99_ms <= ceiling_ms else "REGRESSION"
    if p99_ms > ceiling_ms:
        failures.append("shard_broker.skew.accepted_p99_ms")
    print(f"shard_broker.skew.accepted_p99_ms: {p99_ms:.3g} "
          f"(sanity gate <= 10 x {budget_ms:.3g} ms admission "
          f"budget = {ceiling_ms:.3g}) {status}")

    bound_ms = p99_factor * budget_ms
    status = "OK" if sharp else "advisory"
    if sharp and p99_ms > bound_ms:
        status = "REGRESSION"
        failures.append("shard_broker.skew.accepted_p99_ms.sharp")
    print(f"shard_broker.skew.accepted_p99_ms (sharp): {p99_ms:.3g} "
          f"(gate <= {p99_factor:.3g} x {budget_ms:.3g} ms = "
          f"{bound_ms:.3g}; binds on comparable hosts with >= 4 "
          f"cores, fresh has {cores}) {status}")

    ratio = fresh["scaling_ratio"]
    status = "OK" if sharp else "advisory"
    if sharp and ratio < min_scaling:
        status = "REGRESSION"
        failures.append("shard_broker.scaling_ratio")
    print(f"shard_broker.scaling_ratio: {ratio:.3g} "
          f"(QPS(4) {fresh['qps_4']:.3g} / QPS(1) "
          f"{fresh['qps_1']:.3g}, gate >= {min_scaling:.3g}; binds "
          f"on comparable hosts with >= 4 cores, fresh has {cores}) "
          f"{status}")

    print(f"shard_broker.skew.refused (advisory): "
          f"{skew.get('refused', 0)} of {skew['submitted']} "
          f"(broker admission control under the flood)")
    print(f"shard_broker.skew.offered_qps (advisory): "
          f"{skew['offered_qps']:.3g}, antagonist "
          f"{skew['antagonist_queries']} direct hot-shard queries")
    return failures


def gate_server(fresh, baseline, comparable, threshold, min_speedup):
    """Gate the search_server section; return failed metric names."""
    failures = []

    speedup_now = fresh["speedup_vs_naive"]
    status = "OK"
    if speedup_now < min_speedup:
        status = "REGRESSION"
        failures.append("search_server.speedup_vs_naive")
    print(f"search_server.speedup_vs_naive: fresh "
          f"{speedup_now:.3g} (gate >= {min_speedup:.3g}, "
          f"machine-independent) {status}")

    base = baseline.get("search_server")
    if base is None:
        print("search_server: no baseline section; absolute QPS "
              "not compared (commit one to enable)")
        return failures

    for metric in ("server_qps", "server_qps_replicated"):
        if metric not in base or metric not in fresh:
            continue
        delta = (fresh[metric] - base[metric]) / base[metric]
        status = "OK" if comparable else "advisory"
        if comparable and delta < -threshold:
            status = "REGRESSION"
            failures.append(f"search_server.{metric}")
        print(f"search_server.{metric}: baseline {base[metric]:.3g} "
              f"-> fresh {fresh[metric]:.3g} ({delta:+.1%}) {status}")

    for metric in ("naive_qps", "open_loop_qps", "p50_ms", "p95_ms",
                   "p99_ms"):
        base_value = base.get(metric)
        now = fresh.get(metric)
        if now is None:
            continue
        base_text = (f"{base_value:.3g}" if base_value is not None
                     else "n/a")
        print(f"search_server.{metric} (advisory): baseline "
              f"{base_text} -> fresh {now:.3g}")
    return failures


def gate_overload(fresh, p99_factor):
    """Gate the overload section; return failed metric names.

    Every property here is machine-independent (counters and a
    latency-to-deadline ratio), so no canary/baseline comparison is
    involved.
    """
    failures = []
    section = fresh.get("overload")
    if section is None:
        print("check_bench: server bench emitted no overload section",
              file=sys.stderr)
        return ["search_server.overload"]

    completed = section["completed"]
    refused = section["shed"] + section["timed_out"]
    deadline_ms = section["deadline_ms"]
    p99_ms = section["accepted_p99_ms"]
    bound_ms = p99_factor * deadline_ms

    status = "OK" if completed > 0 else "REGRESSION"
    if completed == 0:
        failures.append("search_server.overload.completed")
    print(f"search_server.overload.completed: {completed} "
          f"(gate > 0) {status}")

    status = "OK" if refused > 0 else "REGRESSION"
    if refused == 0:
        failures.append("search_server.overload.shed+timed_out")
    print(f"search_server.overload.shed+timed_out: "
          f"{section['shed']}+{section['timed_out']} "
          f"(gate > 0: a 2x-capacity load must be partly refused) "
          f"{status}")

    status = "OK" if p99_ms <= bound_ms else "REGRESSION"
    if p99_ms > bound_ms:
        failures.append("search_server.overload.accepted_p99_ms")
    print(f"search_server.overload.accepted_p99_ms: {p99_ms:.3g} "
          f"(gate <= {p99_factor:.3g} x {deadline_ms:.3g} ms "
          f"deadline = {bound_ms:.3g}) {status}")

    print(f"search_server.overload.offered_qps (advisory): "
          f"{section['offered_qps']:.3g}")
    return failures


def gate_live(fresh, min_ratio, p99_ms):
    """Gate the live_index section; return failed metric names.

    Every property is machine-independent: a QPS ratio from one
    machine and one corpus, a counter, and an absolute latency bound
    far above a healthy swap's cost.
    """
    failures = []
    section = fresh.get("live_index")
    if section is None:
        print("check_bench: server bench emitted no live_index "
              "section", file=sys.stderr)
        return ["search_server.live_index"]

    ratio = section["churn_ratio"]
    status = "OK" if ratio >= min_ratio else "REGRESSION"
    if ratio < min_ratio:
        failures.append("search_server.live_index.churn_ratio")
    print(f"search_server.live_index.churn_ratio: "
          f"{ratio:.3g} (churn {section['churn_qps']:.3g} / steady "
          f"{section['steady_qps']:.3g} QPS, gate >= {min_ratio:.3g})"
          f" {status}")

    swaps = section["swaps"]
    status = "OK" if swaps > 0 else "REGRESSION"
    if swaps == 0:
        failures.append("search_server.live_index.swaps")
    print(f"search_server.live_index.swaps: {swaps} "
          f"(gate > 0: churn must actually republish) {status}")

    churn_p99 = section["churn_p99_ms"]
    status = "OK" if churn_p99 <= p99_ms else "REGRESSION"
    if churn_p99 > p99_ms:
        failures.append("search_server.live_index.churn_p99_ms")
    print(f"search_server.live_index.churn_p99_ms: {churn_p99:.3g} "
          f"(gate <= {p99_ms:.3g}: hot-swaps must not pause queries) "
          f"{status}")

    print(f"search_server.live_index.visibility_ms (advisory): "
          f"mean {section['visibility_ms_mean']:.3g}, max "
          f"{section['visibility_ms_max']:.3g} "
          f"(floor = the scan interval)")
    print(f"search_server.live_index.writes_per_sec (advisory): "
          f"{section['writes_per_sec']:.3g}, merges "
          f"{section['merges']}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_micro.json")
    parser.add_argument("--bench", required=True,
                        help="bench_micro binary")
    parser.add_argument("--server-bench",
                        help="bench_search_server binary (optional)")
    parser.add_argument("--min-server-speedup", type=float,
                        default=1.0,
                        help="minimum QueryServer-vs-naive QPS ratio "
                             "(absolute gate, default 1.0)")
    parser.add_argument("--overload", action="store_true",
                        help="also gate the server bench's overload "
                             "section (graceful degradation under "
                             "2x-capacity load; machine-independent)")
    parser.add_argument("--overload-p99-factor", type=float,
                        default=2.0,
                        help="accepted-query p99 must stay within "
                             "this multiple of the configured "
                             "deadline (default 2.0)")
    parser.add_argument("--shard-bench",
                        help="bench_shard_broker binary (optional)")
    parser.add_argument("--shard", action="store_true",
                        help="gate the shard bench's shard_broker "
                             "section (lossless degradation under a "
                             "skewed hot-shard flood, plus the "
                             "scaling curve on multi-core hosts)")
    parser.add_argument("--min-shard-scaling", type=float,
                        default=1.5,
                        help="minimum QPS(4 shards) / QPS(1 shard); "
                             "binds only on comparable hosts with "
                             ">= 4 cores (default 1.5)")
    parser.add_argument("--shard-p99-factor", type=float, default=3.0,
                        help="sharp accepted-p99 bound as a multiple "
                             "of the summed shard + broker admission "
                             "deadlines; binds only on comparable "
                             "hosts with >= 4 cores (default 3.0)")
    parser.add_argument("--live", action="store_true",
                        help="also gate the server bench's live_index "
                             "section (QPS under corpus churn vs "
                             "steady state; machine-independent)")
    parser.add_argument("--min-churn-ratio", type=float, default=0.8,
                        help="minimum churn-QPS / steady-QPS ratio "
                             "(default 0.8)")
    parser.add_argument("--live-p99-ms", type=float, default=100.0,
                        help="maximum query p99 during churn, ms "
                             "(default 100: bounds swap pauses)")
    parser.add_argument("--server-threshold", type=float,
                        default=0.25,
                        help="fatal relative regression for absolute "
                             "server QPS (default 0.25: serving "
                             "benches schedule many threads and are "
                             "noisier than the single-thread micro)")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="fatal relative regression (default 0.10)")
    parser.add_argument("--canary", type=float, default=0.15,
                        help="legacy-throughput delta beyond which "
                             "the machines are treated as different "
                             "and only the speedup ratio is gated")
    parser.add_argument("--repeats", type=int, default=2,
                        help="bench runs; best one is gated")
    parser.add_argument("--min-ratio", type=float, default=2.0,
                        help="minimum sealed-segment compression "
                             "ratio (absolute gate, default 2.0)")
    parser.add_argument("--min-decode-ratio", type=float, default=2.0,
                        help="minimum bit-packed-vs-varint decode "
                             "throughput ratio (absolute gate, "
                             "machine-independent, default 2.0)")
    parser.add_argument("--min-decode-pps", type=float, default=1e9,
                        help="minimum bit-packed decode postings/sec; "
                             "binds only on comparable hosts "
                             "(default 1e9)")
    parser.add_argument("--min-intersect-speedup", type=float,
                        default=1.2,
                        help="minimum bulk-vs-merge intersection "
                             "speedup (absolute gate, "
                             "machine-independent, default 1.2)")
    parser.add_argument("--min-query-exec-speedup", type=float,
                        default=0.95,
                        help="minimum planner-vs-legacy query "
                             "execution speedup (absolute gate, "
                             "machine-independent, default 0.95)")
    parser.add_argument("--min-build-tail-speedup", type=float,
                        default=1.5,
                        help="minimum merge-and-pack speedup over the "
                             "legacy join -> seal build tail "
                             "(absolute gate, machine-independent, "
                             "default 1.5)")
    args = parser.parse_args()

    if args.overload and not args.server_bench:
        parser.error("--overload requires --server-bench")
    if args.live and not args.server_bench:
        parser.error("--live requires --server-bench")
    if args.shard and not args.shard_bench:
        parser.error("--shard requires --shard-bench")

    with open(args.baseline, encoding="utf-8") as fh:
        baseline = json.load(fh)

    try:
        with tempfile.TemporaryDirectory() as workdir:
            runs = [run_bench(args.bench, workdir)
                    for _ in range(max(1, args.repeats))]
            server_fresh = None
            if args.server_bench:
                server_runs = [run_server_bench(args.server_bench,
                                                workdir)
                               for _ in range(max(1, args.repeats))]
                # Per-metric best-of: the run with the best absolute
                # QPS is not always the run with the best speedup
                # ratio (a lucky naive window deflates it), and both
                # gates should see the binary's best behaviour.
                server_fresh = max(server_runs,
                                   key=lambda r: r["server_qps"])
                server_fresh = dict(server_fresh)
                server_fresh["speedup_vs_naive"] = max(
                    r["speedup_vs_naive"] for r in server_runs)
                # Same reasoning for the churn ratio: it compares two
                # windows of one run, so take the run where the
                # scheduler interfered least.
                live_runs = [r["live_index"] for r in server_runs
                             if "live_index" in r]
                if live_runs:
                    server_fresh["live_index"] = max(
                        live_runs, key=lambda s: s["churn_ratio"])
            shard_fresh = None
            if args.shard_bench:
                shard_runs = [run_shard_bench(args.shard_bench,
                                              workdir)
                              for _ in range(max(1, args.repeats))]
                # The scaling ratio compares two widths of one run,
                # so keep the run where the scheduler interfered
                # least with the wide configuration.
                shard_fresh = max(shard_runs,
                                  key=lambda r: r["scaling_ratio"])
    except Exception as exc:  # noqa: BLE001 - harness failure path
        print(f"check_bench: could not run bench: {exc}",
              file=sys.stderr)
        return 2
    fresh = best_of(runs)
    # The build-tail ratio compares two timings inside one run, so
    # (like the server's ratios) keep the run where the scheduler
    # interfered least.
    tails = [r["build_tail"] for r in runs if "build_tail" in r]
    if tails:
        fresh = dict(fresh)
        fresh["build_tail"] = max(tails, key=lambda t: t["speedup"])

    # Machine comparability: the legacy pipeline barely changes, so a
    # large delta there means different hardware, not a regression.
    canary_base = baseline[CANARY[0]][CANARY[1]]
    canary_now = fresh[CANARY[0]][CANARY[1]]
    canary_delta = (canary_now - canary_base) / canary_base
    comparable = abs(canary_delta) <= args.canary
    print(f"canary {CANARY[0]}.{CANARY[1]}: baseline "
          f"{canary_base:.3g} -> fresh {canary_now:.3g} "
          f"({canary_delta:+.1%}) -> machines "
          f"{'comparable' if comparable else 'DIFFER'}")
    if not comparable and canary_delta < 0:
        print("check_bench: WARNING: legacy throughput dropped beyond "
              "the canary window. If this is the machine that "
              "produced the baseline, a shared-path regression may "
              "be hiding behind the speedup fallback — regenerate "
              "BENCH_micro.json here to restore absolute gating.",
              file=sys.stderr)

    failures = []
    for section, metric in GATED:
        base = baseline[section][metric]
        now = fresh[section][metric]
        delta = (now - base) / base
        status = "OK" if comparable else "advisory"
        if comparable and delta < -args.threshold:
            status = "REGRESSION"
            failures.append(f"{section}.{metric}")
        print(f"{section}.{metric}: baseline {base:.3g} -> "
              f"fresh {now:.3g} ({delta:+.1%}) {status}")

    # Speedup cancels machine speed: gate it when absolute numbers
    # cannot be trusted, report it otherwise.
    base_speedup = baseline["speedup"]
    now_speedup = fresh["speedup"]
    speedup_delta = (now_speedup - base_speedup) / base_speedup
    status = "advisory" if comparable else "OK"
    if not comparable and speedup_delta < -args.threshold:
        status = "REGRESSION"
        failures.append("speedup")
    print(f"speedup: baseline {base_speedup:.3g} -> fresh "
          f"{now_speedup:.3g} ({speedup_delta:+.1%}) {status}")

    # Compression ratio: machine-independent, so gated absolutely
    # against --min-ratio rather than against the baseline.
    sealed = fresh.get("sealed_segment")
    if sealed is None:
        print("check_bench: fresh run lacks sealed_segment metrics",
              file=sys.stderr)
        return 2
    ratio = sealed["compression_ratio"]
    base_sealed = baseline.get("sealed_segment", {})
    base_ratio = base_sealed.get("compression_ratio")
    status = "OK"
    if ratio < args.min_ratio:
        status = "REGRESSION"
        failures.append("sealed_segment.compression_ratio")
    print(f"sealed_segment.compression_ratio: baseline "
          f"{base_ratio if base_ratio is not None else float('nan'):.3g}"
          f" -> fresh {ratio:.3g} (gate >= {args.min_ratio:.3g}) "
          f"{status}")
    for metric in ("compressed_bytes_per_posting",
                   "seal_postings_per_sec",
                   "decode_postings_per_sec"):
        base = base_sealed.get(metric)
        now = sealed.get(metric)
        if now is None:
            continue
        base_text = f"{base:.3g}" if base is not None else "n/a"
        print(f"sealed_segment.{metric} (advisory): baseline "
              f"{base_text} -> fresh {now:.3g}")

    # Posting-codec head-to-head: ratios are machine-independent and
    # gated absolutely; the absolute packed decode rate binds only on
    # comparable hosts.
    decode = fresh.get("posting_decode")
    intersect = fresh.get("intersection")
    if decode is None or intersect is None:
        print("check_bench: fresh run lacks posting_decode/"
              "intersection metrics", file=sys.stderr)
        return 2
    base_decode = baseline.get("posting_decode", {})
    base_intersect = baseline.get("intersection", {})

    ratio = decode["packed_vs_varint"]
    status = "OK" if ratio >= args.min_decode_ratio else "REGRESSION"
    if ratio < args.min_decode_ratio:
        failures.append("posting_decode.packed_vs_varint")
    base_text = base_decode.get("packed_vs_varint")
    print(f"posting_decode.packed_vs_varint: baseline "
          f"{base_text if base_text is not None else float('nan'):.3g}"
          f" -> fresh {ratio:.3g} (gate >= "
          f"{args.min_decode_ratio:.3g}, simd "
          f"{decode.get('simd_level', '?')}) {status}")

    pps = decode["packed_postings_per_sec"]
    status = "OK" if comparable else "advisory"
    if comparable and pps < args.min_decode_pps:
        status = "REGRESSION"
        failures.append("posting_decode.packed_postings_per_sec")
    base = base_decode.get("packed_postings_per_sec")
    base_text = f"{base:.3g}" if base is not None else "n/a"
    print(f"posting_decode.packed_postings_per_sec: baseline "
          f"{base_text} -> fresh {pps:.3g} (gate >= "
          f"{args.min_decode_pps:.3g}; binds on comparable hosts) "
          f"{status}")
    print(f"posting_decode.varint_postings_per_sec (advisory): "
          f"fresh {decode['varint_postings_per_sec']:.3g}")

    speedup = intersect["speedup"]
    status = ("OK" if speedup >= args.min_intersect_speedup
              else "REGRESSION")
    if speedup < args.min_intersect_speedup:
        failures.append("intersection.speedup")
    base = base_intersect.get("speedup")
    base_text = f"{base:.3g}" if base is not None else "n/a"
    print(f"intersection.speedup: baseline {base_text} -> fresh "
          f"{speedup:.3g} (bulk {intersect['bulk_postings_per_sec']:.3g}"
          f" / merge {intersect['merge_postings_per_sec']:.3g} "
          f"postings/s, gate >= {args.min_intersect_speedup:.3g}) "
          f"{status}")

    # Planner/operator execution vs the legacy AST walk: a ratio from
    # one binary on one machine, so it gates absolutely everywhere.
    # The plan side compiles per query (the production shape); the
    # gate asserts the refactor never costs more than 5% end to end.
    query_exec = fresh.get("query_exec")
    if query_exec is not None:
        speedup = query_exec["speedup"]
        status = ("OK" if speedup >= args.min_query_exec_speedup
                  else "REGRESSION")
        if speedup < args.min_query_exec_speedup:
            failures.append("query_exec.speedup")
        base = baseline.get("query_exec", {}).get("speedup")
        base_text = f"{base:.3g}" if base is not None else "n/a"
        print(f"query_exec.speedup: baseline {base_text} -> fresh "
              f"{speedup:.3g} (plan {query_exec['plan_qps']:.3g} / "
              f"legacy {query_exec['legacy_qps']:.3g} qps, gate >= "
              f"{args.min_query_exec_speedup:.3g}) {status}")

    # Build tail: merge-and-pack vs the legacy join -> seal on the
    # same lanes and threads; a same-machine ratio, gated everywhere.
    build_tail = fresh.get("build_tail")
    if build_tail is None:
        print("check_bench: fresh run lacks build_tail metrics",
              file=sys.stderr)
        return 2
    speedup = build_tail["speedup"]
    status = ("OK" if speedup >= args.min_build_tail_speedup
              else "REGRESSION")
    if speedup < args.min_build_tail_speedup:
        failures.append("build_tail.speedup")
    base = baseline.get("build_tail", {}).get("speedup")
    base_text = f"{base:.3g}" if base is not None else "n/a"
    print(f"build_tail.speedup: baseline {base_text} -> fresh "
          f"{speedup:.3g} (join -> seal "
          f"{build_tail['legacy_seconds'] * 1e3:.3g} ms / merge-and-pack "
          f"{build_tail['merge_pack_seconds'] * 1e3:.3g} ms, "
          f"{build_tail['threads']} threads, gate >= "
          f"{args.min_build_tail_speedup:.3g}) {status}")

    for metric in ADVISORY:
        base = baseline.get(metric)
        now = fresh.get(metric)
        if base is None or now is None:
            continue
        print(f"{metric} (advisory): baseline {base:.3g} -> "
              f"fresh {now:.3g}")

    if server_fresh is not None:
        failures += gate_server(server_fresh, baseline, comparable,
                                args.server_threshold,
                                args.min_server_speedup)
        if args.overload:
            failures += gate_overload(server_fresh,
                                      args.overload_p99_factor)
        if args.live:
            failures += gate_live(server_fresh,
                                  args.min_churn_ratio,
                                  args.live_p99_ms)

    if shard_fresh is not None and args.shard:
        failures += gate_shard(shard_fresh, comparable,
                               args.min_shard_scaling,
                               args.shard_p99_factor)

    if failures:
        # Each metric's own line above states the gate it failed
        # (micro --threshold, server --server-threshold, or an
        # absolute floor); don't misattribute a single threshold.
        print(f"check_bench: gated metrics regressed: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    print("check_bench: within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
