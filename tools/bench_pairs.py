#!/usr/bin/env python3
"""Parent/change table for the deploy-path benchmark (deploybench/).

    bench_pairs.py PARENT_TREE CHANGE_TREE [--workload W]... [--pairs 10]
                   [--seed N] [--seconds 10]
    bench_pairs.py --selftest

Runs `deploybench/run.py --trace 0` of each source tree in alternating
pairs (the parent goes first in even pairs, the change in odd ones, so a
drift of the host's speed lands on both sides). For each workload it prints
one row per end-to-end metric of CHANGE_TREE/BENCHMARK.json: each side's
median [q1, q3], the change minus parent delta, the pairs the change won
and a verdict, checked in this order:

    worse       the change's median is worse than the parent's by more than
                the metric's bound;
    gain        the change is better in >= 9/10 of the pairs and its median
                beats the parent's by more than the parent's IQR;
    unresolved  either side's IQR / median exceeds the bound, and not every
                change run beats every parent run;
    ok          otherwise.

It also prints failed/attempted operations for each side, and a
failed_share row (failed / attempted over all runs of a side, in percent;
the delta is in percentage points) whose verdict is worse when the change's
share is above the parent's. A run that exits 1 after printing its result
line (deploybench counted a failed operation) is a result; any other
nonzero status, or a missing or unparseable result line, aborts. It reads
only BENCHMARK.json and deploybench/; each tree builds into its own
.bench_build/ on the first run. --workload defaults to every workload in
BENCHMARK.json. --selftest checks every verdict and the exit-status rule
on canned result lines and needs no tree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values):
    """(q1, median, q3), linearly interpolated; one value is its own IQR."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def verdict(parent, change, direction, bound):
    """Verdict for one metric over paired runs (parent[i] next to change[i])."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    sign = 1.0 if direction == "lower" else -1.0
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "worse"
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    if 10 * wins >= 9 * len(parent) and sign * (p_med - c_med) > p_q3 - p_q1:
        return "gain"
    noisy = any(q3 - q1 > bound * abs(med)
                for q1, med, q3 in ((p_q1, p_med, p_q3), (c_q1, c_med, c_q3)))
    separated = all(better(c, p, direction) for p in parent for c in change)
    if noisy and not separated:
        return "unresolved"
    return "ok"


def parse_result(stdout):
    """The result object of one run.py invocation: its last stdout line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("run.py printed no result line")
    result = json.loads(lines[-1])
    for key in ("attempted", "failed", "metrics"):
        if key not in result:
            raise ValueError(f"result line lacks '{key}'")
    return result


def result_of(status, stdout):
    """The result of one run.py exit. Status 1 means deploybench counted a
    failed operation after printing its result line; any other nonzero
    status is a crash."""
    if status not in (0, 1):
        raise ValueError(f"exited {status}")
    return parse_result(stdout)


def run_once(tree, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(tree, "deploybench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    try:
        return result_of(run.returncode, run.stdout)
    except ValueError as e:
        sys.exit(f"bench_pairs: {' '.join(cmd)}: {e}")


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def table(workload, metrics, parent_runs, change_runs):
    """Markdown rows for one workload's paired results."""
    pairs = len(parent_runs)
    out = []
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        out.append(f"{workload} {side}: {failed}/{attempted} failed/attempted")
    out.append("")
    out.append("| metric | parent median [q1, q3] | change median [q1, q3] "
               "| delta | change wins | verdict |")
    out.append("|---|---|---|---:|---:|---|")
    for m in metrics:
        name, direction = m["name"], m["better"]
        parent = [r["metrics"][name]["value"] for r in parent_runs]
        change = [r["metrics"][name]["value"] for r in change_runs]
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        delta = 100.0 * (c_med / p_med - 1.0) if p_med else 0.0
        wins = sum(better(c, p, direction) for p, c in zip(parent, change))
        out.append(f"| {name} | {p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}] "
                   f"| {c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}] | {delta:+.1f}% "
                   f"| {wins}/{pairs} "
                   f"| {verdict(parent, change, direction, m['bound'])} |")
    p_share = 100.0 * failed_share(parent_runs)
    c_share = 100.0 * failed_share(change_runs)
    out.append(f"| failed_share | {p_share:.4g}% | {c_share:.4g}% "
               f"| {c_share - p_share:+.4g} pp | - "
               f"| {'worse' if c_share > p_share else 'ok'} |")
    return "\n".join(out)


def selftest():
    """Each verdict (and the order they are checked in) on canned lines."""
    metric = {"name": "latency_p5_ms", "better": "lower", "bound": 0.2}

    def line(value, failed=0):
        return json.dumps({"correct": failed == 0, "attempted": 100,
                           "failed": failed,
                           "metrics": {"latency_p5_ms": {"value": value,
                                                          "unit": "ms"}}})

    cases = [
        # name, parent values, change values, expected verdict
        ("worse", [2.0] * 10, [2.5] * 10, "worse"),
        ("gain", [2.4, 2.42, 2.38, 2.5, 2.41, 2.39, 2.45, 2.44, 2.4, 2.43],
         [1.74, 1.75, 1.73, 1.78, 1.74, 1.76, 1.74, 1.77, 1.75, 2.6], "gain"),
        # 8/10 wins: a clear median gap, but not a claimable gain.
        ("too_few_wins", [2.0] * 10, [1.5] * 8 + [2.1] * 2, "ok"),
        ("unresolved", [1.0, 1.5, 2.0, 2.5, 3.0, 1.2, 1.8, 2.2, 2.8, 1.1],
         [1.1, 1.4, 2.1, 2.4, 3.1, 1.3, 1.7, 2.3, 2.7, 1.0], "unresolved"),
        # A noisy parent, a median gap inside its IQR, but every change run
        # beats every parent run: resolved, though not a claimable gain.
        ("separated", [10.0, 10.1, 20.0, 30.0, 30.1],
         [9.0, 9.5, 9.8, 9.9, 9.95], "ok"),
        ("ok", [2.0, 2.01, 1.99, 2.02, 1.98], [2.01, 2.0, 1.99, 2.0, 2.02],
         "ok"),
        # Worse than the bound wins over everything else.
        ("worse_first", [1.0, 1.01, 0.99], [1.3, 1.31, 1.29], "worse"),
    ]
    failures = 0
    for name, parent, change, want in cases:
        p_runs = [parse_result(line(v)) for v in parent]
        c_runs = [parse_result(line(v)) for v in change]
        got = verdict([r["metrics"]["latency_p5_ms"]["value"] for r in p_runs],
                      [r["metrics"]["latency_p5_ms"]["value"] for r in c_runs],
                      metric["better"], metric["bound"])
        if got != want:
            print(f"selftest FAIL: {name}: {got}, expected {want}")
            failures += 1
    higher = verdict([10.0] * 4, [7.0] * 4, "higher", 0.2)
    if higher != "worse":
        print(f"selftest FAIL: higher-is-better drop: {higher}, expected worse")
        failures += 1
    text = table("w", [metric], [parse_result(line(2.0, failed=1))],
                 [parse_result(line(1.0))])
    if "w parent: 1/100" not in text or "w change: 0/100" not in text:
        print("selftest FAIL: failed/attempted line missing:\n" + text)
        failures += 1
    # failed_share: worse only when the change fails a larger share.
    shares = [
        ("share_fell", 1, 0, "| failed_share | 1% | 0% | -1 pp | - | ok |"),
        ("share_rose", 0, 2, "| failed_share | 0% | 2% | +2 pp | - | worse |"),
        ("share_equal", 3, 3, "| failed_share | 3% | 3% | +0 pp | - | ok |"),
    ]
    for name, p_failed, c_failed, want in shares:
        text = table("w", [metric], [parse_result(line(2.0, p_failed))],
                     [parse_result(line(2.0, c_failed))])
        if want not in text.splitlines():
            print(f"selftest FAIL: {name}: no row '{want}' in:\n{text}")
            failures += 1
    # Exit status: 1 after a result line is a result; anything else aborts.
    statuses = [
        ("status_0", 0, line(2.0), 0),
        ("status_1_result", 1, "build noise\n" + line(2.0, failed=4), 4),
        ("status_1_no_result", 1, "Traceback (most recent call last):", None),
        ("status_1_empty", 1, "", None),
        ("status_2_result", 2, line(2.0), None),
        ("no_counts", 0, "build noise\n{\"metrics\": {}}", None),
    ]
    for name, status, stdout, want_failed in statuses:
        try:
            got = result_of(status, stdout)["failed"]
        except ValueError:
            got = None
        if got != want_failed:
            print(f"selftest FAIL: {name}: failed={got}, expected "
                  f"{want_failed} (None = abort)")
            failures += 1
    total = len(cases) + 2 + len(shares) + len(statuses)
    print(f"selftest OK ({total} cases)" if failures == 0
          else f"selftest: {failures} of {total} cases failed")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", help="parent source tree")
    parser.add_argument("change", nargs="?", help="change source tree")
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.parent or not args.change or args.pairs < 1:
        parser.error("need PARENT_TREE, CHANGE_TREE and --pairs >= 1")
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(trees[side], workload, args.seed,
                                           args.seconds))
            print(f"{workload}: pair {i + 1}/{args.pairs} done",
                  file=sys.stderr)
        print(f"## {workload} ({args.pairs} pairs, seed {args.seed}, "
              f"{args.seconds:g} s)\n")
        print(table(workload, spec["end_to_end"], runs["parent"],
                    runs["change"]))
        print()
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
