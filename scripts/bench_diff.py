#!/usr/bin/env python3
"""Compares perfbench result lines of a parent and a change, metric by
metric, against the bounds in BENCHMARK.json.

Run from anywhere:

    python3 scripts/bench_diff.py --workload <name> <parent.jsonl> <change.jsonl> \
        [--claim <metric>]...

Each input file holds one perfbench result line (the last stdout line of
`perfbench/run.py --workload <name>`) per run, and the i-th lines of the
two files form a pair. A result line does not record its workload, so
`--workload` names it for the report; it must be a workload of the
repository's BENCHMARK.json, whose end-to-end metrics and bounds apply.
For every end-to-end metric the script prints each side's median and
quartiles, the change/parent ratio of medians, how many pairs the change
won (ties count for neither side) and a verdict:

- regressed:     the change's median is worse than the parent's by more
                 than the metric's bound;
- unresolved:    the parent's interquartile range exceeds the bound
                 (relative to its median), unless every change run beats
                 every parent run;
- gain:          a `--claim`ed metric won at least 9/10 of the pairs and
                 its medians differ, in its better direction, by more than
                 the parent's interquartile range;
- no gain:       a `--claim`ed metric that fell short of that;
- within bound:  anything else.

It also prints how many runs of each side were correct and how many
requests failed. The exit code is 0 when no metric regressed or is
unresolved, every claim holds and every run is correct with no failed
request; otherwise 1.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def quantile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summary(values):
    return quantile(values, 0.25), quantile(values, 0.5), quantile(values, 0.75)


def load_runs(path):
    runs = []
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                runs.append(json.loads(line))
            except json.JSONDecodeError as err:
                sys.exit(f"bench_diff: {path}:{number}: not a result line ({err})")
    if not runs:
        sys.exit(f"bench_diff: {path}: no result lines")
    return runs


def values(runs, name, path):
    try:
        return [float(run["metrics"][name]["value"]) for run in runs]
    except (KeyError, TypeError, ValueError):
        sys.exit(f"bench_diff: {path}: a run lacks metric `{name}`")


def better(a, b, lower):
    """Whether value `a` beats value `b`."""
    return a < b if lower else a > b


def verdict(metric, parent, change, claimed):
    lower = metric["better"] == "lower"
    bound = float(metric["bound"])
    p_q1, p_med, p_q3 = summary(parent)
    _, c_med, _ = summary(change)
    if lower:
        regressed = c_med > p_med * (1 + bound)
    else:
        regressed = c_med < p_med * (1 - bound)
    if regressed:
        return "regressed"
    if claimed:
        wins = sum(better(c, p, lower) for p, c in zip(parent, change))
        gap = p_med - c_med if lower else c_med - p_med
        if wins >= 0.9 * len(parent) and gap > p_q3 - p_q1:
            return "gain"
        return "no gain"
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    dominates = all(better(c, p, lower) for p in parent for c in change)
    if spread > bound and not dominates:
        return "unresolved"
    return "within bound"


def side_health(label, runs):
    correct = sum(1 for run in runs if run.get("correct") is True)
    failed = sum(int(run.get("failed", 0)) for run in runs)
    attempted = sum(int(run.get("attempted", 0)) for run in runs)
    print(
        f"{label}: correct {correct}/{len(runs)} runs, "
        f"failed {failed} of {attempted} attempted requests"
    )
    return correct == len(runs) and failed == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("parent", help="parent result lines, one per run")
    parser.add_argument("change", help="change result lines, in pair order")
    parser.add_argument("--claim", action="append", default=[], metavar="METRIC")
    args = parser.parse_args()

    with open(BENCHMARK) as handle:
        benchmark = json.load(handle)
    workloads = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in workloads:
        parser.error(f"unknown workload `{args.workload}` (one of {', '.join(workloads)})")
    metrics = benchmark["end_to_end"]
    names = [m["name"] for m in metrics]
    for claim in args.claim:
        if claim not in names:
            parser.error(f"unknown metric `{claim}` (one of {', '.join(names)})")

    parent = load_runs(args.parent)
    change = load_runs(args.change)
    if len(parent) != len(change):
        sys.exit(f"bench_diff: {len(parent)} parent runs but {len(change)} change runs")

    print(f"workload {args.workload}: {len(parent)} pairs, change / parent")
    healthy = side_health("parent", parent)
    healthy &= side_health("change", change)
    print(
        f"{'metric':<18} {'better':<6} {'bound':>5}  {'parent median [q1, q3]':<36} "
        f"{'change median [q1, q3]':<36} {'ratio':>6}  {'wins':>5}  verdict"
    )
    ok = healthy
    for metric in metrics:
        name = metric["name"]
        p = values(parent, name, args.parent)
        c = values(change, name, args.change)
        lower = metric["better"] == "lower"
        p_q1, p_med, p_q3 = summary(p)
        c_q1, c_med, c_q3 = summary(c)
        ratio = c_med / p_med if p_med else float("nan")
        wins = sum(better(cv, pv, lower) for pv, cv in zip(p, c))
        result = verdict(metric, p, c, name in args.claim)
        ok &= result in ("within bound", "gain")
        print(
            f"{name:<18} {metric['better']:<6} {metric['bound']:>5}  "
            f"{f'{p_med:.5g} [{p_q1:.5g}, {p_q3:.5g}]':<36} "
            f"{f'{c_med:.5g} [{c_q1:.5g}, {c_q3:.5g}]':<36} "
            f"{ratio:>6.3f}  {f'{wins}/{len(p)}':>5}  {result}"
        )
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
