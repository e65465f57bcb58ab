"""Compare a parent and a change on the end-to-end metrics.

    python3 benchmarks/compare.py run PARENT_CHECKOUT CHANGE_CHECKOUT --runs 10 --out DIR
    python3 benchmarks/compare.py report DIR/parent DIR/change

`run` executes each checkout's own benchmarks/run.py in alternating
pairs: pair i (from 0) uses seed i + 1 on both sides and starts with
the parent when i is even, with the change when i is odd. Result files
go to DIR/parent and DIR/change.

`report` pairs the runs of each workload by seed and rates every
workload x metric:

  improved    with at least 10 pairs, the change wins at least 9 in 10
              of them (ties count for neither side) and the medians
              differ by more than the parent's interquartile range;
  worse       the same rule in the parent's favour, or the change's
              median is worse than the parent's by more than the
              metric's bound;
  unresolved  otherwise, when the parent's quartile spread exceeds the
              bound and not every change run beats every parent run;
  unchanged   otherwise.

Exit status 1 when any pairing is worse or any run reported incorrect
outputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from stats import quartiles
from steadiness import load_results, load_spec, run_once, values

WIN_SHARE = 0.9
MIN_PAIRS = 10


def rate(parent, change, better, bound):
    """Verdict and details for one workload x metric from seed-paired values."""
    sign = 1.0 if better == "lower" else -1.0  # positive gain = change better
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    wins = sum(g > 0 for g in gains)
    losses = sum(g < 0 for g in gains)
    q1, med_p, q3 = quartiles(parent)
    med_c = quartiles(change)[1]
    iqr = q3 - q1
    gain = sign * (med_p - med_c)
    need = WIN_SHARE * len(gains)
    enough = len(gains) >= MIN_PAIRS
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if enough and wins >= need and gain > iqr:
        verdict = "improved"
    elif (enough and losses >= need and -gain > iqr) or -gain > bound * med_p:
        verdict = "worse"
    elif iqr / med_p > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return verdict, {"parent_median": med_p, "change_median": med_c, "parent_iqr": iqr,
                     "wins": wins, "losses": losses, "pairs": len(gains)}


def cmd_run(args):
    spec = load_spec()  # one set of workloads and run length for both sides
    out = Path(args.out)
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for workload in [w["name"] for w in spec["workloads"]]:
        for i in range(args.runs):
            seed = i + 1
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run_once(sides[side], workload, seed, spec["run_seconds"], out / side)
            print(f"{workload} pair {i + 1}/{args.runs} done", flush=True)
    return 0


def cmd_report(args):
    spec = load_spec()
    parent, change = load_results(args.parent), load_results(args.change)
    bad = False
    print(f"{'workload':<13} {'metric':<13} {'verdict':<10} {'parent':>11} {'change':>11} "
          f"{'delta':>7} {'parent IQR':>11} {'wins':>9}")
    for wl in spec["workloads"]:
        name = wl["name"]
        if name not in parent or name not in change:
            print(f"{name:<13} missing results")
            bad = True
            continue
        seeds = sorted({r["seed"] for r in parent[name]} & {r["seed"] for r in change[name]})
        if len(seeds) < 2:
            print(f"{name:<13} fewer than two seeds ran on both sides")
            bad = True
            continue
        p_runs = [next(r for r in parent[name] if r["seed"] == s) for s in seeds]
        c_runs = [next(r for r in change[name] if r["seed"] == s) for s in seeds]
        if not all(r["result"]["correct"] for r in p_runs + c_runs):
            print(f"{name:<13} some runs reported incorrect outputs")
            bad = True
        for m in spec["end_to_end"]:
            verdict, d = rate(values(p_runs, m["name"]), values(c_runs, m["name"]),
                              m["better"], m["bound"])
            bad |= verdict == "worse"
            delta = (d["change_median"] - d["parent_median"]) / d["parent_median"]
            print(f"{name:<13} {m['name']:<13} {verdict:<10} {d['parent_median']:>11.5g} "
                  f"{d['change_median']:>11.5g} {delta:>+7.3f} {d['parent_iqr']:>11.4g} "
                  f"{d['wins']:>4}/{d['pairs']:<4}")
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="alternating pairs of parent and change runs")
    p.add_argument("parent", help="root of the parent checkout")
    p.add_argument("change", help="root of the change checkout")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("report", help="rate every workload x metric")
    p.add_argument("parent", help="result directory of the parent")
    p.add_argument("change", help="result directory of the change")
    p.set_defaults(func=cmd_report)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
