"""Steadiness of the end-to-end metrics over runs with different seeds.

    python3 benchmarks/steadiness.py run --runs 10 --out .bench_results/set-a
    python3 benchmarks/steadiness.py report .bench_results/set-a [.bench_results/set-b]

`run` executes the benchmark once per workload and seed (seeds
`--first-seed` onwards), one process at a time, from the checkout that
holds this file. `report` prints, per workload and end-to-end metric,
the median, the quartiles (statistics.quantiles, n=4) and the quartile
spread as a share of the median next to the metric's bound from
BENCHMARK.json: `steady` below a third of the bound, `within` below the
bound, `OVER` above it. With a second set it also prints how far the
second median lies from the first, which must stay within the bound for
every metric. Per workload it adds the share of CPU time the hypervisor
stole from the machine during the runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median

from stats import quartiles

ROOT = Path(__file__).resolve().parent.parent


def load_spec(root=ROOT):
    return json.loads((root / "BENCHMARK.json").read_text())


def load_results(directory):
    """workload -> list of end-to-end result records, in seed order."""
    by_workload = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            by_workload[record["workload"]].append(record)
    for records in by_workload.values():
        records.sort(key=lambda r: r["seed"])
    return dict(by_workload)


def values(records, metric):
    return [r["result"]["metrics"][metric]["value"] for r in records]


def run_once(root, workload, seed, seconds, out):
    """One benchmark process; returns its result line."""
    cmd = [sys.executable, str(root / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--results", str(Path(out).resolve())]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cmd_run(args):
    spec = load_spec()
    for workload in [w["name"] for w in spec["workloads"]]:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(ROOT, workload, seed, spec["run_seconds"], args.out)
            flag = "" if result["correct"] else "  INCORRECT"
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()) + flag,
                flush=True)
    return 0


def cmd_report(args):
    spec = load_spec()
    first = load_results(args.sets[0])
    second = load_results(args.sets[1]) if len(args.sets) > 1 else None
    worst_ok = True
    header = f"{'workload':<13} {'metric':<13} {'n':>3} {'median':>11} {'q1':>11} " \
             f"{'q3':>11} {'spread':>7} {'bound':>6}  verdict"
    if second:
        header += "   second median  drift"
    print(header)
    for wl in spec["workloads"]:
        name = wl["name"]
        if name not in first:
            print(f"{name:<13} no results")
            worst_ok = False
            continue
        records = first[name]
        n_bad = sum(not r["result"]["correct"] for r in records)
        for m in spec["end_to_end"]:
            vals = values(records, m["name"])
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med
            bound = m["bound"]
            if spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within"
            else:
                verdict = "OVER"
                worst_ok = False
            line = (f"{name:<13} {m['name']:<13} {len(vals):>3} {med:>11.5g} {q1:>11.5g} "
                    f"{q3:>11.5g} {spread:>7.3f} {bound:>6.2f}  {verdict:<7}")
            if second and name in second:
                med2 = quartiles(values(second[name], m["name"]))[1]
                drift = (med2 - med) / med
                worse = drift if m["better"] == "lower" else -drift
                ok = worse <= bound
                worst_ok &= ok
                line += f"  {med2:>13.5g} {drift:>+6.3f}{'' if ok else ' OVER'}"
            print(line)
        steal = [r["report"]["cpu_steal_share"]["value"] for r in records
                 if "cpu_steal_share" in r["report"]]
        if steal:
            print(f"{name:<13} cpu steal share of the runs: median {median(steal):.3f}, "
                  f"max {max(steal):.3f}")
        if n_bad:
            print(f"{name:<13} {n_bad} of {len(records)} runs reported incorrect outputs")
            worst_ok = False
    return 0 if worst_ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run every workload once per seed")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", required=True, help="directory for the result files")
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("report", help="spread per workload and metric")
    p.add_argument("sets", nargs="+", help="one or two result directories")
    p.set_defaults(func=cmd_report)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
