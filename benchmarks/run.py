"""hypermux benchmark: one workload per process, end-to-end or traced.

    python3 benchmarks/run.py --workload train-sparse --seed 1 --seconds 36 --trace 0

Run from the repository root. The package is imported from `src/` next
to this directory, with BLAS pinned to one thread before numpy loads.
The inputs come from `--seed`; the same seed gives the same inputs.

`--trace 0` sets up, then times the workload's operations for `--seconds`,
setting up again after each timed call (so the median set-up time,
`setup_s`, samples the whole run), and reports the end-to-end metrics
named in BENCHMARK.json:

    setup_s      set-up: graph generation (train-*), plus the graph save
                 and checkpoint write (embed-eval)
    call_s       median wall time of one `training.train` call (train-*:
                 train_s) or one `hypermux eval` command (embed-eval: eval_s)
    step_ms_p50  median of the repeated step: one training epoch (train-*:
                 epoch_ms) or one `hypermux diagnose` command (embed-eval:
                 diagnose_ms)
    step_ms_tail the highest percentile of the steps with at least ten
                 samples above it (the report names the percentile and n)
    peak_rss_mb  peak resident set size of the process

`--trace 1` runs one set-up and one operation of each kind in passes: a
warm-up pass, then `TRACE_PAIRS` pairs of an untraced pass and a pass
with a fresh `tracing.Tracer` installed. It checks that every pass gives
identical outputs and reports the per-layer metrics of BENCHMARK.json
from the traced pass with the median wall time. It also checks that
the hypermux spans of every traced operation (the children of the
operation's own `bench.<op>` span) cover at least `MIN_INSIDE_SHARE` of
its wall time; `trace.accounted_share` is the smallest such share in the
reported pass. `trace.overhead_ms` is the median traced wall time of a
pass minus the median untraced one; that difference still carries the
machine's run-to-run noise, so the report adds an estimate: spans times
the measured cost of one span.

Every run checks the outputs (see workloads.py) and writes a result file
with the machine description to `--results` (default `.bench_results/`);
traced runs also write their spans there. The last line of standard
output is the result JSON. A failing hypermux call stops the run with
exit code 1 and no result line.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"
TRACE_PAIRS = 3  # untraced/traced pass pairs of a traced run
MIN_INSIDE_SHARE = 0.98  # of each traced operation's wall time, inside hypermux spans


def _import_package():
    """Import hypermux from this checkout's src/, never from elsewhere."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import hypermux
    except ImportError as exc:
        raise SystemExit(f"error: cannot import hypermux from {ROOT / 'src'}: {exc}")
    if Path(hypermux.__file__).resolve().parent.parent != ROOT / "src":
        raise SystemExit(f"error: hypermux imported from {hypermux.__file__}, "
                         f"not from {ROOT / 'src'}")
    return hypermux


def machine_info():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _blas_threads(numpy):
    """Thread count the loaded OpenBLAS reports, else the pinned setting."""
    import ctypes

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return f"unverified, OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_jiffies():
    """(steal, total) CPU time of the machine from /proc/stat, or None.

    Steal is time the hypervisor gave to another guest while this one
    had work to run; its share of a run helps explain spread between runs.
    """
    try:
        fields = [int(f) for f in Path("/proc/stat").read_text().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


# ---------------------------------------------------------------------------


def run_end_to_end(wl, seed, seconds, work, checks):
    from stats import tail

    setups = []

    def set_up():
        t0 = time.perf_counter()
        state = wl.setup(seed, work / f"setup{len(setups)}")
        setups.append(time.perf_counter() - t0)
        return state

    before = cpu_jiffies()
    timed = wl.measure(set_up(), seconds, set_up)
    after = cpu_jiffies()
    rss = peak_rss_mb()
    wl.check(timed["outputs"], checks)
    wl.check_reference(work / "reference", checks)

    steps = timed["step_ms"]
    tail_value, tail_pct, n_steps = tail(steps)
    metrics = {
        "setup_s": median(setups),
        "call_s": median(timed["call_s"]),
        "step_ms_p50": median(steps),
        "step_ms_tail": tail_value,
        "peak_rss_mb": rss,
    }
    call_name, step_name = wl.call_name, wl.step_name
    report = {
        "setup_s": {"value": metrics["setup_s"], "unit": "s", "n": len(setups)},
        call_name: {"value": metrics["call_s"], "unit": "s",
                    "n": len(timed["call_s"]), "samples": timed["call_s"]},
        f"{step_name}_p50": {"value": metrics["step_ms_p50"], "unit": "ms",
                             "n": n_steps},
        f"{step_name}_tail": {"value": tail_value, "unit": "ms",
                              "percentile": tail_pct, "n": n_steps},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    if before and after and after[1] > before[1]:
        report["cpu_steal_share"] = {"value": (after[0] - before[0]) / (after[1] - before[1]),
                                     "unit": "ratio"}
    attempted = len(setups) + timed["attempted"]
    return metrics, report, attempted


def run_traced(wl, seed, work, checks, spans_path):
    from tracing import FUSED_PRIMITIVES, MODULES, Tracer, span_cost
    import hypermux

    mods = {name: getattr(hypermux, name) for name in MODULES}
    mods["hypermux"] = hypermux

    def one_pass(tracer, sub):
        """Wall time per operation id and the outputs, in operation order."""
        walls, outputs = {}, []
        for op, (name, fn) in enumerate(wl.trace_ops(seed, work / sub), start=1):
            t0 = time.perf_counter()
            if tracer is None:
                outputs.append(fn())
            else:
                tracer.op = op
                idx = tracer.begin(f"bench.{name}")
                try:
                    outputs.append(fn())
                finally:
                    tracer.end(idx)
            walls[op] = time.perf_counter() - t0
        return walls, outputs

    _, first_out = one_pass(None, "warmup")  # pays the process's allocator warm-up
    untraced, traced = [], []  # (walls, outputs[, tracer]) per pass
    for i in range(TRACE_PAIRS):
        untraced.append(one_pass(None, f"untraced{i}"))
        tracer = Tracer(mods).install()
        try:
            traced.append((*one_pass(tracer, f"traced{i}"), tracer))
        finally:
            tracer.restore()
    outputs = [out for _, out in untraced] + [out for _, out, _ in traced]
    checks.add("tracing leaves outputs unchanged",
               all(wl.same_outputs(first_out, out) for out in outputs),
               f"{len(outputs)} passes")
    wl.check_reference(work / "reference", checks)

    shares = [[tr.inside_by_op().get(op, 0.0) / wall for op, wall in walls.items()]
              for walls, _, tr in traced]
    checks.add("hypermux spans cover each operation's wall time",
               all(MIN_INSIDE_SHARE <= x <= 1.0 for pass_ in shares for x in pass_),
               f"min {MIN_INSIDE_SHARE}; shares " + ", ".join(
                   f"{x:.4f}" for pass_ in shares for x in pass_))

    plain_s = [sum(walls.values()) for walls, _ in untraced]
    traced_s = [sum(walls.values()) for walls, _, _ in traced]
    mid = sorted(range(TRACE_PAIRS), key=traced_s.__getitem__)[TRACE_PAIRS // 2]
    traced_walls, traced_out, tracer = traced[mid]
    tracer.write(spans_path)

    s = tracer.summary()
    c = tracer.counts

    def stat(name, key):  # zero for functions the workload never calls
        return s[name][key] if name in s else 0

    metrics = {}
    for name in ("model.build_hierarchy", "model.propagate", "autodiff.backward",
                 "cli.dispatch"):
        metrics[f"{name}.self_ms"] = stat(name, "self_ms")
    for name in ("model.forward", "model.load_checkpoint", "training.Adam.step",
                 "training.dgi_objective", "training.corrupt_features",
                 "manifold.lift", "manifold.to_euclidean", "manifold.fermi_dirac_score",
                 "evaluate.fit_logreg", "evaluate.classification_eval",
                 "evaluate.split_edges", "evaluate.link_prediction_eval",
                 "evaluate.auc_ap", "geometry.twonn_id", "geometry.linear_id",
                 "graph.load_multiplex", "synthetic.generate"):
        metrics[f"{name}.ms"] = stat(name, "ms")
    for prim in FUSED_PRIMITIVES:
        base = f"autodiff.{prim}"
        metrics[f"{base}.fwd_ms"] = stat(base, "ms")
        metrics[f"{base}.vjp_ms"] = stat(f"{base}.vjp", "ms")
        metrics[f"{base}.calls"] = stat(base, "calls")
        metrics[f"{base}.vjp_calls"] = stat(f"{base}.vjp", "calls")
        metrics[f"{base}.flops"] = c[f"{base}.flops"]
        metrics[f"{base}.bytes"] = c[f"{base}.bytes"]
    metrics.update({"model.levels.sparse": 0, "model.levels.dense": 0,
                    "model.level_bytes": 0, "model.raw_flat_bytes": 0})
    metrics.update(tracer.levels)
    built = c["model.levels_built"]
    metrics["model.levels_used_ratio"] = c["model.levels_read"] / built if built else 0.0
    metrics["training.epochs"] = wl.epochs_trained(traced_out)
    untraced_s, traced_med_s = median(plain_s), median(traced_s)
    metrics["trace.overhead_ms"] = (traced_med_s - untraced_s) * 1e3
    metrics["trace.accounted_share"] = min(shares[mid])
    cost = span_cost()
    report = {
        "trace.overhead_ms": {"value": metrics["trace.overhead_ms"], "unit": "ms",
                              "untraced_s": untraced_s, "traced_s": traced_med_s,
                              "estimate_ms": len(tracer.spans) * cost * 1e3,
                              "span_cost_us": cost * 1e6},
        "passes": {"names": [name for name, _ in wl.trace_ops(seed, work)],
                   "untraced_s": plain_s, "traced_s": traced_s,
                   "reported": mid, "reported_walls_s": traced_walls,
                   "reported_inside_shares": shares[mid]},
        "spans": {"count": len(tracer.spans), "file": spans_path.name,
                  "by_name": s},
    }
    attempted = len(traced_walls) * (1 + 2 * TRACE_PAIRS)
    return metrics, report, attempted


# ---------------------------------------------------------------------------


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=RESULTS,
                        help="directory for the result file (default %(default)s)")
    args = parser.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}_{os.getpid()}"
    work = WORK / tag
    args.results.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    started = time.time()
    try:
        if args.trace:
            metrics, report, attempted = run_traced(
                wl, args.seed, work, checks, args.results / f"{tag}.spans.jsonl")
        else:
            metrics, report, attempted = run_end_to_end(
                wl, args.seed, args.seconds, work, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"error: benchmark produced no value for {missing}")
    attempted += len(checks.items)
    failed = checks.failed
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    machine = machine_info()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started": started, "machine": machine,
        "failed_share": failed / attempted, "report": report,
        "checks": checks.items, "result": result,
    }
    (args.results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for c in checks.items:
        print(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['check']}  {c['detail']}")
    for name, row in report.items():
        if "value" in row:
            extra = "".join(f"  {k}={row[k]:g}" for k in
                            ("percentile", "n", "untraced_s", "traced_s", "estimate_ms",
                             "span_cost_us") if k in row)
            print(f"{name} = {row['value']:.6g} {row['unit']}{extra}")
    if args.trace:
        by_self = sorted(report["spans"]["by_name"].items(), key=lambda kv: -kv[1]["self_ms"])
        for name, row in by_self[:12]:
            print(f"self {row['self_ms']:10.1f} ms  total {row['ms']:10.1f} ms  "
                  f"calls {row['calls']:6d}  {name}")
    print(f"failed_share = {failed}/{attempted} = {failed / attempted:.4g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
