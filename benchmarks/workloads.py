"""The benchmark's workloads: inputs from a seed, set-up, timed operations, checks.

Every workload drives hypermux from outside through public functions
(`synthetic.generate`, `training.train`, `model.init_params`,
`model.save_checkpoint`) and the `hypermux.cli.dispatch` entry point.
Functions are looked up on their modules at call time, so the wrappers
a `tracing.Tracer` installs see every call.

Output checks and their tolerances:

* every training loss is finite, and repeated calls on the same input
  give identical loss histories and embeddings (exact);
* the hyperboloid violation stays within the manifold's own tolerance
  (1e-6) and the softmax weights sum to 1 within 1e-12, the limit the
  acceptance suite holds the model to;
* repeated `eval` commands give identical AUC, AP and F1, and repeated
  `diagnose` commands identical, finite ID and gap (exact);
* on a second, fixed input (`REFERENCE_SEED`) the loss trajectory, the
  embeddings and the eval/diagnose numbers match `reference.json`,
  recorded from the seed commit of this benchmark: losses within a
  relative 1e-7, embeddings within 1e-6 of their Frobenius norm (through
  a fixed random sketch), AUC/AP/F1/ID/gap within 1e-6.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from pathlib import Path
from statistics import median

import numpy as np

from hypermux import autodiff, cli, graph, manifold, model, synthetic, training

GEN_FIXED = {"n_clusters": 5, "p_in": 0.15, "p_out": 0.015}
EMBED_SIZE = 64
CHECKPOINT_SEED = 7
REFERENCE_SEED = 1_000_003
REFERENCE_EPOCHS = 2
SETUPS_PER_CALL = 2  # timed set-ups after each timed call, so setup_s samples the whole run

LOSS_RTOL = 1e-7
Z_RTOL = 1e-6
SCORE_ATOL = 1e-6
LORENTZ_LIMIT = 1e-6
SOFTMAX_LIMIT = 1e-12

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


class Checks:
    """Named pass/fail results; each failure counts toward the failed share."""

    def __init__(self):
        self.items = []

    def add(self, name, ok, detail=""):
        self.items.append({"check": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    @property
    def failed(self):
        return sum(not c["ok"] for c in self.items)


def _quiet(fn, *args):
    """Run a CLI call with its stdout captured, so the result line stays last."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def z_sketch(z):
    """Frobenius norm plus 16 Gaussian bilinear projections u^T Z v.

    With u, v standard normal, each projection of a change dZ has the
    size of its Frobenius norm, whatever its direction.
    """
    z = np.asarray(z, dtype=np.float64)
    rng = np.random.default_rng(20250129)
    u = rng.standard_normal((z.shape[0], 4))
    v = rng.standard_normal((z.shape[1], 4))
    return float(np.linalg.norm(z)), (u.T @ z @ v).ravel().tolist()


def sketch_matches(z, ref):
    fro, sketch = z_sketch(z)
    tol = Z_RTOL * ref["z_fro"]
    worst = max([abs(fro - ref["z_fro"])]
                + [abs(a - b) for a, b in zip(sketch, ref["z_sketch"])])
    return worst <= tol, f"max sketch difference {worst:.3g} (tol {tol:.3g})"


def load_reference(name):
    return json.loads(REFERENCE_FILE.read_text())[name]


# ---------------------------------------------------------------------------
# training workloads


class TrainWorkload:
    """`training.train`, `full` variant, on a generated graph, fixed epoch budget.

    One timed call trains `epochs` epochs; early stopping is out of reach.
    The first epoch of every call is slower (level 0 is densified, fresh
    arrays are faulted in). Budgets of 8-10 epochs keep fewer than ten
    first epochs in a run, so the tail percentile of the epoch times
    falls on ordinary epochs instead of on the edge of that cluster.
    """

    call_name, step_name = "train_s", "epoch_ms"

    def __init__(self, name, n, d, epochs, trace_epochs):
        self.name, self.n, self.d = name, n, d
        self.epochs, self.trace_epochs = epochs, trace_epochs

    def gen_params(self, seed):
        return synthetic.GenParams(n_nodes=self.n, n_dims=self.d, seed=seed, **GEN_FIXED)

    def setup(self, seed, work):
        """Input generation; returns the state the operations use."""
        return {"graph": synthetic.generate(self.gen_params(seed)).graph, "seed": seed}

    def train(self, state, epochs):
        config = model.ModelConfig.for_variant("full", embed_size=EMBED_SIZE)
        tc = training.TrainConfig(max_epochs=epochs, patience=epochs + 1,
                                  seed=state["seed"])
        return training.train(state["graph"], config, tc)

    def measure(self, state, seconds, set_up):
        """Train calls until the next one would overrun `seconds` (at least 2),
        each followed by `SETUPS_PER_CALL` calls of `set_up`.

        Epochs are timed between clock marks inside the training loop: the
        first epoch starts when its `build_hierarchy` starts, and every
        epoch ends when its `Adam.step` returns, so no epoch includes the
        work `train` does before or after the loop.
        """
        starts, ends = [], []
        build, step = model.build_hierarchy, training.Adam.step

        def clocked_build(*args, **kwargs):  # first thing of every epoch
            starts.append(time.perf_counter())
            return build(*args, **kwargs)

        def clocked_step(*args, **kwargs):  # last thing of every epoch
            try:
                return step(*args, **kwargs)
            finally:
                ends.append(time.perf_counter())

        calls, steps, outcomes = [], [], []
        model.build_hierarchy, training.Adam.step = clocked_build, clocked_step
        try:
            start = time.perf_counter()
            while True:
                starts.clear()
                ends.clear()
                t0 = time.perf_counter()
                outcomes.append(_outcome(self.train(state, self.epochs)))
                calls.append(time.perf_counter() - t0)
                outcomes[-1]["epoch_marks"] = (len(starts), len(ends))
                steps.extend(np.diff(starts[:1] + ends).tolist())
                for _ in range(SETUPS_PER_CALL):
                    set_up()
                elapsed = time.perf_counter() - start
                if len(calls) >= 2 and elapsed + median(calls) > seconds:
                    break
        finally:
            model.build_hierarchy, training.Adam.step = build, step
        return {"call_s": calls, "step_ms": [s * 1e3 for s in steps],
                "outputs": outcomes, "attempted": len(calls)}

    def check(self, outputs, checks):
        losses = [l for o in outputs for l in o["losses"]]
        checks.add("losses finite", all(math.isfinite(l) for l in losses),
                   f"{len(losses)} losses")
        checks.add("epoch budget trained", all(
            o["n_epochs"] == self.epochs and o["aborted"] is None for o in outputs))
        checks.add("one start and one end mark per epoch",
                   all(o["epoch_marks"] == (o["n_epochs"],) * 2 for o in outputs))
        checks.add("repeated train calls identical",
                   all(_same_outcome(o, outputs[0]) for o in outputs[1:]),
                   f"{len(outputs)} calls")
        viol = max(o["violation"] for o in outputs)
        checks.add("lorentz violation", viol <= LORENTZ_LIMIT,
                   f"{viol:.3g} (limit {LORENTZ_LIMIT:g})")
        dev = max(o["softmax_dev"] for o in outputs)
        checks.add("softmax deviation", dev <= SOFTMAX_LIMIT,
                   f"{dev:.3g} (limit {SOFTMAX_LIMIT:g})")

    def reference_outputs(self, work):
        state = self.setup(REFERENCE_SEED, work)
        out = self.train(state, REFERENCE_EPOCHS)
        fro, sketch = z_sketch(out.z_tangent)
        return {"seed": REFERENCE_SEED, "epochs": REFERENCE_EPOCHS,
                "losses": [r.loss for r in out.history], "z_fro": fro,
                "z_sketch": sketch}

    def check_reference(self, work, checks):
        ref = load_reference(self.name)
        state = self.setup(ref["seed"], work)
        out = self.train(state, ref["epochs"])
        losses = [r.loss for r in out.history]
        worst = max(abs(a - b) / abs(b) for a, b in zip(losses, ref["losses"]))
        checks.add("reference loss trajectory",
                   len(losses) == len(ref["losses"]) and worst <= LOSS_RTOL,
                   f"max relative difference {worst:.3g} (tol {LOSS_RTOL:g})")
        checks.add("reference embeddings", *sketch_matches(out.z_tangent, ref))

    # traced run: one set-up and one train call, each its own operation

    def trace_ops(self, seed, work):
        state = {}

        def setup():
            state.update(self.setup(seed, work))
            return state["graph"]

        def train_call():
            return _outcome(self.train(state, self.trace_epochs))

        return [("setup", setup), ("train", train_call)]

    def same_outputs(self, a, b):
        return graph.graphs_equal(a[0], b[0]) and _same_outcome(a[1], b[1])

    def epochs_trained(self, outputs):
        return outputs[1]["n_epochs"]


def _outcome(result):
    """What the checks read from a TrainResult, without its N x N arrays."""
    return {"losses": [r.loss for r in result.history], "z": result.z_final,
            "n_epochs": result.n_epochs, "aborted": result.aborted,
            "violation": result.max_lorentz_violation,
            "softmax_dev": result.max_softmax_dev}


def _same_outcome(a, b):
    return a["losses"] == b["losses"] and np.array_equal(a["z"], b["z"])


# ---------------------------------------------------------------------------
# consumer workload


class EmbedEvalWorkload:
    """`hypermux eval --checkpoint` and `hypermux diagnose` on a saved graph.

    The checkpoint comes from `init_params` with a fixed seed, so nothing
    here depends on training arithmetic. Eval fits one logistic regression
    (`eval.class_repeats` 1 instead of the default 5): a default eval takes
    about 14 s, which would leave a run room for one eval and a handful of
    diagnoses.
    """

    call_name, step_name = "eval_s", "diagnose_ms"
    evals_per_run = 4
    reference_n = 300

    def __init__(self, name, n, d):
        self.name, self.n, self.d = name, n, d

    def setup(self, seed, work, n=None):
        """Generate and save the graph, write the checkpoint and eval config."""
        params = synthetic.GenParams(n_nodes=n or self.n, n_dims=self.d, seed=seed,
                                     **GEN_FIXED)
        g = synthetic.generate(params).graph
        work.mkdir(parents=True, exist_ok=True)
        graph.save_multiplex(g, work / "graph")
        config = model.ModelConfig.for_variant("full", embed_size=EMBED_SIZE)
        p = model.init_params(g.n_dims, g.n_features, config, seed=CHECKPOINT_SEED)
        model.save_checkpoint(work / "checkpoint.npz", p,
                              training.init_discriminator(EMBED_SIZE), config,
                              meta={"seed": CHECKPOINT_SEED})
        (work / "eval-config.json").write_text(json.dumps({"eval.class_repeats": 1}))
        return {"work": work, "seed": seed}

    def eval_cmd(self, state, tag):
        out = state["work"] / f"eval-{tag}.json"
        rc = _quiet(cli.dispatch, [
            "eval", "--graph", str(state["work"] / "graph"),
            "--checkpoint", str(state["work"] / "checkpoint.npz"),
            "--config", str(state["work"] / "eval-config.json"),
            "--seed", str(state["seed"]), "--out", str(out)])
        rows = [json.loads(l) for l in out.read_text().splitlines()] if rc == 0 else None
        return rc, rows

    def diagnose_cmd(self, state, tag):
        out = state["work"] / f"geo-{tag}.json"
        rc = _quiet(cli.dispatch, [
            "diagnose", "--checkpoint", str(state["work"] / "checkpoint.npz"),
            "--graph", str(state["work"] / "graph"),
            "--seed", str(state["seed"]), "--out", str(out)])
        if rc != 0:
            return rc, None
        geo = json.loads(out.read_text())
        geo.pop("context")  # names the checkpoint path
        return rc, geo

    def measure(self, state, seconds, set_up):
        """`evals_per_run` equal parts of `seconds`: one eval, `SETUPS_PER_CALL`
        calls of `set_up`, then diagnoses until the part ends."""
        evals, diags, outputs = [], [], []
        start = time.perf_counter()
        parts = self.evals_per_run
        for part in range(1, parts + 1):
            t0 = time.perf_counter()
            rc, rows = self.eval_cmd(state, len(evals))
            evals.append(time.perf_counter() - t0)
            outputs.append(("eval", rc, rows))
            for _ in range(SETUPS_PER_CALL):
                set_up()
            while True:
                t0 = time.perf_counter()
                rc, geo = self.diagnose_cmd(state, len(diags))
                t1 = time.perf_counter()
                diags.append(t1 - t0)
                outputs.append(("diagnose", rc, geo))
                if t1 - start + median(diags) > part * seconds / parts:
                    break
        return {"call_s": evals, "step_ms": [d * 1e3 for d in diags],
                "outputs": outputs, "attempted": len(outputs)}

    def check(self, outputs, checks):
        checks.add("cli exit codes", all(rc == 0 for _, rc, _ in outputs))
        evals = [rows for kind, rc, rows in outputs if kind == "eval" and rc == 0]
        geos = [geo for kind, rc, geo in outputs if kind == "diagnose" and rc == 0]
        checks.add("eval AUC/AP/F1 identical across repeats",
                   len(evals) >= 2 and all(e == evals[0] for e in evals[1:]),
                   f"{len(evals)} evals")
        checks.add("diagnose identical across repeats",
                   len(geos) >= 2 and all(g == geos[0] for g in geos[1:]),
                   f"{len(geos)} diagnoses")
        checks.add("ID and gap finite", bool(geos) and all(
            math.isfinite(g["id"]) and math.isfinite(g["gap"]) for g in geos))

    def _reference_run(self, work):
        state = self.setup(REFERENCE_SEED, work, n=self.reference_n)
        rc_e, rows = self.eval_cmd(state, "reference")
        rc_d, geo = self.diagnose_cmd(state, "reference")
        params, _, mc, _ = model.load_checkpoint(work / "checkpoint.npz")
        g = graph.load_multiplex(work / "graph")
        fwd = model.forward(g, g.features, params, mc)
        z = autodiff.val(manifold.to_euclidean(fwd.z, mc.manifold))
        return rc_e, rows, rc_d, geo, fwd, z

    def reference_outputs(self, work):
        rc_e, rows, rc_d, geo, _, z = self._reference_run(work)
        if rc_e or rc_d:
            raise RuntimeError("reference eval/diagnose failed")
        fro, sketch = z_sketch(z)
        return {"seed": REFERENCE_SEED, "n": self.reference_n,
                "scores": _scores(rows, geo), "z_fro": fro, "z_sketch": sketch}

    def check_reference(self, work, checks):
        ref = load_reference(self.name)
        rc_e, rows, rc_d, geo, fwd, z = self._reference_run(work)
        if not checks.add("reference commands ran", rc_e == 0 and rc_d == 0):
            return
        got = _scores(rows, geo)
        worst = max(abs(got[k] - ref["scores"][k]) for k in ref["scores"])
        checks.add("reference AUC/AP/F1/ID/gap", worst <= SCORE_ATOL,
                   f"max difference {worst:.3g} (tol {SCORE_ATOL:g})")
        checks.add("reference embeddings", *sketch_matches(z, ref))
        checks.add("lorentz violation", fwd.lorentz_violation <= LORENTZ_LIMIT,
                   f"{fwd.lorentz_violation:.3g} (limit {LORENTZ_LIMIT:g})")
        checks.add("softmax deviation", fwd.softmax_dev <= SOFTMAX_LIMIT,
                   f"{fwd.softmax_dev:.3g} (limit {SOFTMAX_LIMIT:g})")

    # traced run: set-up, one eval and one diagnose, each its own operation

    def trace_ops(self, seed, work):
        state = {}

        def setup():
            state.update(self.setup(seed, work))
            return None

        return [("setup", setup),
                ("eval", lambda: self.eval_cmd(state, "trace")),
                ("diagnose", lambda: self.diagnose_cmd(state, "trace"))]

    def same_outputs(self, a, b):
        return a[1:] == b[1:]

    def epochs_trained(self, outputs):
        return 0


def _scores(rows, geo):
    link = next(r for r in rows if r["task"] == "link_prediction")
    cls = next(r for r in rows if r["task"] == "classification")
    return {"auc": link["auc"], "ap": link["ap"], "f1_macro": cls["f1_macro"],
            "f1_micro": cls["f1_micro"], "id": geo["id"], "lid": geo["lid"],
            "gap": geo["gap"]}


WORKLOADS = {
    "train-sparse": TrainWorkload("train-sparse", n=1000, d=10, epochs=8, trace_epochs=3),
    "train-dense": TrainWorkload("train-dense", n=500, d=40, epochs=10, trace_epochs=4),
    "embed-eval": EmbedEvalWorkload("embed-eval", n=1000, d=10),
}
