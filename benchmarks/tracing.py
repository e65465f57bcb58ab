"""In-memory span tracing of hypermux, installed from outside the package.

`Tracer.install()` replaces public functions of the hypermux modules
with wrappers that record one span per call: name, start, end, parent
span and operation id. A function is replaced under every module
attribute that refers to it, so a caller that imported it by name
(`hypermux.cli.load_multiplex`, `hypermux.training.corrupt_features`)
sees the wrapper too. The fused autodiff primitives additionally wrap
the vjp closure of the node they return, which times the adjoint when
`backward` replays it, and count the flops and bytes their operand
shapes imply. `restore()` puts every original back.

Spans stay in memory until `write()`. Wrappers only time and count:
arguments and results pass through untouched, so a traced call returns
exactly what an untraced one does.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

F8 = 8  # bytes per float64

# span name -> (module, attribute); each replaced under every alias
TRACED_FUNCTIONS = {
    "synthetic.generate": ("synthetic", "generate"),
    "graph.load_multiplex": ("graph", "load_multiplex"),
    "graph.save_multiplex": ("graph", "save_multiplex"),
    "manifold.lift": ("manifold", "lift"),
    "manifold.to_euclidean": ("manifold", "to_euclidean"),
    "manifold.fermi_dirac_score": ("manifold", "fermi_dirac_score"),
    "model.build_hierarchy": ("model", "build_hierarchy"),
    "model.propagate": ("model", "propagate"),
    "model.forward": ("model", "forward"),
    "model.load_checkpoint": ("model", "load_checkpoint"),
    "model.init_params": ("model", "init_params"),
    "model.save_checkpoint": ("model", "save_checkpoint"),
    "autodiff.backward": ("autodiff", "backward"),
    "training.train": ("training", "train"),
    "training.init_discriminator": ("training", "init_discriminator"),
    "training.dgi_objective": ("training", "dgi_objective"),
    "training.corrupt_features": ("graph", "corrupt_features"),
    "evaluate.split_edges": ("evaluate", "split_edges"),
    "evaluate.link_prediction_eval": ("evaluate", "link_prediction_eval"),
    "evaluate.classification_eval": ("evaluate", "classification_eval"),
    "evaluate.fit_logreg": ("evaluate", "fit_logreg"),
    "evaluate.auc_ap": ("evaluate", "auc_ap"),
    "geometry.twonn_id": ("geometry", "twonn_id"),
    "geometry.linear_id": ("geometry", "linear_id"),
    "cli.dispatch": ("cli", "dispatch"),
}

TRACED_METHODS = {
    "training.Adam.step": ("training", "Adam", "step"),
}

FUSED_PRIMITIVES = ("block_matmul", "normalize_blocks", "spmm", "spmm_const",
                    "gather_nd", "scatter_nd", "block_weighted_sum")

MODULES = ("synthetic", "graph", "manifold", "autodiff", "model", "training",
           "geometry", "evaluate", "cli")


# ---------------------------------------------------------------------------
# computed cost of the fused primitives: flops count a multiply-add as 2
# and every other arithmetic element operation as 1; bytes count operands
# read and results written, float64 values plus index arrays, and no
# temporaries.


def _size(a):
    return int(getattr(a, "value", a).size)


def _shape(a):
    return getattr(a, "value", a).shape


def _fwd_cost(name, args, out):
    if name == "block_matmul":
        x, weights = args[0], args[1]
        rows, f_in = _shape(x)
        f_out = _shape(weights[0])[1]
        return (2 * rows * f_in * f_out,
                F8 * (_size(x) + len(weights) * f_in * f_out + _size(out)))
    if name == "normalize_blocks":
        return 3 * _size(args[0]), F8 * (_size(args[0]) + _size(out))
    if name == "spmm":
        pattern, values, x = args[0], args[1], args[2]
        f = _shape(x)[1]
        return (2 * pattern.nnz * f,
                F8 * (pattern.nnz + _size(x) + _size(out)) + 4 * pattern.nnz)
    if name == "spmm_const":
        mat, x = args[0], args[2]
        f = _shape(x)[1]
        return (2 * mat.nnz * f,
                F8 * (mat.nnz + _size(x) + _size(out)) + 4 * mat.nnz)
    if name == "gather_nd":
        k = len(args[1])
        return 0, F8 * 2 * k + 2 * F8 * k
    if name == "scatter_nd":
        k = len(args[1])
        return 0, F8 * (k + _size(out)) + 2 * F8 * k
    if name == "block_weighted_sum":
        return 2 * _size(args[0]), F8 * (_size(args[0]) + _size(args[1]) + _size(out))
    raise KeyError(name)


def _vjp_cost(name, args, g, grads):
    moved = F8 * (g.size + sum(r.size for r in grads if r is not None))
    if name == "block_matmul":
        x, weights = args[0], args[1]
        rows, f_in = _shape(x)
        f_out = _shape(weights[0])[1]
        block = rows // len(weights)
        flops = (2 * rows * f_in * f_out if grads[0] is not None else 0) + sum(
            2 * block * f_in * f_out for r in grads[1:] if r is not None)
        return flops, moved
    if name == "normalize_blocks":
        return 8 * _size(args[0]), moved
    if name == "spmm":
        pattern, x = args[0], args[2]
        f = _shape(x)[1]
        n, m = pattern.shape
        dense_adjoint = pattern.nnz * 20 > n * m  # the op's own switch
        gv = (2 * n * m * f if dense_adjoint else 2 * pattern.nnz * f) \
            if grads[0] is not None else 0
        gx = 2 * pattern.nnz * f if grads[1] is not None else 0
        return gv + gx, moved + 4 * pattern.nnz
    if name == "spmm_const":
        mat_t, x = args[1], args[2]
        return 2 * mat_t.nnz * _shape(x)[1], moved + 4 * mat_t.nnz
    if name == "gather_nd":
        return 0, moved + 2 * F8 * len(args[1])
    if name == "scatter_nd":
        return 0, moved + 2 * F8 * len(args[1])
    if name == "block_weighted_sum":
        k_rows = _size(args[0])
        return ((k_rows if grads[0] is not None else 0)
                + (2 * k_rows if grads[1] is not None else 0)), moved
    raise KeyError(name)


def _level_bytes(level):
    """Bytes held by one traced hierarchy level, from its array sizes."""
    if level.mode == "dense":
        return int(level.dense.value.nbytes)
    index = sum(a.nbytes for a in vars(level.pattern).values() if hasattr(a, "nbytes"))
    return int(level.values.value.nbytes + index)


# ---------------------------------------------------------------------------


class Tracer:
    """Span recorder plus the wrappers it installs on hypermux."""

    def __init__(self, hypermux_modules):
        self.mods = hypermux_modules  # short name -> module
        self.spans = []  # [name, start, end, parent index or None, op id]
        self.counts = defaultdict(float)
        self.levels = {}  # structure of the last hierarchy built
        self.op = 0
        self._stack = []
        self._patches = []

    # span bookkeeping -------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return wrapper

    # installation -----------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for mod in self.mods.values():
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        for name, (mod, attr) in TRACED_FUNCTIONS.items():
            original = getattr(self.mods[mod], attr)
            wrapped = self._timed(name, original)
            if name == "model.build_hierarchy":
                wrapped = self._observe_levels(wrapped)
            self._replace_everywhere(original, wrapped)
        for name, (mod, cls, attr) in TRACED_METHODS.items():
            owner = getattr(self.mods[mod], cls)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._timed(name, original))
        for prim in FUSED_PRIMITIVES:
            original = getattr(self.mods["autodiff"], prim)
            self._replace_everywhere(original, self._fused(prim, original))
        stacked = self.mods["model"].StackedAdjacency
        original = stacked.__dict__["matmul"]
        self._patches.append((stacked, "matmul", original))
        setattr(stacked, "matmul", self._count_level_reads(original))
        return self

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _fused(self, prim, fn):
        tensor_type = self.mods["autodiff"].Tensor
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = self.begin(f"autodiff.{prim}")
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            flops, nbytes = _fwd_cost(prim, args, out)
            counts[f"autodiff.{prim}.flops"] += flops
            counts[f"autodiff.{prim}.bytes"] += nbytes
            if isinstance(out, tensor_type) and out._vjp is not None:
                inner = out._vjp  # `vjp` must not refer to `out`: a cycle would
                # keep every traced node alive until the garbage collector ran

                def vjp(g):
                    j = self.begin(f"autodiff.{prim}.vjp")
                    try:
                        grads = inner(g)
                    finally:
                        self.end(j)
                    flops, nbytes = _vjp_cost(prim, args, g, grads)
                    counts[f"autodiff.{prim}.flops"] += flops
                    counts[f"autodiff.{prim}.bytes"] += nbytes
                    return grads

                out._vjp = vjp
            return out

        return wrapper

    def _observe_levels(self, fn):
        def wrapper(*args, **kwargs):
            hierarchy = fn(*args, **kwargs)
            built = hierarchy.levels[1:]
            for level in built:
                level._bench_built = True
            self.counts["model.levels_built"] += len(built)
            self.levels = {
                "model.levels.sparse": sum(l.mode == "sparse" for l in built),
                "model.levels.dense": sum(l.mode == "dense" for l in built),
                "model.level_bytes": sum(_level_bytes(l) for l in built),
                "model.raw_flat_bytes": sum(int(a.nbytes) for a in hierarchy.raw_flat),
            }
            return hierarchy

        return wrapper

    def _count_level_reads(self, fn):
        counts = self.counts

        def matmul(level, x):
            if getattr(level, "_bench_built", False) and \
                    not getattr(level, "_bench_read", False):
                level._bench_read = True
                counts["model.levels_read"] += 1
            return fn(level, x)

        return matmul

    # reduction --------------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def summary(self):
        """name -> {calls, ms (outermost spans), self_ms}."""
        own = self.self_times()
        out = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_ms"] += own[i] * 1e3
            p = parent
            while p is not None and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p is None:
                row["ms"] += (end - start) * 1e3
        return dict(out)

    def inside_by_op(self):
        """op id -> time inside hypermux spans: the summed durations of the
        direct children of the operation's root span (the caller's own
        span, opened with `begin` while no other span is open)."""
        total = defaultdict(float)
        for _, start, end, parent, op in self.spans:
            if parent is not None and self.spans[parent][3] is None:
                total[op] += end - start
        return dict(total)

    def write(self, path):
        """One JSON line per span; `parent` is the line index of its parent."""
        own = self.self_times()
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "self": own[i], "parent": parent, "op": op}) + "\n")


def span_cost(calls=20000):
    """Seconds one span adds to a call: a wrapped no-op against a bare one.

    Spans times this cost estimates the tracing overhead of a pass
    without the run-to-run noise of comparing two timed passes.
    """

    def noop():
        return None

    wrapped = Tracer({})._timed("probe", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls
