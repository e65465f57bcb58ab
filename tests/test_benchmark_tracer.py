"""The benchmark's tracer (benchmarks/tracing.py) must still install on the
package: it looks up every function it wraps by name and raises on a missing
one, so a deletion that breaks `benchmarks/run.py --trace 1` fails here. It
runs a forward and backward pass on a dense-union and a sparse-union graph, so
its level and cost accounting read both storage kinds of a built level."""

import importlib
import sys
from pathlib import Path

import hypermux
import hypermux.autodiff as ad
import hypermux.cli  # noqa: F401 - the tracer wraps names in every module
import hypermux.geometry  # noqa: F401
from hypermux import model as mdl, training as tr
from hypermux.synthetic import GenParams, generate

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _state(mods, owners):
    # the functions and classes the tracer may replace; not data such as the
    # kernel pool's queue, which the first pass makes
    attrs = {(name, attr): obj for name, mod in mods.items()
             for attr, obj in vars(mod).items() if callable(obj)}
    methods = {(cls, attr): cls.__dict__[attr] for cls, attr in owners}
    return attrs, methods


def test_tracer_installs_records_and_restores(monkeypatch):
    # union density 0.19: the built level is sparse
    _trace_forward_backward(monkeypatch, GenParams(n_nodes=20, n_clusters=2, n_dims=3,
                                                   seed=1), "sparse")


def test_tracer_reads_dense_union_levels(monkeypatch):
    # union density 0.725: the built level is one dense array
    _trace_forward_backward(monkeypatch, GenParams(n_nodes=20, n_clusters=2, n_dims=3,
                                                   p_in=0.9, p_out=0.2, seed=1), "dense")


def _trace_forward_backward(monkeypatch, params, mode):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave benchmarks/ as it is
    tracing = importlib.import_module("tracing")
    mods = {name: getattr(hypermux, name) for name in tracing.MODULES}
    mods["hypermux"] = hypermux
    owners = [(tr.Adam, "step"), (mdl.StackedAdjacency, "matmul")]
    before = _state(mods, owners)

    g = generate(params).graph
    cfg = mdl.ModelConfig(n_layers=2, embed_size=4)
    params = mdl.init_params(g.n_dims, g.n_features, cfg, seed=0)
    tracer = tracing.Tracer(mods).install()
    try:
        assert ad.gather_nd is not before[0][("autodiff", "gather_nd")]
        z = mdl.forward(g, g.features, params, cfg).z_tangent
        ad.backward(ad.tsum(ad.mul(z, z)))
    finally:
        tracer.restore()

    names = {span[0] for span in tracer.spans}
    assert {"model.forward", "model.build_hierarchy", "model.propagate",
            "autodiff.backward", "autodiff.spmm_const", "autodiff.block_matmul.vjp",
            "autodiff.spmm", "autodiff.spmm.vjp"} <= names
    # the level and cost accounting read the built level's storage
    assert tracer.levels[f"model.levels.{mode}"] == 1
    assert tracer.levels["model.level_bytes"] > 0
    assert tracer.counts["autodiff.spmm.flops"] > 0 and tracer.counts["autodiff.spmm.bytes"] > 0
    # the per-layer view of block_matmul reads its arguments: one call per
    # layer and pass (one pass here), and flops from the operand shapes
    summary = tracer.summary()
    assert summary["autodiff.block_matmul"]["calls"] == cfg.n_layers * 1
    assert summary["autodiff.block_matmul.vjp"]["calls"] == cfg.n_layers * 1
    assert tracer.counts["autodiff.block_matmul.flops"] > 0
    after = _state(mods, owners)
    assert after[0].keys() == before[0].keys()
    assert all(after[0][k] is obj for k, obj in before[0].items())
    assert all(after[1][k] is obj for k, obj in before[1].items())
