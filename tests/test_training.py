import functools
import hashlib
import inspect
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sps

import hypermux.autodiff as ad
import hypermux.manifold as mf
from hypermux import model as mdl, training as tr
from hypermux.graph import MultiplexGraph, corrupt_features
from hypermux.synthetic import GenParams, generate


def small_graph(seed=1, n=6, d=3):
    return generate(GenParams(n_nodes=n, n_clusters=2, n_dims=d, p_in=0.9,
                              p_out=0.3, cluster_size_range=(2, n), seed=seed)).graph


# --- readout / discriminator -----------------------------------------------


def test_readout_single_node():
    z = np.array([[0.0, 0.7, -0.2]])
    s = tr.readout(ad.constant(z)).value
    assert np.allclose(s, z, atol=1e-9)


def test_readout_opposite_vectors_cancel():
    z = ad.constant(np.array([[0.5, -0.3], [-0.5, 0.3]]))
    assert np.allclose(tr.readout(z).value, 0.0, atol=1e-12)


def test_readout_is_column_mean():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(5, 3))
    assert np.allclose(tr.readout(ad.constant(z)).value, z.mean(axis=0),
                       atol=1e-12)


def _score(s, z, q):
    return tr.discriminate(ad.constant(s), ad.constant(z), ad.constant(q)).value


def test_discriminate_orthogonal_gives_half():
    out = _score(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.eye(2))
    assert out.shape == (1, 1) and out[0, 0] == pytest.approx(0.5)


def test_discriminate_hand_value():
    s = z = np.array([[1.0, 0.0]])
    assert _score(s, z, np.eye(2))[0, 0] == pytest.approx(0.7310585786300049, abs=1e-12)


def test_discriminate_zero_bilinear_form():
    rng = np.random.default_rng(1)
    scores = _score(rng.normal(size=(1, 3)), rng.normal(size=(7, 3)), np.zeros((3, 3)))
    assert scores.shape == (7, 1) and np.allclose(scores, 0.5)


# --- objective ---------------------------------------------------------------


def _objective(z, z_hat, q):
    return float(tr.dgi_objective(ad.constant(z), ad.constant(z_hat), ad.constant(q)).value)


def test_dgi_objective_all_half_scores():
    n, m = 4, 3
    out = _objective(np.zeros((n, m)), np.zeros((n, m)), np.eye(m))
    assert out == pytest.approx(2 * n * np.log(0.5), abs=1e-9)


def test_dgi_objective_hand_value():
    # scores (0.9, 0.8) positive and (0.1, 0.2) corrupted:
    # log .9 + log .8 + log .9 + log .8 = ln 0.5184
    got = (np.log(0.9) + np.log(0.8) + np.log(1 - 0.1) + np.log(1 - 0.2))
    assert got == pytest.approx(-0.657008, abs=1e-6)
    s = np.array([[1.0]])
    pos = np.log(np.array([0.9, 0.8]) / (1 - np.array([0.9, 0.8])))[:, None]
    neg = np.log(np.array([0.1, 0.2]) / (1 - np.array([0.1, 0.2])))[:, None]
    q = np.eye(1)
    val_pos = _score(s, pos, q).ravel()
    assert np.allclose(val_pos, [0.9, 0.8])
    # drive the full objective through constructed logits: mean(pos) is the
    # summary, so score the exact vectors through a fixed Q instead
    obj = float(np.log(val_pos).sum() + np.log(1 - _score(s, neg, q)).sum())
    assert obj == pytest.approx(-0.657008, abs=1e-6)


def test_dgi_objective_near_perfect_discrimination():
    big = 30.0
    pos = np.full((3, 1), big)
    neg = np.full((3, 1), -big)
    out = _objective(pos, neg, np.eye(1))
    # summary is mean(pos) = big > 0, so positives score ~1, corrupted ~0
    assert -1e-9 < out < 0.0 or out == 0.0


def test_dgi_objective_shape_mismatch():
    with pytest.raises(ad.ShapeError):
        _objective(np.zeros((3, 2)), np.zeros((4, 2)), np.eye(2))


# --- Adam --------------------------------------------------------------------


def make_adam(value, lr=1e-3, wd=1e-5):
    t = ad.leaf(np.array(value), name="p")
    cfg = tr.TrainConfig(learning_rate=lr, weight_decay=wd)
    return t, tr.Adam([("p", t)], cfg)


def test_adam_zero_gradient_applies_decay_only():
    t, opt = make_adam([[2.0]])
    opt.step({"p": np.zeros((1, 1))})
    assert t.value[0, 0] == pytest.approx(2.0 * (1 - 1e-3 * 1e-5), abs=1e-15)


def test_adam_first_step_bias_corrected():
    t, opt = make_adam([0.0], wd=0.0)
    opt.step({"p": np.ones(1)})
    assert t.value[0] == pytest.approx(-1e-3 / (1.0 + 1e-8), rel=1e-9)


def test_adam_constant_gradient_approaches_sign_step():
    t, opt = make_adam([0.0], wd=0.0)
    prev = 0.0
    for _ in range(300):
        prev = t.value[0]
        opt.step({"p": np.full(1, 0.5)})
    assert prev - t.value[0] == pytest.approx(1e-3, rel=1e-3)


def test_adam_rejects_non_finite_gradient():
    t, opt = make_adam([0.0])
    with pytest.raises(tr.TrainingError, match="'p'"):
        opt.step({"p": np.array([np.nan])})


# --- training loop -----------------------------------------------------------


def test_frozen_loss_stops_at_patience_plus_one():
    # a single-node graph makes the corruption a no-op, so with zero
    # learning rate the loss is exactly frozen from epoch 1 on
    g = MultiplexGraph(1, [sps.csr_matrix((1, 1))], np.array([[1.0, 2.0]]))
    cfg = mdl.ModelConfig(n_layers=1, embed_size=3, manifold=mf.EUCLIDEAN)
    tc = tr.TrainConfig(learning_rate=1e-30, max_epochs=100, patience=20, seed=0)
    out = tr.train(g, cfg, tc)
    assert out.n_epochs == 21
    assert len({r.loss for r in out.history}) == 1


def test_training_runs_to_cap_when_improving():
    g = small_graph(seed=3, n=10)
    cfg = mdl.ModelConfig(n_layers=1, embed_size=4, manifold=mf.EUCLIDEAN)
    tc = tr.TrainConfig(max_epochs=15, patience=20, seed=0)
    out = tr.train(g, cfg, tc)
    assert out.n_epochs == 15
    assert len(out.history) == 15


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_training_reduces_loss_lorentz(seed):
    graph = generate(GenParams(n_nodes=200, n_clusters=3, n_dims=5, p_in=0.2,
                               p_out=0.02, seed=seed)).graph
    cfg = mdl.ModelConfig(n_layers=2, embed_size=8, manifold=mf.LORENTZ)
    out = tr.train(graph, cfg, tr.TrainConfig(max_epochs=40, seed=seed))
    assert out.final_loss < out.history[0].loss
    assert out.max_lorentz_violation < 1e-6
    assert out.max_softmax_dev < 1e-12


def test_training_deterministic_given_seed():
    g = small_graph(seed=4, n=12)
    cfg = mdl.ModelConfig(n_layers=2, embed_size=4, manifold=mf.LORENTZ)
    tc = tr.TrainConfig(max_epochs=10, seed=5)
    a = tr.train(g, cfg, tc)
    b = tr.train(g, cfg, tc)
    assert [r.loss for r in a.history] == [r.loss for r in b.history]
    assert np.array_equal(a.z_final, b.z_final)


def test_manifold_variants_train_the_same_tangent_states():
    # feature rows beyond the ball's arctanh clamp (|h| ~ 8.4): the model
    # must not pass them through the manifold before the output
    rng = np.random.default_rng(21)
    g = small_graph(seed=4, n=12)
    x = rng.normal(size=g.features.shape)
    x *= rng.uniform(9.5, 12.0, size=(g.n_nodes, 1)) / np.linalg.norm(x, axis=1,
                                                                      keepdims=True)
    graph = MultiplexGraph(g.n_nodes, g.dims, x)
    tc = tr.TrainConfig(max_epochs=6, seed=2)
    runs = []
    for variant in ("full", "poincare", "euclidean"):
        cfg = mdl.ModelConfig.for_variant(variant, embed_size=4)
        out = tr.train(graph, cfg, tc)
        assert np.array_equal(out.z_final, ad.val(mf.lift(out.z_tangent, cfg.manifold)))
        runs.append(out)
    full = runs[0]
    for out in runs[1:]:
        assert [r.loss for r in out.history] == [r.loss for r in full.history]
        assert np.array_equal(out.z_tangent, full.z_tangent)


def test_loss_invariant_under_node_permutation():
    g = small_graph(seed=6, n=9)
    cfg = mdl.ModelConfig(n_layers=2, embed_size=4, manifold=mf.LORENTZ)
    params = mdl.init_params(g.n_dims, g.n_features, cfg, seed=0)
    q = tr.init_discriminator(cfg.embed_size)
    x_hat = corrupt_features(g.features, 77)

    def loss_for(graph, x, xh):
        hier = mdl.build_hierarchy(mdl.prepare_adjacencies(graph), params)
        return float(tr.epoch_loss(hier, x, xh, params, q, cfg)[0].value)

    base = loss_for(g, g.features, x_hat)
    perm = np.random.default_rng(8).permutation(g.n_nodes)
    p = np.eye(g.n_nodes)[perm]
    permuted = MultiplexGraph(
        g.n_nodes, [sps.csr_matrix(p @ a.toarray() @ p.T) for a in g.dims],
        g.features[perm])
    assert loss_for(permuted, permuted.features, x_hat[perm]) == \
        pytest.approx(base, abs=1e-8)


def test_train_minimizes_epoch_loss():
    # the function the gradient checks test is the one `train` minimizes
    g = small_graph(seed=4, n=12)
    cfg = mdl.ModelConfig(n_layers=2, embed_size=4, manifold=mf.LORENTZ)
    out = tr.train(g, cfg, tr.TrainConfig(max_epochs=1, seed=5))
    params = mdl.init_params(g.n_dims, g.n_features, cfg, seed=tr.derive_seed(5, 101))
    hier = mdl.build_hierarchy(mdl.prepare_adjacencies(g), params)
    x_hat = corrupt_features(g.features, tr.derive_seed(5, 202, 1))
    loss, z = tr.epoch_loss(hier, g.features, x_hat, params,
                            tr.init_discriminator(cfg.embed_size), cfg)
    assert out.history[0].loss == float(loss.value)
    assert np.array_equal(out.z_tangent, z.value)


def test_corruption_differs_across_epochs_but_is_seeded():
    g = small_graph(seed=9, n=12)
    perms = [corrupt_features(g.features, tr.derive_seed(3, 202, e))
             for e in (1, 2)]
    assert not np.array_equal(perms[0], perms[1])
    again = corrupt_features(g.features, tr.derive_seed(3, 202, 1))
    assert np.array_equal(perms[0], again)


def test_derive_seed_values_are_pinned():
    # every generated graph and every training run draws its streams from these
    assert tr.derive_seed(2024, 5, 0, 1) == 15316225742578574288
    assert tr.derive_seed(0, 0xA11CE) == 745018889893492375
    assert tr.derive_seed(3, 202, 1) == 3364442190893053516
    assert tr.derive_seed(-1, 2**70) == 557844713081670142  # keys masked to 63 bits


def test_end_to_end_gradcheck_all_parameter_groups():
    graph = small_graph(seed=1, n=6, d=3)
    cfg = mdl.ModelConfig(n_layers=2, embed_size=4, manifold=mf.LORENTZ)
    params = mdl.init_params(graph.n_dims, graph.n_features, cfg, seed=0)
    level0 = mdl.prepare_adjacencies(graph)
    x = graph.features
    x_hat = corrupt_features(x, 7)
    inputs = {name: t.value.copy() for name, t in params.named()}
    inputs["Q"] = np.eye(4)

    def build(leaves):
        p = mdl.ModelParams.from_named(leaves)
        hier = mdl.build_hierarchy(level0, p)
        return tr.epoch_loss(hier, x, x_hat, p, leaves["Q"], cfg)[0]

    assert ad.grad_check(build, inputs, epsilon=1e-5, n_coords=80) < 1e-4


def test_end_to_end_gradcheck_sparse_levels():
    # a union density below the dense cut sends layer 2 through `spmm`
    # on the stacked pattern, the path every large sparse graph takes
    # irregular degrees: on regular graphs every normalized row sums to 1
    # for every dimension, and alpha's softmax hides the degree adjoint
    rng = np.random.default_rng(3)
    n = 40
    dims = []
    for _ in range(3):
        a = np.triu(rng.random((n, n)) < 0.05, 1).astype(float)
        dims.append(sps.csr_matrix(a + a.T))
    graph = MultiplexGraph(n, dims, rng.normal(size=(n, 3))).validate()
    cfg = mdl.ModelConfig(n_layers=2, embed_size=4, manifold=mf.LORENTZ)
    level0 = mdl.prepare_adjacencies(graph)
    assert level0.union.density < mdl.DENSE_UNION_DENSITY
    params = mdl.init_params(graph.n_dims, graph.n_features, cfg, seed=0)
    rng_logits = np.random.default_rng(4)
    for layer in params.layers:  # off-uniform, so alpha's adjoint is generic
        layer.alpha_logits.value[:] = rng_logits.normal(size=layer.alpha_logits.shape)
    x = graph.features
    x_hat = corrupt_features(x, 7)
    inputs = {name: t.value.copy() for name, t in params.named()}
    inputs["Q"] = np.eye(4)

    def build(leaves):
        p = mdl.ModelParams.from_named(leaves)
        hier = mdl.build_hierarchy(level0, p)
        assert [lv.mode for lv in hier.levels] == ["const", "sparse"]
        return tr.epoch_loss(hier, x, x_hat, p, leaves["Q"], cfg)[0]

    # every coordinate: the few alpha ones reach the loss only through
    # the sparse level's values, so sampling could miss them
    n_coords = sum(v.size for v in inputs.values())
    assert ad.grad_check(build, inputs, epsilon=1e-5, n_coords=n_coords) < 1e-4


def _dgi_loss(graph, cfg, seed=0):
    """One epoch's traced loss, as `train` builds it."""
    level0 = mdl.prepare_adjacencies(graph)
    params = mdl.init_params(graph.n_dims, graph.n_features, cfg, seed=seed)
    rng = np.random.default_rng(seed)
    for layer in params.layers:  # off-uniform, so alpha's adjoint is generic
        layer.alpha_logits.value[:] = rng.normal(size=layer.alpha_logits.shape)
    hier = mdl.build_hierarchy(level0, params)
    loss, _ = tr.epoch_loss(hier, graph.features, corrupt_features(graph.features, 7),
                            params, tr.init_discriminator(cfg.embed_size), cfg)
    return loss, hier


def keep_all_backward(out):
    """Reference sweep: every node keeps its adjoint."""
    grads = {id(out): np.ones_like(out.value)}
    for node in reversed(ad._toposort(out)):
        g = grads.get(id(node))
        if node._vjp is None or g is None:
            continue
        for parent, gp in zip(node._parents, node._vjp(g)):
            if gp is not None and parent.requires_grad:
                grads[id(parent)] = gp if id(parent) not in grads else grads[id(parent)] + gp
    return grads


@pytest.mark.parametrize("p_in, mode", [(0.15, "sparse"), (0.9, "dense")])
def test_backward_frees_interior_adjoints(p_in, mode):
    graph = generate(GenParams(n_nodes=60, n_clusters=3, n_dims=4, p_in=p_in,
                               p_out=0.02, seed=8)).graph
    cfg = mdl.ModelConfig(n_layers=2, embed_size=5)
    loss, hier = _dgi_loss(graph, cfg)
    assert [lv.mode for lv in hier.levels] == ["const", mode]
    ad.backward(loss)
    nodes = ad._toposort(loss)
    leaves = [t for t in nodes if t._vjp is None]
    assert all(t.grad is None for t in nodes if t._vjp is not None)
    # layer 2's alpha builds only the last aggregate, which no layer reads
    assert sorted(t.name for t in leaves) == sorted(
        [f"layer1.W{d}" for d in range(4)] + ["layer1.alpha", "layer1.beta", "layer2.W0",
                                              "layer2.W1", "layer2.beta", "Q"])
    got = [t.grad.copy() for t in leaves]
    want = keep_all_backward(loss)
    assert all(np.array_equal(a, want[id(t)]) for a, t in zip(got, leaves))
    ad.backward(loss)  # the same tape again gives the same gradients
    assert all(np.array_equal(a, t.grad) for a, t in zip(got, leaves))


def test_backward_memory_stays_below_one_stacked_level():
    # sparse union (density ~0.08, above the 5% switch of the sampled
    # product): the parent of this change held the (k*N, N) values
    # adjoint and every interior adjoint after the sweep
    graph = generate(GenParams(n_nodes=600, n_clusters=5, n_dims=6, p_in=0.15,
                               p_out=0.015, seed=2)).graph
    loss, hier = _dgi_loss(graph, mdl.ModelConfig(n_layers=2, embed_size=16))
    level = hier.levels[1]
    assert level.mode == "sparse" and level.n_blocks == 3
    one_level = level.n_blocks * 600 * 600 * 8
    tracemalloc.start()
    try:
        ad.backward(loss)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < one_level
    assert after < 1 << 20


@pytest.mark.parametrize("p_in, p_out, mode", [(0.15, 0.02, "sparse"), (0.9, 0.3, "dense")])
def test_epoch_tape_keeps_each_activation_once(p_in, p_out, mode):
    # each activation runs inside the product that feeds it, so the tape
    # holds no pre-activation copy of a layer's states or of an aggregate
    n, m = 60, 5
    graph = generate(GenParams(n_nodes=n, n_clusters=3, n_dims=6, p_in=p_in,
                               p_out=p_out, seed=8)).graph
    loss, hier = _dgi_loss(graph, mdl.ModelConfig(n_layers=3, embed_size=m))
    schedule = mdl.resolve_dim_schedule(6, 3)
    assert schedule == (6, 3, 2, 1) and [lv.mode for lv in hier.levels] == ["const", mode, mode]
    nnz = hier.levels[0].union.nnz
    tape = ad._toposort(loss)  # parents before children
    reads = {}  # id -> the layers whose weights a node was computed from
    for t in tape:
        reads[id(t)] = set().union(*(reads.get(id(p), set()) for p in t._parents))
        if ".W" in t.name:
            reads[id(t)].add(t.name.split(".")[0])
    for l in range(1, 4):
        states = [t for t in tape if t.shape == (schedule[l - 1] * n, 2 * m)
                  and f"layer{l}" in reads[id(t)]]
        assert len(states) == 1  # the clean and the corrupted pass side by side
    for l, level in enumerate(hier.levels[1:], start=1):
        assert [t.shape for t in tape if t is not level.values].count((schedule[l], nnz)) == 1
    assert all(t.shape != (schedule[-1], nnz) for t in tape)  # the last aggregate


PROBE_GRAPHS = {  # 60 nodes, 4 dimensions: a sparse and a dense union
    "sparse": GenParams(n_nodes=60, n_clusters=3, n_dims=4, p_in=0.15, p_out=0.02, seed=8),
    "dense": GenParams(n_nodes=60, n_clusters=3, n_dims=4, p_in=0.9, p_out=0.02, seed=8),
}


@pytest.mark.parametrize("mode", sorted(PROBE_GRAPHS))
def test_one_epoch_tape_in_memory_at_a_time(mode, monkeypatch):
    # each pass's states are part of its epoch's tape: none of the previous
    # epoch's may still be alive when the next epoch's pass starts
    graph = generate(PROBE_GRAPHS[mode]).graph
    assert mdl.prepare_adjacencies(graph).union.mode == mode
    states, alive = [], []  # per epoch: weak references to its passes' states
    propagate, epoch_loss = mdl.propagate, tr.epoch_loss

    def recorded_propagate(*args, **kwargs):
        h = propagate(*args, **kwargs)
        states[-1].append(weakref.ref(h.value))
        return h

    def counted_epoch_loss(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in states[-1]) if states else 0)
        states.append([])
        return epoch_loss(*args, **kwargs)

    monkeypatch.setattr(mdl, "propagate", recorded_propagate)
    monkeypatch.setattr(tr, "epoch_loss", counted_epoch_loss)
    tr.train(graph, mdl.ModelConfig(n_layers=2, embed_size=5),
             tr.TrainConfig(max_epochs=4, patience=5))
    assert [len(s) for s in states] == [1, 1, 1, 1]  # one joint pass per epoch
    assert alive == [0, 0, 0, 0]


# a dense union whose 3-layer schedule (6, 3, 2, 1) builds two dense levels
DENSE_SIX_DIMS = GenParams(n_nodes=60, n_clusters=3, n_dims=6, p_in=0.9, p_out=0.3, seed=8)


def test_dense_levels_refill_one_operator_across_epochs(monkeypatch):
    graph = generate(DENSE_SIX_DIMS).graph
    assert mdl.prepare_adjacencies(graph).union.mode == "dense"
    built = []  # per epoch: each dense level's operator array, and its bits when built
    build = mdl.build_hierarchy

    def recorded_build(*args, **kwargs):
        hier = build(*args, **kwargs)
        built.append([(lv.op.value, lv.op.value.tobytes(),
                       lv.union.to_dense(lv.values).reshape(lv.op.shape).tobytes())
                      for lv in hier.levels[1:]])
        return hier

    monkeypatch.setattr(mdl, "build_hierarchy", recorded_build)
    tr.train(graph, mdl.ModelConfig(n_layers=3, embed_size=5),
             tr.TrainConfig(max_epochs=4, patience=5))
    assert len(built) == 4 and all(len(levels) == 2 for levels in built)  # schedule 6, 3, 2, 1
    assert all(got == want for levels in built for _, got, want in levels)
    for l, (first, _, _) in enumerate(built[0]):
        assert all(np.shares_memory(levels[l][0], first) for levels in built[1:])
    assert not np.shares_memory(built[0][0][0], built[0][1][0])


def test_hierarchies_built_outside_train_share_no_operator():
    graph = generate(DENSE_SIX_DIMS).graph
    level0 = mdl.prepare_adjacencies(graph)
    assert level0.union.mode == "dense"
    params = mdl.init_params(6, graph.n_features, mdl.ModelConfig(n_layers=3, embed_size=5))
    first, second = (mdl.build_hierarchy(level0, params) for _ in range(2))
    for a, b in zip(first.levels[1:], second.levels[1:]):
        assert not np.shares_memory(a.op.value, b.op.value)
        assert a.op.value.tobytes() == b.op.value.tobytes()


def test_history_csv_format(tmp_path):
    rows = [tr.HistoryRow(1, -0.5, 2.25, 3), tr.HistoryRow(2, -0.75)]
    path = tmp_path / "history.csv"
    tr.write_history_csv(rows, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epoch,loss,id,lid"
    assert lines[1] == "1,-0.5,2.25,3"
    assert lines[2] == "2,-0.75,,"


def test_telemetry_records_id_and_lid():
    graph = generate(GenParams(n_nodes=40, n_clusters=2, n_dims=3, p_in=0.5,
                               p_out=0.05, seed=12)).graph
    cfg = mdl.ModelConfig(n_layers=1, embed_size=4, manifold=mf.EUCLIDEAN)
    out = tr.train(graph, cfg, tr.TrainConfig(max_epochs=3, seed=0, telemetry=True))
    assert all(r.id_estimate is not None and r.lid_estimate is not None
               for r in out.history)
    assert all(1 <= r.lid_estimate <= 4 for r in out.history)


# --- kernel pool -------------------------------------------------------------

POOL_GRAPHS = {  # a dense union, and sparse unions above and below the 5% switch
    "dense": GenParams(n_nodes=60, n_clusters=2, n_dims=4, p_in=0.6, p_out=0.2, seed=3),
    "sparse": GenParams(n_nodes=200, n_clusters=4, n_dims=5, p_in=0.3, p_out=0.02, seed=4),
    "sparse-per-entry": GenParams(n_nodes=400, n_clusters=8, n_dims=3, p_in=0.1,
                                  p_out=0.002, seed=5),
}


def _trained_bits(graph, workers, monkeypatch):
    """Losses and Z of a 3-epoch training with `workers` pool threads, and
    every parameter's gradient of one more epoch's loss."""
    monkeypatch.setattr(ad, "_WORKERS", workers)
    cfg = mdl.ModelConfig.for_variant("full", embed_size=8)
    result = tr.train(graph, cfg, tr.TrainConfig(max_epochs=3, patience=5, seed=2))
    hier = mdl.build_hierarchy(mdl.prepare_adjacencies(graph), result.params)
    x = graph.features
    loss, _ = tr.epoch_loss(hier, x, corrupt_features(x, 9), result.params,
                            result.discriminator, cfg)
    ad.backward(loss)
    named = result.params.trainable() + [("Q", result.discriminator)]
    return {"losses": np.array([r.loss for r in result.history]), "z": result.z_tangent,
            **{name: ad.grad_or_zero(t) for name, t in named}}


@pytest.mark.parametrize("case", sorted(POOL_GRAPHS))
def test_threaded_training_equals_serial_to_the_bit(case, monkeypatch):
    graph = generate(POOL_GRAPHS[case]).graph
    union = mdl.prepare_adjacencies(graph).union
    assert union.mode == case.split("-")[0]
    assert (union.nnz * 20 > union.n ** 2) == (case != "sparse-per-entry")
    # several row blocks (or entry blocks) per kernel of the sampled product
    monkeypatch.setattr(ad, "SAMPLE_BLOCK_BYTES", 16 << 10)
    serial = _trained_bits(graph, 0, monkeypatch)
    threaded = _trained_bits(graph, 1, monkeypatch)
    assert serial.keys() == threaded.keys() and len(serial) > 10
    assert [k for k in serial if serial[k].tobytes() != threaded[k].tobytes()] == []


def _two_pass_loss(hier, x, x_hat, params, q, cfg):
    """The epoch loss from one `propagate` per pass, clean and corrupted."""
    z = mdl.propagate(hier, x, params, cfg)
    z_hat = mdl.propagate(hier, x_hat, params, cfg)
    return ad.neg(tr.dgi_objective(z, z_hat, q)), z


@pytest.mark.parametrize("case", sorted(POOL_GRAPHS))
def test_joint_pass_matches_two_passes(case):
    # the joint pass sums the two passes' shares of each parameter adjoint
    # inside its products, and its BLAS calls take twice the rows, so it
    # may round differently: within 1e-12 (loss, Z) and 1e-10 (gradients)
    # of the largest magnitude
    graph = generate(POOL_GRAPHS[case]).graph
    cfg = mdl.ModelConfig.for_variant("full", embed_size=8)
    trained = tr.train(graph, cfg, tr.TrainConfig(max_epochs=3, patience=5, seed=2))
    params, q = trained.params, trained.discriminator
    hier = mdl.build_hierarchy(mdl.prepare_adjacencies(graph), params)
    x = graph.features
    x_hat = corrupt_features(x, 9)
    named = params.trainable() + [("Q", q)]
    runs = []
    for epoch_loss in (_two_pass_loss, tr.epoch_loss):
        loss, z = epoch_loss(hier, x, x_hat, params, q, cfg)
        ad.backward(loss)
        runs.append((float(loss.value), z.value.copy(),
                     {name: ad.grad_or_zero(t).copy() for name, t in named}))
    (loss2, z2, grads2), (loss1, z1, grads1) = runs
    assert z1.shape == z2.shape == (graph.n_nodes, 8)
    assert abs(loss1 - loss2) <= 1e-12 * abs(loss2)
    assert np.abs(z1 - z2).max() <= 1e-12 * np.abs(z2).max()
    assert len(grads2) >= 10 and grads1.keys() == grads2.keys()
    for name, want in grads2.items():
        assert np.abs(grads1[name] - want).max() <= 1e-10 * np.abs(want).max(), name


def test_ops_are_entered_on_the_calling_thread(monkeypatch):
    # a tracer keeps its open spans on one stack: every public autodiff and
    # model function, and every adjoint, runs on the thread that trains,
    # while the kernels' second halves run on the pool
    monkeypatch.setattr(ad, "_WORKERS", 1)
    callers, kernel_threads = set(), set()

    def recorded(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            callers.add(threading.get_ident())
            out = fn(*args, **kwargs)
            if isinstance(out, ad.Tensor) and out._vjp is not None:
                inner = out._vjp

                def vjp(g):
                    callers.add(threading.get_ident())
                    return inner(g)

                out._vjp = vjp
            return out

        return wrapper

    wrapped = {fn: recorded(fn) for mod in (ad, mdl) for name, fn in vars(mod).items()
               if inspect.isfunction(fn) and not name.startswith("_")
               and fn.__module__ == mod.__name__}
    for mod in (ad, mdl, tr):
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                monkeypatch.setattr(mod, name, wrapped[obj])
    blocks_times = ad.StackedOperator.blocks_times

    def kernel(self, *args):
        kernel_threads.add(threading.get_ident())
        return blocks_times(self, *args)

    monkeypatch.setattr(ad.StackedOperator, "blocks_times", kernel)
    graph = generate(POOL_GRAPHS["sparse"]).graph
    tr.train(graph, mdl.ModelConfig.for_variant("full", embed_size=8),
             tr.TrainConfig(max_epochs=2, patience=5))
    assert len(wrapped) > 20 and callers == {threading.get_ident()}
    assert len(kernel_threads) == 2


# sha256 of the losses, Z and every epoch's gradients of a 3-epoch training,
# recorded once the clean and the corrupted pass ran as one joint pass
# (`test_joint_pass_matches_two_passes` bounds how far that moved them)
TRAINING_DIGESTS = {
    "dense": "5b7d9c0b6535645a6843a020de0f087b6f2995c982b85744a9ee2c2a0cdc9817",
    "sparse": "f56756e1988a7786af78626bb2dddf35f8cde738e8db224a83cb2ecca75bb8ce",
}


@pytest.mark.parametrize("case", sorted(TRAINING_DIGESTS))
def test_training_matches_recorded_digests(case, monkeypatch):
    graph = generate(POOL_GRAPHS[case]).graph
    assert mdl.prepare_adjacencies(graph).union.mode == case
    grads = []
    step = tr.Adam.step

    def recorded_step(self, g):
        grads.append({name: a.copy() for name, a in g.items()})
        return step(self, g)

    monkeypatch.setattr(tr.Adam, "step", recorded_step)
    result = tr.train(graph, mdl.ModelConfig.for_variant("full", embed_size=8),
                      tr.TrainConfig(max_epochs=3, patience=5, seed=2))
    assert len(grads) == 3
    h = hashlib.sha256(np.array([r.loss for r in result.history]).tobytes())
    h.update(result.z_tangent.tobytes())
    for g in grads:
        for name in sorted(g):
            h.update(name.encode())
            h.update(g[name].tobytes())
    assert h.hexdigest() == TRAINING_DIGESTS[case]
