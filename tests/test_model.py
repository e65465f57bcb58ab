"""Model-layer tests.

`FIXTURE_DIMS` is the documented 3-dimension hierarchy fixture used by the
latent-structure tests: five nodes u1..u5 (0-indexed), with

    dimension 0:  u1 - u2
    dimension 1:  u2 - u3
    dimension 2:  u3 - u5,  u5 - u4

No input dimension connects u1 to u3 (at any path length), yet a latent
dimension built by combining dimensions 0 and 1 does; likewise u3 - u4
appears only through two-hop composition inside dimension 2. Neither pair
is a direct edge anywhere in the input.
"""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings, strategies as st

import hypermux.autodiff as ad
import hypermux.manifold as mf
from hypermux import model as mdl
from hypermux.graph import MultiplexGraph, normalize_adjacency


def csr_from_edges(n, edges):
    a = np.zeros((n, n))
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0
    return sps.csr_matrix(a)


FIXTURE_DIMS = [
    csr_from_edges(5, [(0, 1)]),
    csr_from_edges(5, [(1, 2)]),
    csr_from_edges(5, [(2, 4), (4, 3)]),
]


def random_graph(seed=0, n=10, d=3, f=4):
    rng = np.random.default_rng(seed)
    dims = []
    for _ in range(d):
        a = (rng.random((n, n)) < 0.35).astype(float)
        a = np.triu(a, 1)
        dims.append(sps.csr_matrix(a + a.T))
    return MultiplexGraph(n, dims, rng.normal(size=(n, f))).validate()


# --- dim schedule -----------------------------------------------------------


def test_default_schedule_two_layers():
    assert mdl.resolve_dim_schedule(40, 2) == (40, 20, 10)
    assert mdl.resolve_dim_schedule(3, 2) == (3, 2, 1)
    assert mdl.resolve_dim_schedule(10, 1) == (10, 5)


def test_schedule_degenerate_single_dimension():
    assert mdl.resolve_dim_schedule(1, 2) == (1, 1, 1)


# --- parameters -------------------------------------------------------------


def test_init_params_shapes_and_attention_start_uniform():
    cfg = mdl.ModelConfig(n_layers=2, embed_size=8, manifold=mf.LORENTZ)
    params = mdl.init_params(6, 5, cfg, seed=0)
    assert [w.value.shape for w in params.layers[0].weights] == [(5, 8)] * 6
    assert [w.value.shape for w in params.layers[1].weights] == [(8, 8)] * 3
    assert params.layers[0].alpha_logits.value.shape == (3, 6)
    assert params.layers[1].alpha_logits.value.shape == (2, 3)
    assert np.all(params.layers[0].alpha_logits.value == 0.0)
    assert params.layers[0].beta_logits.value.shape == (1, 6)
    bound = np.sqrt(6.0 / (5 + 8))
    w = np.concatenate([w.value.ravel() for w in params.layers[0].weights])
    assert np.abs(w).max() <= bound


def test_weights_ablation_freezes_alpha():
    cfg = mdl.ModelConfig.for_variant("weights-ablation", embed_size=4)
    params = mdl.init_params(4, 3, cfg, seed=0)
    assert not params.layers[0].alpha_logits.requires_grad
    assert params.layers[0].beta_logits.requires_grad
    names = [n for n, _ in params.trainable()]
    assert not any("alpha" in n for n in names)


def test_variant_table():
    assert mdl.ModelConfig.for_variant("full").manifold == mf.LORENTZ
    assert mdl.ModelConfig.for_variant("euclidean-single").n_layers == 1
    assert mdl.ModelConfig.for_variant("layers-ablation").n_layers == 1
    with pytest.raises(mdl.ModelConfigError):
        mdl.ModelConfig.for_variant("nope")


# --- per-step numpy oracles for forward ------------------------------------


def _softmax(logits):
    """Softmax over the last axis, the numpy oracle of `ad.softmax`."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def hyperbolic_gcn_layer(h, a_hat, w, kind=mf.LORENTZ, slope=0.01):
    """One propagation step, exp0( leaky_relu( A . log0(H) . W ) ); the
    classic GCN rule on the euclidean manifold."""
    x = a_hat @ (mf.to_euclidean(h, kind) @ w)
    return mf.lift(np.where(x > 0, x, slope * x), kind)


def consensus(per_dim, beta_logits, kind=mf.LORENTZ):
    """Softmax-weighted sum of per-dimension states in tangent coordinates."""
    weights = _softmax(np.reshape(beta_logits, -1))
    return mf.lift(sum(b * mf.to_euclidean(h, kind) for b, h in zip(weights, per_dim)),
                   kind)


def hierarchical_aggregate(mats, alpha_logits):
    """phi(sum_i alpha_ji A_i) per latent j, alpha the row softmax of the logits."""
    stacked = np.tensordot(_softmax(alpha_logits), np.stack(mats), axes=1)
    return list(np.maximum(stacked, 0.0))


def test_gcn_layer_euclidean_is_classic_rule():
    rng = np.random.default_rng(1)
    a = normalize_adjacency(csr_from_edges(4, [(0, 1), (1, 2), (2, 3)]))
    h = rng.normal(size=(4, 3))
    w = rng.normal(size=(3, 2))
    out = hyperbolic_gcn_layer(h, a, w, kind=mf.EUCLIDEAN, slope=0.2)
    lin = a.toarray() @ h @ w
    assert np.allclose(ad.val(out), np.where(lin > 0, lin, 0.2 * lin), atol=1e-12)


def test_gcn_layer_identity_when_adjacency_and_weights_identity():
    rng = np.random.default_rng(2)
    for kind in (mf.EUCLIDEAN, mf.POINCARE, mf.LORENTZ):
        h0 = rng.normal(size=(5, 3)) * 0.4
        h = ad.val(mf.lift(h0, kind))
        width = 3
        out = hyperbolic_gcn_layer(h, np.eye(5), np.eye(width), kind=kind, slope=1.0)
        assert np.allclose(ad.val(out), h, atol=1e-9)


def test_gcn_layer_keeps_hyperboloid_constraint():
    rng = np.random.default_rng(3)
    a = normalize_adjacency(csr_from_edges(3, [(0, 1), (1, 2)]))
    h = ad.val(mf.lift(rng.normal(size=(3, 2)), mf.LORENTZ))
    w = rng.normal(size=(2, 2)) * 0.7
    out = hyperbolic_gcn_layer(h, a, w, kind=mf.LORENTZ)
    assert mf.lorentz_violation(ad.val(out)) < 1e-6


def test_aggregate_singleton_softmax():
    a = FIXTURE_DIMS[0].toarray()
    (out,) = hierarchical_aggregate([a], np.zeros((1, 1)))
    assert np.allclose(out, np.maximum(a, 0.0), atol=1e-12)


def test_aggregate_uniform_logits_average_inputs():
    a1, a2 = FIXTURE_DIMS[0].toarray(), FIXTURE_DIMS[1].toarray()
    (out,) = hierarchical_aggregate([a1, a2], np.zeros((1, 2)))
    assert np.allclose(out, (a1 + a2) / 2.0, atol=1e-12)


def test_aggregate_saturated_logits_select_one_input():
    a1, a2 = FIXTURE_DIMS[0].toarray(), FIXTURE_DIMS[1].toarray()
    (out,) = hierarchical_aggregate([a1, a2], np.array([[10.0, -10.0]]))
    assert np.abs(out - a1).max() < 1e-4


def test_consensus_single_input_identity():
    rng = np.random.default_rng(4)
    h = ad.val(mf.lift(rng.normal(size=(6, 3)), mf.LORENTZ))
    out = consensus([h], np.zeros((1, 1)), kind=mf.LORENTZ)
    assert np.allclose(ad.val(out), h, atol=1e-9)


def test_consensus_uniform_weights_on_equal_inputs():
    rng = np.random.default_rng(5)
    h = rng.normal(size=(6, 3))
    out = consensus([h, h.copy()], np.zeros((1, 2)), kind=mf.EUCLIDEAN)
    assert np.allclose(ad.val(out), h, atol=1e-12)


def test_consensus_saturated_weights_select_one_input():
    rng = np.random.default_rng(6)
    h1, h2 = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
    out = consensus([h1, h2], np.array([[10.0, -10.0]]), kind=mf.EUCLIDEAN)
    assert np.abs(ad.val(out) - h1).max() < 1e-4


# --- full forward -----------------------------------------------------------


def test_forward_single_layer_single_dim_equals_closed_form():
    rng = np.random.default_rng(7)
    g = MultiplexGraph(6, [csr_from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])],
                       rng.normal(size=(6, 3)))
    cfg = mdl.ModelConfig(n_layers=1, embed_size=4, manifold=mf.EUCLIDEAN)
    params = mdl.init_params(1, 3, cfg, seed=0)
    result = mdl.forward(g, g.features, params, cfg)
    a_hat = normalize_adjacency(g.dims[0]).toarray()
    lin = a_hat @ g.features @ params.layers[0].weights[0].value
    expected = np.where(lin > 0, lin, cfg.leaky_slope * lin)
    assert np.abs(ad.val(result.z) - expected).max() < 1e-12


def test_forward_schedule_bookkeeping():
    g = random_graph(seed=8, n=10, d=4)
    cfg = mdl.ModelConfig(n_layers=2, embed_size=5, manifold=mf.EUCLIDEAN)
    params = mdl.init_params(4, 4, cfg, seed=1)
    result = mdl.forward(g, g.features, params, cfg)
    # the last layer's aggregate feeds no layer: raw values only, no level
    assert [lv.n_blocks for lv in result.hierarchy.levels] == [4, 2]
    assert [len(raw) for raw in result.hierarchy.raw_aggregated] == [2, 1]
    assert ad.val(result.z).shape == (10, 5)


def test_forward_matches_per_step_public_ops():
    # the fused stacked pass must agree with the literal per-dimension oracles
    g = random_graph(seed=9, n=8, d=3)
    cfg = mdl.ModelConfig(n_layers=2, embed_size=4, manifold=mf.LORENTZ)
    params = mdl.init_params(3, 4, cfg, seed=2)
    result = mdl.forward(g, g.features, params, cfg)

    normalized = [normalize_adjacency(a) for a in g.dims]
    h = ad.val(mf.lift(g.features, mf.LORENTZ))
    current = normalized
    for layer in params.layers:
        per_dim = [hyperbolic_gcn_layer(h, a, layer.weights[d].value,
                                        kind=mf.LORENTZ, slope=cfg.leaky_slope)
                   for d, a in enumerate(current)]
        h = consensus(per_dim, layer.beta_logits.value, kind=mf.LORENTZ)
        raw = hierarchical_aggregate([a.toarray() if sps.issparse(a) else a
                                      for a in current],
                                     layer.alpha_logits.value)
        current = [normalize_adjacency(sps.csr_matrix(m)).toarray() for m in raw]
    assert np.abs(ad.val(result.z) - h).max() < 1e-9


def test_forward_lorentz_constraint_throughout():
    g = random_graph(seed=10, n=12, d=4)
    cfg = mdl.ModelConfig(n_layers=2, embed_size=6, manifold=mf.LORENTZ)
    params = mdl.init_params(4, 4, cfg, seed=3)
    result = mdl.forward(g, g.features, params, cfg)
    assert result.lorentz_violation < 1e-6
    assert result.softmax_dev < 1e-12


def test_forward_node_permutation_equivariance():
    g = random_graph(seed=11, n=10, d=3)
    cfg = mdl.ModelConfig(n_layers=2, embed_size=4, manifold=mf.LORENTZ)
    params = mdl.init_params(3, 4, cfg, seed=4)
    z = ad.val(mdl.forward(g, g.features, params, cfg).z)

    perm = np.random.default_rng(12).permutation(10)
    p = np.eye(10)[perm]
    permuted = MultiplexGraph(
        10, [sps.csr_matrix(p @ a.toarray() @ p.T) for a in g.dims],
        g.features[perm])
    z_perm = ad.val(mdl.forward(permuted, permuted.features, params, cfg).z)
    assert np.abs(z_perm - z[perm]).max() < 1e-9


def test_forward_rejects_mismatched_params():
    g = random_graph(seed=13, n=8, d=3)
    cfg = mdl.ModelConfig(n_layers=2, embed_size=4, manifold=mf.EUCLIDEAN)
    params = mdl.init_params(4, 4, cfg, seed=0)  # built for D=4, graph has D=3
    with pytest.raises(mdl.ModelConfigError):
        mdl.forward(g, g.features, params, cfg)


def union_support(graph):
    support = np.eye(graph.n_nodes, dtype=bool)
    for a in graph.dims:
        support |= a.toarray() != 0
    return support


def test_level_support_equals_union_pattern():
    g = random_graph(seed=14, n=40, d=4, f=3)
    cfg = mdl.ModelConfig(n_layers=2, embed_size=4, manifold=mf.EUCLIDEAN)
    params = mdl.init_params(4, 3, cfg, seed=5)
    rng = np.random.default_rng(14)
    for layer in params.layers:
        layer.alpha_logits.value[:] = 3.0 * rng.normal(size=layer.alpha_logits.shape)
    hier = mdl.build_hierarchy(mdl.prepare_adjacencies(g), params)
    union = hier.levels[0].union
    support = union_support(g)
    assert np.array_equal(union.to_dense(np.ones((1, union.nnz)))[0] != 0, support)
    schedule = mdl.resolve_dim_schedule(4, cfg.n_layers)
    for l in range(cfg.n_layers):
        raw = np.stack(hier.raw_matrices(l))
        assert raw.shape == (schedule[l + 1], 40, 40)
        for block in raw:
            assert np.array_equal(block != 0, support)
    for level in hier.levels[1:]:
        normalized = union.to_dense(ad.val(level.values))
        assert normalized.shape == (level.n_blocks, 40, 40)
        for block in normalized:
            assert np.array_equal(block != 0, support)


def sparse_ring_graph(n, d, seed):
    """d dimensions, each one random ring over the n nodes (degree 2)."""
    rng = np.random.default_rng(seed)
    dims = []
    for _ in range(d):
        order = rng.permutation(n)
        dims.append(csr_from_edges(n, zip(order, np.roll(order, 1))))
    return MultiplexGraph(n, dims, rng.normal(size=(n, 3))).validate()


@pytest.mark.parametrize("graph, mode", [
    (sparse_ring_graph(40, 3, seed=0), "sparse"),  # union density <= 7/40
    (random_graph(seed=15, n=20, d=3, f=3), "dense"),
], ids=["sparse", "dense"])
def test_storage_mode_follows_union_density(graph, mode):
    cfg = mdl.ModelConfig(n_layers=2, embed_size=4, manifold=mf.EUCLIDEAN)
    level0 = mdl.prepare_adjacencies(graph)
    density = union_support(graph).mean()
    assert level0.union.density == pytest.approx(density)
    assert (density > mdl.DENSE_UNION_DENSITY) == (mode == "dense")
    assert level0.union.mode == mode
    params = mdl.init_params(graph.n_dims, 3, cfg, seed=6)
    assert level0.union._stacked == {}
    hier = mdl.build_hierarchy(level0, params)
    assert [lv.mode for lv in hier.levels] == ["const", mode]
    # the first hierarchy builds the stacked patterns of the sparse levels
    # it propagates through (schedule (3, 2, 1): k = 2), and only those
    assert sorted(level0.union._stacked) == ([2] if mode == "sparse" else [])


@pytest.mark.parametrize("p, mode", [(0.05, "sparse"), (0.5, "dense")])
def test_level0_is_the_normalized_inputs_to_the_bit(p, mode):
    # a self-loop in dimension 0, node n-1 isolated everywhere, dimension 2 edgeless
    n, rng = 30, np.random.default_rng(21)
    dims = []
    for _ in range(2):
        a = np.triu(rng.random((n, n)) < p, 1).astype(float)
        a[-1, :] = a[:, -1] = 0.0
        dims.append(a + a.T)
    dims[0][3, 3] = 1.0
    dims.append(np.zeros((n, n)))
    x = rng.normal(size=(n, 4))
    g = MultiplexGraph(n, [sps.csr_matrix(a) for a in dims], x).validate()
    level0 = mdl.prepare_adjacencies(g)
    assert level0.union.mode == mode and level0.mode == "const"
    mats = [normalize_adjacency(a) for a in g.dims]
    for d, m in enumerate(mats):
        assert np.array_equal(level0.union.to_dense(level0.values[d]), m.toarray())
    got = level0.matmul(ad.constant(x)).value
    assert np.array_equal(got, np.vstack([m @ x for m in mats]))


@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_hierarchy_holds_only_levels_propagate_reads(n_layers, monkeypatch):
    g = sparse_ring_graph(60, 6, seed=1)  # union density <= 13/60: sparse
    cfg = mdl.ModelConfig(n_layers=n_layers, embed_size=4, manifold=mf.EUCLIDEAN)
    schedule = mdl.resolve_dim_schedule(6, n_layers)
    level0 = mdl.prepare_adjacencies(g)
    assert level0.union.mode == "sparse"
    params = mdl.init_params(6, 3, cfg, seed=0)
    hier = mdl.build_hierarchy(level0, params)
    # stacked patterns only for the levels a layer propagates through
    assert sorted(level0.union._stacked) == sorted(schedule[1:-1])
    assert [lv.n_blocks for lv in hier.levels] == list(schedule[:-1])
    # raw values for every layer, the last one included
    assert [raw.shape for raw in hier.raw_flat] == [(k, level0.union.nnz)
                                                     for k in schedule[1:]]
    read = []
    matmul = mdl.StackedAdjacency.matmul
    monkeypatch.setattr(mdl.StackedAdjacency, "matmul",
                        lambda level, x: read.append(level) or matmul(level, x))
    mdl.propagate(hier, g.features, params, cfg)
    assert [id(lv) for lv in read] == [id(lv) for lv in hier.levels]
    assert sorted(level0.union._stacked) == sorted(schedule[1:-1])


# sha256 of raw_flat[-1] as recorded when the last aggregate was still a tape node
LAST_AGGREGATE_DIGESTS = {
    "dense": "ba71d27fe377683de3c59caf78cdbb9bb7c0f03735da02e40484c10636914d05",
    "sparse": "8942fe0987a7b2ff983d7fe904fe1671bc11a660d37b41afc18abc69c5fc3af9",
}


@pytest.mark.parametrize("mode", sorted(LAST_AGGREGATE_DIGESTS))
def test_last_aggregate_is_plain_numpy_with_the_same_bits(mode, monkeypatch):
    g = random_graph(seed=14, n=40, d=4, f=3) if mode == "dense" else sparse_ring_graph(60, 6, 1)
    cfg = mdl.ModelConfig(n_layers=2, embed_size=4, manifold=mf.EUCLIDEAN)
    params = mdl.init_params(g.n_dims, 3, cfg, seed=5)
    rng = np.random.default_rng(14)
    for layer in params.layers:
        layer.alpha_logits.value[:] = 3.0 * rng.normal(size=layer.alpha_logits.shape)
    last_alpha = params.layers[-1].alpha_logits
    assert last_alpha.requires_grad
    made = []
    node = ad._node
    monkeypatch.setattr(ad, "_node", lambda value, parents, vjp: made.append(
        (value, parents)) or node(value, parents, vjp))
    level0 = mdl.prepare_adjacencies(g)
    assert level0.union.mode == mode
    hier = mdl.build_hierarchy(level0, params)
    raw = hier.raw_flat[-1]
    assert hashlib.sha256(raw.tobytes()).hexdigest() == LAST_AGGREGATE_DIGESTS[mode]
    # no layer reads it, so no node is made from its alpha or holds it
    assert made and not any(last_alpha in parents for _, parents in made)
    assert not any(np.shares_memory(value, raw) for value, _ in made)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_dense_oracle_support_stays_inside_union(seed):
    # the dense per-step oracles know nothing of the union pattern
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(4, 12)), int(rng.integers(2, 5))
    dims = []
    for _ in range(d):
        a = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.5), 1).astype(float)
        dims.append(sps.csr_matrix(a + a.T))
    g = MultiplexGraph(n, dims, rng.normal(size=(n, 2))).validate()
    cfg = mdl.ModelConfig(n_layers=2, embed_size=3, manifold=mf.EUCLIDEAN)
    params = mdl.init_params(d, 2, cfg, seed=0)
    for layer in params.layers:
        layer.alpha_logits.value[:] = 3.0 * rng.normal(size=layer.alpha_logits.shape)
    hier = mdl.build_hierarchy(mdl.prepare_adjacencies(g), params)
    support = union_support(g)
    current = [normalize_adjacency(a).toarray() for a in g.dims]
    for l, layer in enumerate(params.layers):
        raw = hierarchical_aggregate(current, layer.alpha_logits.value)
        current = [normalize_adjacency(sps.csr_matrix(m)).toarray() for m in raw]
        for m in (*raw, *current):
            assert not np.any(m[~support])
        assert np.abs(np.stack(raw) - np.stack(hier.raw_matrices(l))).max() < 1e-12
        if l + 1 < len(hier.levels):  # the last layer's aggregate is never normalized
            level = hier.levels[l + 1]
            got = level.union.to_dense(ad.val(level.values))
            assert np.abs(np.stack(current) - got).max() < 1e-12
    assert len(hier.levels) == cfg.n_layers


# --- latent hierarchy fixture (documented above) ----------------------------


def reachable(support, src, dst):
    reach = np.eye(support.shape[0], dtype=bool) | (support > 0)
    for _ in range(support.shape[0]):
        reach = reach | (reach @ reach)
    return bool(reach[src, dst])


def test_fixture_connection_absent_from_every_input_dimension():
    for a in FIXTURE_DIMS:
        assert not reachable(a.toarray(), 0, 2)
    assert not any(a[0, 2] or a[2, 3] for a in FIXTURE_DIMS)


def test_hierarchy_fixture_latent_connection_appears():
    g = MultiplexGraph(5, FIXTURE_DIMS, np.eye(5))
    cfg = mdl.ModelConfig(n_layers=1, embed_size=3, manifold=mf.LORENTZ)
    params = mdl.init_params(3, 5, cfg, seed=0)
    # freeze the combination weights: latent dim 0 merges input dims 0 and 1,
    # latent dim 1 keeps input dim 2
    params.layers[0].alpha_logits.value[:] = np.array([[10.0, 10.0, -10.0],
                                                       [-10.0, -10.0, 10.0]])
    result = mdl.forward(g, g.features, params, cfg)
    merged, kept = result.hierarchy.raw_aggregated[0]
    support = (merged > 1e-4).astype(float)
    assert reachable(support, 0, 2)  # u1 reaches u3 only in the latent graph
    support2 = (kept > 1e-4).astype(float)
    assert reachable(support2, 2, 3)  # u3 reaches u4 via two hops of dim 2
    assert FIXTURE_DIMS[2][2, 3] == 0.0


# --- checkpoints ------------------------------------------------------------


def _reachable(t):
    seen, stack = [], [t]
    while stack:
        node = stack.pop()
        seen.append(node)
        stack.extend(node._parents)
    return seen


def test_checkpoint_roundtrip(tmp_path):
    cfg = mdl.ModelConfig(n_layers=2, embed_size=4, manifold=mf.LORENTZ)
    # both operator forms of a built level: dense union, then sparse (<= 7/40)
    for graph, mode in [(random_graph(seed=16, n=7, d=3, f=5), "dense"),
                        (sparse_ring_graph(40, 3, seed=2), "sparse")]:
        params = mdl.init_params(3, graph.n_features, cfg, seed=6)
        q = ad.leaf(np.random.default_rng(15).normal(size=(4, 4)), name="Q")
        path = tmp_path / f"ckpt_{mode}.npz"
        mdl.save_checkpoint(path, params, q, cfg, meta={"seed": 7})
        params2, q2, cfg2, meta = mdl.load_checkpoint(path)
        assert cfg2 == cfg
        assert meta == {"seed": 7}
        assert np.array_equal(q2.value, q.value) and not q2.requires_grad
        for (n1, t1), (n2, t2) in zip(params.named(), params2.named()):
            assert n1 == n2
            assert np.array_equal(t1.value, t2.value)
            assert not t2.requires_grad

        # the forward of the loaded constants records nothing, and equals
        # the traced forward of the leaves it was saved from to the bit
        traced = mdl.forward(graph, graph.features, params, cfg)
        loaded = mdl.forward(graph, graph.features, params2, cfg2)
        assert traced.hierarchy.levels[1].mode == loaded.hierarchy.levels[1].mode == mode
        assert traced.z_tangent.requires_grad
        assert not loaded.z_tangent.requires_grad
        assert all(node._vjp is None for node in _reachable(loaded.z_tangent))
        assert traced.z_tangent.value.tobytes() == loaded.z_tangent.value.tobytes()
        assert traced.z.tobytes() == loaded.z.tobytes()
