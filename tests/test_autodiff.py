import zlib

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings, strategies as st

import hypermux.autodiff as ad


RNG = np.random.default_rng(12345)


def scalarize(expr):
    return ad.tsum(expr) if ad.val(expr).ndim else expr


# one probe per primitive: name -> (builder(leaves) -> scalar Tensor, inputs)
def _mat(shape, lo=-1.0, hi=1.0, rng=None):
    return (rng or RNG).uniform(lo, hi, size=shape)


# symmetric 4 x 4 pattern with the diagonal: edges 0-1, 0-3, 1-2
SYM = ad.SymmetricPattern(*np.nonzero(np.eye(4) + np.array(
    [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])), 4)

PRIMITIVE_PROBES = {
    "add": (lambda v: ad.tsum(ad.mul(ad.add(v["a"], v["b"]), v["a"])),
            {"a": _mat((3, 4)), "b": _mat((3, 4))}),
    "add_broadcast": (lambda v: ad.tsum(ad.mul(ad.add(v["a"], v["b"]), v["a"])),
                      {"a": _mat((3, 4)), "b": _mat((1, 4))}),
    "sub": (lambda v: ad.tsum(ad.mul(ad.sub(v["a"], v["b"]), v["b"])),
            {"a": _mat((3, 4)), "b": _mat((3, 4))}),
    "mul_broadcast": (lambda v: ad.tsum(ad.mul(v["a"], v["b"])),
                      {"a": _mat((3, 4)), "b": _mat((3, 1))}),
    "div": (lambda v: ad.tsum(ad.div(v["a"], v["b"])),
            {"a": _mat((3, 4)), "b": _mat((3, 4), 1.5, 2.5)}),
    "neg": (lambda v: ad.tsum(ad.mul(ad.neg(v["a"]), v["a"])), {"a": _mat((3, 4))}),
    "matmul": (lambda v: ad.tsum(ad.matmul(v["a"], v["b"])),
               {"a": _mat((3, 4)), "b": _mat((4, 2))}),
    "log": (lambda v: ad.tsum(ad.log(v["a"])), {"a": _mat((3, 4), 0.5, 2.0)}),
    "sigmoid": (lambda v: ad.tsum(ad.sigmoid(v["a"])), {"a": _mat((3, 4), -3, 3)}),
    # the activations run inside the products that feed them
    "relu": (lambda v, _w=_mat((3, 5)): ad.tsum(ad.mul(ad.matmul_relu(v["a"], v["b"]), _w)),
             {"a": _mat((3, 4)), "b": _mat((4, 5))}),
    "leaky_relu": (lambda v, _w=_mat((6, 2)): ad.tsum(ad.mul(
        ad.block_matmul(v["x"], [v["w0"], v["w1"]], 3, 0.2), _w)),
        {"x": _mat((6, 4)), "w0": _mat((4, 2)), "w1": _mat((4, 2))}),
    "softmax": (lambda v: ad.tsum(ad.mul(ad.softmax(v["a"], axis=-1), v["b"])),
                {"a": _mat((3, 4)), "b": _mat((3, 4))}),
    "sum_axis": (lambda v: ad.tsum(ad.mul(ad.tsum(v["a"], axis=0, keepdims=True),
                                          v["b"])),
                 {"a": _mat((3, 4)), "b": _mat((1, 4))}),
    "mean": (lambda v: ad.tmean(v["a"]), {"a": _mat((3, 4))}),
    "transpose": (lambda v: ad.tsum(ad.matmul(ad.transpose(v["a"]), v["a"])),
                  {"a": _mat((3, 4))}),
    "gather_nd": (lambda v: ad.tsum(ad.gather_nd(v["a"], [0, 1, 2], [1, 0, 2])),
                  {"a": _mat((3, 4))}),
    "scatter_nd": (lambda v, _w=_mat((3, 4)): ad.tsum(ad.mul(
        ad.scatter_nd(v["vals"], [0, 1, 2], [1, 0, 2], (3, 4)), _w)),
        {"vals": _mat((3,))}),
    "spmm": (lambda v: ad.tsum(ad.spmm(ad.StackedOperator(SYM, v["vals"]), v["vals"], v["x"])),
             {"vals": _mat((2, SYM.nnz)), "x": _mat((4, 2))}),
    "block_matmul": (lambda v: ad.tsum(ad.block_matmul(v["x"], [v["w0"], v["w1"]], 3, 1.0)),
                     {"x": _mat((6, 4)), "w0": _mat((4, 2)), "w1": _mat((4, 2))}),
    "block_weighted_sum": (lambda v: ad.tsum(ad.block_weighted_sum(v["x"], v["c"], 3)),
                           {"x": _mat((6, 4)), "c": _mat((1, 2))}),
    "normalize_blocks": (lambda v, _w=_mat((2, SYM.nnz)): ad.tsum(ad.mul(
        ad.normalize_blocks(v["a"], SYM), _w)),
        {"a": np.abs(_mat((2, SYM.nnz)))}),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_PROBES))
def test_primitive_grad_check(name):
    build, inputs = PRIMITIVE_PROBES[name]
    errs = []
    for trial in range(10):
        # crc32, not hash(): str hashes are salted per process
        rng = np.random.default_rng(1000 * zlib.crc32(name.encode()) % 2**31 + trial)
        jitter = {k: v + 0.01 * rng.uniform(-1, 1, size=np.shape(v))
                  for k, v in inputs.items()}
        errs.append(ad.grad_check(build, jitter, epsilon=1e-6, rng=rng))
    assert max(errs) < 1e-5


def test_softmax_weighted_sum_gradient_tight():
    # the aggregation core: relu(row_softmax(logits) @ stacked constants)
    rng = np.random.default_rng(77)
    stacked = rng.uniform(0.0, 1.0, size=(4, 25))
    weights = rng.normal(size=(2, 25))

    def fn(v):
        mixed = ad.matmul_relu(ad.softmax(v["logits"], axis=-1), ad.constant(stacked))
        return ad.tsum(ad.mul(mixed, weights))

    assert ad.grad_check(fn, {"logits": rng.normal(size=(2, 4))},
                         epsilon=1e-6) < 1e-6


def test_shape_rule_matmul():
    out = ad.matmul(ad.leaf(np.ones((2, 3))), ad.leaf(np.ones((3, 2))))
    assert out.shape == (2, 2)
    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.matmul(ad.leaf(np.ones((2, 3))), ad.leaf(np.ones((2, 3))))


def test_tensor_arithmetic_only_through_ops():
    a, b = ad.leaf(np.ones((2, 2))), ad.leaf(np.ones((2, 2)))
    assert np.array_equal((a @ b).value, ad.matmul(a, b).value)
    for apply in (lambda: a + b, lambda: a - 1.0, lambda: 2.0 * a, lambda: a / b, lambda: -a):
        with pytest.raises(TypeError):
            apply()


def test_softmax_of_zeros_is_uniform():
    out = ad.softmax(ad.constant(np.zeros(3)), axis=-1)
    assert np.allclose(out.value, [1 / 3, 1 / 3, 1 / 3])


def test_sigmoid_at_zero():
    # the numpy kernel of `sigmoid`, also at arguments where exp overflows
    with np.errstate(over="raise"):
        out = ad.logistic(np.array([0.0, -800.0, 800.0]))
    assert out.tolist() == [0.5, 0.0, 1.0]
    x = np.linspace(-40.0, 40.0, 81)
    assert ad.sigmoid(ad.constant(x)).value.tobytes() == ad.logistic(x).tobytes()


def test_scalar_square_gradient():
    x = ad.leaf(np.array(3.0))
    ad.backward(ad.mul(x, x))
    assert x.grad == pytest.approx(6.0)


def test_linear_map_gradient_matches_columns_sums():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 4))
    w = ad.leaf(rng.normal(size=(4, 3)))
    ad.backward(ad.tsum(ad.matmul(ad.constant(a), w)))
    expected = np.repeat(a.sum(axis=0)[:, None], 3, axis=1)
    assert np.allclose(w.grad, expected, atol=1e-12)
    err = ad.grad_check(lambda v: ad.tsum(ad.matmul(ad.constant(a), v["w"])),
                        {"w": rng.normal(size=(4, 3))}, epsilon=1e-6)
    assert err < 1e-9  # exact for linear maps


def test_sigmoid_gradient_at_zero_is_one_quarter():
    x = ad.leaf(np.zeros(1))
    ad.backward(ad.tsum(ad.sigmoid(x)))
    assert x.grad[0] == pytest.approx(0.25)


def test_backward_linear_in_seed():
    rng = np.random.default_rng(2)
    x = ad.leaf(rng.normal(size=(3, 3)))
    y = ad.sigmoid(ad.matmul(x, ad.constant(rng.normal(size=(3, 3)))))
    seed = rng.normal(size=(3, 3))
    ad.backward(y, seed)
    g1 = x.grad.copy()
    ad.backward(y, 2.5 * seed)
    assert np.allclose(x.grad, 2.5 * g1, atol=1e-12)


def test_off_path_leaf_gets_zero_gradient():
    x = ad.leaf(np.ones((2, 2)))
    unused = ad.leaf(np.ones((2, 2)))
    ad.backward(ad.tsum(ad.mul(x, x)))
    assert np.allclose(ad.grad_or_zero(x), 2.0)
    assert unused.grad is None
    assert np.array_equal(ad.grad_or_zero(unused), np.zeros((2, 2)))


def test_backward_seed_shape_mismatch():
    x = ad.leaf(np.ones((2, 2)))
    with pytest.raises(ad.ShapeError):
        ad.backward(ad.mul(x, x), np.ones(3))


def test_grad_check_requires_scalar():
    with pytest.raises(ValueError, match="scalar"):
        ad.grad_check(lambda v: ad.mul(v["a"], v["a"]), {"a": np.ones((2, 2))})


def test_normalize_blocks_matches_normalize_adjacency():
    from hypermux.graph import normalize_adjacency
    rng = np.random.default_rng(21)
    n = 7
    upper = np.triu(rng.random((n, n)) < 0.4, 1)
    support = upper | upper.T | np.eye(n, dtype=bool)
    pattern = ad.SymmetricPattern(*np.nonzero(support), n)
    mats = []
    for _ in range(3):
        w = np.triu(rng.uniform(0.1, 2.0, size=(n, n)), 1)
        mats.append(np.where(upper | upper.T, w + w.T, 0.0))
    mats[0][2, 2] = 0.7  # a self-loop weight of its own
    mats[1][pattern.rows[0], pattern.cols[1]] = 0.0  # a zero inside the pattern
    mats[1][pattern.cols[1], pattern.rows[0]] = 0.0
    values = np.stack([m[pattern.rows, pattern.cols] for m in mats])
    out = ad.normalize_blocks(ad.constant(values), pattern).value
    assert out.shape == values.shape
    for j, m in enumerate(mats):
        want = normalize_adjacency(sps.csr_matrix(m)).toarray()
        assert np.abs(pattern.to_dense(out[j]) - want).max() < 1e-15


def test_symmetric_pattern_validation():
    with pytest.raises(ad.ShapeError, match="symmetric"):
        ad.SymmetricPattern([0, 0, 1], [0, 1, 1], 2)
    with pytest.raises(ad.ShapeError, match="diagonal"):
        ad.SymmetricPattern([0, 1], [1, 0], 2)
    with pytest.raises(ad.ShapeError, match="CSR order"):
        ad.SymmetricPattern([1, 0], [1, 0], 2)
    sym = ad.SymmetricPattern([0, 0, 1, 1, 2], [0, 1, 0, 1, 2], 3)
    assert sym.diag.tolist() == [0, 3, 4]
    assert sym.mirror.tolist() == [0, 2, 1, 3, 4]
    with pytest.raises(ad.ShapeError, match="normalize_blocks"):
        ad.normalize_blocks(ad.constant(np.ones((2, 4))), sym)


def test_to_dense_fills_one_matrix_or_a_stack():
    values = np.arange(1.0, SYM.nnz + 1)
    want = np.array([[1, 2, 0, 3], [4, 5, 6, 0], [0, 7, 8, 0], [9, 0, 0, 10]], dtype=float)
    assert np.array_equal(SYM.to_dense(values), want)
    stack = SYM.to_dense(ad.leaf(np.stack([values, -values])))
    assert stack.shape == (2, 4, 4)
    assert np.array_equal(stack[0], want) and np.array_equal(stack[1], -want)


def test_scatter_nd_fills_every_block_at_once():
    rng = np.random.default_rng(22)
    vals = ad.leaf(rng.normal(size=(2, 3)))
    out = ad.scatter_nd(vals, [0, 1, 2], [2, 0, 1], (2, 3, 3))
    assert out.shape == (2, 3, 3)
    for j in range(2):
        want = np.zeros((3, 3))
        want[[0, 1, 2], [2, 0, 1]] = vals.value[j]
        assert np.array_equal(out.value[j], want)
    seed = rng.normal(size=(2, 3, 3))
    ad.backward(out, seed)
    assert np.array_equal(vals.grad, seed[:, [0, 1, 2], [2, 0, 1]])


def test_spmm_const_matches_dense():
    import scipy.sparse as sps
    rng = np.random.default_rng(3)
    dense = (rng.random((4, 4)) < 0.5).astype(float)
    dense = np.triu(dense) + np.triu(dense, 1).T
    s = sps.csr_matrix(dense)
    x = ad.leaf(rng.normal(size=(4, 3)))
    out = ad.spmm_const(s, s.T.tocsr(), x)
    assert np.allclose(out.value, dense @ x.value)
    seed = rng.normal(size=(4, 3))
    ad.backward(out, seed)
    assert np.allclose(x.grad, dense.T @ seed)


def _symmetric_pattern(rng, n, p):
    """Random symmetric pattern with the diagonal, off-diagonal density p."""
    upper = np.triu(rng.random((n, n)) < p, 1)
    return ad.SymmetricPattern(*np.nonzero(upper | upper.T | np.eye(n, dtype=bool)), n)


def test_sparse_adjoints_match_transpose_products():
    # values differ from their mirror images, so A.T is not A; the adjoints
    # w.r.t. x multiply by the CSC view of the CSR, and must equal A.T @ g
    rng = np.random.default_rng(24)
    pattern = _symmetric_pattern(rng, 7, 0.5)
    values = ad.leaf(rng.normal(size=(1, pattern.nnz)))
    x = ad.leaf(rng.normal(size=(7, 3)))
    g = rng.normal(size=(7, 3))
    dense = pattern.to_dense(values.value[0])
    assert not np.array_equal(dense, dense.T)
    op = ad.StackedOperator(pattern, values)
    out = ad.spmm(op, values, x)
    assert np.abs(out.value - dense @ x.value).max() < 1e-12
    ad.backward(out, g)
    assert np.abs(x.grad - dense.T @ g).max() < 1e-12
    assert np.abs(values.grad[0] - (g @ x.value.T)[pattern.rows, pattern.cols]).max() < 1e-12

    mat = op.mat
    x_const = ad.leaf(x.value)
    ad.backward(ad.spmm_const(mat, mat.T, x_const), g)
    assert np.abs(x_const.grad - dense.T @ g).max() < 1e-12
    # the CSC view adds each row's terms in a sorted transpose's order
    assert np.array_equal(mat.T @ g, mat.T.tocsr() @ g)


def _operator_case(kind, density, rng, n=60, k=3):
    # n = 60: the diagonal alone fills 1/60 of the entries, under the 5% switch
    pattern = _symmetric_pattern(rng, n, density)
    values = rng.normal(size=(k, pattern.nnz))
    return pattern, ad.StackedOperator(pattern, values, dense=kind == "dense"), values


@pytest.mark.parametrize("kind", ["sparse", "dense"])
@pytest.mark.parametrize("density", [0.4, 0.02],
                         ids=["csr-order-blas-rows", "csr-order-per-entry"])
def test_spmm_values_adjoint_is_sampled_product(kind, density, monkeypatch):
    rng = np.random.default_rng(25)
    pattern, op, values = _operator_case(kind, density, rng)
    n = pattern.n
    assert (pattern.nnz * 20 > n * n) == (density == 0.4)  # the kernel switch
    # 960 bytes: two rows per BLAS block, ten entries per gathered block
    monkeypatch.setattr(ad, "SAMPLE_BLOCK_BYTES", 960)
    vals = ad.leaf(values)
    x = ad.leaf(rng.normal(size=(n, 6)))
    g = rng.normal(size=(3 * n, 6))
    stack = pattern.to_dense(values).reshape(3 * n, n)
    out = ad.spmm(op, vals, x)
    assert op.shape == (3 * n, n) and op.nnz == 3 * pattern.nnz
    assert np.abs(out.value - stack @ x.value).max() < 1e-12
    ad.backward(out, g)
    assert np.abs(x.grad - stack.T @ g).max() < 1e-12
    full = g @ x.value.T
    for d in range(3):
        want = full[d * n + pattern.rows, pattern.cols]
        assert np.abs(vals.grad[d] - want).max() < 1e-12


def test_stacked_operator_shares_the_values_and_cached_indices():
    rng = np.random.default_rng(26)
    pattern, op, values = _operator_case("sparse", 0.3, rng)
    assert np.shares_memory(op.mat.data, values)
    again = ad.StackedOperator(pattern, values + 1.0)
    assert again.indices is op.indices and again.indptr is op.indptr
    assert op.indices.dtype == op.indptr.dtype == np.int32
    dense = ad.StackedOperator(pattern, values, dense=True)
    assert np.array_equal(dense.value, op.mat.toarray())


def test_dense_operator_refills_an_earlier_one_in_place():
    rng = np.random.default_rng(27)
    pattern, first, values = _operator_case("dense", 0.3, rng)
    buffer = first.value
    other = rng.random(values.shape)
    refilled = ad.StackedOperator(pattern, other, dense=True, out=buffer)
    assert refilled.value is buffer and refilled.mat is buffer
    fresh = ad.StackedOperator(pattern, other, dense=True).value
    assert not np.shares_memory(fresh, buffer)
    assert fresh.tobytes() == buffer.tobytes()
    with pytest.raises(ad.ShapeError, match="out"):
        ad.StackedOperator(pattern, other[:2], dense=True, out=buffer)


def test_backward_leaves_the_seed_untouched():
    # add hands the seed to both operands, and the second adds onto the first
    x = ad.leaf(np.ones(3))
    seed = np.full(3, 2.0)
    ad.backward(ad.add(x, x), seed)
    assert np.array_equal(seed, [2.0, 2.0, 2.0])
    assert np.array_equal(x.grad, [4.0, 4.0, 4.0])


@pytest.mark.parametrize("slope", [0.0, 0.01, 0.2, 1.0])
def test_leaky_relu_matches_where_oracle(slope):
    # the activation inside block_matmul, through a 1 x 1 identity weight
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5, -2.5,
                  5e-324, -5e-324, 1e308, -1e308])
    if slope == 0.0:
        x = x[x != np.inf]  # 0 * inf is nan, where the oracle passes inf
    x = x[:, None]
    pre = x @ np.eye(1)  # the product itself turns -0.0 into 0.0
    g = np.arange(1.0, x.size + 1)[:, None]
    with np.errstate(invalid="ignore"):
        want = np.where(pre > 0, pre, slope * pre)
        xs, w = ad.leaf(x), ad.leaf(np.eye(1))
        out = ad.block_matmul(xs, [w], x.size, slope)
        ad.backward(out, g)
        g_pre = np.where(pre > 0, g, slope * g)
        gw = x.T @ g_pre  # nan: inf and -inf meet in the sum
    assert out.value.tobytes() == want.tobytes()
    assert xs.grad.tobytes() == (g_pre @ np.eye(1)).tobytes()
    assert w.grad.tobytes() == gw.tobytes()


def _unfused_block_matmul(x, weights, block, slope, g):
    """block_matmul as its per-block products, then leaky relu, with the
    adjoints of that composition: (out, gx, gws)."""
    pre = np.empty((x.shape[0], weights[0].shape[1]))
    for d, w in enumerate(weights):
        pre[d * block:(d + 1) * block] = x[d * block:(d + 1) * block] @ w
    out = pre * slope
    np.maximum(out, pre, out=out)
    g_pre = np.where(pre > 0, g, slope * g)
    gx = np.empty_like(x)
    gws = []
    for d, w in enumerate(weights):
        sl = slice(d * block, (d + 1) * block)
        gx[sl] = g_pre[sl] @ w.T
        gws.append(x[sl].T @ g_pre[sl])
    return out, gx, gws


@pytest.mark.parametrize("workers", [0, 1])
@pytest.mark.parametrize("density, kind", [(0.4, "dense"), (0.02, "sparse")],
                         ids=["dense-union", "sparse-union"])
def test_fused_activations_equal_the_unfused_composition_to_the_bit(density, kind, workers,
                                                                    monkeypatch):
    monkeypatch.setattr(ad, "_WORKERS", workers)
    rng = np.random.default_rng(27)
    k, n, f, m = 3, 50, 6, 5
    pattern = _symmetric_pattern(rng, n, density)
    values = rng.normal(size=(k, pattern.nnz))
    values[:, ::7] = 0.0  # products of exactly zero
    # relu(a @ b): the aggregation of a level's values
    logits = ad.leaf(rng.normal(size=(2, k)))
    vals = ad.leaf(values)
    alpha = ad.softmax(logits, axis=-1)
    raw = ad.matmul_relu(alpha, vals)
    pre = alpha.value @ values
    assert raw.value.tobytes() == np.maximum(pre, 0.0).tobytes()
    g = rng.normal(size=raw.shape)
    ad.backward(raw, g)
    g_pre = np.where(pre > 0, g, 0.0)
    assert vals.grad.tobytes() == (alpha.value.T @ g_pre).tobytes()
    alpha_grad = g_pre @ values.T
    assert logits.grad.tobytes() == (alpha.value * (alpha_grad - (
        alpha_grad * alpha.value).sum(axis=-1, keepdims=True))).tobytes()
    # leaky relu of the per-block linear maps of a propagated state
    op = ad.StackedOperator(pattern, values, dense=kind == "dense")
    for slope in (0.0, 0.01, 1.0):
        x = ad.leaf(ad.spmm(op, vals, ad.constant(rng.normal(size=(n, f)))).value)
        weights = [ad.leaf(rng.normal(size=(f, m))) for _ in range(k)]
        out = ad.block_matmul(x, weights, n, slope)
        g = rng.normal(size=out.shape)
        ad.backward(out, g)
        want, gx, gws = _unfused_block_matmul(x.value, [w.value for w in weights], n, slope, g)
        assert out.value.tobytes() == want.tobytes()
        if slope == 1.0:  # the plain linear map
            assert out.value.tobytes() == np.vstack([
                x.value[d * n:(d + 1) * n] @ w.value for d, w in enumerate(weights)]).tobytes()
        assert x.grad.tobytes() == gx.tobytes()
        for w, gw in zip(weights, gws):
            assert w.grad.tobytes() == gw.tobytes()


def test_evaluation_is_deterministic():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(6, 6))
    runs = [ad.val(ad.softmax(ad.sigmoid(ad.matmul(ad.constant(a), ad.constant(a))),
                              axis=-1))
            for _ in range(2)]
    assert np.array_equal(runs[0], runs[1])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_clip_straight_through(seed):
    rng = np.random.default_rng(seed)
    x = ad.leaf(rng.normal(size=(3,)) * 3.0)
    ad.backward(ad.tsum(ad.clip(x, -1.0, 1.0)))
    assert np.allclose(x.grad, 1.0)  # adjoint ignores the clamp


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_shared_gradient_buffers_never_alias(seed):
    rng = np.random.default_rng(seed)
    a0 = rng.normal(size=(3, 3))
    b0 = rng.normal(size=(3, 3))

    def fn(v):
        s = ad.add(v["a"], v["b"])  # hands the same adjoint to both parents
        return ad.tsum(ad.add(ad.mul(s, v["a"]), s))

    assert ad.grad_check(fn, {"a": a0, "b": b0}, epsilon=1e-6) < 1e-7
