"""Reverse-mode automatic differentiation over dense float64 arrays.

A small define-by-run tape holding only the ops that training runs: the
hierarchy build, propagation in tangent coordinates and the DGI
objective. The manifold maps (`manifold`) are plain numpy outside the
tape, since the output is lifted once after training. Every op takes
`Tensor` operands (binary arithmetic also takes a plain scalar or array
as a constant), returns a `Tensor`, and records a closure mapping the
output adjoint onto the input adjoints only when an operand requires a
gradient: on constants alone it records nothing, so a forward-only pass
keeps no tape. `logistic` and `softmax_array` are the plain numpy
kernels `sigmoid` and `softmax` run, for callers outside the tape.
`backward` replays the closures in reverse topological order and frees
each interior node's adjoint once its closure has consumed it, so a
sweep holds the tape's values plus the adjoints still to be propagated;
afterwards only leaves hold `.grad`. A node reached along several
paths gets the sum of their adjoints as a new array; no adjoint is
updated in place.

Sparse adjacency matrices participate in two forms: as constants
(`spmm_const`, adjoint w.r.t. the dense operand only) and as traced
values living on a fixed `SymmetricPattern` (`normalize_blocks` for
degree normalization). `spmm` multiplies by a `StackedOperator`: the
values of k matrices on one pattern as their (k*n, n) block stack, CSR
or dense, made once and shared by every product with those values. Its
values adjoint, g @ x.T sampled on the pattern, is formed a block of
rows at a time, so no adjoint is a dense (k*n, n) array. The adjoint of
a sparse product w.r.t. its dense operand multiplies by the CSC view
`.T` of the CSR matrix, so no pattern sorts its transpose; scipy sums
each output row's terms in the same ascending order as a sorted CSR
transpose would, so the result is the same to the bit.

The four heaviest kernels (`spmm` and its adjoint, `normalize_blocks`,
`block_matmul`) split their work into two parts at fixed block
boundaries, and no sum is split between the parts. Each op is still
entered, and its node recorded, on the calling thread; only the parts,
raw numpy and scipy kernels writing into disjoint parts of arrays the
calling thread made, run on a helper thread (`_run`).

Each activation runs inside the product that feeds it: `block_matmul`
takes the leaky relu's slope and activates each block's product within
its halves, and `matmul_relu` applies relu to its product in place. Both
adjoints read the sign from the activated output, so the tape keeps one
array where a product and a separate activation would keep two.

Everything is float64. Elementwise ops broadcast like numpy; adjoints
are summed back onto the original operand shapes. Evaluation is
deterministic (no internal randomness), and the same on any number of
cores: the parts do not depend on who runs them.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from functools import partial

import numpy as np
import scipy.sparse as sps
from scipy.sparse import _sparsetools  # the kernels behind `csr @ dense`, which take `out`


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested primitive."""


class Tensor:
    """One node of the differentiable trace.

    Leaves are created directly (``Tensor(value, requires_grad=True)``
    for trainables, ``constant(value)`` otherwise); interior nodes are
    created by the ops below. After ``backward``, every leaf on a path
    to the output holds its adjoint in ``.grad``; interior nodes hold
    None there. ``@`` is the one operator (``matmul``); every other op
    is an explicit call, so ``a + b`` on two Tensors raises TypeError.
    """

    __slots__ = ("value", "grad", "requires_grad", "name", "_parents", "_vjp")

    def __init__(self, value, requires_grad=False, name=""):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents = ()
        self._vjp = None

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        tag = self.name or ("leaf" if self.requires_grad else "node")
        return f"Tensor({tag}, shape={self.value.shape})"

    def __matmul__(self, other):
        return matmul(self, other)


def constant(value, name=""):
    return Tensor(value, requires_grad=False, name=name)


def leaf(value, name=""):
    return Tensor(value, requires_grad=True, name=name)


def val(x):
    """Underlying ndarray of a Tensor, or the input coerced to float64."""
    if isinstance(x, Tensor):
        return x.value
    return np.asarray(x, dtype=np.float64)


def _node(value, parents, vjp):
    t = Tensor(value)
    if any(p.requires_grad for p in parents):
        t.requires_grad = True
        t._parents = tuple(parents)
        t._vjp = vjp
    return t


def _unbroadcast(g, shape):
    """Sum an adjoint back down to the shape it was broadcast from."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _wrap2(a, b):
    ta = a if isinstance(a, Tensor) else constant(a)
    tb = b if isinstance(b, Tensor) else constant(b)
    return ta, tb


# ---------------------------------------------------------------------------
# kernel pool

# helper threads beside the calling thread; every split kernel has two
# parts, so a second helper would have nothing to run. The CPUs this
# process may use (all of them where the OS cannot say).
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
_WORKERS = min(_CPUS or 1, 2) - 1
_tasks = None  # the pool's queue, made with its threads on first use


class _Task:
    __slots__ = ("kernel", "error", "done")

    def __init__(self, kernel):
        self.kernel, self.error, self.done = kernel, None, False


def _serve(tasks):
    while True:
        task = tasks.get()
        try:
            task.kernel()
        except BaseException as exc:  # noqa: BLE001 - raised again on the calling thread
            task.error = exc
        task.kernel = None  # drop the kernel's arrays before the caller goes on
        task.done = True


def _forget_pool():
    global _tasks
    _tasks = None  # a forked child has none of its parent's threads


os.register_at_fork(after_in_child=_forget_pool)


def _run(*kernels):
    """Run independent kernels, each writing its own part of arrays the
    calling thread made; return when all are done.

    On the main thread, with a helper thread, every kernel but the first
    goes to the pool while the caller runs the first. With one usable
    CPU, and on any other thread (such as a `geometry.sweep` worker),
    the caller runs them one after another. Only the main thread uses
    the pool, so no kernel waits on another.

    The caller then waits for the pool by yielding the interpreter lock
    in a loop rather than by blocking. A caller that blocked here left
    the process's single-threaded work after training (`generate`)
    slower by about a quarter on a 2-vCPU VM, where a thread that keeps
    its CPU busy keeps its speed; the loop costs the wait in CPU time.
    """
    global _tasks
    if _WORKERS < 1 or threading.current_thread() is not threading.main_thread():
        for kernel in kernels:
            kernel()
        return
    if _tasks is None:
        _tasks = queue.SimpleQueue()
        for _ in range(_WORKERS):
            threading.Thread(target=_serve, args=(_tasks,), name="hypermux-kernel",
                             daemon=True).start()
    handed = [_Task(kernel) for kernel in kernels[1:]]
    for task in handed:
        _tasks.put(task)
    try:
        kernels[0]()
    finally:
        for task in handed:
            while not task.done:
                time.sleep(0)
    for task in handed:
        if task.error is not None:
            raise task.error


def _halves(k):
    """Blocks [0, k//2) and [k//2, k) of k as ranges, without an empty one."""
    return [range(0, k // 2), range(k // 2, k)] if k > 1 else [range(k)]


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b):
    a, b = _wrap2(a, b)
    return _node(a.value + b.value, (a, b),
                 lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)))


def sub(a, b):
    a, b = _wrap2(a, b)
    return _node(a.value - b.value, (a, b),
                 lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)))


def mul(a, b):
    a, b = _wrap2(a, b)
    return _node(a.value * b.value, (a, b),
                 lambda g: (_unbroadcast(g * b.value, a.value.shape),
                            _unbroadcast(g * a.value, b.value.shape)))


def div(a, b):
    a, b = _wrap2(a, b)
    return _node(a.value / b.value, (a, b),
                 lambda g: (_unbroadcast(g / b.value, a.value.shape),
                            _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape)))


def neg(a):
    return _node(-a.value, (a,), lambda g: (-g,))


# ---------------------------------------------------------------------------
# matrix products


def matmul(a, b):
    """Matrix product of two 2-d operands."""
    a, b = _wrap2(a, b)
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul: {av.shape} @ {bv.shape}")
    na, nb = a.requires_grad, b.requires_grad  # skip adjoints nobody needs
    return _node(av @ bv, (a, b),
                 lambda g: (g @ bv.T if na else None, av.T @ g if nb else None))


def matmul_relu(a, b):
    """relu(a @ b) of two 2-d operands, in the product's own buffer.

    The adjoint reads the sign from the output (y > 0 exactly where
    a @ b > 0, NaN included), so the tape keeps one array and no mask,
    and then runs `matmul`'s products.
    """
    a, b = _wrap2(a, b)
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul_relu: {av.shape} @ {bv.shape}")
    na, nb = a.requires_grad, b.requires_grad
    y = av @ bv
    np.maximum(y, 0.0, out=y)

    def vjp(g):
        g = np.where(y > 0, g, 0.0)
        return (g @ bv.T if na else None, av.T @ g if nb else None)

    return _node(y, (a, b), vjp)


class SymmetricPattern:
    """Fixed square sparsity pattern, closed under transposition, that
    holds the diagonal; only the values on it may be traced.

    Entries are in CSR order (row-major, columns ascending, no repeats).
    `indptr[i]` is where row i starts, `diag[i]` the position of (i, i)
    and `mirror[e]` the position of entry e's transpose.
    """

    def __init__(self, rows, cols, n):
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.n = n
        if self.rows.shape != self.cols.shape or self.rows.ndim != 1:
            raise ShapeError("SymmetricPattern: rows/cols must be equal-length 1-d")
        flat = self.rows * n + self.cols  # row-major offsets in the dense matrix
        if np.any(np.diff(flat) <= 0):
            raise ShapeError("SymmetricPattern: entries must be in CSR order, no repeats")
        self.indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(self.rows, minlength=n), out=self.indptr[1:])
        # the transpose's CSR order lists the mirror images of the entries
        self.mirror = np.argsort(self.cols * n + self.rows, kind="stable")
        if not (np.array_equal(self.rows[self.mirror], self.cols)
                and np.array_equal(self.cols[self.mirror], self.rows)):
            raise ShapeError("SymmetricPattern: pattern is not symmetric")
        self.diag = np.flatnonzero(self.rows == self.cols)
        if self.diag.size != n:
            raise ShapeError("SymmetricPattern: pattern must hold the whole diagonal")
        self._stacked = {}

    @property
    def nnz(self):
        return self.rows.shape[0]

    def stacked(self, k):
        """int32 (indices, indptr) of the CSR stack of k copies, built once."""
        if k not in self._stacked:
            if k * self.nnz >= 2**31:
                raise ShapeError(f"SymmetricPattern: {k} x {self.nnz} entries overflow int32")
            starts = np.arange(k, dtype=np.int32)[:, None] * self.nnz + self.indptr[:-1]
            self._stacked[k] = (np.tile(self.cols.astype(np.int32), k),
                                np.append(starts.ravel(), np.int32(k * self.nnz)))
        return self._stacked[k]

    def to_dense(self, values):
        """The (n, n) matrix of (nnz,) values, or the (k, n, n) stack of
        (k, nnz) values."""
        values = val(values)
        out = np.zeros(values.shape[:-1] + (self.n, self.n))
        out[..., self.rows, self.cols] = values
        return out


def spmm_const(mat, mat_t, x):
    """Sparse @ dense with a constant sparse operand.

    `mat_t` is the transpose, for the adjoint: `mat.T` (for a CSR `mat`
    the CSC view, built without a sort), or `mat` itself when the matrix
    is symmetric. Gradient flows to the dense operand only.
    """
    if mat.shape[1] != x.value.shape[0]:
        raise ShapeError(f"spmm_const: {mat.shape} @ {x.value.shape}")
    return _node(mat @ x.value, (x,), lambda g: (mat_t @ g,))


class StackedOperator:
    """k matrices with values on one `SymmetricPattern`, acting as their
    (k*n, n) vertical block stack.

    Made once from the (k, nnz) values and shared by every `spmm` with
    them: `mat` is a CSR matrix over the pattern's cached stacked
    `indices`/`indptr` whose data are the values themselves (no copy),
    or, with `dense`, the filled float64 array `value`. A dense operator
    given `out`, the `value` of an earlier one on the same pattern and
    of the same shape, is written into it: only the pattern's entries
    change, and the rest are still zero. `nnz` and `shape` describe the
    stack. Its products write into arrays the caller made: zeros for a
    CSR, which adds into them.
    """

    def __init__(self, pattern, values, dense=False, out=None):
        values = val(values)
        k, n = values.shape[0], pattern.n
        self.pattern, self.k, self.dense = pattern, k, dense
        self.shape = (k * n, n)
        self.nnz = k * pattern.nnz
        if dense:
            if out is None:
                out = np.zeros(self.shape)
            elif out.shape != self.shape:
                raise ShapeError(f"StackedOperator: out {out.shape} is not {self.shape}")
            out.reshape(k, n, n)[:, pattern.rows, pattern.cols] = values
            self.value = self.mat = out
        else:
            self.indices, self.indptr = pattern.stacked(k)
            self.mat = sps.csr_matrix((values.reshape(-1), self.indices, self.indptr),
                                      shape=self.shape)

    def blocks_times(self, blocks, x, out):
        """Kernel: the rows of `blocks` of the stack @ the C-ordered x,
        into the same rows of `out`. A CSR's rows are a view of its
        indptr over the whole indices and data: nothing is copied."""
        n = self.pattern.n
        r0, r1 = blocks.start * n, blocks.stop * n
        if self.dense:
            np.matmul(self.mat[r0:r1], x, out=out[r0:r1])
        else:
            m = self.mat
            _sparsetools.csr_matvecs(r1 - r0, n, x.shape[1], m.indptr[r0:r1 + 1], m.indices,
                                     m.data, x.reshape(-1), out[r0:r1].reshape(-1))

    def transpose_times(self, g, out):
        """Kernel: stack.T @ the C-ordered g into `out`; a CSR multiplies
        through its CSC view, so no transpose is sorted."""
        if self.dense:
            np.matmul(self.mat.T, g, out=out)
        else:
            m = self.mat
            _sparsetools.csc_matvecs(self.shape[1], self.shape[0], g.shape[1], m.indptr,
                                     m.indices, m.data, g.reshape(-1), out.reshape(-1))


SAMPLE_BLOCK_BYTES = 4 << 20  # size of one kernel's buffer for the sampled product


def _sampled(pattern, g, x, out, parts):
    """Kernels that fill the (k, nnz) `out` with (g @ x.T) at the
    pattern's entries of each of the k stacked blocks, one per range of
    blocks in `parts`.

    Entry e of block d is g[d*n + row_e] . x[col_e]. Each kernel works
    in its own buffer of at most SAMPLE_BLOCK_BYTES, made here: one BLAS
    product per block of rows, kept only at the block's entries (a
    sampled dense-dense product), or, below 5% density, row pairs
    gathered per block of entries.
    """
    n, f = pattern.n, x.shape[1]
    if pattern.nnz * 20 > n * n:
        step = max(1, SAMPLE_BLOCK_BYTES // (8 * n))
        size = step * n
        at = (pattern.rows % step) * n + pattern.cols  # offsets in each row block's product

        def fill(blocks, buf):
            for r0 in range(0, n, step):
                r1 = min(r0 + step, n)
                e = slice(pattern.indptr[r0], pattern.indptr[r1])
                prod = buf[:(r1 - r0) * n]
                for d in blocks:
                    np.matmul(g[d * n + r0:d * n + r1], x.T, out=prod.reshape(r1 - r0, n))
                    # "clip" writes straight into `out` ("raise" buffers it);
                    # every index is in range
                    np.take(prod, at[e], out=out[d, e], mode="clip")
    else:
        step = max(1, SAMPLE_BLOCK_BYTES // (16 * f))
        size = 2 * step * f

        def fill(blocks, buf):
            for lo in range(0, pattern.nnz, step):
                rows, cols = pattern.rows[lo:lo + step], pattern.cols[lo:lo + step]
                m = rows.size
                xs = np.take(x, cols, axis=0, out=buf[:m * f].reshape(m, f), mode="clip")
                gs = buf[m * f:2 * m * f].reshape(m, f)
                for d in blocks:
                    np.take(g[d * n:(d + 1) * n], rows, axis=0, out=gs, mode="clip")
                    np.einsum("ij,ij->i", gs, xs, out=out[d, lo:lo + m])

    return [partial(fill, blocks, np.empty(size)) for blocks in parts]


def spmm(op, values, x):
    """Sparse @ dense where the sparse values live on a fixed pattern.

    `op` is the `StackedOperator` made from the (k, nnz) `values`.
    Gradient flows to both the values and the dense operand; neither
    adjoint forms a dense (k*n, n) array for a sparse operator. The
    product runs as two halves of the blocks; the adjoint runs the
    operand adjoint beside the values adjoint, or halves the values
    adjoint when it is the only one needed.
    """
    if values.value.size != op.nnz:
        raise ShapeError(f"spmm: values shape {values.value.shape} holds no {op.nnz} entries")
    if op.shape[1] != x.value.shape[0]:
        raise ShapeError(f"spmm: {op.shape} @ {x.value.shape}")
    nv, nx = values.requires_grad, x.requires_grad
    xv = np.ascontiguousarray(x.value)

    def vjp(g):
        g = np.ascontiguousarray(g)
        kernels = []
        gx = gv = None
        if nx:
            gx = (np.empty if op.dense else np.zeros)(xv.shape)
            kernels.append(partial(op.transpose_times, g, gx))
        if nv:
            gv = np.empty((op.k, op.pattern.nnz))
            kernels += _sampled(op.pattern, g, xv, gv,
                                [range(op.k)] if nx else _halves(op.k))
        _run(*kernels)
        return (gv.reshape(values.value.shape) if nv else None), gx

    out = (np.empty if op.dense else np.zeros)((op.shape[0], xv.shape[1]))
    _run(*(partial(op.blocks_times, blocks, xv, out) for blocks in _halves(op.k)))
    return _node(out, (values, x), vjp)


def gather_nd(x, rows, cols, unique=False):
    """Pick entries x[rows[k], cols[k]] into a flat vector.

    Set `unique=True` when the index pairs are known distinct; the
    adjoint then scatters by assignment instead of `np.add.at`.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)

    def vjp(g):
        out = np.zeros_like(x.value)
        if unique:
            out[rows, cols] = g
        else:
            np.add.at(out, (rows, cols), g)
        return (out,)

    return _node(x.value[rows, cols], (x,), vjp)


def scatter_nd(values, rows, cols, shape):
    """Dense array with `values` placed at (rows, cols), zero elsewhere.

    With a 3-d `shape` (k, n, m), the (k, len(rows)) `values` fill the
    same positions of all k matrices.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    out = np.zeros(shape)
    out[..., rows, cols] = values.value
    return _node(out, (values,), lambda g: (g[..., rows, cols],))


# ---------------------------------------------------------------------------
# nonlinearities


def log(a):
    return _node(np.log(a.value), (a,), lambda g: (g * (1.0 / a.value),))


def logistic(x):
    """1 / (1 + exp(-x)) of an ndarray, without overflow for either sign."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a):
    y = logistic(a.value)
    return _node(y, (a,), lambda g: (g * y * (1.0 - y),))


def clip(a, lo, hi):
    """Clamp values; the adjoint passes straight through the clamp."""
    return _node(np.clip(a.value, lo, hi), (a,), lambda g: (g,))


def softmax_array(x, axis=-1):
    """exp(x) / sum(exp(x)) along `axis` of an ndarray, shifted by the max."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax(a, axis=-1):
    y = softmax_array(a.value, axis)
    return _node(y, (a,),
                 lambda g: (y * (g - (g * y).sum(axis=axis, keepdims=True)),))


# ---------------------------------------------------------------------------
# reductions, shaping


def tsum(a, axis=None, keepdims=False):
    y = a.value.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g = np.asarray(g)
        if axis is None:
            return (np.broadcast_to(g, a.value.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.value.shape).copy(),)

    return _node(y, (a,), vjp)


def tmean(a, axis=None, keepdims=False):
    n = a.value.size if axis is None else a.value.shape[axis]
    return div(tsum(a, axis=axis, keepdims=keepdims), float(n))


def transpose(a):
    return _node(a.value.T, (a,), lambda g: (g.T,))


def block_matmul(x, weights, block, slope):
    """Per-block linear maps and the leaky relu: rows [d*block, (d+1)*block)
    of x hit weights[d], and each product y becomes max(y, slope * y).

    That is y where y > 0 and slope * y elsewhere, for 0 <= slope <= 1,
    so slope 1 is the plain linear map, to the bit. The one exception is
    slope 0 with a product of +inf, which gives nan (0 * inf). One fused
    op instead of k slice-then-matmul pairs and an activation: the tape
    keeps the activated output alone, and the adjoint reads the sign from
    it (out > 0 exactly where y > 0, but for that exception), then fills
    a single buffer w.r.t. x. Forward and adjoint each run as two halves
    of the blocks, each with its own (block, f_out) buffer.
    """
    xs = x.value
    k = xs.shape[0] // block
    if xs.ndim != 2 or xs.shape[0] % block or len(weights) != k:
        raise ShapeError(f"block_matmul: {xs.shape} with {len(weights)} weights "
                         f"of block {block}")
    wvals = [w.value for w in weights]
    f_in, f_out = wvals[0].shape
    for w in wvals:
        if w.shape != (f_in, f_out) or f_in != xs.shape[1]:
            raise ShapeError(f"block_matmul: weight shape {w.shape} incompatible "
                             f"with input {xs.shape}")
    out = np.empty((xs.shape[0], f_out))

    def forward(blocks, buf):
        for d in blocks:
            sl = slice(d * block, (d + 1) * block)
            np.matmul(xs[sl], wvals[d], out=buf)
            np.multiply(buf, slope, out=out[sl])  # max(slope * y, y)
            np.maximum(out[sl], buf, out=out[sl])

    _run(*(partial(forward, blocks, np.empty((block, f_out))) for blocks in _halves(k)))

    def vjp(g):
        gx = np.empty_like(xs) if x.requires_grad else None
        gws = [np.empty((f_in, f_out)) if w.requires_grad else None for w in weights]

        def adjoint(blocks, buf):
            for d in blocks:
                sl = slice(d * block, (d + 1) * block)
                # where(out > 0, g, slope * g), block by block
                np.multiply(g[sl], slope, out=buf)
                np.copyto(buf, g[sl], where=out[sl] > 0)
                if gx is not None:
                    np.matmul(buf, wvals[d].T, out=gx[sl])
                if gws[d] is not None:
                    np.matmul(xs[sl].T, buf, out=gws[d])

        _run(*(partial(adjoint, blocks, np.empty((block, f_out))) for blocks in _halves(k)))
        return (gx, *gws)

    return _node(out, (x, *weights), vjp)


def block_weighted_sum(x, coeffs, block):
    """sum_d coeffs[d] * block_d over a (k*block, m) stack -> (block, m)."""
    xs = x.value
    k = xs.shape[0] // block
    cs = coeffs.value.reshape(-1)
    if xs.ndim != 2 or xs.shape[0] % block or cs.size != k:
        raise ShapeError(f"block_weighted_sum: {xs.shape} with {cs.size} "
                         f"coefficients of block {block}")
    x3 = xs.reshape(k, block, xs.shape[1])
    out = np.einsum("d,dnm->nm", cs, x3)

    def vjp(g):
        gx = None
        if x.requires_grad:
            gx = np.empty_like(xs)
            for d in range(k):
                np.multiply(g, cs[d], out=gx[d * block:(d + 1) * block])
        gc = np.einsum("nm,dnm->d", g, x3).reshape(coeffs.value.shape) \
            if coeffs.requires_grad else None
        return (gx, gc)

    return _node(out, (x, coeffs), vjp)


def normalize_blocks(values, pattern):
    """Degree-normalize k symmetric matrices given as values on one pattern.

    Row j of the (k, nnz) `values` holds matrix A_j on `pattern`, a
    `SymmetricPattern`. Each A_j becomes S (A_j + I) S with
    S = diag(rowsum(A_j + I))^-1/2, returned on the same pattern. Row
    sums reduce over the CSR rows; the column factors' adjoint reads
    them through the transpose permutation, so nothing is densified.
    Fused single op (forward and adjoint written by hand) because this
    sits on the per-epoch hot path for every aggregated level. Forward
    and adjoint each run as two halves of the k matrices, one matrix at
    a time: the factors are gathered into a buffer of one row, and the
    result is built in the buffer of B = A + I.
    """
    arr = values.value
    if arr.ndim != 2 or arr.shape[1] != pattern.nnz:
        raise ShapeError(f"normalize_blocks: values shape {arr.shape} not "
                         f"(k, {pattern.nnz}) on the pattern")
    rows, cols = pattern.rows, pattern.cols
    starts = pattern.indptr[:-1].astype(np.intp)  # no row is empty: each holds its diagonal
    k, nnz, n = arr.shape[0], pattern.nnz, pattern.n

    y = arr.copy()
    y[:, pattern.diag] += 1.0
    deg, s = np.empty((k, n)), np.empty((k, n))

    def forward(blocks, buf):
        for d in blocks:
            np.add.reduceat(y[d], starts, out=deg[d])
            np.divide(1.0, np.sqrt(deg[d], out=s[d]), out=s[d])
            y[d] *= np.take(s[d], rows, out=buf, mode="clip")
            y[d] *= np.take(s[d], cols, out=buf, mode="clip")

    _run(*(partial(forward, blocks, np.empty(nnz)) for blocks in _halves(k)))

    def vjp(g):
        gb = np.empty((k, nnz))

        def adjoint(blocks, gy, buf, gs, mirrored):
            for d in blocks:
                # d/ds collects the row-factor and column-factor appearances
                np.multiply(g[d], y[d], out=gy)
                np.add.reduceat(gy, starts, out=gs)
                gs += np.add.reduceat(np.take(gy, pattern.mirror, out=buf, mode="clip"),
                                      starts, out=mirrored)
                gs /= s[d]  # the order of -0.5 * gs * s / deg, so no bit changes
                gs *= -0.5
                gs *= s[d]
                gs /= deg[d]  # now d/d deg
                # d/dB through the row factors, col factors next
                np.multiply(g[d], np.take(s[d], rows, out=buf, mode="clip"), out=gb[d])
                gb[d] *= np.take(s[d], cols, out=buf, mode="clip")
                gb[d] += np.take(gs, rows, out=buf, mode="clip")

        _run(*(partial(adjoint, blocks, np.empty(nnz), np.empty(nnz), np.empty(n), np.empty(n))
               for blocks in _halves(k)))
        return (gb,)

    return _node(y, (values,), vjp)


# ---------------------------------------------------------------------------
# backward pass


def _toposort(out):
    topo, seen, stack = [], set(), [(out, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return topo


def backward(out, seed=None):
    """Accumulate adjoints of `out` into the `.grad` of every leaf on a
    path to it.

    `seed` defaults to ones of the output shape. An interior node's
    adjoint is freed (`.grad = None`) as soon as its vjp has consumed
    it, so the sweep holds only the frontier of adjoints still to be
    propagated, not one per node of the tape. Leaves that do not lie on
    a path to the output keep `.grad = None`; read them through
    `grad_or_zero`. Running it again on the same tape is allowed.
    """
    if not isinstance(out, Tensor):
        raise TypeError("backward expects a Tensor")
    if seed is None:
        seed = np.ones_like(out.value)
    else:
        seed = np.asarray(seed, dtype=np.float64)
        if seed.shape != out.value.shape:
            raise ShapeError(f"seed shape {seed.shape} != output shape {out.value.shape}")
    topo = _toposort(out)
    for node in topo:
        node.grad = None
    out.grad = seed
    for node in reversed(topo):
        if node._vjp is None or node.grad is None:
            continue
        grads = node._vjp(node.grad)
        node.grad = None
        for parent, g in zip(node._parents, grads):
            if g is not None and parent.requires_grad:
                parent.grad = g if parent.grad is None else parent.grad + g
    return out


def grad_or_zero(t):
    return t.grad if t.grad is not None else np.zeros_like(t.value)


def grad_check(fn, inputs, epsilon=1e-5, n_coords=200, rng=None):
    """Compare reverse-mode adjoints against central finite differences.

    `fn` maps a dict of named Tensors to a scalar Tensor. Returns the
    maximum relative error max(|ad - fd| / max(1, |ad|, |fd|)) over a
    sampled coordinate subset (at least 50 coordinates, or all of them
    when fewer exist).
    """
    rng = rng or np.random.default_rng(0)
    leaves = {k: leaf(np.asarray(v, dtype=np.float64), name=k) for k, v in inputs.items()}
    out = fn(leaves)
    if out.value.size != 1:
        raise ValueError("grad_check requires a scalar-valued expression")
    backward(out)
    ad = {k: grad_or_zero(t) for k, t in leaves.items()}

    coords = [(k, i) for k, v in leaves.items() for i in range(v.value.size)]
    want = max(50, min(n_coords, len(coords)))
    if len(coords) > want:
        idx = rng.choice(len(coords), size=want, replace=False)
        coords = [coords[i] for i in sorted(idx)]

    def eval_at(name, flat_index, delta):
        probe = {}
        for k, t in leaves.items():
            v = t.value.copy()
            if k == name:
                v.flat[flat_index] += delta
            probe[k] = constant(v)
        return float(val(fn(probe)))

    worst = 0.0
    for name, i in coords:
        fplus = eval_at(name, i, epsilon)
        fminus = eval_at(name, i, -epsilon)
        fd = (fplus - fminus) / (2.0 * epsilon)
        a = float(ad[name].flat[i])
        err = abs(a - fd) / max(1.0, abs(a), abs(fd))
        worst = max(worst, err)
    return worst
