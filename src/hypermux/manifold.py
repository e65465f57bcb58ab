"""Riemannian manifold kernels: Poincare ball and Lorentz hyperboloid.

All maps are taken at the canonical base point (the ball origin,
respectively (1, 0, ..., 0) on the hyperboloid) with curvature fixed at
-1. Functions operate row-wise on 2-d arrays and accept either plain
numpy arrays or autodiff Tensors, so the same formulas serve both the
training trace and plain numeric use. Plain-array inputs are domain
checked; traced inputs are assumed valid (the model checks its
invariants on values separately).

Numerical guards: ball norms are clamped to <= 1 - BALL_EPS after tanh
and before arctanh, arcosh arguments to >= 1 + ACOSH_EPS. Adjoints
pass straight through the clamps.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import val

EUCLIDEAN = "euclidean"
POINCARE = "poincare"
LORENTZ = "lorentz"
MANIFOLDS = (EUCLIDEAN, POINCARE, LORENTZ)

BALL_EPS = 1e-7
ACOSH_EPS = 1e-12
_TINY = 1e-15


class ManifoldDomainError(ValueError):
    """Input lies outside the manifold (or its tangent space) domain."""


def _as_rows(x):
    """View 1-d input as a single row; remember to squeeze on the way out."""
    arr = val(x)
    if arr.ndim == 1 and not ad.is_tensor(x):
        return arr.reshape(1, -1), True
    return x, False


def _maybe_squeeze(y, squeeze):
    return y[0] if squeeze else y


def check_manifold(kind):
    if kind not in MANIFOLDS:
        raise ValueError(f"unknown manifold kind {kind!r}; expected one of {MANIFOLDS}")


# ---------------------------------------------------------------------------
# Poincare ball


def _check_ball(x, strict=True, what="point"):
    n = np.linalg.norm(val(x), axis=-1)
    if strict and np.any(n >= 1.0):
        raise ManifoldDomainError(f"ball {what} has norm {n.max():.6g} >= 1")


def mobius_add(x, y):
    """Mobius addition on the open unit ball, row-wise."""
    if not (ad.is_tensor(x) or ad.is_tensor(y)):
        _check_ball(x)
        _check_ball(y)
        x, sq = _as_rows(x)
        y, _ = _as_rows(y)
    else:
        sq = False
    xy = ad.tsum(ad.mul(x, y), axis=1, keepdims=True)
    xx = ad.tsum(ad.mul(x, x), axis=1, keepdims=True)
    yy = ad.tsum(ad.mul(y, y), axis=1, keepdims=True)
    num = ad.add(ad.mul(ad.add(ad.add(1.0, ad.mul(2.0, xy)), yy), x),
                 ad.mul(ad.sub(1.0, xx), y))
    den = ad.add(ad.add(1.0, ad.mul(2.0, xy)), ad.mul(xx, yy))
    return _maybe_squeeze(ad.div(num, den), sq)


def _safe_ratio(fn, r, limit_value=1.0):
    """fn(r)/r with the continuous extension fn(r)/r -> limit at r = 0."""
    mask = val(r) > _TINY
    r_safe = ad.where_mask(mask, r, 1.0)
    return ad.where_mask(mask, ad.div(fn(r_safe), r_safe), limit_value)


def poincare_exp0(h):
    """Exponential map at the ball origin: tanh(|h|) * h / |h|, the
    radius clamped at 1 - BALL_EPS (tanh rounds to 1 from |h| ~ 19.1)."""
    h, sq = _as_rows(h)
    r = ad.row_norm(h)
    return _maybe_squeeze(ad.mul(h, _safe_ratio(
        lambda t: ad.clip(ad.tanh(t), 0.0, 1.0 - BALL_EPS), r)), sq)


def poincare_log0(p):
    """Logarithmic map at the ball origin: arctanh(|p|) * p / |p|."""
    if not ad.is_tensor(p):
        _check_ball(p)
    p, sq = _as_rows(p)
    r = ad.row_norm(p)
    return _maybe_squeeze(
        ad.mul(p, _safe_ratio(lambda t: ad.arctanh(ad.clip(t, 0.0, 1.0 - BALL_EPS)), r)), sq)


# ---------------------------------------------------------------------------
# Lorentz hyperboloid


def minkowski_inner(u, v):
    """Minkowski inner product -u0*v0 + sum_i>0 ui*vi, row-wise (N, 1)."""
    uv, vv = val(u), val(v)
    if uv.shape[-1] != vv.shape[-1]:
        raise ad.ShapeError(f"minkowski_inner: lengths {uv.shape[-1]} != {vv.shape[-1]}")
    if uv.shape[-1] < 2:
        raise ad.ShapeError("minkowski_inner: need at least 2 coordinates")
    u, squ = _as_rows(u)
    v, sqv = _as_rows(v)
    full = ad.tsum(ad.mul(u, v), axis=1, keepdims=True)
    time = ad.mul(ad.slice_cols(u, 0, 1), ad.slice_cols(v, 0, 1))
    out = ad.sub(full, ad.mul(2.0, time))
    if squ and sqv:
        return float(val(out)[0, 0])
    return out


def lorentz_violation(points):
    """Max |<y,y>_L + 1| over rows; 0 for exact hyperboloid points."""
    p = val(points)
    q = -p[:, 0] ** 2 + (p[:, 1:] ** 2).sum(axis=1)
    return float(np.abs(q + 1.0).max())


def _check_hyperboloid(p, tol=1e-6):
    arr = val(p)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    dev = lorentz_violation(arr)
    if dev > tol or np.any(arr[:, 0] < 0):
        raise ManifoldDomainError(f"point off the hyperboloid by {dev:.3g} (tol {tol:g})")


def lorentz_base(m_plus_1):
    out = np.zeros(m_plus_1)
    out[0] = 1.0
    return out


def lorentz_exp0(h):
    """Exponential map at (1,0,...,0); `h` is tangent there (h[0] = 0)."""
    if not ad.is_tensor(h):
        h0 = np.abs(np.atleast_2d(val(h))[:, 0]).max()
        if h0 > 1e-9:
            raise ManifoldDomainError(f"tangent vector has time component {h0:.3g} != 0")
    h, sq = _as_rows(h)
    q = minkowski_inner(h, h)
    r = ad.sqrt(ad.clip(q, 0.0, np.inf))
    base = lorentz_base(val(h).shape[1]).reshape(1, -1)
    y = ad.add(ad.mul(ad.cosh(r), base), ad.mul(h, _safe_ratio(ad.sinh, r)))
    return _maybe_squeeze(y, sq)


def lorentz_log0(p):
    """Logarithmic map at (1,0,...,0); output is tangent there (zero time)."""
    if not ad.is_tensor(p):
        _check_hyperboloid(p)
    p, sq = _as_rows(p)
    p0 = ad.clip(ad.slice_cols(p, 0, 1), 1.0 + ACOSH_EPS, np.inf)
    scale = ad.div(ad.arcosh(p0), ad.sqrt(ad.sub(ad.mul(p0, p0), 1.0)))
    spatial = ad.mul(scale, ad.slice_cols(p, 1, None))
    zeros = np.zeros((val(p).shape[0], 1))
    return _maybe_squeeze(ad.concat([zeros, spatial], axis=1), sq)


def lorentz_to_ball(y):
    """Isometric carry-over from the hyperboloid to the Poincare ball."""
    if not ad.is_tensor(y):
        _check_hyperboloid(y)
    y, sq = _as_rows(y)
    denom = ad.add(1.0, ad.slice_cols(y, 0, 1))
    return _maybe_squeeze(ad.div(ad.slice_cols(y, 1, None), denom), sq)


# ---------------------------------------------------------------------------
# lifting in and out of the manifolds


def lift(x, kind):
    """Map flat feature rows onto the manifold via exp at the base point.

    Lorentz inputs get a zero time coordinate prepended first, so an
    (N, M) input produces (N, M+1) hyperboloid points.
    """
    check_manifold(kind)
    if kind == EUCLIDEAN:
        return x
    if kind == POINCARE:
        return poincare_exp0(x)
    zeros = np.zeros((val(x).shape[0], 1))
    return lorentz_exp0(ad.concat([zeros, x], axis=1))


def to_euclidean(z, kind):
    """Log map at the base point; Lorentz output drops the time coordinate."""
    check_manifold(kind)
    if kind == EUCLIDEAN:
        return z
    if kind == POINCARE:
        return poincare_log0(z)
    if not ad.is_tensor(z) and val(z).ndim == 1:
        return val(lorentz_log0(val(z).reshape(1, -1)))[0, 1:]
    return ad.slice_cols(lorentz_log0(z), 1, None)


# ---------------------------------------------------------------------------
# Fermi-Dirac edge decoder


def fermi_dirac_score(z_i, z_j, r=2.0, t=1.0, kind=POINCARE):
    """Edge probability 1 / (exp((arctanh(|-z_i (+) z_j|)^2 - r)/t) + 1).

    Row-wise over point pairs. Lorentz inputs are carried to the ball
    first; the score decreases monotonically with hyperbolic distance
    and lies strictly inside (0, 1).
    """
    if t <= 0:
        raise ValueError("fermi_dirac_score: t must be positive")
    check_manifold(kind)
    if kind == EUCLIDEAN:
        raise ValueError("fermi_dirac_score is hyperbolic; use a dot-product "
                         "score for euclidean embeddings")
    if kind == LORENTZ:
        z_i = lorentz_to_ball(z_i)
        z_j = lorentz_to_ball(z_j)
    elif not ad.is_tensor(z_i):
        _check_ball(z_i)
        _check_ball(z_j)
    z_i, sq = _as_rows(z_i)
    z_j, _ = _as_rows(z_j)
    u = mobius_add(ad.neg(z_i), z_j)
    n = ad.clip(ad.row_norm(u), 0.0, 1.0 - BALL_EPS)
    a = ad.arctanh(n)
    score = ad.sigmoid(ad.div(ad.sub(r, ad.mul(a, a)), t))
    out = score[:, 0] if not ad.is_tensor(score) else score
    if sq and not ad.is_tensor(out):
        return float(out[0])
    return out
