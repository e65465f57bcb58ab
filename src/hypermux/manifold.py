"""Riemannian manifold kernels: Poincare ball and Lorentz hyperboloid.

All maps are taken at the canonical base point (the ball origin,
respectively (1, 0, ..., 0) on the hyperboloid) with curvature fixed at
-1. Functions take and return numpy arrays and work on the last axis,
so a 2-d input is a batch of rows and a 1-d input is one point. The
model trains in tangent coordinates and lifts its output once, so
nothing differentiates through these maps. Points are domain checked
on the way in; the Fermi-Dirac decoder, fed by `lift`, is not.

Numerical guards: ball norms are clamped to <= 1 - BALL_EPS after tanh
and before arctanh, arcosh arguments to >= 1 + ACOSH_EPS.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ShapeError, logistic

EUCLIDEAN = "euclidean"
POINCARE = "poincare"
LORENTZ = "lorentz"
MANIFOLDS = (EUCLIDEAN, POINCARE, LORENTZ)

BALL_EPS = 1e-7
ACOSH_EPS = 1e-12
_TINY = 1e-15


class ManifoldDomainError(ValueError):
    """Input lies outside the manifold (or its tangent space) domain."""


def check_manifold(kind):
    if kind not in MANIFOLDS:
        raise ValueError(f"unknown manifold kind {kind!r}; expected one of {MANIFOLDS}")


def _array(x):
    return np.asarray(x, dtype=np.float64)


def _norm(x):
    """Euclidean norm over the last axis, kept as a length-1 axis."""
    return np.sqrt((x * x).sum(axis=-1, keepdims=True))


def _safe_ratio(fn, r):
    """fn(r)/r with the continuous extension fn(r)/r -> 1 at r = 0."""
    mask = r > _TINY
    r_safe = np.where(mask, r, 1.0)
    return np.where(mask, fn(r_safe) / r_safe, 1.0)


# ---------------------------------------------------------------------------
# Poincare ball


def _check_ball(x):
    n = np.linalg.norm(x, axis=-1)
    if np.any(n >= 1.0):
        raise ManifoldDomainError(f"ball point has norm {n.max():.6g} >= 1")


def _mobius_add(x, y):
    xy = (x * y).sum(axis=-1, keepdims=True)
    xx = (x * x).sum(axis=-1, keepdims=True)
    yy = (y * y).sum(axis=-1, keepdims=True)
    num = (1.0 + 2.0 * xy + yy) * x + (1.0 - xx) * y
    den = 1.0 + 2.0 * xy + xx * yy
    return num / den


def mobius_add(x, y):
    """Mobius addition on the open unit ball, row-wise."""
    x, y = _array(x), _array(y)
    _check_ball(x)
    _check_ball(y)
    return _mobius_add(x, y)


def poincare_exp0(h):
    """Exponential map at the ball origin: tanh(|h|) * h / |h|, the
    radius clamped at 1 - BALL_EPS (tanh rounds to 1 from |h| ~ 19.1)."""
    h = _array(h)
    return h * _safe_ratio(lambda t: np.clip(np.tanh(t), 0.0, 1.0 - BALL_EPS), _norm(h))


def poincare_log0(p):
    """Logarithmic map at the ball origin: arctanh(|p|) * p / |p|."""
    p = _array(p)
    _check_ball(p)
    return p * _safe_ratio(lambda t: np.arctanh(np.clip(t, 0.0, 1.0 - BALL_EPS)), _norm(p))


# ---------------------------------------------------------------------------
# Lorentz hyperboloid


def minkowski_inner(u, v):
    """Minkowski inner product -u0*v0 + sum_i>0 ui*vi, row-wise (N, 1);
    a float for two 1-d points."""
    u, v = _array(u), _array(v)
    if u.shape[-1] != v.shape[-1]:
        raise ShapeError(f"minkowski_inner: lengths {u.shape[-1]} != {v.shape[-1]}")
    if u.shape[-1] < 2:
        raise ShapeError("minkowski_inner: need at least 2 coordinates")
    out = (u * v).sum(axis=-1, keepdims=True) - 2.0 * (u[..., :1] * v[..., :1])
    return float(out[0]) if out.ndim == 1 else out


def lorentz_violation(points):
    """Max |<y,y>_L + 1| over rows; 0 for exact hyperboloid points."""
    p = _array(points)
    q = -p[:, 0] ** 2 + (p[:, 1:] ** 2).sum(axis=1)
    return float(np.abs(q + 1.0).max())


def _check_hyperboloid(p, tol=1e-6):
    p = p.reshape(-1, p.shape[-1])
    dev = lorentz_violation(p)
    if dev > tol or np.any(p[:, 0] < 0):
        raise ManifoldDomainError(f"point off the hyperboloid by {dev:.3g} (tol {tol:g})")


def lorentz_exp0(h):
    """Exponential map at (1,0,...,0); `h` is tangent there (h[0] = 0)."""
    h = _array(h)
    h0 = np.abs(h[..., 0]).max()
    if h0 > 1e-9:
        raise ManifoldDomainError(f"tangent vector has time component {h0:.3g} != 0")
    r = np.sqrt(np.clip(minkowski_inner(h, h), 0.0, np.inf))
    base = np.zeros(h.shape[-1])
    base[0] = 1.0
    return np.cosh(r) * base + h * _safe_ratio(np.sinh, r)


def lorentz_log0(p):
    """Logarithmic map at (1,0,...,0); output is tangent there (zero time)."""
    p = _array(p)
    _check_hyperboloid(p)
    p0 = np.clip(p[..., :1], 1.0 + ACOSH_EPS, np.inf)
    scale = np.arccosh(p0) / np.sqrt(p0 * p0 - 1.0)
    return np.concatenate([np.zeros_like(p0), scale * p[..., 1:]], axis=-1)


def _to_ball(y):
    return y[..., 1:] / (1.0 + y[..., :1])


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
    x = _array(x)
    return lorentz_exp0(np.concatenate([np.zeros((x.shape[0], 1)), x], axis=1))


def to_euclidean(z, kind):
    """Log map at the base point; Lorentz output drops the time coordinate."""
    check_manifold(kind)
    if kind == EUCLIDEAN:
        return z
    if kind == POINCARE:
        return poincare_log0(z)
    return lorentz_log0(z)[..., 1:]


# ---------------------------------------------------------------------------
# Fermi-Dirac edge decoder


def fermi_dirac_score(z_i, z_j, r=2.0, t=1.0, kind=POINCARE):
    """Edge probability 1 / (exp((arctanh(|-z_i (+) z_j|)^2 - r)/t) + 1).

    Row-wise over point pairs, a float for two 1-d points. The points
    must come from `lift`: they are not domain checked, since lifted
    hyperboloid points at tangent norms ~15 already miss the
    hyperboloid check's tolerance. Lorentz inputs are carried to the
    ball first; the score decreases monotonically with hyperbolic
    distance and lies strictly inside (0, 1).
    """
    if t <= 0:
        raise ValueError("fermi_dirac_score: t must be positive")
    check_manifold(kind)
    if kind == EUCLIDEAN:
        raise ValueError("fermi_dirac_score is hyperbolic; use a dot-product "
                         "score for euclidean embeddings")
    z_i, z_j = _array(z_i), _array(z_j)
    if kind == LORENTZ:
        z_i, z_j = _to_ball(z_i), _to_ball(z_j)
    a = np.arctanh(np.clip(_norm(_mobius_add(-z_i, z_j)), 0.0, 1.0 - BALL_EPS))
    score = logistic((r - a * a) / t)[..., 0]
    return float(score) if score.ndim == 0 else score
