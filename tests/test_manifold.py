import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hypermux.autodiff as ad
import hypermux.manifold as mf


def ball_points(n, m, seed, max_norm=0.95):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, m))
    radii = rng.uniform(0, max_norm, size=(n, 1))
    return x / np.linalg.norm(x, axis=1, keepdims=True) * radii


# --- Mobius addition -------------------------------------------------------


def test_mobius_left_identity():
    y = np.array([0.3, -0.4])
    assert np.allclose(mf.mobius_add(np.zeros(2), y), y, atol=1e-12)


def test_mobius_left_inverse():
    x = np.array([0.5, 0.2])
    assert np.allclose(mf.mobius_add(-x, x), 0.0, atol=1e-12)


def test_mobius_hand_value():
    out = mf.mobius_add(np.array([0.5, 0.0]), np.array([0.5, 0.0]))
    assert np.allclose(out, [0.8, 0.0], atol=1e-12)


def test_mobius_rejects_points_outside_ball():
    with pytest.raises(mf.ManifoldDomainError):
        mf.mobius_add(np.array([1.0, 0.0]), np.array([0.1, 0.0]))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_mobius_stays_inside_ball(seed):
    x = ball_points(200, 4, seed)
    y = ball_points(200, 4, seed + 1)
    out = mf.mobius_add(x, y)
    assert np.all(np.linalg.norm(out, axis=1) < 1.0)


# --- Poincare maps ---------------------------------------------------------


def test_poincare_exp0_at_zero():
    assert np.allclose(mf.poincare_exp0(np.zeros(3)), 0.0)


def test_poincare_exp0_hand_value():
    out = mf.poincare_exp0(np.array([1.0, 0.0]))
    assert out[0] == pytest.approx(np.tanh(1.0), abs=1e-12)
    assert out[1] == 0.0


def test_poincare_roundtrip():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(500, 6))
    h *= (rng.uniform(0, 3.0, size=(500, 1)) / np.linalg.norm(h, axis=1, keepdims=True))
    assert np.allclose(mf.poincare_log0(mf.poincare_exp0(h)), h, atol=1e-9)


def test_poincare_exp0_clamps_the_ball_radius():
    # tanh rounds to 1 from |h| ~ 19.1; the lift stays inside the open ball
    far = mf.lift(np.array([[20.0, 0.0, 0.0]]), mf.POINCARE)
    assert np.linalg.norm(far) < 1.0
    score = mf.fermi_dirac_score(far, mf.lift(np.array([[3.0, 0.0, 0.0]]), mf.POINCARE))
    assert np.all(np.isfinite(score))
    # below arctanh(1 - BALL_EPS) the clamp changes no bit
    limit = np.arctanh(1.0 - mf.BALL_EPS)
    rng = np.random.default_rng(5)
    h = rng.normal(size=(200, 4))
    r = rng.uniform(0.0, limit, size=(200, 1))
    r[:3, 0] = [1e-3, 8.4, np.nextafter(limit, 0.0)]
    h *= r / np.linalg.norm(h, axis=1, keepdims=True)
    norms = np.linalg.norm(h, axis=1, keepdims=True)
    assert norms.max() < limit
    assert np.array_equal(mf.poincare_exp0(h), h * (np.tanh(norms) / norms))


def test_poincare_log0_domain_error():
    with pytest.raises(mf.ManifoldDomainError):
        mf.poincare_log0(np.array([1.2, 0.0]))


# --- Minkowski / Lorentz ---------------------------------------------------


def test_minkowski_base_point_self_product():
    x0 = np.array([1.0, 0.0, 0.0])
    assert mf.minkowski_inner(x0, x0) == pytest.approx(-1.0)


def test_minkowski_orthogonal_spatial():
    assert mf.minkowski_inner(np.array([0.0, 1.0, 0.0]),
                              np.array([0.0, 0.0, 1.0])) == pytest.approx(0.0)


def test_minkowski_hand_value():
    assert mf.minkowski_inner(np.array([2.0, 1.0, 1.0]),
                              np.array([1.0, 2.0, 0.0])) == pytest.approx(0.0)


def test_minkowski_length_mismatch():
    with pytest.raises(ad.ShapeError):
        mf.minkowski_inner(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))


def test_lorentz_log0_of_base_point_is_zero():
    assert np.allclose(mf.lorentz_log0(np.array([1.0, 0.0, 0.0])), 0.0)


def test_lorentz_exp0_hand_value():
    out = mf.lorentz_exp0(np.array([0.0, 1.0, 0.0]))
    assert np.allclose(out, [np.cosh(1.0), np.sinh(1.0), 0.0], atol=1e-12)


def test_lorentz_exp0_lands_on_hyperboloid():
    rng = np.random.default_rng(1)
    h = np.concatenate([np.zeros((300, 1)), rng.normal(size=(300, 5))], axis=1)
    y = mf.lorentz_exp0(h)
    assert mf.lorentz_violation(y) < 1e-9


def test_lorentz_roundtrip():
    rng = np.random.default_rng(2)
    h = np.concatenate([np.zeros((500, 1)), rng.normal(size=(500, 4))], axis=1)
    norms = np.linalg.norm(h[:, 1:], axis=1, keepdims=True)
    h[:, 1:] *= rng.uniform(0, 3.0, size=(500, 1)) / norms
    assert np.allclose(mf.lorentz_log0(mf.lorentz_exp0(h)), h, atol=1e-9)


def test_lorentz_exp0_rejects_nonzero_time_component():
    with pytest.raises(mf.ManifoldDomainError):
        mf.lorentz_exp0(np.array([0.5, 1.0, 0.0]))


def test_lorentz_log0_rejects_off_hyperboloid():
    with pytest.raises(mf.ManifoldDomainError):
        mf.lorentz_log0(np.array([2.0, 0.0, 0.0]))


# --- Fermi-Dirac decoder ---------------------------------------------------


def test_fermi_dirac_zero_distance():
    z = np.array([0.1, 0.2])
    score = mf.fermi_dirac_score(z, z, r=2.0, t=1.0)
    assert score == pytest.approx(1.0 / (1.0 + np.exp(-2.0)), abs=1e-9)
    assert score == pytest.approx(0.88080, abs=1e-5)


def test_fermi_dirac_vanishes_at_boundary():
    z = np.array([0.0, 0.0])
    far = np.array([1.0 - 1e-9, 0.0])
    assert mf.fermi_dirac_score(z, far, r=2.0, t=1.0) < 1e-6


def test_fermi_dirac_symmetry():
    rng = np.random.default_rng(3)
    a = ball_points(100, 3, 10)
    b = ball_points(100, 3, 11)
    s_ab = mf.fermi_dirac_score(a, b)
    s_ba = mf.fermi_dirac_score(b, a)
    assert np.allclose(s_ab, s_ba, atol=1e-9)


def test_fermi_dirac_monotone_in_distance():
    anchor = np.tile(np.array([[0.1, 0.0]]), (50, 1))
    radii = np.linspace(0.0, 0.99, 50)
    ray = np.stack([radii, np.zeros(50)], axis=1)
    scores = mf.fermi_dirac_score(anchor, ray)
    moved = np.linalg.norm(mf.mobius_add(-anchor, ray), axis=1)
    order = np.argsort(moved)
    assert np.all(np.diff(scores[order]) < 0)


def test_fermi_dirac_lorentz_matches_ball_carryover():
    rng = np.random.default_rng(4)
    h = np.concatenate([np.zeros((20, 1)), rng.normal(size=(20, 3)) * 0.5], axis=1)
    y1, y2 = mf.lorentz_exp0(h), mf.lorentz_exp0(h[::-1].copy())
    via_lorentz = mf.fermi_dirac_score(y1, y2, kind=mf.LORENTZ)
    p1 = y1[:, 1:] / (1.0 + y1[:, :1])
    p2 = y2[:, 1:] / (1.0 + y2[:, :1])
    via_ball = mf.fermi_dirac_score(p1, p2, kind=mf.POINCARE)
    assert np.allclose(via_lorentz, via_ball, atol=1e-12)


def test_fermi_dirac_requires_positive_temperature():
    with pytest.raises(ValueError):
        mf.fermi_dirac_score(np.zeros(2), np.zeros(2), t=0.0)


# --- lifting ---------------------------------------------------------------


def test_to_euclidean_is_identity_for_euclidean():
    x = np.random.default_rng(5).normal(size=(4, 3))
    assert mf.to_euclidean(x, mf.EUCLIDEAN) is x


def test_to_euclidean_inverts_poincare_lift():
    rng = np.random.default_rng(6)
    h = rng.normal(size=(50, 4)) * 0.4
    assert np.allclose(mf.to_euclidean(mf.lift(h, mf.POINCARE), mf.POINCARE), h,
                       atol=1e-9)


def test_to_euclidean_inverts_lorentz_lift():
    rng = np.random.default_rng(7)
    h = rng.normal(size=(50, 4))
    lifted = mf.lift(h, mf.LORENTZ)
    assert lifted.shape == (50, 5)
    assert np.allclose(mf.to_euclidean(lifted, mf.LORENTZ), h, atol=1e-9)


def test_lorentz_base_point_maps_to_zero_vector():
    out = mf.to_euclidean(np.array([[1.0, 0.0, 0.0, 0.0]]), mf.LORENTZ)
    assert out.shape == (1, 3)
    assert np.allclose(out, 0.0)


def test_unknown_manifold_rejected():
    with pytest.raises(ValueError, match="unknown manifold"):
        mf.lift(np.zeros((1, 2)), "spherical")
