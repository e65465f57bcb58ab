import threading

import numpy as np
import pytest

import hypermux.autodiff as ad
from hypermux import geometry as geo
from hypermux.training import TrainConfig


def embedded_uniform(n, intrinsic, ambient, seed):
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(n, intrinsic))
    basis = np.linalg.qr(rng.normal(size=(ambient, intrinsic)))[0]
    return u @ basis.T


# --- TwoNN -------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_twonn_recovers_plane(seed):
    pts = embedded_uniform(5000, 2, 10, seed)
    assert 1.8 <= geo.twonn_id(pts) <= 2.2


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_twonn_recovers_line(seed):
    pts = embedded_uniform(5000, 1, 5, seed)
    assert 0.9 <= geo.twonn_id(pts) <= 1.1


def _two_neighbor_ratios_by_argsort(points):
    """Full stable sort of every distance row: the reference the partial
    partition in `_two_neighbor_ratios` must reproduce bit for bit."""
    x = np.asarray(points, dtype=np.float64)
    sq = (x * x).sum(axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    d2[np.arange(len(x)), np.arange(len(x))] = np.inf
    idx = np.argsort(d2, axis=1, kind="stable")[:, :2]
    r = np.sqrt(np.take_along_axis(d2, idx, axis=1))
    return r[:, 1] / r[:, 0]


@pytest.mark.parametrize("chunk", [7, 512])
def test_two_neighbor_ratios_match_argsort_with_ties(chunk):
    # integer lattice points: most points have several neighbors at the
    # same distance, so first and second neighbors tie
    rng = np.random.default_rng(3)
    grid = np.stack(np.meshgrid(np.arange(6), np.arange(5), np.arange(4)), -1)
    pts = np.unique(np.concatenate([grid.reshape(-1, 3).astype(float),
                                    rng.integers(0, 6, size=(40, 3)) + 0.5]), axis=0)
    mu = geo._two_neighbor_ratios(pts, chunk=chunk)
    assert np.array_equal(mu, _two_neighbor_ratios_by_argsort(pts))
    assert np.sum(mu == 1.0) > len(pts) // 2  # ties really occur


def test_twonn_pareto_ratios_recover_shape():
    # mu ~ Pareto(scale 1, shape 3) synthesized by inverse CDF: the slope
    # of the trimmed fit must recover the shape parameter
    rng = np.random.default_rng(7)
    mu = (1.0 - rng.uniform(size=20000)) ** (-1.0 / 3.0)
    assert 2.85 <= geo.fit_pareto_slope(mu) <= 3.15


def test_twonn_requires_ten_distinct_points():
    pts = np.tile(np.arange(6, dtype=float)[:, None], (3, 2))
    with pytest.raises(geo.EstimatorError, match="distinct"):
        geo.twonn_id(pts)


def test_twonn_deduplicates_before_estimation():
    base = embedded_uniform(500, 2, 6, 3)
    doubled = np.concatenate([base, base[:100]], axis=0)
    assert geo.twonn_id(doubled) == pytest.approx(geo.twonn_id(base), abs=1e-12)


def test_twonn_invariant_under_isometries_and_scaling():
    pts = embedded_uniform(1500, 2, 8, 4)
    base = geo.twonn_id(pts)
    rng = np.random.default_rng(5)
    rot = np.linalg.qr(rng.normal(size=(8, 8)))[0]
    moved = 3.7 * pts @ rot.T + rng.normal(size=(1, 8))
    assert abs(geo.twonn_id(moved) - base) < 1e-9


def test_twonn_deterministic():
    pts = embedded_uniform(800, 3, 7, 6)
    assert geo.twonn_id(pts) == geo.twonn_id(pts.copy())


# --- linear (PCA) dimension --------------------------------------------------


def test_linear_id_exact_subspace():
    pts = embedded_uniform(400, 3, 10, 8)
    assert geo.linear_id(pts) == 3


def test_linear_id_whitened_gaussian_is_ninety_percent_of_ambient():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(20000, 10))
    x = (x - x.mean(0)) @ np.linalg.inv(np.linalg.cholesky(np.cov(x.T))).T
    assert geo.linear_id(x) == 9  # equal eigenvalues force ceil(0.9 M)


def test_linear_id_sampled_gaussian_within_one():
    rng = np.random.default_rng(10)
    assert abs(geo.linear_id(rng.normal(size=(20000, 10))) - 9) <= 1


def test_linear_id_one_dimensional_data():
    t = np.linspace(0, 1, 50)[:, None]
    assert geo.linear_id(t @ np.array([[1.0, 2.0, -1.0]])) == 1
    assert geo.linear_id(t @ np.array([[1.0, 2.0, -1.0]]), threshold=0.5) == 1


def test_linear_id_identical_points_warns_and_returns_one():
    with pytest.warns(UserWarning, match="zero variance"):
        assert geo.linear_id(np.ones((5, 4))) == 1


def test_linear_id_invariances():
    pts = embedded_uniform(600, 3, 9, 11)
    base = geo.linear_id(pts)
    rng = np.random.default_rng(12)
    rot = np.linalg.qr(rng.normal(size=(9, 9)))[0]
    assert geo.linear_id(5.0 * pts @ rot.T + rng.normal(size=(1, 9))) == base


# --- curvature gap -----------------------------------------------------------


def test_gap_near_zero_on_linear_data():
    pts = embedded_uniform(5000, 3, 10, 13)
    report = geo.curvature_gap(pts)
    assert report.lid_estimate == 3
    assert abs(report.gap) <= 0.3


def test_gap_on_circle():
    rng = np.random.default_rng(14)
    theta = rng.uniform(0, 2 * np.pi, size=3000)
    pts = np.zeros((3000, 10))
    pts[:, 0], pts[:, 1] = np.cos(theta), np.sin(theta)
    report = geo.curvature_gap(pts)
    assert report.lid_estimate == 2
    assert 0.8 <= report.id_estimate <= 1.2
    assert report.gap == pytest.approx(report.lid_estimate - report.id_estimate)


def test_gap_is_lid_minus_id_identity():
    rng = np.random.default_rng(15)
    report = geo.curvature_gap(rng.normal(size=(500, 10)))
    assert report.gap == report.lid_estimate - report.id_estimate


def test_report_counts_duplicates():
    pts = embedded_uniform(300, 2, 5, 17)
    doubled = np.concatenate([pts, pts[:25]], axis=0)
    assert geo.curvature_gap(doubled).n_duplicates == 25


# --- sweep -------------------------------------------------------------------


def quick_specs():
    from hypermux.synthetic import GenParams
    return [GenParams(n_nodes=40, n_clusters=2, n_dims=d, p_in=0.6, p_out=0.05,
                      seed=1) for d in (2, 3)]


def quick_models(*names):
    from hypermux.model import ModelConfig
    return {name: ModelConfig.for_variant(name, embed_size=4) for name in names}


def test_sweep_row_counting(tmp_path):
    rows, failures = geo.sweep(quick_specs(), quick_models("euclidean-single"), [0],
                               TrainConfig(max_epochs=3))
    assert not failures
    assert [(r.d, r.model, r.seed) for r in rows] == \
        [(2, "euclidean-single", 0), (3, "euclidean-single", 0)]
    path = tmp_path / "sweep.csv"
    geo.write_sweep_csv(rows, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "d,model,seed,id,lid,gap,loss_final"
    assert len(lines) == 3


def test_sweep_cartesian_product():
    rows, failures = geo.sweep(quick_specs(),
                               quick_models("euclidean-single", "layers-ablation"),
                               [0], TrainConfig(max_epochs=2))
    assert not failures and len(rows) == 4


def test_sweep_records_failures_and_continues():
    from hypermux.synthetic import GenParams
    bad = GenParams(n_nodes=40, n_clusters=2, n_dims=3, p_in=0.01, p_out=0.6, seed=0)
    rows, failures = geo.sweep([bad] + quick_specs(), quick_models("euclidean-single"),
                               [0], TrainConfig(max_epochs=2))
    assert len(failures) == 1 and "GenConfigError" in failures[0]["error"]
    assert len(rows) == 2


def test_sweep_workers_match_serial_while_the_kernel_pool_is_live(monkeypatch):
    # the main thread's sweep hands kernel halves to the pool; the sweep's
    # own worker threads run them themselves, with the same bits
    monkeypatch.setattr(ad, "_WORKERS", 1)
    specs, models = quick_specs(), quick_models("full", "euclidean-single")
    serial, failures = geo.sweep(specs, models, [0, 1], TrainConfig(max_epochs=3))
    assert not failures and len(serial) == 8 and ad._tasks is not None
    result = {}
    runner = threading.Thread(target=lambda: result.update(out=geo.sweep(
        specs, models, [0, 1], TrainConfig(max_epochs=3), workers=2)))
    runner.start()
    runner.join(timeout=300)
    assert not runner.is_alive()
    rows, failures = result["out"]
    assert not failures and rows == serial
