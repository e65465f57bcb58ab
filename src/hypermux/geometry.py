"""Intrinsic dimension diagnostics for embedding point clouds.

Two estimators:

  * `twonn_id`: the two-nearest-neighbor estimator of Facco et al.
    (2017). For each point, the ratio mu = r2/r1 of the distances to its
    two nearest neighbors follows a Pareto(1, delta) law on a uniform
    d-dimensional manifold; delta is recovered as the origin-constrained
    least-squares slope of (log mu, -log(1 - F(mu))) with the top decile
    of mu discarded (heavy-tail trimming, as in the original procedure).

  * `linear_id`: the number of principal components needed to explain a
    fixed fraction (default 90%) of the variance, i.e. the dimension of
    the smallest linear subspace that roughly encloses the cloud.

`curvature_gap` reports linear_id - twonn_id on the same points; large
values mean the cloud fills many linear directions while locally living
on a much lower-dimensional (hence strongly curved) manifold.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np


class EstimatorError(ValueError):
    pass


TWONN_MIN_POINTS = 10  # distinct points `twonn_id` needs


def _two_neighbor_ratios(points, chunk=512):
    """mu_i = r2/r1 per point, exact brute-force neighbors.

    Only the two smallest distances of each row matter, so a partial
    partition stands in for a full sort; which of two tied neighbors is
    picked does not change the distance values.
    """
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    sq = (x * x).sum(axis=1)
    mu = np.empty(n)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * (x[start:stop] @ x.T)
        np.maximum(d2, 0.0, out=d2)
        d2[np.arange(start, stop) - start, np.arange(start, stop)] = np.inf
        r = np.sqrt(np.partition(d2, 1, axis=1)[:, :2])
        mu[start:stop] = r[:, 1] / r[:, 0]
    return mu


def fit_pareto_slope(mu, trim=0.1):
    """Origin-constrained LS slope of (log mu, -log(1 - F_emp(mu))).

    The largest `trim` fraction of the ratios is dropped before the fit.
    """
    mu = np.sort(np.asarray(mu, dtype=np.float64))
    n = mu.size
    keep = int(np.floor((1.0 - trim) * n))
    if keep < 2:
        raise EstimatorError(f"too few ratios after trimming ({keep})")
    f_emp = np.arange(1, keep + 1) / n
    xs = np.log(mu[:keep])
    ys = -np.log(1.0 - f_emp)
    denom = float(xs @ xs)
    if denom == 0.0:
        raise EstimatorError("degenerate ratios: all mu equal 1")
    return float(xs @ ys) / denom


def twonn_id(points, trim=0.1):
    """Two-NN intrinsic dimension of a point cloud (>= 10 distinct points).

    Exact duplicate points are collapsed first (a zero first-neighbor
    distance would break the ratio).
    """
    return _twonn(points, trim)[0]


def _twonn(points, trim):
    """`twonn_id`'s estimate and the number of distinct points it used."""
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2:
        raise EstimatorError(f"expected a 2-d point array, got shape {x.shape}")
    deduped = np.unique(x, axis=0)
    if deduped.shape[0] < TWONN_MIN_POINTS:
        raise EstimatorError(
            f"need >= {TWONN_MIN_POINTS} distinct points, have {deduped.shape[0]}")
    return fit_pareto_slope(_two_neighbor_ratios(deduped), trim=trim), deduped.shape[0]


def linear_id(points, threshold=0.9):
    """Minimal component count explaining `threshold` of the variance."""
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise EstimatorError(f"need >= 2 points, got shape {x.shape}")
    centered = x - x.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / (x.shape[0] - 1)
    eigvals = np.linalg.eigvalsh(cov)[::-1]
    eigvals = np.clip(eigvals, 0.0, None)
    total = eigvals.sum()
    if total == 0.0:
        warnings.warn("all points identical: zero variance, returning 1")
        return 1
    cumulative = np.cumsum(eigvals) / total
    return int(np.searchsorted(cumulative, threshold - 1e-12) + 1)


@dataclass
class GeoReport:
    id_estimate: float
    lid_estimate: int
    gap: float  # lid - id; can be far below 0 (-8 to -13 for the full model in criterion 1)
    n_duplicates: int = 0
    trim: float = 0.1
    context: dict = field(default_factory=dict)


def curvature_gap(points, trim=0.1, threshold=0.9, context=None):
    """linear_id - twonn_id on the same cloud (tangent coordinates)."""
    x = np.asarray(points, dtype=np.float64)
    ide, n_distinct = _twonn(x, trim)
    lid = linear_id(x, threshold=threshold)
    return GeoReport(ide, lid, float(lid - ide), n_duplicates=x.shape[0] - n_distinct,
                     trim=trim, context=dict(context or {}))


# ---------------------------------------------------------------------------
# end-of-training gap sweep over graph dimension counts


@dataclass
class SweepRow:
    d: int
    model: str
    seed: int
    id_estimate: float
    lid_estimate: int
    gap: float
    loss_final: float


def sweep(specs, models, seeds, train_config, workers=1):
    """Generate, train, and measure the end-of-training gap per run.

    `specs` are generator parameter sets (one per D), `models` maps a
    variant name to its `model.ModelConfig`, `seeds` is an iterable of
    run seeds. Runs train with `train_config` under a derived seed.
    Individual run failures are recorded and the sweep continues.
    Returns (rows, failures).
    """
    from .synthetic import generate
    from .training import derive_seed, train

    jobs = [(spec, name, int(s)) for spec in specs for name in models for s in seeds]

    def run(job):
        spec, name, s = job
        result = generate(replace(spec, seed=derive_seed(spec.seed, s, 71)))
        tc = replace(train_config, seed=derive_seed(spec.seed, s, 72))
        outcome = train(result.graph, models[name], tc)
        report = curvature_gap(outcome.z_tangent)
        return SweepRow(spec.n_dims, name, s, report.id_estimate,
                        report.lid_estimate, report.gap, outcome.final_loss)

    rows, failures = [], []
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(lambda j: _guard(run, j), jobs))
    else:
        outcomes = [_guard(run, j) for j in jobs]
    for job, (row, err) in zip(jobs, outcomes):
        if err is not None:
            failures.append({"d": job[0].n_dims, "model": job[1], "seed": job[2],
                             "error": err})
            continue
        rows.append(row)
    return rows, failures


def _guard(fn, job):
    try:
        return fn(job), None
    except Exception as exc:  # noqa: BLE001 - sweep must survive bad runs
        return None, f"{type(exc).__name__}: {exc}"


def write_sweep_csv(rows, path):
    """d,model,seed,id,lid,gap,loss_final (the input for gap-vs-D plots)."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["d", "model", "seed", "id", "lid", "gap", "loss_final"])
        for r in rows:
            writer.writerow([r.d, r.model, r.seed, f"{r.id_estimate:.8g}",
                             r.lid_estimate, f"{r.gap:.8g}", f"{r.loss_final:.12g}"])
    return path
