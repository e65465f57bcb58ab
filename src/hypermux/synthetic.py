"""Synthetic high-dimensional multiplex graphs with planted clusters.

A block-model style generator with two edge populations:

  * between-cluster links: independently for every dimension, every
    cross-cluster pair is linked with probability p_out;
  * within-cluster links: each cluster k draws a spread factor SF_k and
    splits its nodes into SF_k overlapping groups (25% oversampling),
    each group lands in a uniformly chosen dimension, groups sharing a
    dimension are merged, and pairs inside a merged group are linked
    with probability p_in.

Raising the number of dimensions D therefore accumulates divergent
cross-cluster edges while diluting the within-cluster edges over more
dimensions. All randomness is driven by a single integer seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .graph import MultiplexGraph, _symmetric_csr, degree_features, derive_seed, unique_keys

P_IN_RANGE = (0.1, 0.2)
P_OUT_RANGE = (0.01, 0.02)
SF_MAX_DEFAULT = 10


class GenConfigError(ValueError):
    """Infeasible or inconsistent generator parameters."""


@dataclass(frozen=True)
class GenParams:
    """Generator knobs. `None` fields resolve to paper-style defaults:

    p_in / p_out are drawn once per graph from (0.1, 0.2) / (0.01, 0.02),
    sf_range becomes (1, min(10, n_dims)), cluster_size_range becomes
    (floor(0.5 N/K), ceil(1.5 N/K)).
    """

    n_nodes: int = 2000
    n_clusters: int = 5
    n_dims: int = 10
    p_in: float | None = None
    p_out: float | None = None
    sf_range: tuple | None = None
    cluster_size_range: tuple | None = None
    seed: int = 0


def resolve_params(params: GenParams, rng=None):
    """Fill in defaults, draw per-graph probabilities, validate invariants.

    Returns a dict echoing every resolved value (written next to
    generated graphs so a run is reproducible from the echo alone).
    """
    rng = rng or np.random.default_rng(derive_seed(params.seed, 0xA11CE))
    n, k, d = params.n_nodes, params.n_clusters, params.n_dims
    if n < 1 or k < 1 or d < 1:
        raise GenConfigError("n_nodes, n_clusters and n_dims must be >= 1")
    p_in = params.p_in if params.p_in is not None else float(rng.uniform(*P_IN_RANGE))
    p_out = params.p_out if params.p_out is not None else float(rng.uniform(*P_OUT_RANGE))
    if not (0.0 <= p_out < p_in <= 1.0):
        raise GenConfigError(f"need 0 <= p_out < p_in <= 1, got p_in={p_in}, p_out={p_out}")
    sf_range = params.sf_range or (1, min(SF_MAX_DEFAULT, d))
    sf_lo, sf_hi = int(sf_range[0]), int(sf_range[1])
    if not (1 <= sf_lo <= sf_hi <= d):
        raise GenConfigError(f"need 1 <= sf_min <= sf_max <= D, got {sf_range} with D={d}")
    size_range = params.cluster_size_range or (math.floor(0.5 * n / k), math.ceil(1.5 * n / k))
    lo, hi = int(size_range[0]), int(size_range[1])
    if not (1 <= lo <= hi) or not (k * lo <= n <= k * hi):
        raise GenConfigError(
            f"cluster sizes in [{lo}, {hi}] cannot sum to N={n} over K={k} clusters")
    return {
        "n_nodes": n, "n_clusters": k, "n_dims": d,
        "p_in": p_in, "p_out": p_out,
        "sf_range": [sf_lo, sf_hi], "cluster_size_range": [lo, hi],
        "seed": int(params.seed),
    }


def _cluster_sizes(n, k, lo, hi, rng):
    raw = rng.integers(lo, hi + 1, size=k).astype(np.float64)
    target = raw * (n / raw.sum())
    sizes = np.floor(target).astype(np.int64)
    remainder = target - sizes
    for idx in np.argsort(-remainder, kind="stable")[: n - sizes.sum()]:
        sizes[idx] += 1
    sizes = np.clip(sizes, lo, hi)
    # clipping can break the total; shift one node at a time, most slack first
    while sizes.sum() > n:
        sizes[int(np.argmax(sizes - lo))] -= 1
    while sizes.sum() < n:
        sizes[int(np.argmax(hi - sizes))] += 1
    return sizes


def assign_clusters(params: GenParams):
    """Seed-deterministic node -> cluster assignment honoring the size range."""
    resolved = resolve_params(params)
    rng = np.random.default_rng(derive_seed(params.seed, 1))
    lo, hi = resolved["cluster_size_range"]
    sizes = _cluster_sizes(resolved["n_nodes"], resolved["n_clusters"], lo, hi, rng)
    order = rng.permutation(resolved["n_nodes"])
    assignment = np.empty(resolved["n_nodes"], dtype=np.int64)
    start = 0
    for c, size in enumerate(sizes):
        assignment[order[start:start + size]] = c
        start += size
    return assignment


@dataclass
class GenResult:
    graph: MultiplexGraph
    labels: np.ndarray
    resolved: dict


def _pair_mask_edges(keys, p, rng):
    """The keys kept with probability p, by one uniform draw per key."""
    return keys[rng.random(keys.size) < p]


def generate(params: GenParams) -> GenResult:
    """Build one multiplex graph; features are standardized degree profiles.

    Each dimension's edges are collected as int64 keys `i * n + j`
    (i < j), the draws of both populations appended per dimension and
    deduplicated once by `unique_keys`.
    """
    resolved = resolve_params(params)
    n, k, d = resolved["n_nodes"], resolved["n_clusters"], resolved["n_dims"]
    p_in, p_out = resolved["p_in"], resolved["p_out"]
    sf_lo, sf_hi = resolved["sf_range"]

    labels = assign_clusters(params)
    rng = np.random.default_rng(derive_seed(params.seed, 2))

    dim_keys = [[] for _ in range(d)]

    # (a) between-cluster links, independently per dimension
    iu, ju = np.triu_indices(n, k=1)
    cross = labels[iu] != labels[ju]
    cross_keys = iu[cross] * n + ju[cross]
    between_edges = 0
    for dim in range(d):
        keys = _pair_mask_edges(cross_keys, p_out, rng)
        between_edges += keys.size
        dim_keys[dim].append(keys)

    # (b) within-cluster links, spread over SF_k dimensions
    spread_factors = []
    within_pairs = within_edges = 0
    for c in range(k):
        members = np.flatnonzero(labels == c)
        sf = int(rng.integers(sf_lo, sf_hi + 1))
        spread_factors.append(sf)
        group_size = min(members.size, math.ceil(1.25 * members.size / sf))
        by_dim = {}
        for _ in range(sf):
            group = rng.choice(members, size=group_size, replace=False)
            dim = int(rng.integers(0, d))
            by_dim.setdefault(dim, []).append(group)
        for dim, groups in sorted(by_dim.items()):
            nodes = unique_keys(np.concatenate(groups))
            gi, gj = np.triu_indices(nodes.size, k=1)
            keys = _pair_mask_edges(nodes[gi] * n + nodes[gj], p_in, rng)
            within_pairs += gi.size
            within_edges += keys.size
            dim_keys[dim].append(keys)

    dims = [_symmetric_csr(n, unique_keys(np.concatenate(keys))) for keys in dim_keys]
    graph = MultiplexGraph(n, dims, degree_features(dims),
                           labels=[[int(c)] for c in labels]).validate()
    resolved["spread_factors"] = spread_factors
    resolved["cluster_sizes"] = np.bincount(labels, minlength=k).tolist()
    resolved["within_group_pairs"] = int(within_pairs)
    resolved["within_group_edges"] = int(within_edges)
    resolved["between_pairs"] = int(cross_keys.size) * d
    resolved["between_edges"] = int(between_edges)
    return GenResult(graph, labels, resolved)


def sweep_specs(base: GenParams, d_values):
    """One spec per D value with seeds derived from (base seed, D).

    Each spec regenerates its own cluster assignment; pin `p_in`/`p_out`
    in `base` to share probabilities across the sweep.
    """
    d_values = list(d_values)
    if not d_values:
        raise GenConfigError("sweep_specs needs at least one D value")
    specs = []
    for d in d_values:
        kwargs = asdict(base)
        kwargs["n_dims"] = int(d)
        kwargs["seed"] = derive_seed(base.seed, 3, d)
        if base.sf_range is None:
            kwargs["sf_range"] = None  # re-resolve against the new D
        specs.append(GenParams(**kwargs))
    return specs
