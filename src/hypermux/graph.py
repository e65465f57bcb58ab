"""Multiplex graph representation, adjacency normalization, and disk I/O.

Directory format:
    meta.json      {"n_nodes": N, "n_dims": D, "n_features": F}, JSON integers >= 1,
                   N at most MAX_NODES
    dims/<k>.edges one line per undirected edge, two 0-based node ids
    features.csv   N rows of F comma-separated reals (optional; synthesized
                   from per-dimension degrees when absent)
    labels.csv     optional, one line per node with comma-separated class ids

In memory, a dimension's undirected edges travel as one sorted int64
array of keys `i * n + j` (i <= j), from where they are drawn or read to
where they are written: `edge_keys` takes them from a symmetric CSR
matrix, `_symmetric_csr` builds one from them, and `unique_keys`
removes duplicates. No per-edge Python object is made on the way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sps


class GraphFormatError(ValueError):
    """Malformed on-disk graph or invalid in-memory structure."""


@dataclass
class MultiplexGraph:
    """N nodes shared by D adjacency structures plus one feature matrix."""

    n_nodes: int
    dims: list  # list of {0,1} symmetric csr matrices, all N x N
    features: np.ndarray  # N x F
    labels: list | None = None  # per node: list of int class ids

    @property
    def n_dims(self):
        return len(self.dims)

    @property
    def n_features(self):
        return self.features.shape[1]

    def validate(self):
        if self.n_dims < 1:
            raise GraphFormatError("graph needs at least one dimension")
        if self.features.shape[0] != self.n_nodes or self.n_features < 1:
            raise GraphFormatError(
                f"features shape {self.features.shape} inconsistent with N={self.n_nodes}")
        for d, a in enumerate(self.dims):
            if a.shape != (self.n_nodes, self.n_nodes):
                raise GraphFormatError(f"dimension {d} has shape {a.shape}")
            if (abs(a - a.T)).nnz != 0:
                raise GraphFormatError(f"dimension {d} is not symmetric")
        if self.labels is not None and len(self.labels) != self.n_nodes:
            raise GraphFormatError("labels length != n_nodes")
        return self


def graphs_equal(a: MultiplexGraph, b: MultiplexGraph) -> bool:
    if a.n_nodes != b.n_nodes or a.n_dims != b.n_dims:
        return False
    if not np.array_equal(a.features, b.features):
        return False
    if (a.labels is None) != (b.labels is None):
        return False
    if a.labels is not None and list(map(list, a.labels)) != list(map(list, b.labels)):
        return False
    return all((x != y).nnz == 0 for x, y in zip(a.dims, b.dims))


def normalize_adjacency(a):
    """Symmetric degree normalization D^-1/2 (A + I) D^-1/2 as CSR.

    Accepts {0,1} inputs and nonnegative real-valued ones (aggregated
    matrices use weighted degrees). (A + I) keeps every degree >= 1, so
    isolated nodes need no special casing.
    """
    if not sps.issparse(a):
        a = sps.csr_matrix(np.asarray(a, dtype=np.float64))
    a = a.tocsr().astype(np.float64)
    n, m = a.shape
    if n != m:
        raise GraphFormatError(f"adjacency must be square, got {a.shape}")
    if (abs(a - a.T) > 1e-12 * max(1.0, abs(a).max() if a.nnz else 1.0)).nnz != 0:
        raise GraphFormatError("adjacency must be symmetric")
    if a.nnz and a.data.min() < 0:
        raise GraphFormatError("adjacency entries must be nonnegative")
    with_loops = (a + sps.identity(n, format="csr")).tocsr()
    deg = np.asarray(with_loops.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(deg)
    scale = sps.diags(inv_sqrt)
    return (scale @ with_loops @ scale).tocsr()


def derive_seed(*keys):
    """A 64-bit seed mixed from integer keys (a run seed plus stream tags)."""
    keys = [int(k) & (2**63 - 1) for k in keys]
    return int(np.random.SeedSequence(keys).generate_state(1, np.uint64)[0])


def corrupt_features(x, seed):
    """Row-shuffle of the feature matrix by a seed-deterministic permutation."""
    x = np.asarray(x)
    perm = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1)])).permutation(x.shape[0])
    return x[perm]


def degree_features(dims):
    """Per-node degree in every dimension, standardized per column.

    The default feature matrix for graphs that ship no features: it is
    structure-derived and carries no label information.
    """
    cols = [np.asarray(a.sum(axis=1)).ravel() for a in dims]
    x = np.stack(cols, axis=1).astype(np.float64)
    mu = x.mean(axis=0, keepdims=True)
    sd = x.std(axis=0, keepdims=True)
    sd[sd == 0] = 1.0
    return (x - mu) / sd


def _edges_to_csr(n, pairs):
    """`_symmetric_csr` of an (m, 2) array-like of node pairs."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return _symmetric_csr(n, pairs[:, 0] * n + pairs[:, 1])


def _symmetric_csr(n, keys):
    """{0,1} symmetric N x N CSR with the undirected edges of the int64
    keys `i * n + j`."""
    rows, cols = np.divmod(keys, n)
    both_r = np.concatenate([rows, cols])
    both_c = np.concatenate([cols, rows])
    mat = sps.csr_matrix((np.ones(both_r.size), (both_r, both_c)), shape=(n, n))
    mat.data[:] = 1.0  # duplicate lines and mirrored self-loops collapse to 1
    return mat


def unique_keys(keys):
    """Sorted distinct values of a 1-d integer array: `np.unique` by one
    sort and a neighbour comparison, several times faster than numpy's
    hashing `np.unique` on arrays of many thousands of keys."""
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _read_edges(edge_file, n):
    """Distinct undirected edges of one edge file as sorted keys
    `i * n + j` (i <= j).

    The file is parsed at once: token boundaries and the line of every
    token come from array ops over its code points, the ids from one
    int64 conversion of its `str.split` tokens, and duplicates leave
    through `unique_keys` on `i * n + j` keys. A line holds two ids or
    only whitespace; when a line breaks that rule, `_raise_first_bad_line`
    reads the file again line by line to name the first one.
    """
    text = _read_text(edge_file)
    codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    # str.split's whitespace: a table up to the file's largest code point
    table = np.array([chr(c).isspace() for c in range(int(codes.max(initial=0)) + 1)])
    space = table[codes]
    starts = ~space
    starts[1:] &= space[:-1]
    # 0-based line of each token: the newlines before its first character
    line_of = np.searchsorted(np.flatnonzero(codes == ord("\n")), np.flatnonzero(starts))
    per_line = np.bincount(line_of)
    ids = None
    if np.all((per_line == 0) | (per_line == 2)):
        try:
            ids = np.array(text.split(), dtype=np.int64)
        except (ValueError, OverflowError):  # a non-integer or a huge token
            pass
    if ids is None or (ids.size and (ids.min() < 0 or ids.max() >= n)):
        _raise_first_bad_line(edge_file, text, n)
    i, j = ids[0::2], ids[1::2]
    return unique_keys(np.minimum(i, j) * n + np.maximum(i, j))


def _read_text(path):
    """The text of a graph file; undecodable bytes are a format error."""
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: not valid text: {exc}") from exc


def _raise_first_bad_line(edge_file, text, n):
    """GraphFormatError naming `file:line`, the problem and the stripped
    line, for the first line that does not hold two node ids in [0, n)
    or only whitespace. A line of another token count is named as such,
    else a non-integer token before an id out of range."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        tokens, where = line.split(), f"{edge_file}:{lineno}:"
        if not tokens:
            continue
        if len(tokens) != 2:
            raise GraphFormatError(f"{where} expected two node ids, got {line.strip()!r}")
        try:
            ids = [int(tok) for tok in tokens]
        except ValueError as exc:
            raise GraphFormatError(f"{where} non-integer node id in {line.strip()!r}") from exc
        if not all(0 <= i < n for i in ids):
            raise GraphFormatError(f"{where} node id out of range [0, {n}) in {line.strip()!r}")


def edge_keys(a):
    """Each undirected edge of a symmetric CSR matrix once, as sorted
    int64 keys `i * n + j` with i <= j."""
    upper = sps.triu(a, format="coo")
    return np.sort(upper.row.astype(np.int64) * a.shape[0] + upper.col)


MAX_NODES = 3_037_000_499  # the largest n with n * n - 1, the largest key, below 2**63


def load_multiplex(path) -> MultiplexGraph:
    path = Path(path)
    meta_file = path / "meta.json"
    if not meta_file.exists():
        raise GraphFormatError(f"missing meta file {meta_file}")
    counts = ("n_nodes", "n_dims", "n_features")
    try:
        meta = json.loads(meta_file.read_text())
    except ValueError as exc:
        raise GraphFormatError(f"bad meta file {meta_file}: {exc}") from exc
    missing = [key for key in counts if key not in meta] if isinstance(meta, dict) else counts
    if missing:
        got = f"no {missing[0]} key" if isinstance(meta, dict) else f"got {type(meta).__name__}"
        raise GraphFormatError(f"bad meta file {meta_file}: expected a JSON object with "
                               f"n_nodes, n_dims and n_features; {got}")
    n, d, f = (meta[key] for key in counts)
    for key, value in zip(counts, (n, d, f)):
        if type(value) is not int or value < 1:  # bool is an int subclass
            raise GraphFormatError(
                f"bad meta file {meta_file}: {key} must be an integer >= 1, got {value!r}")
    if n > MAX_NODES:
        raise GraphFormatError(
            f"bad meta file {meta_file}: n_nodes must be <= {MAX_NODES}, so that "
            f"edge keys i * n + j fit in int64, got {n}")

    dims = []
    for k in range(d):
        edge_file = path / "dims" / f"{k}.edges"
        if not edge_file.exists():
            raise GraphFormatError(f"missing edge file {edge_file}")
        dims.append(_symmetric_csr(n, _read_edges(edge_file, n)))

    feat_file = path / "features.csv"
    if feat_file.exists():
        try:
            features = np.loadtxt(feat_file, delimiter=",", ndmin=2, dtype=np.float64)
        except ValueError as exc:
            raise GraphFormatError(f"bad features file {feat_file}: {exc}") from exc
        if features.shape != (n, f):
            raise GraphFormatError(
                f"{feat_file}: shape {features.shape} != meta ({n}, {f})")
        bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
        if bad.size:
            raise GraphFormatError(
                f"{feat_file}: row {bad[0] + 1} holds a non-finite value")
    else:
        if f != d:
            raise GraphFormatError(
                f"{path}: no features.csv; synthesized degree features have "
                f"width {d} but meta says n_features={f}")
        features = degree_features(dims)

    labels = None
    label_file = path / "labels.csv"
    if label_file.exists():
        labels = []
        for lineno, line in enumerate(_read_text(label_file).split("\n"), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                labels.append([int(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise GraphFormatError(
                    f"{label_file}:{lineno}: bad class id in {line!r}") from exc
        if len(labels) != n:
            raise GraphFormatError(f"{label_file}: {len(labels)} lines for {n} nodes")

    return MultiplexGraph(n, dims, features, labels).validate()


def save_multiplex(graph: MultiplexGraph, path):
    graph.validate()
    path = Path(path)
    (path / "dims").mkdir(parents=True, exist_ok=True)
    meta = {"n_nodes": graph.n_nodes, "n_dims": graph.n_dims,
            "n_features": graph.n_features}
    (path / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
    for k, a in enumerate(graph.dims):
        ids = np.stack(np.divmod(edge_keys(a), graph.n_nodes), axis=1)
        text = ("%d %d\n" * len(ids)) % tuple(ids.ravel().tolist())
        (path / "dims" / f"{k}.edges").write_text(text)
    rows = [",".join(repr(float(v)) for v in row) for row in graph.features]
    (path / "features.csv").write_text("\n".join(rows) + "\n")
    if graph.labels is not None:
        lines = [",".join(str(c) for c in row) for row in graph.labels]
        (path / "labels.csv").write_text("\n".join(lines) + "\n")
    return path
