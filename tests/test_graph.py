import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings, strategies as st

from hypermux import graph as gm


def csr(dense):
    return sps.csr_matrix(np.asarray(dense, dtype=float))


# --- normalization ---------------------------------------------------------


def test_normalize_two_node_edge():
    out = gm.normalize_adjacency(csr([[0, 1], [1, 0]])).toarray()
    assert np.allclose(out, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)


def test_normalize_single_isolated_node():
    out = gm.normalize_adjacency(csr([[0.0]])).toarray()
    assert np.allclose(out, [[1.0]])


def test_normalize_star_graph():
    a = np.zeros((4, 4))
    a[0, 1:] = 1
    a[1:, 0] = 1
    out = gm.normalize_adjacency(csr(a)).toarray()
    assert out[0, 0] == pytest.approx(0.25, abs=1e-12)
    for j in (1, 2, 3):
        assert out[0, j] == pytest.approx(1 / np.sqrt(8), abs=1e-12)


def test_normalize_rejects_nonsquare():
    with pytest.raises(gm.GraphFormatError, match="square"):
        gm.normalize_adjacency(sps.csr_matrix((2, 3)))


def test_normalize_rejects_asymmetric():
    with pytest.raises(gm.GraphFormatError, match="symmetric"):
        gm.normalize_adjacency(csr([[0, 1], [0, 0]]))


def test_normalize_rejects_negative_weights():
    with pytest.raises(gm.GraphFormatError, match="nonnegative"):
        gm.normalize_adjacency(csr([[0, -1], [-1, 0]]))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(2, 12))
def test_normalize_output_symmetric(seed, n):
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < 0.4).astype(float)
    a = np.triu(a, 1)
    a = a + a.T
    out = gm.normalize_adjacency(csr(a)).toarray()
    assert np.abs(out - out.T).max() < 1e-12
    assert out.min() >= 0.0 and out.max() <= 1.0


@pytest.mark.parametrize("n,k", [(6, 2), (8, 3), (10, 9)])
def test_normalize_regular_graph_rows_sum_to_one(n, k):
    # circulant k-regular graph: connect to the k nearest ring neighbors
    a = np.zeros((n, n))
    for i in range(n):
        for step in range(1, k // 2 + 1):
            a[i, (i + step) % n] = a[(i + step) % n, i] = 1
    if k % 2 == 1:
        for i in range(n):
            a[i, (i + n // 2) % n] = a[(i + n // 2) % n, i] = 1
    degrees = a.sum(axis=1)
    assert np.all(degrees == degrees[0])  # regular by construction
    out = gm.normalize_adjacency(csr(a)).toarray()
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_normalize_weighted_input_uses_weighted_degrees():
    a = np.array([[0.0, 2.0], [2.0, 0.0]])
    out = gm.normalize_adjacency(csr(a)).toarray()
    assert np.allclose(out, [[1 / 3, 2 / 3], [2 / 3, 1 / 3]], atol=1e-12)


# --- corruption ------------------------------------------------------------


def test_corrupt_single_row_unchanged():
    x = np.array([[1.0, 2.0, 3.0]])
    assert np.array_equal(gm.corrupt_features(x, 9), x)


def test_corrupt_deterministic():
    x = np.random.default_rng(0).normal(size=(20, 3))
    assert np.array_equal(gm.corrupt_features(x, 5), gm.corrupt_features(x, 5))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_corrupt_preserves_row_multiset(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(17, 4))
    out = gm.corrupt_features(x, seed)
    assert np.allclose(out.sum(axis=0), x.sum(axis=0), atol=1e-9)
    assert np.array_equal(np.sort(out, axis=0), np.sort(x, axis=0))


# --- on-disk format --------------------------------------------------------


def make_graph(seed=0, n=9, d=3, f=4, labels=True):
    rng = np.random.default_rng(seed)
    dims = []
    for _ in range(d):
        a = (rng.random((n, n)) < 0.3).astype(float)
        a = np.triu(a, 1)
        dims.append(csr(a + a.T))
    lab = [[int(rng.integers(0, 3))] for _ in range(n)] if labels else None
    return gm.MultiplexGraph(n, dims, rng.normal(size=(n, f)), lab).validate()


def test_save_load_roundtrip(tmp_path):
    g = make_graph(seed=1)
    gm.save_multiplex(g, tmp_path / "g")
    loaded = gm.load_multiplex(tmp_path / "g")
    assert gm.graphs_equal(g, loaded)


def test_roundtrip_multilabel(tmp_path):
    g = make_graph(seed=2, labels=False)
    g.labels = [[0, 2] if i % 3 == 0 else [1] for i in range(g.n_nodes)]
    gm.save_multiplex(g, tmp_path / "g")
    assert gm.graphs_equal(g, gm.load_multiplex(tmp_path / "g"))


def test_load_single_edge_dimension(tmp_path):
    (tmp_path / "dims").mkdir()
    (tmp_path / "meta.json").write_text('{"n_nodes": 2, "n_dims": 1, "n_features": 1}')
    (tmp_path / "dims" / "0.edges").write_text("0 1\n")
    (tmp_path / "features.csv").write_text("1.0\n2.0\n")
    g = gm.load_multiplex(tmp_path)
    assert np.array_equal(g.dims[0].toarray(), [[0, 1], [1, 0]])


def test_load_duplicate_edges_collapse(tmp_path):
    (tmp_path / "dims").mkdir()
    (tmp_path / "meta.json").write_text('{"n_nodes": 3, "n_dims": 1, "n_features": 1}')
    (tmp_path / "dims" / "0.edges").write_text("0 1\n1 0\n0 1\n")
    (tmp_path / "features.csv").write_text("1\n2\n3\n")
    g = gm.load_multiplex(tmp_path)
    assert g.dims[0].nnz == 2  # one undirected edge, stored both ways


def test_load_node_out_of_range_names_file_and_line(tmp_path):
    (tmp_path / "dims").mkdir()
    (tmp_path / "meta.json").write_text('{"n_nodes": 2, "n_dims": 1, "n_features": 1}')
    (tmp_path / "dims" / "0.edges").write_text("0 1\n0 2\n")
    (tmp_path / "features.csv").write_text("1\n2\n")
    with pytest.raises(gm.GraphFormatError, match=r"0\.edges:2"):
        gm.load_multiplex(tmp_path)


def test_load_rejects_n_nodes_beyond_int64_keys(tmp_path):
    assert gm.MAX_NODES ** 2 - 1 <= 2**63 - 1 < (gm.MAX_NODES + 1) ** 2 - 1
    (tmp_path / "dims").mkdir()
    (tmp_path / "meta.json").write_text(
        f'{{"n_nodes": {gm.MAX_NODES + 1}, "n_dims": 1, "n_features": 1}}')
    (tmp_path / "dims" / "0.edges").write_text("0 1\n")
    with pytest.raises(gm.GraphFormatError, match=r"meta\.json: n_nodes must be <= 3037000499"):
        gm.load_multiplex(tmp_path)


def test_load_missing_meta(tmp_path):
    with pytest.raises(gm.GraphFormatError, match="meta"):
        gm.load_multiplex(tmp_path)


def test_load_malformed_edge_line(tmp_path):
    (tmp_path / "dims").mkdir()
    (tmp_path / "meta.json").write_text('{"n_nodes": 2, "n_dims": 1, "n_features": 1}')
    (tmp_path / "dims" / "0.edges").write_text("0 1 2\n")
    (tmp_path / "features.csv").write_text("1\n2\n")
    with pytest.raises(gm.GraphFormatError, match=r"0\.edges:1"):
        gm.load_multiplex(tmp_path)


def test_load_synthesizes_degree_features(tmp_path):
    (tmp_path / "dims").mkdir()
    (tmp_path / "meta.json").write_text('{"n_nodes": 3, "n_dims": 2, "n_features": 2}')
    (tmp_path / "dims" / "0.edges").write_text("0 1\n")
    (tmp_path / "dims" / "1.edges").write_text("1 2\n0 2\n")
    g = gm.load_multiplex(tmp_path)
    assert g.features.shape == (3, 2)
    assert np.allclose(g.features.mean(axis=0), 0.0, atol=1e-12)


# --- edge files against the line-by-line reader ----------------------------


def line_by_line_edges(edge_file, n):
    """The per-line edge reader `load_multiplex` had before it parsed each
    file in one pass; kept here as the oracle for its results and errors."""
    pairs = set()
    with open(edge_file) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise gm.GraphFormatError(
                    f"{edge_file}:{lineno}: expected two node ids, got {line!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise gm.GraphFormatError(
                    f"{edge_file}:{lineno}: non-integer node id in {line!r}") from exc
            if not (0 <= i < n and 0 <= j < n):
                raise gm.GraphFormatError(
                    f"{edge_file}:{lineno}: node id out of range [0, {n}) in {line!r}")
            pairs.add((min(i, j), max(i, j)))
    return gm._edges_to_csr(n, sorted(pairs))


# \x0b, \x0c and \x1c are whitespace to str.split but end no line when a
# file is read line by line
SEPARATORS = [" ", "\t", "  ", " \t ", "\x0b", "\x0c", "\x1c"]
PADDING = ["", " ", "\t", "  \t"]
LINE_ENDS = ["\n", "\r\n", "\r"]
BAD_LINES = {
    "one token": lambda n: "3",
    "three tokens": lambda n: "0 1 2",
    "non-integer": lambda n: "1 x",
    "float": lambda n: "1.0 2",
    "negative": lambda n: "-1 0",
    "too large": lambda n: f"0 {n}",
    "huge": lambda n: "0 99999999999999999999",
}


@st.composite
def edge_file_lines(draw, n):
    """Edge lines, blank lines and padding; repeats and reversed pairs
    come from drawing ids from a small range."""
    lines = []
    for _ in range(draw(st.integers(0, 25))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(PADDING)))
            continue
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        pad = st.sampled_from(PADDING)
        lines.append(f"{draw(pad)}{i}{draw(st.sampled_from(SEPARATORS))}{j}{draw(pad)}")
    return lines


def write_graph(root, n, files):
    (root / "dims").mkdir()
    (root / "meta.json").write_text(
        f'{{"n_nodes": {n}, "n_dims": {len(files)}, "n_features": 1}}')
    (root / "features.csv").write_text("".join(f"{k}.0\n" for k in range(n)))
    for k, text in enumerate(files):
        (root / "dims" / f"{k}.edges").write_bytes(text.encode())
    return [root / "dims" / f"{k}.edges" for k in range(len(files))]


def join_lines(lines, end, final_newline):
    return end.join(lines) + (end if final_newline and lines else "")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_load_edges_match_line_by_line_reader(tmp_path_factory, data):
    n = data.draw(st.integers(1, 8))
    files = [join_lines(data.draw(edge_file_lines(n)), data.draw(st.sampled_from(LINE_ENDS)),
                        data.draw(st.booleans()))
             for _ in range(data.draw(st.integers(1, 3)))]
    root = tmp_path_factory.mktemp("g")
    paths = write_graph(root, n, files)
    want = gm.MultiplexGraph(n, [line_by_line_edges(p, n) for p in paths],
                             np.arange(n, dtype=float)[:, None])
    assert gm.graphs_equal(gm.load_multiplex(root), want)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_load_bad_edge_line_named_like_line_by_line_reader(tmp_path_factory, data):
    n = data.draw(st.integers(1, 8))
    lines = data.draw(edge_file_lines(n))
    # one or two bad lines, anywhere: the first one is named
    for _ in range(data.draw(st.integers(1, 2))):
        kind = data.draw(st.sampled_from(sorted(BAD_LINES)))
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, data.draw(st.sampled_from(PADDING)) + BAD_LINES[kind](n))
    text = join_lines(lines, data.draw(st.sampled_from(LINE_ENDS)), data.draw(st.booleans()))
    root = tmp_path_factory.mktemp("g")
    (edge_file,) = write_graph(root, n, [text])
    with pytest.raises(gm.GraphFormatError) as want:
        line_by_line_edges(edge_file, n)
    with pytest.raises(gm.GraphFormatError) as got:
        gm.load_multiplex(root)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("text, line, problem", [
    ("0 1\n\n2 x\n0 9\n", 3, "non-integer node id in '2 x'"),
    ("0 1\n0 9\n2 x\n", 2, "node id out of range [0, 3) in '0 9'"),
    ("0 1\r\n 1  2 0 \r\n1 x\r\n", 2, "expected two node ids, got '1  2 0'"),
    ("0 1\n1 x 2\n", 2, "expected two node ids, got '1 x 2'"),
    ("0 1\n0 9\n1 2 0\n", 2, "node id out of range [0, 3) in '0 9'"),
    ("0 1\nx 9\n", 2, "non-integer node id in 'x 9'"),
    ("0 1\n9 x\n", 2, "non-integer node id in '9 x'"),
    ("0 1\n\n x \n0 9\n", 3, "expected two node ids, got 'x'"),
])
def test_load_names_first_bad_edge_line(tmp_path, text, line, problem):
    write_graph(tmp_path, 3, [text])
    with pytest.raises(gm.GraphFormatError) as err:
        gm.load_multiplex(tmp_path)
    assert str(err.value) == f"{tmp_path / 'dims' / '0.edges'}:{line}: {problem}"


def test_degree_features_standardized():
    g = make_graph(seed=3)
    x = gm.degree_features(g.dims)
    assert x.shape == (g.n_nodes, g.n_dims)
    assert np.allclose(x.mean(axis=0), 0.0, atol=1e-12)
    stds = x.std(axis=0)
    assert np.all((np.abs(stds - 1.0) < 1e-9) | (stds == 0.0))
