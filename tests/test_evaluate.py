import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import assume, given, settings, strategies as st

import hypermux.manifold as mf
from hypermux import evaluate as ev
from hypermux.synthetic import GenParams, generate


def toy_graph(seed=0, n=60, d=3):
    return generate(GenParams(n_nodes=n, n_clusters=2, n_dims=d, p_in=0.5,
                              p_out=0.08, seed=seed)).graph


# --- splits ------------------------------------------------------------------


def test_split_all_train_leaves_graph_unchanged():
    g = toy_graph()
    split = ev.split_edges(g, (1.0, 0.0), seed=0)
    assert split.test_pos == [] and split.test_neg == []
    assert all((a != b).nnz == 0 for a, b in zip(g.dims, split.train_graph.dims))


def test_split_counts_per_dimension():
    g = toy_graph(seed=1)
    split = ev.split_edges(g, (0.9, 0.1), seed=2)
    for d, a in enumerate(g.dims):
        n_edges = a.nnz // 2
        expected = int(round(n_edges * 0.1))
        held = sum(1 for dim, _, _ in split.test_pos if dim == d)
        negs = sum(1 for dim, _, _ in split.test_neg if dim == d)
        assert held == negs == expected
        assert split.train_graph.dims[d].nnz // 2 == n_edges - expected


def test_split_negatives_verified_absent():
    g = toy_graph(seed=3)
    split = ev.split_edges(g, (0.85, 0.15), seed=4)
    for d, i, j in split.test_neg:
        assert g.dims[d][i, j] == 0.0
        assert i != j


def test_split_positives_disjoint_from_train():
    g = toy_graph(seed=5)
    split = ev.split_edges(g, (0.85, 0.15), seed=6)
    for d, i, j in split.test_pos:
        assert g.dims[d][i, j] == 1.0
        assert split.train_graph.dims[d][i, j] == 0.0


def test_split_rejects_too_few_edges():
    from hypermux.graph import MultiplexGraph, _edges_to_csr
    g = MultiplexGraph(4, [_edges_to_csr(4, [(0, 1)])], np.zeros((4, 1)))
    with pytest.raises(ev.EvalError, match="dimension 0"):
        ev.split_edges(g, (0.0, 1.0), seed=0)


def test_split_bad_ratios():
    with pytest.raises(ev.EvalError):
        ev.split_edges(toy_graph(), (0.7, 0.2), seed=0)


def loop_split(graph, ratio, seed):
    """Pair-by-pair reference for `split_edges`: held-out pairs, kept pairs
    and negatives of each dimension, with the same `rng` calls in the same
    order, edges and negatives kept as Python sets of (i, j) tuples."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), 31]))
    n = graph.n_nodes
    out = []
    for a in graph.dims:
        coo = sps.triu(a).tocoo()
        edges = sorted(zip(coo.row.tolist(), coo.col.tolist()))
        n_test = int(round(len(edges) * ratio))
        pick = set(rng.choice(len(edges), size=n_test, replace=False).tolist()) \
            if n_test else set()
        held = [e for k, e in enumerate(edges) if k in pick]
        kept = [e for k, e in enumerate(edges) if k not in pick]
        edge_set, negatives = set(edges), set()
        while len(negatives) < n_test:
            cand_i = rng.integers(0, n, size=4 * (n_test - len(negatives)) + 8)
            cand_j = rng.integers(0, n, size=cand_i.size)
            for i, j in zip(cand_i.tolist(), cand_j.tolist()):
                pair = (min(i, j), max(i, j))
                if i == j or pair in edge_set or pair in negatives:
                    continue
                negatives.add(pair)
                if len(negatives) == n_test:
                    break
        out.append((held, kept, sorted(negatives)))
    return out


@st.composite
def split_cases(draw):
    """Small multiplex graphs whose dimensions run from one edge to nearly
    complete, with a held-out ratio that leaves a training edge and enough
    non-edges for the negatives. Nearly complete dimensions reject most
    candidate pairs, so their negatives take several batches."""
    n = draw(st.integers(3, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    ratio = draw(st.sampled_from([0.1, 0.15, 0.3, 0.5]))
    dims = []
    for _ in range(draw(st.integers(1, 3))):
        m = len(pairs) - draw(st.integers(0, len(pairs) - 1))
        n_test = int(round(m * ratio))
        assume(m - n_test >= 1 and len(pairs) - m >= n_test)
        order = draw(st.permutations(range(len(pairs))))
        dims.append([pairs[k] for k in order[:m]])
    return n, dims, ratio, draw(st.integers(0, 2**32))


@settings(max_examples=150, deadline=None)
@given(split_cases())
def test_split_edges_properties(case):
    from hypermux.graph import MultiplexGraph, _edges_to_csr, edge_keys
    n, dims, ratio, seed = case
    g = MultiplexGraph(n, [_edges_to_csr(n, e) for e in dims], np.zeros((n, 1)))
    split = ev.split_edges(g, (1.0 - ratio, ratio), seed=seed)
    reference = loop_split(g, ratio, seed)
    for d, edges in enumerate(dims):
        held = [(i, j) for dim, i, j in split.test_pos if dim == d]
        kept = np.divmod(edge_keys(split.train_graph.dims[d]), n)
        kept = list(zip(kept[0].tolist(), kept[1].tolist()))
        assert not set(held) & set(kept) and set(held) | set(kept) == set(edges)
        assert len(held) == int(round(len(edges) * ratio))
        neg = [(i, j) for dim, i, j in split.test_neg if dim == d]
        assert neg == sorted(set(neg)) and len(neg) == len(held)
        assert all(i < j and (i, j) not in set(edges) for i, j in neg)
        assert (held, kept, neg) == reference[d]
    again = ev.split_edges(g, (1.0 - ratio, ratio), seed=seed)
    assert again.test_pos == split.test_pos and again.test_neg == split.test_neg
    assert all((a != b).nnz == 0 for a, b in zip(again.train_graph.dims,
                                                 split.train_graph.dims))


# --- AUC / AP ----------------------------------------------------------------


def test_auc_perfect_separation():
    auc, ap = ev.auc_ap(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0]))
    assert auc == 1.0 and ap == 1.0


def test_auc_all_ties_is_half():
    auc, _ = ev.auc_ap(np.full(10, 0.5), np.array([1, 0] * 5))
    assert auc == pytest.approx(0.5)


def test_auc_hand_value():
    auc, _ = ev.auc_ap(np.array([0.9, 0.8, 0.7, 0.6]), np.array([1, 0, 1, 0]))
    assert auc == pytest.approx(0.75)


def test_auc_requires_both_classes():
    with pytest.raises(ev.EvalError):
        ev.auc_ap(np.array([0.1, 0.2]), np.array([1, 1]))


def brute_force_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_auc_matches_pairwise_statistic(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    scores = np.round(rng.random(n), 2)  # coarse grid to force ties
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    auc, _ = ev.auc_ap(scores, labels)
    assert auc == pytest.approx(brute_force_auc(scores, labels), abs=1e-12)


def loop_midranks_auc_ap(scores, labels):
    """auc_ap with the midranks found by a scan over the sorted scores."""
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    order = np.argsort(scores, kind="stable")
    ranks = np.empty_like(scores)
    sorted_scores = scores[order]
    i = 0
    pos = 1.0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (pos + (pos + j - i)) / 2.0
        pos += j - i + 1
        i = j + 1
    auc = (ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    desc = np.argsort(-scores, kind="stable")
    hits = (labels[desc] == 1).astype(np.float64)
    precision = np.cumsum(hits) / np.arange(1, scores.size + 1)
    ap = float((precision * hits).sum() / n_pos)
    return float(auc), ap


@st.composite
def scored_labels(draw):
    """Scores from a few distinct values (heavy ties, possibly all equal,
    possibly NaN) and labels with both classes, either of them possibly
    a single element."""
    n = draw(st.integers(min_value=2, max_value=60))
    values = draw(st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -3.0,
                                            np.inf, np.nan]),
                           min_size=1, max_size=4))
    scores = np.array(draw(st.lists(st.sampled_from(values), min_size=n,
                                    max_size=n)))
    n_pos = draw(st.sampled_from([1, n - 1, draw(st.integers(1, n - 1))]))
    labels = np.zeros(n, dtype=np.int64)
    labels[draw(st.permutations(range(n)))[:n_pos]] = 1
    return scores, labels


@settings(max_examples=200, deadline=None)
@given(scored_labels())
def test_auc_ap_bitwise_equal_to_loop_midranks(case):
    scores, labels = case
    got = ev.auc_ap(scores, labels)
    want = loop_midranks_auc_ap(scores, labels)
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_eval_order_invariance():
    rng = np.random.default_rng(1)
    scores = rng.random(30)
    labels = rng.integers(0, 2, size=30)
    labels[0], labels[1] = 1, 0
    base = ev.auc_ap(scores, labels)
    perm = rng.permutation(30)
    assert ev.auc_ap(scores[perm], labels[perm]) == pytest.approx(base)


# --- F1 ----------------------------------------------------------------------


def test_f1_perfect():
    assert ev.f1_scores([0, 1, 2], [0, 1, 2]) == (1.0, 1.0)


def test_f1_all_one_class_hand_value():
    pred = [0, 0, 0, 0]
    actual = [0, 0, 1, 1]
    macro, micro = ev.f1_scores(pred, actual)
    assert micro == pytest.approx(0.5)
    assert macro == pytest.approx((2 / 3 + 0.0) / 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_f1_micro_equals_accuracy_single_label(seed):
    rng = np.random.default_rng(seed)
    pred = rng.integers(0, 4, size=25)
    actual = rng.integers(0, 4, size=25)
    _, micro = ev.f1_scores(pred.tolist(), actual.tolist())
    assert micro == pytest.approx((pred == actual).mean())


def test_f1_multilabel():
    pred = [[0, 1], [1], []]
    actual = [[0], [1, 2], [2]]
    macro, micro = ev.f1_scores(pred, actual)
    # tp: c0=1, c1=1; fp: c1=1; fn: c2=2
    # per class: c0 = 1.0, c1 = 2/3, c2 = 0
    assert micro == pytest.approx(2 * 2 / (2 * 2 + 1 + 2))
    assert macro == pytest.approx((1.0 + 2 / 3 + 0.0) / 3)


# --- logistic regression -----------------------------------------------------


def blobs(seed=0, n=60, e=4, classes=3):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(classes, e)) * 6.0
    labels = np.repeat(np.arange(classes), n // classes)
    x = centers[labels] + rng.normal(size=(len(labels), e)) * 0.3
    return x, labels.tolist()


def test_logreg_separable_blobs_fit_perfectly():
    x, labels = blobs(seed=1)
    clf = ev.fit_logreg(x, labels)
    macro, micro = ev.f1_scores(ev.predict(clf, x), labels)
    assert macro == 1.0 and micro == 1.0


def test_logreg_random_labels_near_majority_rate():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(400, 5))
    labels = (rng.random(400) < 0.7).astype(int).tolist()
    clf = ev.fit_logreg(x, labels)
    _, micro = ev.f1_scores(ev.predict(clf, x), labels)
    majority = max(labels.count(0), labels.count(1)) / 400
    assert abs(micro - majority) < 0.08


def test_logreg_duplication_invariance():
    x, labels = blobs(seed=3, n=30)
    clf1 = ev.fit_logreg(x, labels)
    clf2 = ev.fit_logreg(np.concatenate([x, x]), labels + labels)
    assert np.allclose(clf1.weights, clf2.weights, atol=1e-3)
    assert np.allclose(clf1.bias, clf2.bias, atol=1e-3)


def five_class_64(seed=6, n=800, e=64):
    """Shaped like the benchmark's probe: 800 training rows of 64 tangent
    coordinates in 5 weakly separated classes, column scales spanning a
    decade (ill-conditioned enough that 5000 steps of gradient descent
    stop short of a gradient norm of 1e-5)."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 5, size=n)
    x = rng.normal(size=(n, e)) + 0.3 * rng.normal(size=(5, e))[labels]
    return x * np.logspace(-0.5, 0.5, e), labels.tolist()


def multilabel_blobs():
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.normal(size=(40, 3)) + 4,
                        rng.normal(size=(40, 3)) - 4])
    return x, [[0, 1]] * 40 + [[1]] * 40


PROBLEMS = {"blobs-3": lambda: blobs(seed=4, n=45),
            "multilabel": multilabel_blobs,
            "5-class-64": five_class_64}


def recorded_fit(monkeypatch, x, labels):
    """fit_logreg with every loss_grad call recorded: the point `_fit_linear`
    returned and a list of (params, loss, grad), in call order."""
    calls, fits = [], []
    solve = ev._fit_linear

    def recording(n_params, loss_grad, **kw):
        def lg(params):
            loss, grad = loss_grad(params)
            calls.append((params.copy(), loss, grad))
            return loss, grad
        fits.append(solve(n_params, lg, **kw))
        return fits[-1]

    monkeypatch.setattr(ev, "_fit_linear", recording)
    ev.fit_logreg(x, labels)
    assert len(fits) == 1
    return fits[0], calls


def _at(calls, params):
    """(loss, grad) recorded at exactly `params`."""
    return next((loss, grad) for p, loss, grad in calls if np.array_equal(p, params))


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_fit_linear_gradient_below_tol(monkeypatch, problem):
    params, calls = recorded_fit(monkeypatch, *PROBLEMS[problem]())
    _, grad = _at(calls, params)
    assert np.linalg.norm(grad) < 1e-5  # fit_logreg's default tol


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_fit_linear_objective_never_rises(monkeypatch, problem):
    params, calls = recorded_fit(monkeypatch, *PROBLEMS[problem]())
    loss, _ = _at(calls, params)
    assert not calls[0][0].any()  # the solver starts from zero
    # no point the solver evaluated, accepted iterate or rejected
    # candidate, has a lower objective than the one it returns
    assert all(loss <= seen for _, seen, _ in calls)


def test_fit_linear_call_count_bounded(monkeypatch):
    _, calls = recorded_fit(monkeypatch, *five_class_64())
    assert len(calls) < 1000  # a deterministic count


def test_fit_linear_keeps_point_when_no_step_decreases():
    # an oracle whose gradient promises descent that its loss never shows:
    # backtracking bottoms out and the start point comes back unchanged
    def loss_grad(params):
        return 1.0 + params @ params, np.ones_like(params)
    assert not ev._fit_linear(3, loss_grad).any()


def test_logreg_single_class_rejected():
    with pytest.raises(ev.EvalError):
        ev.fit_logreg(np.ones((4, 2)), [1, 1, 1, 1])


def test_logreg_multilabel_one_vs_rest():
    x, labels = multilabel_blobs()
    clf = ev.fit_logreg(x, labels)
    assert clf.multilabel
    preds = ev.predict(clf, x)
    macro, micro = ev.f1_scores(preds, labels)
    assert micro > 0.95


# --- link prediction ---------------------------------------------------------


def test_link_prediction_identical_nodes_gives_half():
    g = toy_graph(seed=7)
    split = ev.split_edges(g, (0.85, 0.15), seed=8)
    z = np.tile(mf.lift(np.zeros((1, 4)), mf.LORENTZ), (g.n_nodes, 1))
    auc, ap = ev.link_prediction_eval(z, split, kind=mf.LORENTZ)
    assert auc == pytest.approx(0.5)


def test_link_prediction_separated_clusters_perfect():
    from hypermux.graph import MultiplexGraph, _edges_to_csr
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    g = MultiplexGraph(6, [_edges_to_csr(6, edges + [(1, 3)])], np.zeros((6, 2)))
    split = ev.EdgeSplit(g, [(0, 0, 1), (0, 3, 4)], [(0, 0, 4), (0, 2, 5)],
                         (0.5, 0.5), 0)
    ball = np.array([[0.6, 0.0], [0.62, 0.02], [0.58, -0.02],
                     [-0.6, 0.0], [-0.62, 0.02], [-0.58, -0.02]])
    auc, ap = ev.link_prediction_eval(ball, split, kind=mf.POINCARE)
    assert auc == 1.0 and ap == 1.0


def test_scores_in_unit_interval_all_kinds():
    rng = np.random.default_rng(9)
    pairs = [(0, i, j) for i in range(6) for j in range(i + 1, 6)]
    tangent = rng.normal(size=(6, 3))
    for kind in (mf.EUCLIDEAN, mf.POINCARE, mf.LORENTZ):
        z = mf.lift(tangent, kind)
        scores = ev.edge_scores(z, pairs, kind=kind)
        assert np.all((scores > 0) & (scores < 1))


def test_edge_scores_in_blocks_equal_one_block_to_the_bit(monkeypatch):
    rng = np.random.default_rng(15)
    tangent = rng.normal(size=(40, 5))
    pairs = [(0, *rng.integers(0, 40, 2)) for _ in range(301)]
    for kind in (mf.EUCLIDEAN, mf.POINCARE, mf.LORENTZ):
        z = mf.lift(tangent, kind)
        whole = ev.edge_scores(z, pairs, kind=kind)
        with monkeypatch.context() as m:
            m.setattr(ev, "SCORE_BLOCK_BYTES", 8 * z.shape[1] * 7)  # 7 pairs a block
            blocks = ev.edge_scores(z, pairs, kind=kind)
        assert whole.shape == (301,) and whole.tobytes() == blocks.tobytes()


def test_lorentz_scores_lifted_points_far_from_the_origin():
    # at tangent norm 15 the lift misses the hyperboloid check's 1e-6
    # tolerance by rounding alone: the decoder scores such points, the
    # log map still refuses them
    rng = np.random.default_rng(14)
    tangent = rng.normal(size=(6, 3))
    tangent *= 15.0 / np.linalg.norm(tangent, axis=1, keepdims=True)
    z = mf.lift(tangent, mf.LORENTZ)
    pairs = [(0, i, j) for i in range(6) for j in range(i + 1, 6)]
    scores = ev.edge_scores(z, pairs, kind=mf.LORENTZ)
    assert scores.shape == (15,) and np.all((scores > 0) & (scores < 1))
    with pytest.raises(mf.ManifoldDomainError):
        mf.to_euclidean(z, mf.LORENTZ)


def test_link_prediction_pair_order_invariance():
    g = toy_graph(seed=10)
    split = ev.split_edges(g, (0.85, 0.15), seed=11)
    rng = np.random.default_rng(12)
    z = rng.normal(size=(g.n_nodes, 4))
    base = ev.link_prediction_eval(z, split, kind=mf.EUCLIDEAN)
    shuffled = ev.EdgeSplit(split.train_graph,
                            [split.test_pos[i] for i in
                             rng.permutation(len(split.test_pos))],
                            [split.test_neg[i] for i in
                             rng.permutation(len(split.test_neg))],
                            split.ratios, split.seed)
    assert ev.link_prediction_eval(z, shuffled, kind=mf.EUCLIDEAN) == \
        pytest.approx(base)


# --- classification protocol -------------------------------------------------


def test_classification_eval_reports_mean_and_std():
    x, labels = blobs(seed=13, n=90)
    out = ev.classification_eval(x, labels, seed=0, n_repeats=5)
    assert out["n_repeats"] == 5
    assert 0.9 <= out["f1_macro"] <= 1.0
    assert out["f1_macro_std"] >= 0.0


def overlapping_blobs(seed=21, n=90):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(3), n // 3)
    x = rng.normal(size=(3, 4))[labels] * 0.6 + rng.normal(size=(n, 4))
    return x, labels.tolist()


# label forms -> (f1_macro, f1_micro) of classification_eval on overlapping
# blobs; an int and a one-element list name the same class
LABEL_FORMS = {
    "int": (lambda labels: labels, (0.8522514522514523, 0.8518518518518517)),
    "one-element-list": (lambda labels: [[c] for c in labels],
                         (0.8522514522514523, 0.8518518518518517)),
    "multi-label": (lambda labels: [[c, (c + 1) % 3] if i % 3 == 0 else [c]
                                    for i, c in enumerate(labels)],
                    (0.6819493534405815, 0.689625850340136)),
}


@pytest.mark.parametrize("form", sorted(LABEL_FORMS))
def test_classification_eval_label_forms(form):
    x, labels = overlapping_blobs()
    make, want = LABEL_FORMS[form]
    out = ev.classification_eval(x, make(labels), seed=0, n_repeats=3)
    assert (out["f1_macro"], out["f1_micro"]) == want
