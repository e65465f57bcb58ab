"""Downstream evaluation: link prediction and node classification.

Link prediction removes a fraction of each dimension's edges, trains on
the remainder, scores the held-out pairs (pooled over dimensions)
against an equal number of sampled non-edges, and reports AUC-ROC and
average precision. Hyperbolic embeddings are scored with the
Fermi-Dirac decoder; euclidean ones with the sigmoid of the dot
product. Node classification maps embeddings to tangent coordinates and
fits an in-repo multinomial logistic regression (one-vs-rest for
multi-label graphs), minimized by L-BFGS with Armijo backtracking until
the gradient's 2-norm falls below `tol`.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import manifold as mf
from .autodiff import logistic, softmax_array
from .graph import MultiplexGraph, _symmetric_csr, edge_keys


class EvalError(ValueError):
    pass


# ---------------------------------------------------------------------------
# edge splitting


@dataclass
class EdgeSplit:
    train_graph: MultiplexGraph
    test_pos: list  # (dim, i, j) true edges removed from training
    test_neg: list  # (dim, i, j) verified non-edges of that dimension
    ratios: tuple
    seed: int


def split_edges(graph: MultiplexGraph, ratios=(0.85, 0.15), seed=0) -> EdgeSplit:
    """Uniform per-dimension removal of test edges plus negative sampling.

    Every dimension must keep at least one training edge; negatives are
    distinct node pairs verified absent from that dimension's adjacency
    (they may exist in other dimensions, as in the standard protocol).

    A dimension's edges are its sorted int64 keys `i * n + j` (i <= j); a
    boolean mask over them marks the held-out ones. Negatives come from
    batches of uniform node pairs: a batch drops self-pairs, edges and
    earlier negatives, keeps the first occurrence of each pair in draw
    order, and tops the negatives up to the held-out count, as a
    pair-by-pair loop over the batch would.
    """
    if abs(sum(ratios) - 1.0) > 1e-9 or min(ratios) < 0:
        raise EvalError(f"ratios must be nonnegative and sum to 1, got {ratios}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), 31]))
    n = graph.n_nodes
    test_pos, test_neg, train_dims = [], [], []
    for d, a in enumerate(graph.dims):
        keys = edge_keys(a)
        n_test = int(round(keys.size * ratios[1]))
        if keys.size == 0 or (n_test > 0 and keys.size - n_test < 1):
            raise EvalError(
                f"dimension {d} has {keys.size} edges; cannot hold out {n_test} "
                f"and keep at least one for training")
        held = np.zeros(keys.size, dtype=bool)
        if n_test:
            held[rng.choice(keys.size, size=n_test, replace=False)] = True
        test_pos.extend(_triples(d, keys[held], n))
        train_dims.append(_symmetric_csr(n, keys[~held]))

        negatives = np.empty(0, dtype=np.int64)  # sorted
        guard = 0
        while negatives.size < n_test:
            cand_i = rng.integers(0, n, size=4 * (n_test - negatives.size) + 8)
            cand_j = rng.integers(0, n, size=cand_i.size)
            cand = np.minimum(cand_i, cand_j) * n + np.maximum(cand_i, cand_j)
            cand = cand[cand_i != cand_j]
            _, first = np.unique(cand, return_index=True)
            cand = cand[np.sort(first)]  # each pair once, in draw order
            # edges and negatives are disjoint, so their union is distinct
            known = np.concatenate([keys, negatives])
            fresh = cand[~np.isin(cand, known, assume_unique=True)][:n_test - negatives.size]
            negatives = np.sort(np.concatenate([negatives, fresh]))
            guard += 1
            if guard > 1000:
                raise EvalError(f"dimension {d}: could not sample {n_test} non-edges")
        test_neg.extend(_triples(d, negatives, n))

    train_graph = MultiplexGraph(n, train_dims, graph.features.copy(),
                                 copy.deepcopy(graph.labels))
    return EdgeSplit(train_graph, test_pos, test_neg, tuple(ratios), int(seed))


def _triples(d, keys, n):
    """(d, i, j) tuples of Python ints for the keys `i * n + j`."""
    i, j = np.divmod(keys, n)
    return zip([d] * keys.size, i.tolist(), j.tolist())


# ---------------------------------------------------------------------------
# ranking metrics


def auc_ap(scores, labels):
    """AUC via the rank statistic (ties count 1/2) and average precision."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise EvalError("scores and labels must be equal-length vectors")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise EvalError("both classes must be present")

    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    # tie groups of the sorted scores; NaN != NaN, so each NaN is its own
    starts = np.flatnonzero(np.concatenate(
        [[True], sorted_scores[1:] != sorted_scores[:-1]]))
    ends = np.append(starts[1:], scores.size)  # exclusive
    ranks = np.empty_like(scores)
    # midrank (start + end) / 2 in 1-based positions: exact half-integers
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    auc = (ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

    desc = np.argsort(-scores, kind="stable")
    hits = (labels[desc] == 1).astype(np.float64)
    precision = np.cumsum(hits) / np.arange(1, scores.size + 1)
    ap = float((precision * hits).sum() / n_pos)
    return float(auc), ap


def _label_sets(labels):
    """Each node's classes as a set, from one class id or a collection of them."""
    return [set(l) if isinstance(l, (list, tuple, set)) else {int(l)} for l in labels]


def f1_scores(predicted, actual):
    """(macro, micro) F1 over single- or multi-label assignments."""
    pred_sets, true_sets = _label_sets(predicted), _label_sets(actual)
    if len(pred_sets) != len(true_sets):
        raise EvalError("predicted and actual lengths differ")
    classes = sorted(set().union(*true_sets, *pred_sets)) if true_sets else []
    tp = {c: 0 for c in classes}
    fp = {c: 0 for c in classes}
    fn = {c: 0 for c in classes}
    for p, a in zip(pred_sets, true_sets):
        for c in p & a:
            tp[c] += 1
        for c in p - a:
            fp[c] += 1
        for c in a - p:
            fn[c] += 1
    per_class = []
    for c in classes:
        denom = 2 * tp[c] + fp[c] + fn[c]
        per_class.append(2 * tp[c] / denom if denom else 0.0)
    macro = float(np.mean(per_class)) if per_class else 0.0
    tp_all = sum(tp.values())
    denom = 2 * tp_all + sum(fp.values()) + sum(fn.values())
    micro = 2 * tp_all / denom if denom else 0.0
    return macro, float(micro)


# ---------------------------------------------------------------------------
# edge scoring


SCORE_BLOCK_BYTES = 2 << 20  # size of one (pairs, M) temporary of the decoder


def edge_scores(z, pairs, kind=mf.LORENTZ, r=2.0, t=1.0):
    """Score node pairs: Fermi-Dirac on hyperbolic states, sigmoid dot
    product on euclidean ones.

    Scored a block of pairs at a time, so no temporary of the decoder
    exceeds SCORE_BLOCK_BYTES; a score reads only its own pair's rows,
    so the blocks change no bit of it.
    """
    z = np.asarray(z, dtype=np.float64)
    idx_i = np.fromiter((p[-2] for p in pairs), dtype=np.int64, count=len(pairs))
    idx_j = np.fromiter((p[-1] for p in pairs), dtype=np.int64, count=len(pairs))
    scores = np.empty(len(pairs))
    step = max(1, SCORE_BLOCK_BYTES // (8 * z.shape[-1]))
    for lo in range(0, len(pairs), step):
        z_i, z_j = z[idx_i[lo:lo + step]], z[idx_j[lo:lo + step]]
        scores[lo:lo + step] = (logistic((z_i * z_j).sum(axis=1)) if kind == mf.EUCLIDEAN
                                else mf.fermi_dirac_score(z_i, z_j, r=r, t=t, kind=kind))
    return scores


def check_scoreable(split: EdgeSplit, labels):
    """Reject what the scorers would reject, before anything is trained on
    the split: a split that holds out no edge (`link_prediction_eval`), and
    labels with fewer than two classes (`classification_eval`)."""
    if not split.test_pos:
        raise EvalError(f"empty test set: test ratio {split.ratios[1]} holds out "
                        f"no edge of any dimension")
    if labels is not None and len(set().union(*_label_sets(labels))) < 2:
        raise EvalError("need at least two classes to fit a classifier")


def link_prediction_eval(z, split: EdgeSplit, kind=mf.LORENTZ, r=2.0, t=1.0):
    """Pooled AUC/AP over the split's held-out positives and negatives."""
    pairs = list(split.test_pos) + list(split.test_neg)
    if not split.test_pos or not split.test_neg:
        raise EvalError("empty test set; use a nonzero test ratio")
    labels = np.concatenate([np.ones(len(split.test_pos), dtype=np.int64),
                             np.zeros(len(split.test_neg), dtype=np.int64)])
    scores = edge_scores(z, pairs, kind=kind, r=r, t=t)
    return auc_ap(scores, labels)


# ---------------------------------------------------------------------------
# logistic regression (kept in-repo for determinism)


@dataclass
class Classifier:
    weights: np.ndarray  # C x E
    bias: np.ndarray  # C
    classes: list
    multilabel: bool


_LBFGS_MEMORY = 10  # (s, y) pairs kept for the inverse-Hessian estimate


def _fit_linear(n_params, loss_grad, max_iter=5000, tol=1e-5):
    """L-BFGS from zero (Liu & Nocedal, 1989); the objective never rises.

    `loss_grad(params) -> (loss, grad)` must be the mean loss over rows
    plus the l2 penalty, so duplicated rows leave the optimum unchanged.
    Each iteration takes the two-loop direction over the last
    `_LBFGS_MEMORY` pairs with s·y > 0 (restarting from -grad when that
    is not a descent direction) and backtracks from step 1 until the
    Armijo condition holds. Stops when ‖grad‖₂ < `tol`, after `max_iter`
    iterations, or, keeping the current point, when backtracking finds
    no sufficient decrease.
    """
    params = np.zeros(n_params)
    loss, grad = loss_grad(params)
    pairs = deque(maxlen=_LBFGS_MEMORY)  # (s, y, 1 / s·y), oldest first
    for _ in range(max_iter):
        if np.linalg.norm(grad) < tol:
            break
        direction = _lbfgs_direction(grad, pairs)
        slope = grad @ direction
        if not slope < 0:
            pairs.clear()
            direction, slope = -grad, -(grad @ grad)
        step = 1.0
        while True:
            cand = params + step * direction
            cand_loss, cand_grad = loss_grad(cand)
            if cand_loss <= loss + 1e-4 * step * slope:
                break
            step *= 0.5
            if step < 1e-12:
                return params
        s, y = cand - params, cand_grad - grad
        sy = s @ y
        if sy > 0:
            pairs.append((s, y, 1.0 / sy))
        params, loss, grad = cand, cand_loss, cand_grad
    return params


def _lbfgs_direction(grad, pairs):
    """-H·grad by the two-loop recursion, H0 scaled by s·y / y·y."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * (s @ q)
        q -= a * y
        alphas.append(a)
    if pairs:
        _, y, rho = pairs[-1]
        q /= rho * (y @ y)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * (y @ q)) * s
    return -q


def fit_logreg(embeddings, labels, l2=1e-4, max_iter=5000, tol=1e-5) -> Classifier:
    """Multinomial logistic regression (one-vs-rest when multi-label),
    fit by `_fit_linear`'s L-BFGS to a gradient 2-norm below `tol`."""
    x = np.asarray(embeddings, dtype=np.float64)
    label_sets = _label_sets(labels)
    classes = sorted(set().union(*label_sets))
    if len(classes) < 2:
        raise EvalError("need at least two classes to fit a classifier")
    multilabel = any(len(s) > 1 for s in label_sets)
    n, e = x.shape
    c = len(classes)
    index = {cls: k for k, cls in enumerate(classes)}
    xb = np.concatenate([x, np.ones((n, 1))], axis=1)  # bias as a fixed column

    if multilabel:
        y = np.zeros((n, c))
        for row, s in enumerate(label_sets):
            for cls in s:
                y[row, index[cls]] = 1.0

        def loss_grad(params):
            w = params.reshape(c, e + 1)
            logits = xb @ w.T
            p = 1.0 / (1.0 + np.exp(-np.clip(logits, -500, 500)))
            eps = 1e-12
            # one binary problem per class: sum over classes, mean over rows
            nll = -(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)).sum() / n
            penalty = 0.5 * l2 * (w[:, :-1] ** 2).sum()
            g = ((p - y).T @ xb) / n
            g[:, :-1] += l2 * w[:, :-1]
            return nll + penalty, g.reshape(-1)
    else:
        y_idx = np.array([index[next(iter(s))] for s in label_sets])
        onehot = np.zeros((n, c))
        onehot[np.arange(n), y_idx] = 1.0

        def loss_grad(params):
            w = params.reshape(c, e + 1)
            p = softmax_array(xb @ w.T)
            nll = -np.log(p[np.arange(n), y_idx] + 1e-12).mean()
            penalty = 0.5 * l2 * (w[:, :-1] ** 2).sum()
            g = ((p - onehot).T @ xb) / n
            g[:, :-1] += l2 * w[:, :-1]
            return nll + penalty, g.reshape(-1)

    flat = _fit_linear(c * (e + 1), loss_grad, max_iter=max_iter, tol=tol)
    w = flat.reshape(c, e + 1)
    return Classifier(w[:, :-1].copy(), w[:, -1].copy(), classes, multilabel)


def predict(classifier: Classifier, embeddings):
    """Argmax prediction (per-label 0.5 threshold when multi-label)."""
    x = np.asarray(embeddings, dtype=np.float64)
    logits = x @ classifier.weights.T + classifier.bias
    if classifier.multilabel:
        return [[classifier.classes[k] for k in np.flatnonzero(row > 0)]
                for row in logits]
    return [classifier.classes[int(k)] for k in np.argmax(logits, axis=1)]


def classification_eval(embeddings, labels, seed=0, n_repeats=5, test_ratio=0.2,
                        l2=1e-4):
    """Stratified train/test node splits, repeated; mean and std of F1."""
    if n_repeats < 1:
        raise EvalError(f"n_repeats must be >= 1, got {n_repeats}")
    x = np.asarray(embeddings, dtype=np.float64)
    label_sets = _label_sets(labels)
    primary = np.array([sorted(s)[0] for s in label_sets])
    macros, micros = [], []
    for rep in range(n_repeats):
        rng = np.random.default_rng(
            np.random.SeedSequence([int(seed) & (2**63 - 1), 41, rep]))
        test_idx = []
        for cls in np.unique(primary):
            members = np.flatnonzero(primary == cls)
            members = members[rng.permutation(members.size)]
            n_test = max(1, int(round(members.size * test_ratio)))
            if n_test >= members.size:
                n_test = members.size - 1
            test_idx.extend(members[:n_test].tolist())
        test_mask = np.zeros(x.shape[0], dtype=bool)
        test_mask[test_idx] = True
        train_labels = [labels[i] for i in np.flatnonzero(~test_mask)]
        clf = fit_logreg(x[~test_mask], train_labels, l2=l2)
        preds = predict(clf, x[test_mask])
        actual = [labels[i] for i in np.flatnonzero(test_mask)]
        macro, micro = f1_scores(preds, actual)
        macros.append(macro)
        micros.append(micro)
    return {
        "f1_macro": float(np.mean(macros)), "f1_macro_std": float(np.std(macros)),
        "f1_micro": float(np.mean(micros)), "f1_micro_std": float(np.std(micros)),
        "n_repeats": n_repeats,
    }
