"""Contrastive (infomax-style) training of the multiplex embedding model.

Each epoch runs the encoder on the clean graph and on a feature-shuffled
corruption of it (fresh permutation per epoch, derived from the run
seed), scores both against the clean summary vector with a bilinear
discriminator, and minimizes the negative log-likelihood of telling the
two apart (`epoch_loss`). The latent adjacency hierarchy depends only
on the combination logits, so it is built once per epoch, and the clean
and the corrupted pass run through it as one: their features side by
side, an (N, 2F) operand, give both passes' states in one propagation.

One epoch's tape is in memory at a time: `train` lets go of the
previous one right after the next hierarchy is built, before that
epoch's pass, and that build refills the previous hierarchy's dense
operator arrays in place (`model.build_hierarchy`'s `reuse`).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import manifold as mf
from . import model as mdl
from .autodiff import Tensor
from .graph import corrupt_features, derive_seed

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LOG_FLOOR = 1e-12


class TrainingError(RuntimeError):
    pass


class TrainConfigError(ValueError):
    pass


class FeatureRangeError(ValueError):
    """Input features too large for float64: the first epoch's loss or a
    gradient is not finite. That comes before any update, so only the input
    can cause it."""


def _feature_range_error(what, x):
    return FeatureRangeError(f"the features make {what} non-finite in epoch 1, before any "
                             f"update (largest |feature| {np.abs(x).max():.3g}); rescale them")


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    weight_decay: float = 1e-5
    max_epochs: int = 1000
    patience: int = 20  # epochs without >= min_delta improvement
    min_delta: float = 1e-5
    seed: int = 0
    telemetry: bool = False  # per-epoch intrinsic dimension of Z

    def validate(self):
        if (self.learning_rate <= 0 or self.patience < 1 or self.max_epochs < 1
                or self.weight_decay < 0 or self.min_delta < 0):
            raise TrainConfigError("need lr > 0, patience >= 1, max_epochs >= 1, "
                                   "weight_decay >= 0, min_delta >= 0")
        return self


# ---------------------------------------------------------------------------
# objective


def readout(z):
    """Graph summary: mean of the (tangent) node states, (1, M)."""
    return ad.tmean(z, axis=0, keepdims=True)


def init_discriminator(m, name="Q"):
    """Identity-initialized bilinear form, i.e. plain inner-product scoring."""
    return ad.leaf(np.eye(m), name=name)


def discriminate(s, z, q):
    """sigmoid(z Q s^T): the (N, 1) scores of the (N, M) states z against
    the (1, M) summary s, all three Tensors."""
    return ad.sigmoid(z @ q @ ad.transpose(s))


def dgi_objective(z, z_corrupt, q):
    """sum_i log D(s, z_i) + sum_j log(1 - D(s, z_corrupt_j)).

    The summary s comes from the clean states; training minimizes the
    negation. Log arguments are clamped to >= 1e-12.
    """
    if z.shape != z_corrupt.shape:
        raise ad.ShapeError(f"dgi_objective: shapes {z.shape} != {z_corrupt.shape}")
    s = readout(z)
    pos = discriminate(s, z, q)
    neg = discriminate(s, z_corrupt, q)
    pos_term = ad.tsum(ad.log(ad.clip(pos, LOG_FLOOR, 1.0)))
    neg_term = ad.tsum(ad.log(ad.clip(ad.sub(1.0, neg), LOG_FLOOR, 1.0)))
    return ad.add(pos_term, neg_term)


def epoch_loss(hierarchy, x, x_hat, params, q, config: mdl.ModelConfig):
    """(loss, clean states): the negated `dgi_objective` of the clean and
    the corrupted states. One `propagate` runs both passes through the
    hierarchy, on the (N, 2F) features `[x | x_hat]`; the first M columns
    of its (N, 2M) output are the clean states, the last M the corrupted
    ones. The one loss `train` minimizes and the gradient checks test."""
    h = mdl.propagate(hierarchy, np.hstack([x, x_hat]), params, config)
    m = h.shape[1] // 2
    z = ad.columns(h, 0, m)
    return ad.neg(dgi_objective(z, ad.columns(h, m, 2 * m), q)), z


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adam with decoupled weight decay (params shrink before the step)."""

    def __init__(self, named_params, config: TrainConfig):
        self.params = list(named_params)
        self.lr = config.learning_rate
        self.wd = config.weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(t.value) for name, t in self.params}
        self.v = {name: np.zeros_like(t.value) for name, t in self.params}

    def step(self, grads):
        """Apply one update; `grads` maps parameter name -> ndarray."""
        self.t += 1
        for name, tensor in self.params:
            g = grads[name]
            if not np.all(np.isfinite(g)):
                raise TrainingError(f"non-finite gradient for parameter {name!r}")
            if self.wd:
                tensor.value *= 1.0 - self.lr * self.wd
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            m_hat = m / (1.0 - ADAM_BETA1 ** self.t)
            v_hat = v / (1.0 - ADAM_BETA2 ** self.t)
            tensor.value -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class HistoryRow:
    epoch: int
    loss: float
    id_estimate: float | None = None
    lid_estimate: int | None = None


@dataclass
class TrainResult:
    params: mdl.ModelParams
    discriminator: Tensor
    config: mdl.ModelConfig
    z_final: np.ndarray  # manifold coordinates
    z_tangent: np.ndarray  # euclidean (tangent) coordinates
    history: list
    final_loss: float
    n_epochs: int
    max_lorentz_violation: float = 0.0  # of the output lift
    max_softmax_dev: float = 0.0
    aborted: str | None = None


def train(graph, model_config: mdl.ModelConfig, train_config: TrainConfig) -> TrainResult:
    """Full-graph training with early stopping on the training loss.

    Stops after `patience` consecutive epochs without improving the best
    loss by at least `min_delta`, or at `max_epochs`. A non-finite loss
    aborts, keeping the parameters from before the offending update; in
    the first epoch, before any update, a non-finite loss or gradient
    raises FeatureRangeError instead.
    States stay in tangent coordinates; the output is lifted once, at the end.
    """
    train_config.validate()
    mf.check_manifold(model_config.manifold)
    level0 = mdl.prepare_adjacencies(graph)
    x = np.asarray(graph.features, dtype=np.float64)
    params = mdl.init_params(graph.n_dims, x.shape[1], model_config,
                             seed=derive_seed(train_config.seed, 101))
    q = init_discriminator(model_config.embed_size)
    trainables = params.trainable() + [("Q", q)]
    optimizer = Adam(trainables, train_config)

    history = []
    best = np.inf
    since_improved = 0
    max_dev = 0.0
    z_tangent = None
    aborted = None
    epoch = 0
    hierarchy = loss = z = None

    for epoch in range(1, train_config.max_epochs + 1):
        hierarchy = mdl.build_hierarchy(level0, params, reuse=hierarchy)
        # The previous epoch's tape goes only now, after the build: freed
        # right after `optimizer.step`, it is the top of the heap, which
        # glibc trims and the next epoch faults back in; freed here, it
        # leaves holes below the new hierarchy that the pass reuses.
        loss = z = None
        x_hat = corrupt_features(x, derive_seed(train_config.seed, 202, epoch))
        with np.errstate(over="ignore", invalid="ignore"):  # the loss is checked below
            loss, z = epoch_loss(hierarchy, x, x_hat, params, q, model_config)
        loss_value = float(loss.value)
        if not np.isfinite(loss_value):
            if epoch == 1:
                raise _feature_range_error("the loss", x)
            aborted = f"non-finite loss at epoch {epoch}"
            epoch -= 1
            break

        max_dev = max(max_dev, mdl.softmax_deviation(params))
        z_tangent = z.value.copy()

        row = HistoryRow(epoch, loss_value)
        if train_config.telemetry:
            from .geometry import linear_id, twonn_id
            row.id_estimate = float(twonn_id(z_tangent))
            row.lid_estimate = int(linear_id(z_tangent))
        history.append(row)

        if loss_value < best - train_config.min_delta:
            best = loss_value
            since_improved = 0
        else:
            since_improved += 1
            if since_improved >= train_config.patience:
                break

        with np.errstate(over="ignore", invalid="ignore"):  # `Adam.step` checks the gradients
            ad.backward(loss)
        grads = {name: ad.grad_or_zero(t) for name, t in trainables}
        if epoch == 1:
            bad = [name for name, g in grads.items() if not np.isfinite(g).all()]
            if bad:
                raise _feature_range_error(f"the gradient for parameter {bad[0]!r}", x)
        optimizer.step(grads)

    if z_tangent is None:
        raise TrainingError(aborted or "training produced no usable epoch")
    z_final = mf.lift(z_tangent, model_config.manifold)
    violation = mf.lorentz_violation(z_final) if model_config.manifold == mf.LORENTZ else 0.0

    return TrainResult(
        params=params, discriminator=q, config=model_config,
        z_final=z_final, z_tangent=z_tangent, history=history,
        final_loss=history[-1].loss, n_epochs=epoch,
        max_lorentz_violation=violation, max_softmax_dev=max_dev,
        aborted=aborted)


def write_history_csv(history, path):
    """epoch,loss,id,lid rows; id/lid stay blank without telemetry."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "id", "lid"])
        for row in history:
            writer.writerow([
                row.epoch,
                f"{row.loss:.12g}",
                "" if row.id_estimate is None else f"{row.id_estimate:.8g}",
                "" if row.lid_estimate is None else row.lid_estimate,
            ])
    return path
