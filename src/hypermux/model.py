"""Hierarchical hyperbolic GNN over multiplex graphs.

The latent dimension counts halve, D -> ceil(D/2) -> ... (a loaded
model's are its parameters' shapes). Per layer l (with D_{l-1} latent
dimensions), in tangent coordinates; exp0 lifts the last layer's output:

  1. propagate node states through every dimension's normalized
     adjacency, then apply the linear map and the activation:
     H_d = sigma( A_d . H . W_d );
  2. combine the per-dimension states into one consensus state, a
     softmax-weighted sum over the dimensions;
  3. aggregate the D_{l-1} adjacency matrices into D_l higher-order
     latent matrices with row-softmax combination weights, apply phi
     (relu), and re-normalize them for the next layer.

sigma runs inside the per-dimension products (`autodiff.block_matmul`)
and phi inside the aggregation product (`autodiff.matmul_relu`), so a
training epoch's tape holds each layer's states and each built level's
aggregate once, not once before and once after the activation.

The combination logits are traced, so gradients flow through the latent
adjacencies back into them; `softmax_deviation` checks that their
softmaxed rows sum to 1. The last layer's aggregate feeds no layer, so
no gradient reaches its logits: it is plain numpy, off the tape. The
alpha weights are softmax outputs (positive) and normalized adjacencies
are nonnegative, so every level's support lies inside one fixed pattern
per graph: the union of the input supports plus the diagonal. Each level
is a (D, nnz) array of values on that pattern; aggregation is a (D_l x
D_{l-1}) product over values and re-normalization reduces over the
pattern's rows, so memory grows with D*nnz rather than D*N^2. For
propagation the D matrices act as one (D*N, N) vertical block stack, a
single product over every dimension. A built level makes that operator
once, as an `autodiff.StackedOperator` shared by the clean and the
corrupted pass: a CSR over the union's column indices tiled D times, or
one dense array when the union fills more than `DENSE_UNION_DENSITY` of
the N x N entries (so it is under four times the level's values). Its
adjoints (`autodiff.spmm`) form no (D*N, N) array, so training memory
grows with D*nnz as well.
"""

from __future__ import annotations

import json
import math
import zipfile
from collections import Counter
from dataclasses import dataclass, asdict

import numpy as np
import scipy.sparse as sps

from . import autodiff as ad
from . import manifold as mf
from .autodiff import Tensor, val
from .graph import normalize_adjacency, unique_keys


class ModelConfigError(ValueError):
    pass


class CheckpointError(ValueError):
    """A checkpoint file `load_checkpoint` cannot read."""


MODEL_VARIANTS = {
    # name: (manifold, n_layers, trainable aggregation weights)
    "full": (mf.LORENTZ, 2, True),
    "poincare": (mf.POINCARE, 2, True),
    "euclidean": (mf.EUCLIDEAN, 2, True),
    "euclidean-single": (mf.EUCLIDEAN, 1, True),
    "weights-ablation": (mf.LORENTZ, 2, False),
    "layers-ablation": (mf.LORENTZ, 1, True),
}


@dataclass
class ModelConfig:
    n_layers: int = 2
    embed_size: int = 96
    manifold: str = mf.LORENTZ
    leaky_slope: float = 0.01  # sigma is leaky relu; phi is relu
    train_alpha: bool = True

    def __post_init__(self):
        if not 0.0 <= self.leaky_slope <= 1.0:
            raise ModelConfigError(f"leaky_slope must lie in [0, 1], got {self.leaky_slope}")
        if self.n_layers < 1:
            raise ModelConfigError(f"n_layers must be >= 1, got {self.n_layers}")
        if self.embed_size < 1:
            raise ModelConfigError(f"embed_size must be >= 1, got {self.embed_size}")

    @classmethod
    def for_variant(cls, name, embed_size=96, **kwargs):
        if name not in MODEL_VARIANTS:
            raise ModelConfigError(f"unknown model variant {name!r}; "
                                   f"expected one of {sorted(MODEL_VARIANTS)}")
        kind, layers, train_alpha = MODEL_VARIANTS[name]
        return cls(n_layers=layers, embed_size=embed_size, manifold=kind,
                   train_alpha=train_alpha, **kwargs)


def resolve_dim_schedule(d_input, n_layers):
    """Halving schedule D, max(ceil(D/2), 2), ..., with a final level >= 1.

    Strictly decreasing wherever the previous level allows it; levels
    stuck at 1 stay at 1 (degenerate single-dimension graphs).
    """
    if n_layers < 1:
        raise ModelConfigError("need at least one layer")
    schedule = [int(d_input)]
    for l in range(1, n_layers + 1):
        floor = 1 if l == n_layers else 2
        nxt = max(math.ceil(d_input / 2 ** l), floor)
        nxt = min(nxt, max(schedule[-1] - 1, 1))
        schedule.append(nxt)
    return tuple(schedule)


@dataclass
class LayerParams:
    weights: list  # D_{l-1} Tensors, F_in x F_out
    alpha_logits: Tensor  # D_l x D_{l-1}, row-softmaxed over inputs
    beta_logits: Tensor  # 1 x D_{l-1}, softmaxed over inputs


@dataclass
class ModelParams:
    layers: list

    def named(self):
        for l, layer in enumerate(self.layers, start=1):
            for d, w in enumerate(layer.weights):
                yield f"layer{l}.W{d}", w
            yield f"layer{l}.alpha", layer.alpha_logits
            yield f"layer{l}.beta", layer.beta_logits

    @classmethod
    def from_named(cls, tensors):
        """Inverse of `named`, from a name -> Tensor map: one layer per
        `layer{l}` prefix of the `layer{l}.W{d}` names, with one block per
        such name. Other names, such as "Q", are ignored."""
        blocks = Counter(name.split(".")[0] for name in tensors if ".W" in name)
        return cls([LayerParams([tensors[f"layer{l}.W{d}"] for d in range(blocks[f"layer{l}"])],
                                tensors[f"layer{l}.alpha"], tensors[f"layer{l}.beta"])
                    for l in range(1, len(blocks) + 1)])

    def trainable(self):
        return [(name, t) for name, t in self.named() if t.requires_grad]

    def check_layout(self, q, config):
        """Raise ModelConfigError naming the first array whose shape does
        not fit the others or `config`: with M = embed_size, D_{l-1} the
        count of layer l's W and D_l the next layer's, layer l holds W{d}
        (F_in, M), alpha (D_l, D_{l-1}) and beta (1, D_{l-1}), and Q is
        (M, M). F_in is layer 1's W0 rows (`forward` checks them against
        the graph), M after; the last alpha may have any rows."""
        m, layers = config.embed_size, self.layers
        if len(layers) != config.n_layers:
            raise ModelConfigError(f"{len(layers)} layers of parameters for "
                                   f"n_layers={config.n_layers}")
        w0 = layers[0].weights[0].value
        f_in = w0.shape[0] if w0.ndim == 2 else None
        want = []
        for l, layer in enumerate(layers, start=1):
            k = len(layer.weights)
            d_next = len(layers[l].weights) if l < len(layers) else None
            want += [(f"layer{l}.W{d}", w, (f_in, m)) for d, w in enumerate(layer.weights)]
            want += [(f"layer{l}.alpha", layer.alpha_logits, (d_next, k)),
                     (f"layer{l}.beta", layer.beta_logits, (1, k))]
            f_in = m
        want.append(("Q", q, (m, m)))
        for name, t, shape in want:  # None: any positive count
            got = t.value.shape
            if len(got) != len(shape) or 0 in got or any(
                    w is not None and g != w for g, w in zip(got, shape)):
                expected = ", ".join("*" if w is None else str(w) for w in shape)
                raise ModelConfigError(f"{name} has shape {got}, expected ({expected})")


def softmax_deviation(params):
    """Max |row sum - 1| of every layer's softmaxed alpha and beta logits."""
    return max(float(np.abs(ad.softmax_array(t.value).sum(axis=-1) - 1.0).max())
               for layer in params.layers for t in (layer.alpha_logits, layer.beta_logits))


def init_params(d_input, f_input, config: ModelConfig, seed=0):
    """Glorot-uniform GCN weights, zero (uniform-attention) logits."""
    schedule = resolve_dim_schedule(d_input, config.n_layers)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), 11]))
    layers = []
    f_in = f_input
    for l in range(1, config.n_layers + 1):
        d_prev, d_cur = schedule[l - 1], schedule[l]
        f_out = config.embed_size
        bound = math.sqrt(6.0 / (f_in + f_out))
        weights = [ad.leaf(rng.uniform(-bound, bound, size=(f_in, f_out)),
                           name=f"layer{l}.W{d}")
                   for d in range(d_prev)]
        alpha = Tensor(np.zeros((d_cur, d_prev)),
                       requires_grad=config.train_alpha, name=f"layer{l}.alpha")
        beta = ad.leaf(np.zeros((1, d_prev)), name=f"layer{l}.beta")
        layers.append(LayerParams(weights, alpha, beta))
        f_in = f_out
    return ModelParams(layers)


# ---------------------------------------------------------------------------
# stacked adjacency levels

DENSE_UNION_DENSITY = 0.25  # built levels of a denser union propagate densely


class UnionPattern(ad.SymmetricPattern):
    """One graph's union of normalized input supports, in CSR order.

    Every hierarchy level lives on it. It holds the diagonal, since every
    normalized input is A + I. `mode` is the storage of the built
    levels' operators: "dense" when the union fills more than
    DENSE_UNION_DENSITY of the N x N entries (a BLAS product then beats
    a CSR product and its transpose), "sparse" otherwise.
    """

    def __init__(self, keys, n):
        """`keys`: the entries' sorted distinct row-major offsets `row * n + col`."""
        super().__init__(keys // n, keys % n, n)
        self.density = self.nnz / (n * n)
        self.mode = "dense" if self.density > DENSE_UNION_DENSITY else "sparse"


class StackedAdjacency:
    """D symmetric N x N adjacencies on one `UnionPattern`; this one
    constructor makes every level.

    `values` holds them as a (D, nnz) array over `union`; for propagation
    they act as one (D*N, N) vertical block stack, stored by `mode`:
           "const"  - given `csr`, their stack as scipy CSR: the input
                      level, never traced;
           "dense"  - built level of a dense union: traced values, `op`
                      their filled (D*N, N) array;
           "sparse" - built level of a sparse union: traced values, `op`
                      their CSR over the union's column indices tiled D times.
    A built level makes its `ad.StackedOperator` once, and the clean and
    the corrupted pass both multiply by it through `ad.spmm`, whose
    adjoints form no (D*N, N) array. A "dense" level given `out`, the
    operator array of a level nothing reads any more, refills it in
    place instead of making a new one.
    """

    def __init__(self, union, values, csr=None, out=None):
        self.union = union
        self.n = union.n
        self.n_blocks = val(values).shape[0]
        self.values = values
        self.csr = csr
        if csr is None:
            self.mode = union.mode
            self.op = ad.StackedOperator(union, values, dense=union.mode == "dense", out=out)
        else:
            self.mode, self.op = "const", None

    # the operator under the names benchmarks/tracing.py reads per mode
    pattern = dense = property(lambda self: self.op)

    def matmul(self, x):
        """(D*N, N) @ (N, F): propagation through every block at once."""
        if self.mode == "const":
            return ad.spmm_const(self.csr, self.csr.T, x)
        return ad.spmm(self.op, self.values, x)


def prepare_adjacencies(graph):
    """Level 0: every input dimension normalized once, at load time, and
    stacked into one (D*N, N) CSR. Each stored entry's key
    `(row % N) * N + col` is worked out once; their distinct values are
    the union, and one `searchsorted` places every value on it."""
    n = graph.n_nodes
    csr = sps.vstack([normalize_adjacency(a) for a in graph.dims], format="csr")
    rows = np.repeat(np.arange(csr.shape[0], dtype=np.int64), np.diff(csr.indptr))
    keys = (rows % n) * n + csr.indices
    union_keys = unique_keys(keys)
    values = np.zeros((graph.n_dims, union_keys.size))
    values[rows // n, np.searchsorted(union_keys, keys)] = csr.data
    return StackedAdjacency(UnionPattern(union_keys, n), values, csr=csr)


# ---------------------------------------------------------------------------
# full forward pass


@dataclass
class Hierarchy:
    """The adjacency levels `propagate` reads, 0..L-1 for L layers, plus
    every layer's aggregate for the diagnostics.

    The last layer's aggregate feeds no layer, so it is kept only as raw
    values in `raw_flat`, never normalized into a level.
    """

    levels: list  # StackedAdjacency per level; block counts: the schedule bar its last
    raw_flat: list  # per layer, (D_l, nnz) pre-normalization values on the union

    def raw_matrices(self, layer):
        """Pre-normalization aggregated (N, N) matrices of one layer."""
        return list(self.levels[0].union.to_dense(self.raw_flat[layer]))

    @property
    def raw_aggregated(self):
        return [self.raw_matrices(l) for l in range(len(self.raw_flat))]


def build_hierarchy(level0: StackedAdjacency, params: ModelParams, reuse=None):
    """Latent adjacency levels; level 0 is the (constant) normalized input.

    Every layer's aggregate is computed, for the diagnostics, but only
    those a later layer propagates through are normalized into levels.
    `reuse`, when given, is an earlier hierarchy on `level0` whose
    levels nothing reads any more (`train` passes the previous epoch's):
    each dense level refills that hierarchy's operator array of the same
    level in place. Without it every level's operator is a new array.
    """
    union = level0.union
    levels = [level0]
    raw_all = []
    for l, layer in enumerate(params.layers, start=1):
        current = levels[-1]
        if len(layer.weights) != current.n_blocks:
            raise ModelConfigError(
                f"layer{l} has {len(layer.weights)} weight matrices for "
                f"D={current.n_blocks} dimensions")
        if l < len(params.layers):
            raw = ad.matmul_relu(ad.softmax(layer.alpha_logits, axis=-1), current.values)
            raw_all.append(raw.value)
            out = reuse.levels[l].op.value if reuse is not None and union.mode == "dense" else None
            levels.append(StackedAdjacency(union, ad.normalize_blocks(raw, union), out=out))
        else:  # read by no layer, so no gradient reaches its alpha: off the tape
            raw = ad.softmax_array(layer.alpha_logits.value) @ val(current.values)
            raw_all.append(np.maximum(raw, 0.0, out=raw))
    return Hierarchy(levels, raw_all)


def propagate(hierarchy: Hierarchy, x, params: ModelParams, config: ModelConfig):
    """Run the embedding layers over a prebuilt adjacency hierarchy.

    Every layer works in tangent coordinates at the base point. Returns
    H, the last layer's N x M states.
    """
    n = hierarchy.levels[0].n
    h = x if isinstance(x, Tensor) else ad.constant(x)
    for l, layer in enumerate(params.layers):
        prop_all = hierarchy.levels[l].matmul(h)  # (D*N, F_in)
        per_dim = ad.block_matmul(prop_all, layer.weights, n, config.leaky_slope)
        beta = ad.softmax(layer.beta_logits, axis=-1)
        h = ad.block_weighted_sum(per_dim, beta, n)
    return h


@dataclass
class ForwardResult:
    z: np.ndarray  # lifted output, N x M (N x (M+1) on the hyperboloid); not traced
    z_tangent: Tensor  # states in tangent coordinates, N x M; traced when params are leaves
    hierarchy: Hierarchy
    softmax_dev: float  # `softmax_deviation` of the parameters
    lorentz_violation: float  # of the output lift; 0 off the hyperboloid


def forward(graph, x, params: ModelParams, config: ModelConfig):
    """Full multilayer pass: embeddings plus the latent adjacency hierarchy."""
    f_params, f_graph = params.layers[0].weights[0].shape[0], val(x).shape[1]
    if f_params != f_graph:
        raise ModelConfigError(f"parameters take F={f_params} input features, "
                               f"the graph has F={f_graph}")
    hierarchy = build_hierarchy(prepare_adjacencies(graph), params)
    h = propagate(hierarchy, x, params, config)
    z = mf.lift(val(h), config.manifold)
    violation = mf.lorentz_violation(z) if config.manifold == mf.LORENTZ else 0.0
    return ForwardResult(z, h, hierarchy, softmax_deviation(params), violation)


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_FORMAT = 1
# model config fields older checkpoints may still carry; ignored on load
RETIRED_CONFIG_KEYS = ("dense_threshold", "dim_schedule", "drop_tol")


def save_checkpoint(path, params: ModelParams, q, model_config: ModelConfig,
                    meta=None):
    """Write a flat key -> array map (numpy .npz) with a JSON header entry.

    Keys: layer{l}.W{d}, layer{l}.alpha, layer{l}.beta, Q, and __meta__
    (UTF-8 JSON bytes holding the model config, the format version, and
    optional extra metadata).
    """
    arrays = {name: t.value for name, t in params.named()}
    arrays["Q"] = val(q)
    header = {"format": CHECKPOINT_FORMAT, "model": asdict(model_config)}
    if meta:
        header["meta"] = meta
    arrays["__meta__"] = np.frombuffer(
        json.dumps(header, sort_keys=True).encode(), dtype=np.uint8).copy()
    np.savez(path, **arrays)
    return path


def load_checkpoint(path):
    """Inverse of `save_checkpoint`: (params, Q, ModelConfig, meta).

    Every parameter and Q load as `ad.constant`: a loaded checkpoint is
    only run forward, which then records no closures and keeps no tape.
    A file that is not a checkpoint of CHECKPOINT_FORMAT, or whose arrays
    do not fit each other (`ModelParams.check_layout`), raises
    CheckpointError naming it.
    """
    try:
        with np.load(path) as data:  # an .npy file loads as an array: TypeError
            arrays = {name: data[name] for name in data.files}
    except (OSError, EOFError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"cannot read checkpoint {path} as an .npz archive: {exc}") from exc
    try:
        header = json.loads(bytes(arrays.pop("__meta__")).decode())
        if header["format"] != CHECKPOINT_FORMAT:
            raise ValueError(f"format {header['format']!r} is not {CHECKPOINT_FORMAT}")
        config = ModelConfig(**{k: v for k, v in header["model"].items()
                                if k not in RETIRED_CONFIG_KEYS})
        tensors = {name: ad.constant(a, name=name) for name, a in arrays.items()}
        params = ModelParams.from_named(tensors)
        params.check_layout(tensors["Q"], config)
        return params, tensors["Q"], config, header.get("meta")
    except KeyError as exc:
        raise CheckpointError(f"bad checkpoint {path}: no {exc} entry") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise CheckpointError(f"bad checkpoint {path}: {exc}") from exc
