"""Hierarchical hyperbolic embedding of high-dimensional multiplex graphs."""

from .graph import (MultiplexGraph, corrupt_features, load_multiplex,
                    normalize_adjacency, save_multiplex)
from .manifold import (EUCLIDEAN, LORENTZ, POINCARE, fermi_dirac_score, lift,
                       lorentz_exp0, lorentz_log0, minkowski_inner, mobius_add,
                       poincare_exp0, poincare_log0, to_euclidean)
from .model import (ModelConfig, MODEL_VARIANTS, forward, init_params,
                    load_checkpoint, save_checkpoint)
from .synthetic import GenParams, assign_clusters, generate, sweep_specs
from .training import TrainConfig, dgi_objective, discriminate, readout, train
from .geometry import GeoReport, curvature_gap, linear_id, sweep, twonn_id
from .evaluate import (auc_ap, classification_eval, f1_scores, fit_logreg,
                       link_prediction_eval, predict, split_edges)

__version__ = "0.1.0"
