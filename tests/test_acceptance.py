"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

The expensive experiments (the gap study and the link-prediction study)
run once per session and are shared by the criteria that consume them.
Criterion 2 encodes the stated AUC floor verbatim; see the repository
notes for the measured feasibility analysis of that target.
"""

import json
from statistics import median

import numpy as np
import pytest

import hypermux.autodiff as ad
import hypermux.manifold as mf
from hypermux import cli, evaluate as ev, geometry as geo, model as mdl
from hypermux import synthetic as syn, training as tr
from hypermux.graph import MultiplexGraph, corrupt_features, normalize_adjacency


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


GAP_DS = (5, 20, 40)
GAP_SEEDS = (0, 1, 2)
GAP_EPOCH_CAP = 150
GAP_EMBED = 64  # embedding size of the geometric study protocol


def _train_run(d, variant, seed, embed, max_epochs, p_in=None, p_out=None,
               graph=None, split=None):
    if graph is None:
        spec = syn.GenParams(n_nodes=500, n_clusters=5, n_dims=d,
                             p_in=p_in, p_out=p_out,
                             seed=tr.derive_seed(2024, d, seed, 1))
        graph = syn.generate(spec).graph
    config = mdl.ModelConfig.for_variant(variant, embed_size=embed)
    tc = tr.TrainConfig(max_epochs=max_epochs, seed=tr.derive_seed(2024, d, seed, 2))
    outcome = tr.train(split.train_graph if split is not None else graph, config, tc)
    return graph, config, outcome


@pytest.fixture(scope="module")
def gap_study():
    """Criterion-1 experiment; criteria 4 and 6 ride on the same runs."""
    rows = {"full": {}, "euclidean-single": {}}
    max_violation = 0.0
    max_softmax_dev = 0.0
    for d in GAP_DS:
        for variant in rows:
            gaps = []
            for seed in GAP_SEEDS:
                _, config, outcome = _train_run(d, variant, seed, GAP_EMBED,
                                                GAP_EPOCH_CAP)
                report = geo.curvature_gap(outcome.z_tangent)
                gaps.append(report.gap)
                max_violation = max(max_violation, outcome.max_lorentz_violation)
                max_softmax_dev = max(max_softmax_dev, outcome.max_softmax_dev)
                print(f"  gap-study d={d} {variant} seed={seed}: "
                      f"id={report.id_estimate:.2f} lid={report.lid_estimate} "
                      f"gap={report.gap:.2f} epochs={outcome.n_epochs}")
            rows[variant][d] = gaps
    return {"rows": rows, "max_violation": max_violation,
            "max_softmax_dev": max_softmax_dev}


@pytest.fixture(scope="module")
def lp_study():
    """Criterion-2 experiment: N=500, D=10, p_in=0.15, p_out=0.015."""
    aucs = {"full": [], "layers-ablation": []}
    for seed in (0, 1, 2):
        spec = syn.GenParams(n_nodes=500, n_clusters=5, n_dims=10,
                             p_in=0.15, p_out=0.015,
                             seed=tr.derive_seed(7, seed, 1))
        graph = syn.generate(spec).graph
        split = ev.split_edges(graph, (0.85, 0.15), seed=tr.derive_seed(7, seed, 2))
        for variant in aucs:
            _, config, outcome = _train_run(10, variant, seed, 96, GAP_EPOCH_CAP,
                                            graph=graph, split=split)
            auc, ap = ev.link_prediction_eval(outcome.z_final, split,
                                              kind=config.manifold)
            aucs[variant].append(auc)
            print(f"  lp-study seed={seed} {variant}: auc={auc:.4f} ap={ap:.4f} "
                  f"epochs={outcome.n_epochs}")
    return aucs


def test_criterion_1_geometric_gap(gap_study):
    rows = gap_study["rows"]
    full_medians = {d: median(rows["full"][d]) for d in GAP_DS}
    ablation_d40 = median(rows["euclidean-single"][40])
    ok_small = all(m <= 4.0 for m in full_medians.values())
    ok_margin = ablation_d40 - full_medians[40] >= 2.0
    detail = (f"full medians {dict((d, round(m, 2)) for d, m in full_medians.items())}"
              f" (need <= 4); euclidean-single at D=40 {ablation_d40:.2f} vs "
              f"full {full_medians[40]:.2f} (need margin >= 2)")
    _report(1, "geometric gap reproduction", ok_small and ok_margin, detail)


def test_criterion_2_link_prediction(lp_study):
    full = median(lp_study["full"])
    ablation = median(lp_study["layers-ablation"])
    ok_floor = full >= 0.70
    ok_order = full >= ablation
    detail = (f"median AUC full={full:.4f} (floor 0.70), "
              f"layers-ablation={ablation:.4f} (ordering full >= ablation). "
              "Note: with p_out=0.015 over ~100k cross-cluster pairs per "
              "dimension, ~84% of held-out positives are independent noise "
              "edges whose statistics match the sampled negatives, capping "
              "the achievable AUC near 0.5 regardless of the model (cheating "
              "oracles on cluster membership / co-links / common neighbors "
              "measure 0.46-0.51); the floor is not attainable on this "
              "generator and the check is expected to fail.")
    _report(2, "link prediction on synthetic graphs", ok_floor and ok_order, detail)


def test_criterion_3_gradient_correctness():
    graph = syn.generate(syn.GenParams(n_nodes=6, n_clusters=2, n_dims=3,
                                       p_in=0.9, p_out=0.3,
                                       cluster_size_range=(2, 4), seed=1)).graph
    cfg = mdl.ModelConfig(n_layers=2, embed_size=4, manifold=mf.LORENTZ)
    params = mdl.init_params(graph.n_dims, graph.n_features, cfg, seed=0)
    level0 = mdl.prepare_adjacencies(graph)
    x = graph.features
    x_hat = corrupt_features(x, 7)
    inputs = {name: t.value.copy() for name, t in params.named()}
    inputs["Q"] = np.eye(4)

    def build(leaves):
        p = mdl.ModelParams.from_named(leaves)
        hier = mdl.build_hierarchy(level0, p)
        return tr.epoch_loss(hier, x, x_hat, p, leaves["Q"], cfg)[0]

    err = ad.grad_check(build, inputs, epsilon=1e-5, n_coords=120)
    _report(3, "end-to-end gradient correctness", err < 1e-4,
            f"max relative error {err:.3e} (tolerance 1e-4)")


def test_criterion_4_manifold_invariants(gap_study):
    rng = np.random.default_rng(42)
    n = 10_000
    tangent = rng.normal(size=(n, 6))
    tangent *= rng.uniform(0, 3.0, size=(n, 1)) / np.linalg.norm(
        tangent, axis=1, keepdims=True)

    worst = 0.0
    back = mf.poincare_log0(mf.poincare_exp0(tangent))
    worst = max(worst, np.abs(back - tangent).max())
    ball = mf.poincare_exp0(tangent * 0.32)  # radii spread inside the ball
    worst = max(worst, np.abs(mf.poincare_exp0(mf.poincare_log0(ball)) - ball).max())

    lor_tan = np.concatenate([np.zeros((n, 1)), tangent], axis=1)
    worst = max(worst, np.abs(mf.lorentz_log0(mf.lorentz_exp0(lor_tan))
                              - lor_tan).max())
    hyp = mf.lorentz_exp0(lor_tan)
    worst = max(worst, np.abs(mf.lorentz_exp0(mf.lorentz_log0(hyp)) - hyp).max())

    ok_round = worst < 1e-9
    ok_constraint = gap_study["max_violation"] < 1e-6
    _report(4, "manifold invariants", ok_round and ok_constraint,
            f"worst round-trip {worst:.2e} (tol 1e-9); max hyperboloid "
            f"violation during training {gap_study['max_violation']:.2e} (tol 1e-6)")


def test_criterion_5_estimator_recovery():
    fails = []
    for intrinsic, ambient in ((1, 5), (2, 10), (5, 12)):
        for seed in range(3):
            rng = np.random.default_rng(100 * intrinsic + seed)
            u = rng.uniform(size=(5000, intrinsic))
            basis = np.linalg.qr(rng.normal(size=(ambient, intrinsic)))[0]
            est = geo.twonn_id(u @ basis.T)
            if not (0.85 * intrinsic <= est <= 1.15 * intrinsic):
                fails.append((intrinsic, seed, round(est, 3)))

    rng = np.random.default_rng(9)
    sub = rng.normal(size=(400, 3)) @ np.linalg.qr(rng.normal(size=(10, 3)))[0].T
    exact_ok = geo.linear_id(sub) == 3
    gauss_ok = abs(geo.linear_id(rng.normal(size=(20000, 10))) - 9) <= 1
    _report(5, "estimator recovery", not fails and exact_ok and gauss_ok,
            f"twonn misses: {fails or 'none'}; linear exact-subspace "
            f"{'ok' if exact_ok else 'wrong'}; gaussian within +-1 "
            f"{'ok' if gauss_ok else 'wrong'}")


def test_criterion_6_softmax_contracts_and_closed_form(gap_study):
    dev = gap_study["max_softmax_dev"]

    rng = np.random.default_rng(11)
    from hypermux.graph import _edges_to_csr
    g = MultiplexGraph(6, [_edges_to_csr(6, [(0, 1), (1, 2), (3, 4), (4, 5)])],
                       rng.normal(size=(6, 3)))
    cfg = mdl.ModelConfig(n_layers=1, embed_size=4, manifold=mf.EUCLIDEAN)
    params = mdl.init_params(1, 3, cfg, seed=0)
    z = ad.val(mdl.forward(g, g.features, params, cfg).z)
    a_hat = normalize_adjacency(g.dims[0]).toarray()
    lin = a_hat @ g.features @ params.layers[0].weights[0].value
    closed_form = np.where(lin > 0, lin, cfg.leaky_slope * lin)
    diff = np.abs(z - closed_form).max()

    _report(6, "softmax contracts and closed-form degeneration",
            dev < 1e-12 and diff < 1e-12,
            f"max softmax deviation {dev:.2e} (tol 1e-12); closed-form "
            f"difference {diff:.2e} (tol 1e-12)")


def _fixture_dims():
    """Documented hierarchy fixture (see tests/test_model.py): dims
    u1-u2, u2-u3, and u3-u5/u5-u4 over five nodes."""
    from hypermux.graph import _edges_to_csr
    return [_edges_to_csr(5, [(0, 1)]),
            _edges_to_csr(5, [(1, 2)]),
            _edges_to_csr(5, [(2, 4), (4, 3)])]


def _reachable(support, src, dst):
    reach = np.eye(support.shape[0], dtype=bool) | (support > 0)
    for _ in range(support.shape[0]):
        reach = reach | (reach @ reach)
    return bool(reach[src, dst])


def test_criterion_7_latent_hierarchy_fixture():
    dims = _fixture_dims()
    for a in dims:
        assert not _reachable(a.toarray(), 0, 2)
    g = MultiplexGraph(5, dims, np.eye(5))
    cfg = mdl.ModelConfig(n_layers=1, embed_size=3, manifold=mf.LORENTZ)
    params = mdl.init_params(3, 5, cfg, seed=0)
    params.layers[0].alpha_logits.value[:] = np.array([[10.0, 10.0, -10.0],
                                                       [-10.0, -10.0, 10.0]])
    result = mdl.forward(g, g.features, params, cfg)
    merged = result.hierarchy.raw_aggregated[0][0]
    appeared = _reachable((merged > 1e-4).astype(float), 0, 2)
    _report(7, "latent connection appears only after aggregation", appeared,
            "u1 -> u3 reachable in the merged latent dimension but in no "
            "input dimension")


def test_criterion_8_determinism(tmp_path):
    graph_dir = tmp_path / "graph"
    assert cli.dispatch(["generate", "--n", "48", "--k", "2", "--d", "3",
                         "--p-in", "0.4", "--p-out", "0.05", "--seed", "3",
                         "--out", str(graph_dir)]) == 0
    history, metrics = [], []
    for tag in ("a", "b"):
        run_dir = tmp_path / f"run_{tag}"
        assert cli.dispatch(["train", "--graph", str(graph_dir), "--embed", "6",
                             "--epochs", "5", "--seed", "11", "--telemetry",
                             "--out", str(run_dir)]) == 0
        history.append((run_dir / "history.csv").read_bytes())
        metrics_file = tmp_path / f"metrics_{tag}.json"
        cfg = tmp_path / "eval_config.json"
        cfg.write_text(json.dumps({"train.epochs": 4}))
        assert cli.dispatch(["eval", "--graph", str(graph_dir), "--seed", "11",
                             "--config", str(cfg),
                             "--out", str(metrics_file)]) == 0
        metrics.append(metrics_file.with_suffix(".csv").read_bytes())
    ok = history[0] == history[1] and metrics[0] == metrics[1]
    _report(8, "byte-identical reruns", ok,
            "history.csv and metrics csv identical across reruns")
