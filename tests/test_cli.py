import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypermux import cli, model as mdl
from hypermux.graph import load_multiplex, save_multiplex


def run(argv):
    return cli.dispatch(argv)


def gen_args(out, n=40, k=2, d=3, seed=0, extra=()):
    return ["generate", "--n", str(n), "--k", str(k), "--d", str(d),
            "--p-in", "0.5", "--p-out", "0.05", "--seed", str(seed),
            "--out", str(out), *extra]


def test_unknown_subcommand_exits_one(capsys):
    assert run(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_no_subcommand_prints_usage(capsys):
    assert run([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_generate_writes_graph_directory(tmp_path, capsys):
    out = tmp_path / "g1"
    assert run(gen_args(out)) == 0
    g = load_multiplex(out)
    assert g.n_nodes == 40 and g.n_dims == 3
    params = json.loads((out / "gen_params.json").read_text())
    assert params["p_in"] == 0.5 and params["n_dims"] == 3
    assert (out / "resolved_config.json").exists()


def test_generate_invalid_params_exit_one(tmp_path, capsys):
    code = run(["generate", "--n", "40", "--k", "2", "--d", "3",
                "--p-in", "0.01", "--p-out", "0.5", "--out", str(tmp_path / "g")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_train_writes_outputs(tmp_path, capsys):
    graph_dir = tmp_path / "g"
    run(gen_args(graph_dir))
    out = tmp_path / "run1"
    code = run(["train", "--graph", str(graph_dir), "--manifold", "lorentz",
                "--layers", "2", "--embed", "8", "--epochs", "5",
                "--seed", "1", "--out", str(out)])
    assert code == 0
    assert (out / "checkpoint.npz").exists()
    history = (out / "history.csv").read_text().strip().split("\n")
    assert history[0] == "epoch,loss,id,lid"
    assert len(history) == 6
    emb = np.loadtxt(out / "embeddings.csv", delimiter=",")
    assert emb.shape == (40, 8)
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["model.embed"] == 8 and resolved["seed"] == 1


def test_diagnose_reports_gap(tmp_path, capsys):
    graph_dir = tmp_path / "g"
    run(gen_args(graph_dir))
    run_dir = tmp_path / "run"
    run(["train", "--graph", str(graph_dir), "--embed", "6", "--epochs", "3",
         "--out", str(run_dir)])
    out_file = tmp_path / "geo.json"
    code = run(["diagnose", "--checkpoint", str(run_dir / "checkpoint.npz"),
                "--graph", str(graph_dir), "--out", str(out_file)])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert {"id", "lid", "gap", "config_hash"} <= set(payload)
    assert payload["gap"] == pytest.approx(payload["lid"] - payload["id"])


def test_diagnose_malformed_graph_exits_one(tmp_path, capsys):
    graph_dir = tmp_path / "g"
    run(gen_args(graph_dir))
    run_dir = tmp_path / "run"
    assert run(["train", "--graph", str(graph_dir), "--embed", "4", "--epochs", "1",
                "--out", str(run_dir)]) == 0
    edge_file = graph_dir / "dims" / "1.edges"
    lines = edge_file.read_text().splitlines()
    at = len(lines) // 2  # mid-file, 0-based
    lines.insert(at, "3 x")
    edge_file.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    out_file = tmp_path / "geo.json"
    assert run(["diagnose", "--checkpoint", str(run_dir / "checkpoint.npz"),
                "--graph", str(graph_dir), "--out", str(out_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"1.edges:{at + 1}: non-integer node id in '3 x'" in err
    assert not out_file.exists()


@pytest.mark.parametrize("name", ["dims/1.edges", "labels.csv"])
def test_eval_non_utf8_graph_file_exits_one(tmp_path, capsys, name):
    graph_dir = tmp_path / "g"
    run(gen_args(graph_dir))
    target = graph_dir / name
    data = target.read_bytes()
    target.write_bytes(data[:4] + b"\xff\xfe" + data[4:])
    capsys.readouterr()
    out_file = tmp_path / "metrics.json"
    assert run(["eval", "--graph", str(graph_dir), "--out", str(out_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"{target}: not valid text" in err
    assert not out_file.exists()


def test_eval_emits_metrics(tmp_path, capsys):
    graph_dir = tmp_path / "g"
    run(gen_args(graph_dir, n=60))
    out_file = tmp_path / "metrics.json"
    code = run(["eval", "--graph", str(graph_dir), "--seed", "2",
                "--config", str(_config(tmp_path, {"train.epochs": 4})),
                "--out", str(out_file)])
    assert code == 0
    lines = [json.loads(l) for l in out_file.read_text().strip().split("\n")]
    tasks = {l["task"] for l in lines}
    assert "link_prediction" in tasks and "classification" in tasks
    lp = next(l for l in lines if l["task"] == "link_prediction")
    assert 0.0 <= lp["auc"] <= 1.0 and 0.0 <= lp["ap"] <= 1.0
    csv_lines = (tmp_path / "metrics.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "task,auc,ap,f1_macro,f1_micro,seed,config_hash"
    assert len(csv_lines) == 3


def _config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def test_config_precedence_flags_over_file(tmp_path):
    cfg = _config(tmp_path, {"train.lr": 0.01, "model.embed": 16})
    resolved = cli.resolve_config(cfg, {"model.embed": 32})
    assert resolved["train.lr"] == 0.01  # file overrides default
    assert resolved["model.embed"] == 32  # flag overrides file
    assert resolved["train.weight_decay"] == 1e-5  # default survives


# per subcommand: every flag that sets a config key, and the values they set
KEY_FLAGS = {
    "generate": ("--n 41 --k 3 --d 4 --p-in 0.4 --p-out 0.02",
                 {"gen.n_nodes": 41, "gen.n_clusters": 3, "gen.n_dims": 4, "gen.p_in": 0.4,
                  "gen.p_out": 0.02}),
    "train": ("--graph g --manifold poincare --layers 3 --embed 7 --lr 0.05 --epochs 9 "
              "--patience 4 --telemetry",
              {"model.manifold": "poincare", "model.layers": 3, "model.embed": 7,
               "train.lr": 0.05, "train.epochs": 9, "train.patience": 4,
               "train.telemetry": True}),
    "diagnose": ("--graph g --checkpoint c.npz", {}),
    "eval": ("--graph g --checkpoint c.npz", {}),
    "sweep": ("--d 2,3 --n 33 --k 4 --epochs 6 --seeds 2 --models full --workers 2",
              {"gen.n_nodes": 33, "gen.n_clusters": 4, "train.epochs": 6}),
    "ablate": ("--graph g --epochs 5 --seeds 2", {"train.epochs": 5}),
}


@pytest.mark.parametrize("command", sorted(KEY_FLAGS))
def test_each_flag_sets_its_key(tmp_path, monkeypatch, command):
    monkeypatch.delenv("HYPERMUX_SEED", raising=False)
    flags, keys = KEY_FLAGS[command]
    cfg = _config(tmp_path, {"train.lr": 0.2, "model.embed": 11})
    args = cli.build_parser().parse_args(
        [command, *flags.split(), "--seed", "12", "--config", str(cfg), "--out", "o"])
    assert cli._resolve(args) == {**cli.DEFAULTS, "train.lr": 0.2, "model.embed": 11,
                                  "seed": 12, **keys}
    args = cli.build_parser().parse_args([command, *flags.split(), "--out", "o"])
    assert cli._resolve(args) == {**cli.DEFAULTS, "seed": 0, **keys}


@pytest.mark.parametrize("command", sorted(KEY_FLAGS))
def test_subcommand_help_names_each_key(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        run([command, "--help"])
    assert exit_.value.code == 0
    text = capsys.readouterr().out
    assert "--seed SEED" in text and "--config CONFIG" in text and "--out OUT" in text
    for key in set(KEY_FLAGS[command][1]) - {"model.manifold", "train.telemetry"}:
        assert f" {key.upper()}" in text, key


def test_resolved_config_written_when_a_command_returns_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.geo, "sweep", lambda *args, **kwargs: ([], ["full D=2 seed 0"]))
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--d", "2", "--n", "30", "--k", "2", "--epochs", "3",
                "--seed", "5", "--out", str(out)]) == 2
    assert "failed run full D=2 seed 0" in capsys.readouterr().err
    resolved = json.loads((tmp_path / "sweep.csv.config.json").read_text())
    assert resolved == cli.resolve_config(None, {"gen.n_nodes": 30, "gen.n_clusters": 2,
                                                 "train.epochs": 3, "seed": 5})


def test_config_unknown_key_listed(tmp_path):
    cfg = _config(tmp_path, {"foo": 1, "train.lr": 0.01})
    with pytest.raises(cli.ConfigError, match="foo"):
        cli.resolve_config(cfg, {})


@pytest.mark.parametrize("key", ["model.drop_tol", "model.dense_threshold"])
def test_retired_storage_keys_exit_one(tmp_path, capsys, key):
    graph_dir = tmp_path / "g"
    run(gen_args(graph_dir))
    code = run(["train", "--graph", str(graph_dir), "--epochs", "1",
                "--config", str(_config(tmp_path, {key: 0.25})),
                "--out", str(tmp_path / "run")])
    assert code == 1
    assert f"unknown config keys: {key}" in capsys.readouterr().err


@pytest.mark.parametrize("slope", [1.5, -0.1])
def test_leaky_slope_outside_unit_interval_exits_one(tmp_path, capsys, slope):
    graph_dir = tmp_path / "g"
    run(gen_args(graph_dir))
    capsys.readouterr()
    code = run(["train", "--graph", str(graph_dir), "--epochs", "1",
                "--config", str(_config(tmp_path, {"model.leaky_slope": slope})),
                "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "leaky_slope" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "diagnose", "eval"])
def test_non_finite_feature_exits_one(tmp_path, capsys, command):
    graph_dir = tmp_path / "g"
    run(gen_args(graph_dir))
    checkpoint = tmp_path / "run" / "checkpoint.npz"
    assert run(["train", "--graph", str(graph_dir), "--embed", "4", "--epochs", "1",
                "--out", str(checkpoint.parent)]) == 0
    feat_file = graph_dir / "features.csv"
    rows = feat_file.read_text().splitlines()
    rows[6] = ",".join(["nan"] + rows[6].split(",")[1:])
    feat_file.write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    out = tmp_path / "out"
    argv = {"train": ["train", "--graph", str(graph_dir), "--epochs", "1",
                      "--out", str(out)],
            "diagnose": ["diagnose", "--checkpoint", str(checkpoint),
                         "--graph", str(graph_dir), "--out", str(out / "geo.json")],
            "eval": ["eval", "--checkpoint", str(checkpoint), "--graph", str(graph_dir),
                     "--out", str(out / "metrics.json")]}[command]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {feat_file}: row 7 holds a non-finite value\n"
    assert not out.exists()


def _with_retired_keys(checkpoint, target):
    """Copy of a checkpoint whose header also holds the retired model keys,
    as checkpoints written before the hierarchy moved to the union pattern do."""
    with np.load(checkpoint) as data:
        arrays = {k: data[k] for k in data.files}
    header = json.loads(bytes(arrays["__meta__"]).decode())
    header["model"].update({"dense_threshold": 0.25, "drop_tol": 1e-4,
                            "dim_schedule": [3, 2, 1]})
    arrays["__meta__"] = np.frombuffer(json.dumps(header, sort_keys=True).encode(),
                                       dtype=np.uint8).copy()
    np.savez(target, **arrays)
    return target


def test_checkpoint_with_retired_keys_still_evaluates(tmp_path, capsys):
    graph_dir = tmp_path / "g"
    run(gen_args(graph_dir))
    run_dir = tmp_path / "run"
    assert run(["train", "--graph", str(graph_dir), "--embed", "6", "--epochs", "2",
                "--out", str(run_dir)]) == 0
    checkpoints = {"new": run_dir / "checkpoint.npz",
                   "old": _with_retired_keys(run_dir / "checkpoint.npz",
                                             tmp_path / "old.npz")}
    outputs = {}
    for tag, ckpt in checkpoints.items():
        geo_file, metrics_file = tmp_path / f"geo_{tag}.json", tmp_path / f"m_{tag}.json"
        assert run(["diagnose", "--checkpoint", str(ckpt), "--graph", str(graph_dir),
                    "--out", str(geo_file)]) == 0
        assert run(["eval", "--checkpoint", str(ckpt), "--graph", str(graph_dir),
                    "--config", str(_config(tmp_path, {"eval.class_repeats": 1})),
                    "--out", str(metrics_file)]) == 0
        geo = json.loads(geo_file.read_text())
        del geo["context"]["checkpoint"]
        outputs[tag] = (geo, metrics_file.read_text())
    assert outputs["old"] == outputs["new"]


def test_config_empty_file_gives_defaults(tmp_path):
    resolved = cli.resolve_config(_config(tmp_path, {}), {})
    assert resolved["train.lr"] == 0.001
    assert resolved["train.weight_decay"] == 1e-5
    assert resolved["train.epochs"] == 1000
    assert resolved["train.patience"] == 20
    assert resolved["model.embed"] == 96
    assert resolved["model.layers"] == 2
    assert resolved["model.manifold"] == "lorentz"
    assert resolved["eval.r"] == 2.0 and resolved["eval.t"] == 1.0


def test_seed_env_var_default(tmp_path, monkeypatch):
    monkeypatch.setenv("HYPERMUX_SEED", "99")
    assert cli.resolve_config(None, {})["seed"] == 99
    monkeypatch.delenv("HYPERMUX_SEED")
    assert cli.resolve_config(None, {})["seed"] == 0


def test_non_integer_seed_env_var_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HYPERMUX_SEED", "abc")
    out = tmp_path / "g"
    assert run(["generate", "--n", "30", "--k", "2", "--d", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "HYPERMUX_SEED" in err
    assert not out.exists()


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON_VALUES = (JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3)
               | st.dictionaries(st.text(max_size=3), JSON_SCALARS, max_size=3))


@pytest.mark.parametrize("key", sorted(cli.DEFAULTS))
@settings(max_examples=100, deadline=None)
@given(value=JSON_VALUES,
       others=st.dictionaries(st.sampled_from(sorted(cli.DEFAULTS)), JSON_VALUES, max_size=2))
def test_any_json_config_builds_or_exits_one(tmp_path_factory, key, value, others):
    # NaN and Infinity included: Python's json reads them from a config file
    payload = {**others, key: value}
    path = tmp_path_factory.getbasetemp() / "any_config.json"
    path.write_text(json.dumps(payload))
    try:
        resolved = cli.resolve_config(path, {})
    except cli.EXIT_ONE_ERRORS:
        return
    # nothing downstream truncates a fraction or meets a non-positive temperature
    assert isinstance(resolved["seed"], int)
    for k in cli.INTEGER_OR_NULL:
        assert resolved[k] is None or type(resolved[k]) is int, (k, resolved[k])
    assert resolved["eval.t"] > 0
    assert 0 < resolved["eval.test_ratio"] < 1
    try:
        cli._gen_params(resolved)
        cli._model_config(resolved)
        cli._train_config(resolved)
    except cli.EXIT_ONE_ERRORS:
        pass


def test_sweep_rows_and_medians(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run(["sweep", "--d", "2,3", "--seeds", "2",
                "--models", "euclidean-single", "--n", "30", "--k", "2",
                "--epochs", "2", "--seed", "0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "d,model,seed,id,lid,gap,loss_final"
    assert len(lines) == 1 + 2 * 2
    assert "median gap" in capsys.readouterr().out


def test_sweep_makes_the_directory_of_its_out_file_before_training(tmp_path, monkeypatch):
    out = tmp_path / "missing" / "sweep.csv"
    made, sweep = [], cli.geo.sweep
    monkeypatch.setattr(cli.geo, "sweep", lambda *args, **kwargs: made.append(
        out.parent.is_dir()) or sweep(*args, **kwargs))
    assert run(["sweep", "--d", "2", "--seeds", "1", "--models", "euclidean-single",
                "--n", "30", "--k", "2", "--epochs", "2", "--out", str(out)]) == 0
    assert made == [True]
    assert out.read_text().startswith("d,model,seed,id,lid,gap,loss_final")


def test_sweep_applies_train_keys(tmp_path, capsys):
    csvs = []
    for tag, payload in [("default", {}), ("tuned", {"train.lr": 0.05, "train.patience": 2})]:
        out = tmp_path / f"{tag}.csv"
        cfg = tmp_path / f"{tag}.json"
        cfg.write_text(json.dumps({"model.embed": 8, **payload}))
        assert run(["sweep", "--d", "3", "--n", "60", "--k", "2", "--epochs", "6",
                    "--seeds", "1", "--models", "full", "--config", str(cfg),
                    "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] != csvs[1]


def test_sweep_range_syntax():
    assert cli._parse_d_range("5:40:5") == [5, 10, 15, 20, 25, 30, 35, 40]
    assert cli._parse_d_range("7") == [7]
    with pytest.raises(cli.ConfigError):
        cli._parse_d_range("5:40")


def test_sweep_unknown_model_exit_one(tmp_path, capsys):
    code = run(["sweep", "--d", "2", "--models", "bogus", "--n", "30",
                "--k", "2", "--out", str(tmp_path / "s.csv")])
    assert code == 1


def test_ablate_emits_comparison_table(tmp_path, capsys):
    graph_dir = tmp_path / "g"
    run(gen_args(graph_dir, n=50, seed=3))
    out = tmp_path / "ablation"
    code = run(["ablate", "--graph", str(graph_dir), "--seeds", "1",
                "--epochs", "3", "--out", str(out)])
    assert code == 0
    lines = (out / "ablation.csv").read_text().strip().split("\n")
    assert lines[0] == "variant,seed,auc,ap,f1_macro,f1_micro,loss_final"
    variants = {l.split(",")[0] for l in lines[1:]}
    assert variants == {"full", "euclidean", "weights-ablation", "layers-ablation"}
    summary = json.loads((out / "ablation_summary.json").read_text())
    assert set(summary) == variants


def test_ablate_forwards_logreg_l2(tmp_path, monkeypatch):
    graph_dir = tmp_path / "g"
    run(gen_args(graph_dir, n=40, seed=3))
    seen = []
    real = cli.ev.classification_eval

    def spy(*args, **kwargs):
        seen.append(kwargs.get("l2"))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.ev, "classification_eval", spy)
    cfg = _config(tmp_path, {"train.epochs": 1, "model.embed": 4,
                             "eval.class_repeats": 1, "eval.logreg_l2": 0.5})
    assert run(["ablate", "--graph", str(graph_dir), "--seeds", "1", "--config", str(cfg),
                "--out", str(tmp_path / "ablation")]) == 0
    assert seen == [0.5] * len(cli.ABLATION_VARIANTS)


def test_ablate_trains_each_architecture_once_per_seed(tmp_path, monkeypatch):
    graph_dir = tmp_path / "g"
    run(gen_args(graph_dir, n=40, seed=3))
    trained = []
    real = cli.train

    def spy(graph, config, train_config):
        trained.append(config.manifold)
        return real(graph, config, train_config)

    monkeypatch.setattr(cli, "train", spy)
    cfg = _config(tmp_path, {"train.epochs": 2, "model.embed": 4, "eval.class_repeats": 1})
    out = tmp_path / "ablation"
    assert run(["ablate", "--graph", str(graph_dir), "--seeds", "2", "--config", str(cfg),
                "--out", str(out)]) == 0
    # the euclidean rows reuse the full model's training
    assert len(trained) == 3 * 2 and "euclidean" not in trained
    rows = {(r[0], r[1]): r[2:] for r in _csv_rows(out / "ablation.csv")[1:]}
    assert [v for v, _ in rows] == ["full"] * 2 + ["euclidean"] * 2 + \
        ["weights-ablation"] * 2 + ["layers-ablation"] * 2
    for s in ("0", "1"):  # same F1 and loss; AUC/AP come from different decoders
        assert rows["full", s][2:] == rows["euclidean", s][2:]


def test_byte_identical_reruns(tmp_path):
    graph_dir = tmp_path / "g"
    run(gen_args(graph_dir, n=36, seed=5))
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"run_{tag}"
        assert run(["train", "--graph", str(graph_dir), "--embed", "6",
                    "--epochs", "4", "--seed", "7", "--telemetry",
                    "--out", str(out)]) == 0
        outputs.append((out / "history.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [
    "sweep --d a,b --n 30 --k 2 --out {out}.csv",
    "sweep --d 5:40:0 --n 30 --k 2 --out {out}.csv",
    "sweep --d 40:5:5 --n 30 --k 2 --out {out}.csv",
    "sweep --d 0,2 --n 30 --k 2 --out {out}.csv",
    "sweep --d 2 --seeds 0 --n 30 --k 2 --out {out}.csv",
    "sweep --d 2 --epochs 0 --n 30 --k 2 --out {out}.csv",
    "sweep --d 2 --workers 0 --n 30 --k 2 --out {out}.csv",
    "sweep --d 2 --workers -2 --n 30 --k 2 --out {out}.csv",
    "train --graph {g} --epochs 0 --out {out}",
    "train --graph {g} --lr -1 --out {out}",
    "ablate --graph {g} --seeds 0 --out {out}",
    "ablate --graph {g} --epochs 0 --out {out}",
], ids=["d-not-int", "d-step-0", "d-empty", "d-zero", "sweep-seeds-0", "sweep-epochs-0",
        "sweep-workers-0", "sweep-workers-negative", "train-epochs-0", "train-lr-negative",
        "ablate-seeds-0", "ablate-epochs-0"])
def test_bad_numeric_input_exits_one(tmp_path, capsys, argv):
    graph_dir = tmp_path / "g"
    run(gen_args(graph_dir))
    capsys.readouterr()
    assert run(argv.format(g=graph_dir, out=tmp_path / "out").split()) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "--workers" in err or "--workers" not in argv
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "out").exists()


BAD_INPUTS = {
    # id: (argv, config file payload, text the error line must hold)
    "seed-text": ("train --graph {g} --epochs 1", {"seed": "abc"}, "seed"),
    "n-nodes-text": ("generate --k 2 --d 3", {"gen.n_nodes": "x"}, "gen.n_nodes"),
    "embed-text": ("train --graph {g} --epochs 1", {"model.embed": "abc"}, "model.embed"),
    "lr-text": ("train --graph {g} --epochs 1", {"train.lr": "x"}, "train.lr"),
    "config-not-object": ("train --graph {g} --epochs 1", [1, 2], "JSON object"),
    "embed-zero": ("train --graph {g} --epochs 1", {"model.embed": 0}, "embed_size"),
    "embed-negative": ("train --graph {g} --epochs 1", {"model.embed": -3}, "embed_size"),
    "embed-fraction": ("train --graph {g} --epochs 1", {"model.embed": 2.7}, "model.embed"),
    "layers-negative": ("train --graph {g} --epochs 1", {"model.layers": -1}, "n_layers"),
    "telemetry-text": ("train --graph {g} --epochs 1", {"train.telemetry": "no"},
                       "train.telemetry"),
    "class-repeats-zero": ("eval --graph {g}", {"eval.class_repeats": 0, "train.epochs": 1,
                                                "model.embed": 4}, "eval.class_repeats"),
    "ablate-class-repeats-zero": ("ablate --graph {g} --seeds 1 --epochs 1",
                                  {"eval.class_repeats": 0}, "eval.class_repeats"),
    "ablate-slope": ("ablate --graph {g} --seeds 1 --epochs 1", {"model.leaky_slope": 1.5},
                     "leaky_slope"),
    "sweep-slope": ("sweep --d 2 --seeds 1 --n 30 --k 2 --epochs 1",
                    {"model.leaky_slope": 1.5}, "leaky_slope"),
    "sweep-models-empty": ("sweep --d 2 --seeds 1 --n 30 --k 2 --epochs 1 --models ,", {},
                           "--models"),
    "eval-logreg-l2-negative": ("eval --graph {g}", {"eval.logreg_l2": -1.0,
                                                     "train.epochs": 1, "model.embed": 4},
                                "eval.logreg_l2"),
    "eval-t-zero": ("eval --graph {g}", {"eval.t": 0, "train.epochs": 1, "model.embed": 4},
                    "eval.t"),
    "ablate-t-negative": ("ablate --graph {g} --seeds 1 --epochs 1", {"eval.t": -0.5},
                          "eval.t"),
    "seed-fraction": ("generate --k 2 --d 3 --n 40", {"seed": 1.5}, "seed"),
    "sf-fraction": ("generate --k 2 --d 3 --n 40", {"gen.sf_min": 2.7, "gen.sf_max": 5.2},
                    "gen.sf_min"),
    "cluster-fraction": ("generate --k 2 --d 3 --n 40",
                         {"gen.cluster_min": 10, "gen.cluster_max": 40.9},
                         "gen.cluster_max"),
    "eval-seed-fraction": ("eval --graph {g}", {"seed": 2.5, "train.epochs": 1}, "seed"),
    "diagnose-width": ("diagnose --checkpoint {wide} --graph {g}", {}, "F=6"),
    "eval-width": ("eval --checkpoint {wide} --graph {g}", {}, "F=6"),
    "eval-test-ratio-zero": ("eval --graph {g}", {"eval.test_ratio": 0.0, "train.epochs": 1,
                                                  "model.embed": 4}, "eval.test_ratio"),
    "ablate-test-ratio-one": ("ablate --graph {g} --seeds 1 --epochs 1",
                              {"eval.test_ratio": 1.0}, "eval.test_ratio"),
    "meta-nodes-negative": ("train --graph {g} --epochs 1", {}, "n_nodes"),
    "meta-nodes-zero": ("eval --graph {g}", {"train.epochs": 1}, "n_nodes"),
    "meta-nodes-fraction": ("train --graph {g} --epochs 1", {}, "n_nodes"),
    "meta-nodes-beyond-keys": ("train --graph {g} --epochs 1", {}, "n_nodes"),
    "meta-dims-bool": ("train --graph {g} --epochs 1", {}, "n_dims"),
    "meta-features-text": ("ablate --graph {g} --seeds 1 --epochs 1", {}, "n_features"),
    "meta-array": ("train --graph {g} --epochs 1", {},
                   "expected a JSON object with n_nodes, n_dims and n_features"),
    "meta-string": ("eval --graph {g}", {"train.epochs": 1}, "JSON object"),
    "meta-null": ("ablate --graph {g} --seeds 1 --epochs 1", {}, "JSON object"),
    "meta-no-dims": ("train --graph {g} --epochs 1", {}, "no n_dims key"),
    "weight-decay-negative": ("train --graph {g} --epochs 1", {"train.weight_decay": -5.0},
                              "weight_decay"),
    "min-delta-negative": ("train --graph {g} --epochs 1", {"train.min_delta": -1.0},
                           "min_delta"),
    "sf-min-alone": ("generate --k 2 --d 3 --n 40", {"gen.sf_min": 2}, "gen.sf_max"),
    "cluster-max-alone": ("generate --k 2 --d 3 --n 40", {"gen.cluster_max": 30},
                          "gen.cluster_min"),
    "checkpoint-missing": ("diagnose --checkpoint {bad} --graph {g}", {}, "No such file"),
    "checkpoint-not-npz": ("eval --checkpoint {bad} --graph {g}", {}, "cannot read"),
    "checkpoint-npy": ("diagnose --checkpoint {bad} --graph {g}", {}, "cannot read"),
    "checkpoint-no-meta": ("diagnose --checkpoint {bad} --graph {g}", {}, "__meta__"),
    "checkpoint-no-alpha": ("eval --checkpoint {bad} --graph {g}", {}, "layer1.alpha"),
    "checkpoint-no-q": ("diagnose --checkpoint {bad} --graph {g}", {}, "'Q'"),
    "checkpoint-header-not-json": ("diagnose --checkpoint {bad} --graph {g}", {},
                                   "bad checkpoint"),
    "checkpoint-header-list": ("diagnose --checkpoint {bad} --graph {g}", {},
                               "bad checkpoint"),
    "checkpoint-format-2": ("eval --checkpoint {bad} --graph {g}", {}, "format 2"),
    "checkpoint-alpha-shape": ("diagnose --checkpoint {bad} --graph {g}", {},
                               "layer1.alpha has shape (2, 2), expected (2, 3)"),
    "checkpoint-w-columns": ("eval --checkpoint {bad} --graph {g}", {},
                             "layer1.W0 has shape (3, 5), expected (3, 4)"),
    "checkpoint-w-rows": ("diagnose --checkpoint {bad} --graph {g}", {},
                          "layer2.W1 has shape (3, 4), expected (4, 4)"),
    "checkpoint-beta-shape": ("diagnose --checkpoint {bad} --graph {g}", {},
                              "layer2.beta has shape (2, 1), expected (1, 2)"),
    "checkpoint-last-alpha-empty": ("diagnose --checkpoint {bad} --graph {g}", {},
                                    "layer2.alpha has shape (0, 2), expected (*, 2)"),
    "checkpoint-q-shape": ("eval --checkpoint {bad} --graph {g}", {},
                           "Q has shape (4,), expected (4, 4)"),
    "checkpoint-layers": ("diagnose --checkpoint {bad} --graph {g}", {},
                          "1 layers of parameters for n_layers=2"),
    "checkpoint-other-dims": ("eval --checkpoint {bad} --graph {g}", {},
                              "layer1 has 2 weight matrices for D=3"),
    "eval-test-ratio-tiny": ("eval --graph {g}", {"eval.test_ratio": 0.001,
                                                  "train.epochs": 1, "model.embed": 4},
                             "empty test set"),
    "ablate-test-ratio-tiny": ("ablate --graph {g} --seeds 2 --epochs 1",
                               {"eval.test_ratio": 0.001}, "empty test set"),
    "eval-one-class": ("eval --graph {g}", {"train.epochs": 1, "model.embed": 4},
                       "two classes"),
    # a checkpoint the graph does not fit: the labels are checked before its forward pass
    "eval-checkpoint-one-class": ("eval --checkpoint {wide} --graph {g}", {}, "two classes"),
    "ablate-one-class": ("ablate --graph {g} --seeds 1 --epochs 1", {}, "two classes"),
    "features-huge": ("train --graph {g} --epochs 1", {}, "the features make the gradient"),
    "features-large": ("eval --graph {g}", {"train.epochs": 1, "model.embed": 4},
                       "the features make the loss"),
}

# cases whose graph gives every node the same class
ONE_CLASS = ("eval-one-class", "eval-checkpoint-one-class", "ablate-one-class")

# features.csv edits: finite, so the graph loads, but the first epoch's gradient
# (every entry 1e308) or loss (scaled up to 1e160) overflows, which only
# training can tell
BAD_FEATURES = {
    "features-huge": lambda x: np.full_like(x, 1e308),
    "features-large": lambda x: x * (1e160 / np.abs(x).max()),
}

# meta.json counts that replace the generated graph's own, or an edit of its meta
BAD_META = {
    "meta-nodes-negative": {"n_nodes": -3},
    "meta-nodes-zero": {"n_nodes": 0},
    "meta-nodes-fraction": {"n_nodes": 4.7},
    "meta-nodes-beyond-keys": {"n_nodes": 3_037_000_500},
    "meta-dims-bool": {"n_dims": True},
    "meta-features-text": {"n_features": "3"},
    "meta-array": lambda meta: [],
    "meta-string": lambda meta: "x",
    "meta-null": lambda meta: None,
    "meta-no-dims": lambda meta: {k: v for k, v in meta.items() if k != "n_dims"},
}


def _header(header):
    return np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)


def _npy(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def _drop_input_dim_2(arrays):
    arrays.pop("layer1.W2")
    for name in ("layer1.alpha", "layer1.beta"):
        arrays[name] = arrays[name][:, :2]


# the file {bad} names: None for no file, bytes to write, or an edit of the
# name -> array map of a valid checkpoint
BAD_CHECKPOINTS = {
    "checkpoint-missing": None,
    "checkpoint-not-npz": b"not a numpy archive",
    "checkpoint-npy": _npy(np.eye(4)),
    "checkpoint-no-meta": lambda arrays: arrays.pop("__meta__"),
    "checkpoint-no-alpha": lambda arrays: arrays.pop("layer1.alpha"),
    "checkpoint-no-q": lambda arrays: arrays.pop("Q"),
    "checkpoint-header-not-json": lambda arrays: arrays.update(
        __meta__=np.frombuffer(b"{not json", dtype=np.uint8)),
    "checkpoint-header-list": lambda arrays: arrays.update(__meta__=_header([1])),
    "checkpoint-format-2": lambda arrays: arrays.update(__meta__=_header(
        {**json.loads(bytes(arrays["__meta__"]).decode()), "format": 2})),
    # arrays that do not fit each other: D = 3, 2, 1 over the layers, F = 3, M = 4
    "checkpoint-alpha-shape": lambda arrays: arrays.update({"layer1.alpha": np.zeros((2, 2))}),
    "checkpoint-w-columns": lambda arrays: arrays.update({"layer1.W0": np.zeros((3, 5))}),
    "checkpoint-w-rows": lambda arrays: arrays.update({"layer2.W1": np.zeros((3, 4))}),
    "checkpoint-beta-shape": lambda arrays: arrays.update({"layer2.beta": np.zeros((2, 1))}),
    "checkpoint-last-alpha-empty": lambda arrays: arrays.update(
        {"layer2.alpha": np.zeros((0, 2))}),
    "checkpoint-q-shape": lambda arrays: arrays.update(Q=np.zeros(4)),
    "checkpoint-layers": lambda arrays: [arrays.pop(name) for name in list(arrays)
                                         if name.startswith("layer2.")],
    # fits itself, but takes D = 2 input dimensions where the graph has 3
    "checkpoint-other-dims": _drop_input_dim_2,
}


def _write_bad_checkpoint(path, graph_dir, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        graph = load_multiplex(graph_dir)
        config = mdl.ModelConfig(embed_size=4)
        params = mdl.init_params(graph.n_dims, graph.n_features, config)
        mdl.save_checkpoint(path, params, np.eye(4), config)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        content(arrays)
        np.savez(path, **arrays)


def _no_training(*args, **kwargs):
    raise AssertionError("bad input must be rejected before any training")


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_config_or_checkpoint_exits_one(tmp_path, capsys, monkeypatch, case):
    argv, payload, named = BAD_INPUTS[case]
    graph_dir = tmp_path / "g"
    run(gen_args(graph_dir))
    wide = tmp_path / "wide"
    if "{wide}" in argv:  # a checkpoint trained on the same graph with F doubled
        graph = load_multiplex(graph_dir)
        assert graph.n_features == 3
        graph.features = np.hstack([graph.features, graph.features])
        save_multiplex(graph, tmp_path / "g6")
        assert run(["train", "--graph", str(tmp_path / "g6"), "--embed", "4",
                    "--epochs", "1", "--out", str(wide)]) == 0
    bad = tmp_path / "bad.npz"
    if case in BAD_CHECKPOINTS:
        _write_bad_checkpoint(bad, graph_dir, BAD_CHECKPOINTS[case])
    if case in BAD_META:
        meta_file, edit = graph_dir / "meta.json", BAD_META[case]
        meta = json.loads(meta_file.read_text())
        meta_file.write_text(json.dumps(edit(meta) if callable(edit) else {**meta, **edit}))
    if case in ONE_CLASS:
        (graph_dir / "labels.csv").write_text("1\n" * load_multiplex(graph_dir).n_nodes)
    if case in BAD_FEATURES:
        graph = load_multiplex(graph_dir)
        graph.features = BAD_FEATURES[case](graph.features)
        save_multiplex(graph, graph_dir)
    else:
        monkeypatch.setattr(cli, "train", _no_training)
    capsys.readouterr()
    out = tmp_path / "out" / ("metrics.json" if case.endswith("width") else "run")
    argv = argv.format(g=graph_dir, wide=wide / "checkpoint.npz", bad=bad).split()
    argv += ["--config", str(_config(tmp_path, payload)), "--out", str(out)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err, err
    if case.endswith("width"):
        assert "F=3" in err
    if case in BAD_META:
        assert str(graph_dir / "meta.json") in err
    if case in BAD_CHECKPOINTS:
        assert str(bad) in err
    if case in BAD_FEATURES:
        assert err.startswith(f"error: {graph_dir / 'features.csv'}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["diagnose", "train-telemetry"])
def test_too_few_points_for_the_estimators_exits_one(tmp_path, capsys, monkeypatch, command):
    graph_dir, run_dir = tmp_path / "g", tmp_path / "run"
    assert run(gen_args(graph_dir, n=8)) == 0
    train_argv = ["train", "--graph", str(graph_dir), "--embed", "4", "--epochs", "1",
                  "--out", str(run_dir)]
    if command == "diagnose":
        assert run(train_argv) == 0
        argv = ["diagnose", "--checkpoint", str(run_dir / "checkpoint.npz"),
                "--graph", str(graph_dir), "--out", str(tmp_path / "geo.json")]
    else:
        argv = train_argv + ["--telemetry"]
        monkeypatch.setattr(cli, "train", _no_training)
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: need >= 10 distinct points, have ") and err.count("\n") == 1
    if command == "train-telemetry":  # rejected before `--out` is made
        assert not run_dir.exists()


def _csv_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()]


def _is_8g(field):
    return field == f"{float(field):.8g}"


def test_metrics_and_ablation_csv_rows(tmp_path):
    graph_dir = tmp_path / "g"
    run(gen_args(graph_dir, n=50, seed=3))
    metrics = tmp_path / "metrics.json"
    cfg = _config(tmp_path, {"train.epochs": 2, "model.embed": 4,
                             "eval.class_repeats": 1})
    assert run(["eval", "--graph", str(graph_dir), "--seed", "2", "--config", str(cfg),
                "--out", str(metrics)]) == 0
    payload = [json.loads(l) for l in metrics.read_text().splitlines()]
    header, *rows = _csv_rows(tmp_path / "metrics.csv")
    assert header == ["task", "auc", "ap", "f1_macro", "f1_micro", "seed", "config_hash"]
    assert [r[0] for r in rows] == ["link_prediction", "classification"]
    for row, line in zip(rows, payload):
        for key, field in zip(header, row):
            value = line[key]
            assert field == ("" if value is None else
                             f"{value:.8g}" if isinstance(value, float) else str(value))
    assert rows[0][3:5] == ["", ""] and rows[1][1:3] == ["", ""]

    (graph_dir / "labels.csv").unlink()
    out = tmp_path / "ablation"
    assert run(["ablate", "--graph", str(graph_dir), "--seeds", "1", "--config", str(cfg),
                "--out", str(out)]) == 0
    header, *rows = _csv_rows(out / "ablation.csv")
    assert header == ["variant", "seed", "auc", "ap", "f1_macro", "f1_micro", "loss_final"]
    assert len(rows) == 4
    for variant, seed, auc, ap, f1_macro, f1_micro, loss in rows:
        assert seed == "0" and f1_macro == f1_micro == ""
        assert all(_is_8g(f) for f in (auc, ap, loss))
