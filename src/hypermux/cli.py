"""Command-line front end: generate / train / diagnose / eval / sweep / ablate.

Configuration precedence: built-in defaults < JSON config file (flat
dotted keys, e.g. {"gen.n_nodes": 500}) < command-line flags. Every run
writes the fully resolved configuration next to its outputs, so a run
is reproducible from that file plus the seed. The `HYPERMUX_SEED`
environment variable supplies the default seed.

Exit codes: 0 success, 1 usage/validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import astuple, replace
from pathlib import Path
from statistics import median

from . import evaluate as ev
from . import geometry as geo
from . import model as mdl
from .autodiff import val
from .graph import GraphFormatError, derive_seed, load_multiplex, save_multiplex
from .manifold import MANIFOLDS, lift
from .synthetic import GenConfigError, GenParams, generate, resolve_params, sweep_specs
from .training import TrainConfig, TrainConfigError, train, write_history_csv


class ConfigError(ValueError):
    pass


class _UsageError(Exception):
    pass


# errors of bad input; `dispatch` turns them into exit code 1
EXIT_ONE_ERRORS = (ConfigError, GenConfigError, GraphFormatError, ev.EvalError,
                   geo.EstimatorError, mdl.CheckpointError, mdl.ModelConfigError,
                   TrainConfigError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


DEFAULTS = {
    "seed": None,  # resolved from HYPERMUX_SEED, else 0
    "gen.n_nodes": 2000,
    "gen.n_clusters": 5,
    "gen.n_dims": 10,
    "gen.p_in": None,
    "gen.p_out": None,
    "gen.sf_min": None,
    "gen.sf_max": None,
    "gen.cluster_min": None,
    "gen.cluster_max": None,
    "model.manifold": "lorentz",
    "model.layers": 2,
    "model.embed": 96,
    "model.leaky_slope": 0.01,
    "train.lr": 0.001,
    "train.weight_decay": 1e-5,
    "train.epochs": 1000,
    "train.patience": 20,
    "train.min_delta": 1e-5,
    "train.telemetry": False,
    "eval.test_ratio": 0.15,
    "eval.r": 2.0,
    "eval.t": 1.0,
    "eval.class_repeats": 5,
    "eval.logreg_l2": 1e-4,
}


# keys defaulting to None that take only an integer
INTEGER_OR_NULL = ("seed", "gen.sf_min", "gen.sf_max", "gen.cluster_min", "gen.cluster_max")


def _check_type(key, value):
    """Reject a value whose type does not match the key's default: ints pass
    for floats, only bools for bools, any number where the default is None
    (only an int for the INTEGER_OR_NULL keys). Numbers must be finite:
    NaN, infinities and ints beyond the float range are rejected."""
    default = DEFAULTS[key]
    number = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and abs(value) <= sys.float_info.max)
    if key in INTEGER_OR_NULL:
        ok, kind = value is None or (number and isinstance(value, int)), "an integer or null"
    elif default is None:
        ok, kind = value is None or number, "a number or null"
    elif isinstance(default, bool):
        ok, kind = isinstance(value, bool), "true or false"
    elif isinstance(default, int):
        ok, kind = number and isinstance(value, int), "an integer"
    elif isinstance(default, float):
        ok, kind = number, "a number"
    else:
        ok, kind = isinstance(value, str), "a string"
    if not ok:
        raise ConfigError(f"{key} must be {kind}, got {value!r}")


def resolve_config(config_file=None, overrides=None):
    """defaults < file < overrides, rejecting unknown keys by name and
    values whose type does not match the key's default."""
    resolved = dict(DEFAULTS)
    if config_file:
        try:
            loaded = json.loads(Path(config_file).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {config_file}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {config_file} must hold a JSON object")
        unknown = sorted(set(loaded) - set(DEFAULTS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        resolved.update(loaded)
    for key, value in (overrides or {}).items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config keys: {key}")
        if value is not None:
            resolved[key] = value
    for key, value in resolved.items():
        _check_type(key, value)
    if resolved["seed"] is None:
        env_seed = os.environ.get("HYPERMUX_SEED", "0")
        try:
            resolved["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"HYPERMUX_SEED must be an integer, got {env_seed!r}") from None
    if resolved["model.manifold"] not in MANIFOLDS:
        raise ConfigError(f"model.manifold must be one of {MANIFOLDS}")
    repeats = resolved["eval.class_repeats"]
    if repeats < 1:
        raise ConfigError(f"eval.class_repeats must be >= 1, got {repeats}")
    if resolved["eval.t"] <= 0:
        raise ConfigError(f"eval.t must be > 0, got {resolved['eval.t']}")
    if resolved["eval.logreg_l2"] < 0:
        raise ConfigError(f"eval.logreg_l2 must be >= 0, got {resolved['eval.logreg_l2']}")
    ratio = resolved["eval.test_ratio"]
    if not 0 < ratio < 1:
        raise ConfigError(f"eval.test_ratio must be in (0, 1), got {ratio}")
    return resolved


def config_hash(resolved):
    blob = json.dumps(resolved, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _resolve(args):
    """defaults < `--config` file < the parsed flags: each flag that sets a
    config key is parsed under that key."""
    return resolve_config(args.config, {k: v for k, v in vars(args).items() if k in DEFAULTS})


def _write_resolved(resolved, out_path):
    out_path = Path(out_path)
    if out_path.suffix:  # file output: write alongside it
        target = out_path.with_name(out_path.name + ".config.json")
        target.parent.mkdir(parents=True, exist_ok=True)
    else:
        out_path.mkdir(parents=True, exist_ok=True)
        target = out_path / "resolved_config.json"
    target.write_text(json.dumps(resolved, sort_keys=True, indent=2) + "\n")


def _gen_range(resolved, name):
    """(gen.<name>_min, gen.<name>_max), or None when neither is set."""
    low, high = resolved[f"gen.{name}_min"], resolved[f"gen.{name}_max"]
    if (low is None) != (high is None):
        raise ConfigError(f"set both gen.{name}_min and gen.{name}_max or neither")
    return None if low is None else (low, high)


def _gen_params(resolved, seed=None):
    return GenParams(
        n_nodes=int(resolved["gen.n_nodes"]),
        n_clusters=int(resolved["gen.n_clusters"]),
        n_dims=int(resolved["gen.n_dims"]),
        p_in=resolved["gen.p_in"], p_out=resolved["gen.p_out"],
        sf_range=_gen_range(resolved, "sf"),
        cluster_size_range=_gen_range(resolved, "cluster"),
        seed=int(resolved["seed"] if seed is None else seed))


def _model_config(resolved):
    cfg = mdl.ModelConfig(
        n_layers=int(resolved["model.layers"]),
        embed_size=int(resolved["model.embed"]),
        manifold=resolved["model.manifold"],
        leaky_slope=float(resolved["model.leaky_slope"]))
    return cfg


def _variant_configs(resolved, variants):
    """Model config of each named variant: the variant fixes the manifold,
    the layer count and whether alpha trains; the embed size and the slope
    come from the resolved config."""
    return {name: mdl.ModelConfig.for_variant(
                name, embed_size=int(resolved["model.embed"]),
                leaky_slope=float(resolved["model.leaky_slope"]))
            for name in variants}


def _train_config(resolved):
    return TrainConfig(
        learning_rate=float(resolved["train.lr"]),
        weight_decay=float(resolved["train.weight_decay"]),
        max_epochs=int(resolved["train.epochs"]),
        patience=int(resolved["train.patience"]),
        min_delta=float(resolved["train.min_delta"]),
        telemetry=bool(resolved["train.telemetry"]),
        seed=int(resolved["seed"])).validate()


def _write_embeddings_csv(path, z_tangent):
    rows = [",".join(f"{v:.12g}" for v in row) for row in z_tangent]
    Path(path).write_text("\n".join(rows) + "\n")


def _write_csv(path, header, rows):
    """One line per row dict, fields in `header` order: None as an empty
    field, floats as %.8g, anything else through str."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if row[k] is None else
                              f"{row[k]:.8g}" if isinstance(row[k], float) else str(row[k])
                              for k in header) + "\n")


def _embed_checkpoint(checkpoint, graph):
    """(model config, Z, Z in tangent coordinates) of a checkpoint on a graph."""
    params, _, model_config, _ = mdl.load_checkpoint(checkpoint)
    try:
        out = mdl.forward(graph, graph.features, params, model_config)
    except mdl.ModelConfigError as exc:  # parameters that do not fit the graph's D or F
        raise mdl.CheckpointError(f"checkpoint {checkpoint} does not fit the graph: "
                                  f"{exc}") from exc
    return model_config, out.z, val(out.z_tangent)


def _scores(z, z_tangent, manifold, split, labels, seed, resolved):
    """AUC/AP of the lifted `z` on `split`'s held-out edges, and the F1
    scores of `z_tangent` when `labels` are given (None otherwise)."""
    auc, ap = ev.link_prediction_eval(z, split, kind=manifold, r=float(resolved["eval.r"]),
                                      t=float(resolved["eval.t"]))
    scores = {"auc": auc, "ap": ap, "f1_macro": None, "f1_micro": None}
    if labels is not None:
        cls = ev.classification_eval(z_tangent, labels, seed=seed,
                                     n_repeats=int(resolved["eval.class_repeats"]),
                                     l2=float(resolved["eval.logreg_l2"]))
        scores.update(f1_macro=cls["f1_macro"], f1_micro=cls["f1_micro"])
    return scores


def _split(graph, resolved, seed):
    """`graph`'s edges split at `eval.test_ratio`, rejected when `_scores`
    could not score them; whether they can does not depend on the seed."""
    ratio = float(resolved["eval.test_ratio"])
    split = ev.split_edges(graph, (1.0 - ratio, ratio), seed=seed)
    ev.check_scoreable(split, graph.labels)
    return split


def _check_count(flag, n):
    if n < 1:
        raise ConfigError(f"{flag} must be >= 1, got {n}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_generate(args, resolved):
    result = generate(_gen_params(resolved))
    out = Path(args.out)
    save_multiplex(result.graph, out)
    (out / "gen_params.json").write_text(
        json.dumps(result.resolved, sort_keys=True, indent=2) + "\n")
    print(f"wrote {result.graph.n_nodes} nodes x {result.graph.n_dims} dims to {out}")
    return 0


def _cmd_train(args, resolved):
    model_config, train_config = _model_config(resolved), _train_config(resolved)
    graph = load_multiplex(args.graph)
    if train_config.telemetry and graph.n_nodes < geo.TWONN_MIN_POINTS:
        raise geo.EstimatorError(
            f"need >= {geo.TWONN_MIN_POINTS} distinct points, have {graph.n_nodes} nodes; "
            f"train.telemetry estimates the TwoNN dimension every epoch")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outcome = train(graph, model_config, train_config)
    mdl.save_checkpoint(out / "checkpoint.npz", outcome.params,
                        outcome.discriminator, model_config,
                        meta={"seed": resolved["seed"],
                              "graph": str(args.graph),
                              "final_loss": outcome.final_loss,
                              "epochs": outcome.n_epochs})
    write_history_csv(outcome.history, out / "history.csv")
    _write_embeddings_csv(out / "embeddings.csv", outcome.z_tangent)
    print(f"trained {outcome.n_epochs} epochs, final loss {outcome.final_loss:.6g}; "
          f"outputs in {out}")
    if outcome.aborted:
        print(f"warning: {outcome.aborted}; last good checkpoint kept",
              file=sys.stderr)
        return 2
    return 0


def _cmd_diagnose(args, resolved):
    model_config, _, z_tan = _embed_checkpoint(args.checkpoint, load_multiplex(args.graph))
    report = geo.curvature_gap(z_tan, context={
        "checkpoint": str(args.checkpoint), "seed": resolved["seed"],
        "model": model_config.manifold})
    payload = {
        "id": report.id_estimate, "lid": report.lid_estimate, "gap": report.gap,
        "n_duplicates": report.n_duplicates, "trim": report.trim,
        "context": report.context, "config_hash": config_hash(resolved),
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_eval(args, resolved):
    graph = load_multiplex(args.graph)
    split = _split(graph, resolved, int(resolved["seed"]))
    if args.checkpoint:
        model_config, z, z_tan = _embed_checkpoint(args.checkpoint, split.train_graph)
    else:
        model_config = _model_config(resolved)
        outcome = train(split.train_graph, model_config, _train_config(resolved))
        z, z_tan = outcome.z_final, outcome.z_tangent
    scores = _scores(z, z_tan, model_config.manifold, split, graph.labels,
                     int(resolved["seed"]), resolved)
    run = {"seed": int(resolved["seed"]), "config_hash": config_hash(resolved)}
    lines = [{"task": "link_prediction", "auc": scores["auc"], "ap": scores["ap"],
              "f1_macro": None, "f1_micro": None, **run}]
    if graph.labels is not None:
        lines.append({"task": "classification", "auc": None, "ap": None,
                      "f1_macro": scores["f1_macro"], "f1_micro": scores["f1_micro"], **run})
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(json.dumps(l, sort_keys=True) for l in lines) + "\n")
    _write_csv(out.with_suffix(".csv"),
               ["task", "auc", "ap", "f1_macro", "f1_micro", "seed", "config_hash"], lines)
    for l in lines:
        print(json.dumps(l, sort_keys=True))
    return 0


def _parse_d_range(text):
    try:
        parts = [int(p) for p in text.split(":" if ":" in text else ",")]
    except ValueError:
        raise ConfigError(f"bad D values {text!r}; use integers") from None
    if ":" in text:
        if len(parts) != 3 or parts[2] < 1:
            raise ConfigError(f"bad D range {text!r}; use start:stop:step with step >= 1")
        start, stop, step = parts
        return list(range(start, stop + 1, step))
    return parts


def _cmd_sweep(args, resolved):
    _check_count("--seeds", args.seeds)
    _check_count("--workers", args.workers)
    train_config = _train_config(resolved)
    d_values = _parse_d_range(args.d)
    base = _gen_params(resolved)
    specs = sweep_specs(base, d_values)
    for spec in specs:  # reject infeasible generator settings before any run
        resolve_params(spec)
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    if not models:
        raise ConfigError(f"--models names no model variant: {args.models!r}")
    for m in models:
        if m not in mdl.MODEL_VARIANTS:
            raise ConfigError(f"unknown model variant {m!r}; "
                              f"choose from {sorted(mdl.MODEL_VARIANTS)}")
    configs = _variant_configs(resolved, models)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    rows, failures = geo.sweep(specs, configs, range(args.seeds), train_config,
                               workers=args.workers)
    geo.write_sweep_csv(rows, args.out)
    for fail in failures:
        print(f"failed run {fail}", file=sys.stderr)
    by_key = {}
    for r in rows:
        by_key.setdefault((r.model, r.d), []).append(r.gap)
    for (name, d), gaps in sorted(by_key.items()):
        print(f"{name} D={d}: median gap {median(gaps):.3f} over {len(gaps)} seeds")
    return 0 if not failures else 2


ABLATION_VARIANTS = ("full", "euclidean", "weights-ablation", "layers-ablation")


def _cmd_ablate(args, resolved):
    _check_count("--seeds", args.seeds)
    configs = _variant_configs(resolved, ABLATION_VARIANTS)
    train_config = _train_config(resolved)
    graph = load_multiplex(args.graph)
    rows = []
    for s in range(args.seeds):
        run_seed = derive_seed(int(resolved["seed"]), 91, s)
        split = _split(graph, resolved, run_seed)
        tc = replace(train_config, seed=run_seed)
        # the manifold only lifts the trained tangent states, so variants
        # that differ in nothing else share one training
        trained = {}
        for variant, config in configs.items():
            key = astuple(replace(config, manifold=None))
            if key not in trained:
                trained[key] = train(split.train_graph, config, tc)
            outcome = trained[key]
            rows.append({"variant": variant, "seed": s, "loss_final": outcome.final_loss,
                         **_scores(lift(outcome.z_tangent, config.manifold),
                                   outcome.z_tangent, config.manifold, split,
                                   graph.labels, run_seed, resolved)})
    rows.sort(key=lambda row: ABLATION_VARIANTS.index(row["variant"]))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "ablation.csv", ["variant", "seed", "auc", "ap", "f1_macro",
                                      "f1_micro", "loss_final"], rows)
    summary = {}
    for variant in ABLATION_VARIANTS:
        aucs = [r["auc"] for r in rows if r["variant"] == variant]
        summary[variant] = {"auc_median": median(aucs), "n_seeds": len(aucs)}
        print(f"{variant}: median AUC {median(aucs):.4f}")
    (out / "ablation_summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser():
    """Each flag that sets a config key is parsed under that key (its dest)."""
    parser = _Parser(prog="hypermux",
                     description="hierarchical hyperbolic multiplex graph embedding")
    sub = parser.add_subparsers(dest="command")
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--seed", type=int)
    run.add_argument("--config")
    run.add_argument("--out", required=True)
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("--graph", required=True)
    size = argparse.ArgumentParser(add_help=False)
    size.add_argument("--n", dest="gen.n_nodes", type=int)
    size.add_argument("--k", dest="gen.n_clusters", type=int)
    epochs = argparse.ArgumentParser(add_help=False)
    epochs.add_argument("--epochs", dest="train.epochs", type=int)

    p = sub.add_parser("generate", parents=[run, size],
                       help="write a synthetic multiplex graph")
    p.add_argument("--d", dest="gen.n_dims", type=int)
    p.add_argument("--p-in", dest="gen.p_in", type=float)
    p.add_argument("--p-out", dest="gen.p_out", type=float)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", parents=[run, graph, epochs],
                       help="train embeddings on a graph directory")
    p.add_argument("--manifold", dest="model.manifold", choices=MANIFOLDS)
    p.add_argument("--layers", dest="model.layers", type=int)
    p.add_argument("--embed", dest="model.embed", type=int)
    p.add_argument("--lr", dest="train.lr", type=float)
    p.add_argument("--patience", dest="train.patience", type=int)
    p.add_argument("--telemetry", dest="train.telemetry", action="store_const", const=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("diagnose", parents=[run, graph],
                       help="intrinsic-dimension report for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("eval", parents=[run, graph],
                       help="link prediction / classification metrics")
    p.add_argument("--checkpoint",
                   help="score a trained checkpoint instead of retraining on the split")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", parents=[run, size, epochs],
                       help="gap-vs-D study on synthetic graphs")
    p.add_argument("--d", required=True, help="D values, '5:40:5' or '5,10,20'")
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--models", default="full,euclidean-single")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("ablate", parents=[run, graph, epochs],
                       help="compare full model against ablations",
                       description="Train and evaluate the full model and its "
                       "ablations on one graph. Each variant fixes model.manifold "
                       "and model.layers; model.embed and model.leaky_slope apply "
                       "to every variant.")
    p.add_argument("--seeds", type=int, default=3)
    p.set_defaults(func=_cmd_ablate)

    return parser


def dispatch(argv):
    """Run one command line; the resolved config is written once the command returns."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        resolved = _resolve(args)
        code = args.func(args, resolved)
        _write_resolved(resolved, args.out)
        return code
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except EXIT_ONE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary, fail with code 2
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
