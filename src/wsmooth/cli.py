"""Command-line front end: train noised base classifiers, predict and
certify with the smoothed classifier, attack it, cross-check the transport
oracles, and merge result tables.

Settings come from an optional JSON config file, overridden by flags.  All
randomness derives from one master seed, and every emitted table starts
with a `# key=value ...` comment line recording the settings that produced
it, so reruns are byte-for-byte identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import zipfile
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import classifier as clf
from . import dataset_io
from .attack import AttackConfig, robustness_curve
from .flow_domain import AT_LEAST_0, AT_LEAST_1, OPEN_UNIT, POSITIVE, _check_value
from .smoothing import (
    ABSTAIN,
    FLOW,
    PIXEL,
    NoiseSpec,
    certify,
    median_certified_radius,
    smoothed_predict,
)
from .transport_oracle import run_oracle_checks

_SCHEME_MAP = {"flow": FLOW, "pixel": PIXEL}
_SCHEME = (f"one of {sorted(_SCHEME_MAP)}", lambda v: v in _SCHEME_MAP)

_IDX_PATHS = ("train_images", "train_labels", "test_images", "test_labels")


def _field_keys(section: str, cls: type, *skip: str) -> dict:
    """The keys of the fields of ``cls`` but ``skip``: typed, and checked by ``cls``."""
    return {f"{section}.{name}": (kind, None, None)
            for name, kind in get_type_hints(cls).items() if name not in skip}


# Every config key ("section.key", or a bare top-level name) with the type
# of its value ([t]: a nonempty list of t), the range it must lie in, and
# its default (None: unset).  One file serves all commands, so a key is
# known if any command reads it; anything else is a typo that would
# silently fall back to a default.  The train and attack keys are the CLI's
# own and the TrainConfig and AttackConfig fields that no other key sets;
# the dataset kind, sides and class count are checked where the dataset
# is built.  A flag's argparse dest is the key it sets.
_SCHEMA = {
    "seed": (int, AT_LEAST_0, 0),
    "workers": (int, AT_LEAST_1, 1),
    "scheme": (str, _SCHEME, "flow"),
    "sigma": (float, POSITIVE, 0.05),
    "checkpoint": (str, None, None),
    "out_dir": (str, None, "runs"),
    "dataset.kind": (str, None, "blobs"),
    "dataset.train_size": (int, AT_LEAST_1, 200),
    "dataset.test_size": (int, AT_LEAST_1, 50),
    "dataset.shape": ([int], None, [6, 6]),
    **{f"idx.{name}": (str, None, None) for name in _IDX_PATHS},
    "idx.num_classes": (int, None, None),
    **_field_keys("train", clf.TrainConfig, "noise", "sigma", "seed"),  # set by top-level keys
    "train.hidden": (int, AT_LEAST_1, None),
    "predict.n": (int, AT_LEAST_1, 10000),
    "predict.alpha": (float, OPEN_UNIT, 0.05),
    "certify.n0": (int, AT_LEAST_1, 1000),
    "certify.n": (int, AT_LEAST_1, 10000),
    "certify.alpha": (float, OPEN_UNIT, 0.05),
    "attack.radii": ([float], AT_LEAST_0, [0.0, 0.005, 0.01, 0.02]),
    "attack.max_images": (int, AT_LEAST_1, None),
    # --radii sets max_radius through robustness_curve; initial_radius is not exposed.
    **_field_keys("attack", AttackConfig, "max_radius", "initial_radius"),
}
_SECTIONS = {key.split(".")[0] for key in _SCHEMA if "." in key}


def _checked(key: str, value):
    """``value`` checked against the schema entry of ``key``; a float key
    given as an integer comes back as a float."""
    kind, rule, _ = _SCHEMA[key]
    try:
        if not isinstance(kind, list):
            return _check_value(key, kind, value, rule)
        if not isinstance(value, list) or not value:
            raise ValueError(f"{key} must be a nonempty list, got {value!r}")
        return [_check_value(f"{key}[{i}]", kind[0], v, rule) for i, v in enumerate(value)]
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _number_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise SystemExit(f"error: --radii must be comma-separated numbers, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsmooth",
        description="Wasserstein-smoothed classification: train, certify, attack.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(p, flag, key, help):
        kind = _SCHEMA[key][0]
        p.add_argument(flag, dest=key, type=_number_list if kind == [float] else kind, help=help)

    def add_common(p, model=True, workers=False):  # only the flags the command reads
        p.add_argument("--config", type=Path, help="JSON settings file")
        add(p, "--seed", "seed", "master seed for all randomness")
        if model:
            add(p, "--out-dir", "out_dir", "directory for outputs")
            add(p, "--scheme", "scheme", "noise scheme: flow or pixel")
            add(p, "--sigma", "sigma", "noise standard deviation (> 0)")
            add(p, "--checkpoint", "checkpoint", "model checkpoint path (.npz)")
        if workers:
            add(p, "--workers", "workers", "sampling worker threads")

    p = sub.add_parser("train", help="train a base classifier under smoothing noise")
    add_common(p)
    add(p, "--epochs", "train.epochs", "training epochs")

    p = sub.add_parser("predict", help="smoothed predictions on the test split")
    add_common(p, workers=True)
    add(p, "--n", "predict.n", "prediction sample cap; the decision is the n-draw test's")
    add(p, "--alpha", "predict.alpha", "abstention significance level")

    p = sub.add_parser("certify", help="certified radii on the test split")
    add_common(p, workers=True)
    add(p, "--n0", "certify.n0", "class-guess sample count")
    add(p, "--n", "certify.n", "bound sample count")
    add(p, "--alpha", "certify.alpha", "confidence level alpha")

    p = sub.add_parser("attack", help="flow-domain PGD attack curve on the test split")
    add_common(p)
    add(p, "--radii", "attack.radii", "comma-separated L1 budgets, e.g. 0,0.005,0.01")
    add(p, "--max-images", "attack.max_images", "attack at most this many test images")

    p = sub.add_parser("oracle-check", help="cross-validate the transport oracles")
    add_common(p, model=False)
    p.add_argument("--pairs", type=int, default=50, help="random image pairs per property")

    p = sub.add_parser("report", help="merge certify tables into a comparison report")
    add_common(p, model=False)
    add(p, "--out-dir", "out_dir", "directory for the report")
    p.add_argument("tables", nargs="+", type=Path, help="certificates.csv files to merge")
    return parser


def _load_json(path: Path | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise SystemExit(f"error: config file {path} not found")
    except ValueError as exc:
        raise SystemExit(f"error: config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise SystemExit(f"error: config file {path} must hold a JSON object")
    return data


def _merge_config(args: argparse.Namespace) -> dict:
    """Every key that is set, checked: schema defaults, then the config
    file, then flags.  Also the run's ``noise`` spec, and the TrainConfig
    and AttackConfig built from the ``train`` and ``attack`` sections, under
    those names."""
    path = getattr(args, "config", None)
    file_cfg = _load_json(path)
    values = {key: default for key, (_, _, default) in _SCHEMA.items() if default is not None}
    for key, value in file_cfg.items():
        if key in _SECTIONS and not isinstance(value, dict):
            raise SystemExit(f"error: config key {key!r} in {path} must hold a JSON object")
        given = ({f"{key}.{sub}": v for sub, v in value.items()} if key in _SECTIONS
                 else {key: value})
        for name in given:
            if "." in key or name not in _SCHEMA:
                raise SystemExit(f"error: unknown config key {name!r} in {path}")
        values.update(given)
    values.update((key, v) for key, v in vars(args).items() if key in _SCHEMA and v is not None)
    cfg = {key: _checked(key, value) for key, value in values.items()}
    if len(cfg["dataset.shape"]) != 2:
        raise SystemExit(f"error: dataset.shape must be [rows, columns], "
                         f"got {cfg['dataset.shape']!r}")
    missing = [name for name in _IDX_PATHS if f"idx.{name}" not in cfg]
    if "idx" in file_cfg and missing:
        raise SystemExit(f"error: the idx section in {path} must name {', '.join(missing)}")
    if not cfg.get("checkpoint"):
        cfg["checkpoint"] = str(Path(cfg["out_dir"]) /
                                f"model_{cfg['scheme']}_sigma{cfg['sigma']:g}.npz")
    cfg["noise"] = NoiseSpec(_SCHEME_MAP[cfg["scheme"]], cfg["sigma"])
    train_extra = {"noise": cfg["noise"].scheme, "sigma": cfg["sigma"],
                   "seed": _seed_int(cfg, "train")}
    for name, build, extra in (("train", clf.TrainConfig, train_extra), ("attack", AttackConfig, {})):
        fields = {k: cfg[f"{name}.{k}"] for k in get_type_hints(build) if f"{name}.{k}" in cfg}
        try:
            cfg[name] = build(**fields, **extra)
        except ValueError as exc:
            raise SystemExit(f"error: {name}: {exc}")
    return cfg


def _derived_seeds(cfg: dict) -> dict[str, np.random.SeedSequence]:
    root = np.random.SeedSequence(cfg["seed"])
    names = ("dataset_train", "dataset_test", "train", "predict", "certify", "attack")
    return dict(zip(names, root.spawn(len(names))))


def _seed_int(cfg: dict, name: str) -> int:
    """An integer seed drawn from the derived seed of ``name``."""
    return int(np.random.default_rng(_derived_seeds(cfg)[name]).integers(2**31))


def _load_split(cfg: dict, split: str, num_classes: int | None = None) -> dataset_io.LabeledDataset:
    """Build the train or test dataset from the config (synthetic or IDX); an
    IDX split has idx.num_classes, else ``num_classes``, else its top label."""
    try:
        if "idx.train_images" in cfg:
            raw_x, raw_y = dataset_io.load_idx(cfg[f"idx.{split}_images"],
                                               cfg[f"idx.{split}_labels"])
            return dataset_io.make_dataset(raw_x, raw_y, cfg.get("idx.num_classes", num_classes))
        return dataset_io.synthetic_dataset(
            cfg["dataset.kind"], cfg[f"dataset.{split}_size"], tuple(cfg["dataset.shape"]),
            seed=_derived_seeds(cfg)[f"dataset_{split}"])
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot load the {split} split: {exc}")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_table(path: Path, meta: dict, header: list[str], rows: list[list]):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_summary(cfg: dict, command: str, **fields) -> dict:
    """Write ``<command>_summary.json`` to the output directory: the run's
    command, scheme, sigma and seed, then ``fields``.  Returns the summary."""
    summary = {"command": command, "scheme": cfg["scheme"], "sigma": cfg["sigma"],
               "seed": cfg["seed"], **fields}
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{command}_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def _meta(cfg: dict, command: str, **extra) -> dict:
    return {"command": command, "scheme": cfg["scheme"], "sigma": _fmt(cfg["sigma"]),
            "seed": cfg["seed"], **extra}


def _cmd_train(cfg: dict) -> int:
    dataset = _load_split(cfg, "train")
    tc = cfg["train"]
    result = clf.train(dataset, tc, hidden=cfg.get("train.hidden"))
    ckpt = Path(cfg["checkpoint"])
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    clf.save_checkpoint(ckpt, result.params, tc)
    train_acc = clf.accuracy(result.params, dataset)
    final_loss = result.epoch_losses[-1]
    # A uniform guess over K classes scores cross-entropy ln K; NaN or inf
    # compares false, so a diverged run is flagged too.
    chance = math.log(dataset.num_classes)
    at_chance = not final_loss < chance
    _write_summary(cfg, "train", num_images=len(dataset), epochs=tc.epochs,
                   final_loss=final_loss, train_accuracy=train_acc,
                   loss_at_or_above_chance=at_chance, checkpoint=str(ckpt))
    print(f"train: {len(dataset)} images, {tc.epochs} epochs, "
          f"final loss {final_loss:.6f}, train accuracy {train_acc:.3f}")
    if at_chance:
        print(f"warning: final loss {final_loss:.6f} is not below ln {dataset.num_classes} = "
              f"{chance:.6f}; the classifier is no better than chance")
    print(f"checkpoint written to {ckpt}")
    return 0


def _load_model(cfg: dict) -> tuple[clf.ClassifierParams, dataset_io.LabeledDataset]:
    """The checkpoint's classifier and the test split, built with its class
    count, if it was trained under this run's noise on images of the split's
    shape and class count."""
    ckpt = Path(cfg["checkpoint"])
    if not ckpt.exists():
        raise SystemExit(f"error: checkpoint {ckpt} not found; run `wsmooth train` first")
    try:
        params, trained = clf.load_checkpoint(ckpt)
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise SystemExit(f"error: checkpoint {ckpt} is not a readable wsmooth checkpoint: {exc!r}")
    noise = cfg["noise"]
    if (trained.noise, trained.sigma) != (noise.scheme, noise.sigma):
        raise SystemExit(
            f"error: checkpoint {ckpt} was trained under {trained.noise} noise at sigma "
            f"{trained.sigma!r}, but this run smooths with {noise.scheme} at sigma {noise.sigma!r}")
    dataset = _load_split(cfg, "test", params.num_classes)
    if params.input_shape != dataset.image_shape:
        raise SystemExit(f"error: checkpoint {ckpt} takes {params.input_shape} images, but the "
                         f"dataset holds {dataset.image_shape} images")
    if params.num_classes != dataset.num_classes:
        raise SystemExit(f"error: checkpoint {ckpt} scores {params.num_classes} classes, but the "
                         f"dataset has {dataset.num_classes}")
    return params, dataset


def _certify_stats(rows: list[tuple]) -> dict:
    """Summary statistics of a certify run from its per-image (label,
    base_prediction, prediction, rho2) rows.  An abstention is never
    correct, and a wrong class's radius is not a certified radius."""
    num = len(rows)
    return {
        "base_accuracy": sum(base == label for label, base, _, _ in rows) / num,
        "accuracy": sum(pred == label != ABSTAIN for label, _, pred, _ in rows) / num,
        "abstention_rate": sum(pred == ABSTAIN for _, _, pred, _ in rows) / num,
        "median_certified_radius": median_certified_radius(
            [rho2 if pred == label != ABSTAIN else None for label, _, pred, rho2 in rows]),
    }


def _cmd_predict(cfg: dict) -> int:
    params, dataset = _load_model(cfg)
    n, alpha = cfg["predict.n"], cfg["predict.alpha"]
    rng = np.random.default_rng(_derived_seeds(cfg)["predict"])
    streams = rng.spawn(len(dataset))
    x_all, y_all = dataset.as_arrays()
    rows, draws = [], 0
    for i in range(len(dataset)):
        pred = smoothed_predict(params, x_all[i], cfg["noise"], n, alpha, streams[i],
                                workers=cfg["workers"])
        draws += pred.num_samples
        rows.append([i, int(y_all[i]), pred.predicted, float(pred.p_value),
                     int(pred.predicted == ABSTAIN)])
    meta = _meta(cfg, "predict", n=n, alpha=_fmt(alpha))
    _write_table(Path(cfg["out_dir"]) / "predictions.csv", meta,
                 ["id", "label", "prediction", "p_value", "abstained"], rows)
    summary = _write_summary(
        cfg, "predict", n=n, alpha=alpha, num_images=len(dataset), draws=draws,
        accuracy=sum(pred == label for _, label, pred, _, _ in rows) / len(rows),
        abstention_rate=sum(abstained for *_, abstained in rows) / len(rows))
    print(f"predict: accuracy {summary['accuracy']:.3f}, "
          f"abstention rate {summary['abstention_rate']:.3f} over {len(dataset)} images")
    return 0


def _cmd_certify(cfg: dict) -> int:
    params, dataset = _load_model(cfg)
    n0, n, alpha = cfg["certify.n0"], cfg["certify.n"], cfg["certify.alpha"]
    rng = np.random.default_rng(_derived_seeds(cfg)["certify"])
    streams = rng.spawn(len(dataset))
    x_all, y_all = dataset.as_arrays()
    base_predictions = np.argmax(params.forward_batch(x_all), axis=1)
    rows = []
    for i in range(len(dataset)):
        cert = certify(params, x_all[i], cfg["noise"], n0, n, alpha, streams[i],
                       workers=cfg["workers"])
        rows.append([i, int(y_all[i]), int(base_predictions[i]), cert.predicted,
                     float(cert.p_lower), cert.rho2, int(cert.predicted == ABSTAIN)])
    meta = _meta(cfg, "certify", n0=n0, n=n, alpha=_fmt(alpha))
    _write_table(Path(cfg["out_dir"]) / "certificates.csv", meta,
                 ["id", "label", "base_prediction", "prediction", "p_lower", "rho2", "abstained"],
                 rows)
    stats = _certify_stats([(label, base, pred, rho2)
                            for _, label, base, pred, _, rho2, _ in rows])
    summary = _write_summary(cfg, "certify", n0=n0, n=n, alpha=alpha, num_images=len(dataset),
                             **stats)
    median = summary["median_certified_radius"]
    med = "not certified" if median is None else f"{median:.6f}"
    print(f"certify: accuracy {summary['accuracy']:.3f}, "
          f"abstention rate {summary['abstention_rate']:.3f}, "
          f"median certified radius {med} over {len(dataset)} images")
    return 0


def _cmd_attack(cfg: dict) -> int:
    params, dataset = _load_model(cfg)
    if "attack.max_images" in cfg:
        dataset = dataset.subset(np.arange(min(cfg["attack.max_images"], len(dataset))))
    radii, acfg = cfg["attack.radii"], cfg["attack"]
    try:
        curve, results = robustness_curve(params, dataset, cfg["noise"], radii, acfg,
                                          _seed_int(cfg, "attack"))
    except ValueError as exc:
        raise SystemExit(f"error: attack: {exc}")
    meta = _meta(cfg, "attack", iterations=acfg.iterations,
                 gradient_samples=acfg.gradient_samples, predict_samples=acfg.predict_samples)
    out = Path(cfg["out_dir"])
    _write_table(out / "attack_curve.csv", meta, ["radius", "accuracy"],
                 [[rho, acc] for rho, acc in curve])
    res_rows = []
    for i, res in enumerate(results):
        res_rows.append([
            i, int(dataset.labels[i]), int(res.clean_correct), int(res.success),
            float(res.budget), res.iteration, res.oracle_radius,
        ])
    _write_table(out / "attack_results.csv", meta,
                 ["id", "label", "clean_correct", "success", "budget",
                  "first_iteration", "oracle_radius"], res_rows)
    _write_summary(cfg, "attack", num_images=len(dataset), radii=radii,
                   clean_accuracy=float(np.mean([r.clean_correct for r in results])),
                   curve={repr(float(rho)): acc for rho, acc in curve})
    for rho, acc in curve:
        print(f"attack: accuracy {acc:.3f} at L1 budget {rho:g}")
    return 0


def _cmd_oracle_check(cfg: dict, pairs: int) -> int:
    try:
        outcomes = run_oracle_checks(num_pairs=pairs, seed=cfg["seed"])
    except ValueError as exc:
        raise SystemExit(f"error: --pairs {pairs}: {exc}")
    failed = 0
    for oc in outcomes:
        status = "PASS" if oc.passed else "FAIL"
        failed += int(not oc.passed)
        print(f"{status} {oc.name}: max residual {oc.max_residual:.3e} (tolerance {oc.tolerance:g})")
    if failed:
        print(f"{failed} oracle properties failed")
        return 1
    print(f"all {len(outcomes)} oracle properties hold over {pairs} random pairs "
          f"(seed {cfg['seed']})")
    return 0


def _read_table(path: Path) -> tuple[dict, list[dict]]:
    try:
        with open(path, encoding="utf-8") as fh:
            first = fh.readline()
            if not first.startswith("#"):
                raise SystemExit(f"error: {path} lacks the `# key=value` metadata line")
            meta = dict(tok.split("=", 1) for tok in first[1:].split())
            header = fh.readline().strip().split(",")
            rows = [dict(zip(header, line.split(","))) for line in map(str.strip, fh) if line]
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a token without "="
        raise SystemExit(f"error: cannot read table {path}: {exc}")
    return meta, rows


def _cmd_report(cfg: dict, tables: list[Path]) -> int:
    entries = []
    for path in tables:
        meta, rows = _read_table(path)
        if meta.get("command") != "certify":
            raise SystemExit(f"error: {path} is not a certify table")
        if not rows:
            raise SystemExit(f"error: {path} holds no rows")
        # Recompute every summary statistic from the per-image rows, as
        # certify does; a bad scheme or sigma, a missing or non-numeric
        # setting or cell, or a NaN radius refuses the table.
        try:
            sigma = NoiseSpec(_SCHEME_MAP[meta["scheme"]], float(meta["sigma"])).sigma
            int(meta["n0"]), int(meta["n"]), float(meta["alpha"])
            parsed = [(r["id"], float(r["p_lower"]), int(r["label"]), int(r["base_prediction"]),
                       int(r["prediction"]), float(r["rho2"]) if r["rho2"] else None)
                      for r in rows]
            stats = _certify_stats([p[2:] for p in parsed])
        except (KeyError, ValueError) as exc:
            raise SystemExit(f"error: {path} has malformed metadata or rows ({exc!r})")
        entries.append({
            "scheme": meta["scheme"],
            "sigma": sigma,
            "seed": meta.get("seed", "?"),
            "num_images": len(rows),
            **stats,
        })
    entries.sort(key=lambda e: (e["scheme"], e["sigma"]))
    out = Path(cfg["out_dir"])
    header = ["scheme", "sigma", "seed", "num_images", "base_accuracy", "accuracy",
              "abstention_rate", "median_certified_radius"]
    _write_table(out / "report.csv", {"command": "report", "seed": cfg["seed"]}, header,
                 [[e[h] for h in header] for e in entries])
    widths = {h: max(len(h), 12) for h in header}
    print("  ".join(h.ljust(widths[h]) for h in header))
    for e in entries:
        cells = []
        for h in header:
            v = e[h]
            if v is None:
                cells.append("n/a".ljust(widths[h]))
            elif isinstance(v, float):
                cells.append(f"{v:.6f}".ljust(widths[h]))
            else:
                cells.append(str(v).ljust(widths[h]))
        print("  ".join(cells))
    return 0


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = _merge_config(args)
    commands = {
        "train": _cmd_train, "predict": _cmd_predict, "certify": _cmd_certify,
        "attack": _cmd_attack,
        "oracle-check": lambda cfg: _cmd_oracle_check(cfg, args.pairs),
        "report": lambda cfg: _cmd_report(cfg, args.tables),
    }
    return commands[args.command](cfg)


def main() -> int:
    """Console entry point: an `error: ...` exit prints its one line to
    stderr and ends with status 2, the status argparse uses for bad usage."""
    try:
        return run(sys.argv[1:])
    except SystemExit as exc:
        if not isinstance(exc.code, str):
            raise
        print(exc.code, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
