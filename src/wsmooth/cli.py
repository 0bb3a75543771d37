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
from typing import get_args, get_type_hints

import numpy as np

from . import classifier as clf
from . import dataset_io
from .attack import AttackConfig, robustness_curve
from .flow_domain import (AT_LEAST_0, AT_LEAST_1, AT_LEAST_2, OPEN_UNIT, POSITIVE, _check_value,
                          channel_shape)
from .smoothing import (
    ABSTAIN,
    FLOW,
    PIXEL,
    NoiseSpec,
    certify,
    median_certified_radius,
    radius_from_plower,
    smoothed_predict,
)
from .transport_oracle import run_oracle_checks

_SCHEME_MAP = {"flow": FLOW, "pixel": PIXEL}
_SCHEME = (f"one of {sorted(_SCHEME_MAP)}", lambda v: v in _SCHEME_MAP)

_IDX_PATHS = ("train_images", "train_labels", "test_images", "test_labels")


def _field_keys(section: str, cls: type, *skip: str) -> dict:
    """Keys of the fields of ``cls`` but ``skip``: typed (X | None as X), checked by ``cls``."""
    return {f"{section}.{name}": ((get_args(hint) or (hint,))[0], None, None)
            for name, hint in get_type_hints(cls).items() if name not in skip}


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


def _write_table(path: Path, meta: dict, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else str(v) for v in row) + "\n")


def _header(cfg: dict, command: str, **fields) -> dict:
    """The run's command, scheme, sigma and seed, then ``fields``: the
    metadata line of its tables and the head of its summary."""
    return {"command": command, "scheme": cfg["scheme"], "sigma": cfg["sigma"],
            "seed": cfg["seed"], **fields}


def _write_summary(cfg: dict, command: str, **fields) -> dict:
    """Write ``<command>_summary.json`` to the output directory: the run
    header, then ``fields``.  Returns the summary."""
    summary = _header(cfg, command, **fields)
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{command}_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def _cmd_train(cfg: dict) -> int:
    dataset = _load_split(cfg, "train")
    tc = cfg["train"]
    result = clf.train(dataset, tc)
    ckpt = Path(cfg["checkpoint"])
    try:
        clf.save_checkpoint(ckpt, result.params, tc)
    except ValueError as exc:  # non-finite weights: the run diverged
        raise SystemExit(f"error: train: {exc}; the run diverged and nothing was written")
    train_acc = clf.accuracy(result.params, dataset)
    final_loss = result.epoch_losses[-1]
    # A uniform guess over K classes scores cross-entropy ln K.
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
    shape (by channel_shape, so (n, m) is (1, n, m)) and class count."""
    ckpt = Path(cfg["checkpoint"])
    if not ckpt.exists():
        raise SystemExit(f"error: checkpoint {ckpt} not found; run `wsmooth train` first")
    try:
        params, trained = clf.load_checkpoint(ckpt)
        cshape = channel_shape(params.input_shape)
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise SystemExit(f"error: checkpoint {ckpt} is not a readable wsmooth checkpoint: {exc!r}")
    noise = cfg["noise"]
    if (trained.noise, trained.sigma) != (noise.scheme, noise.sigma):
        raise SystemExit(
            f"error: checkpoint {ckpt} was trained under {trained.noise} noise at sigma "
            f"{trained.sigma!r}, but this run smooths with {noise.scheme} at sigma {noise.sigma!r}")
    dataset = _load_split(cfg, "test", params.num_classes)
    if cshape != channel_shape(dataset.image_shape):
        raise SystemExit(f"error: checkpoint {ckpt} takes {params.input_shape} images, but the "
                         f"dataset holds {dataset.image_shape} images")
    if params.num_classes != dataset.num_classes:
        raise SystemExit(f"error: checkpoint {ckpt} scores {params.num_classes} classes, but the "
                         f"dataset has {dataset.num_classes}")
    return params, dataset


# certificates.csv's columns and metadata settings: certify writes them, report checks them.
_CERTIFY_COLUMNS = ("id", "label", "base_prediction", "prediction", "p_lower", "rho2", "abstained")
_CERTIFY_SETTINGS = ("scheme", "sigma", "seed", "certify.n0", "certify.n", "certify.alpha")


def _certify_stats(rows: list[dict]) -> dict:
    """Summary statistics of a certify run from its per-image rows, keyed
    by _CERTIFY_COLUMNS.  An abstention is never correct, and a wrong
    class's radius is not a certified radius."""
    num = len(rows)
    correct = [r["prediction"] == r["label"] != ABSTAIN for r in rows]
    return {
        "base_accuracy": sum(r["base_prediction"] == r["label"] for r in rows) / num,
        "accuracy": sum(correct) / num,
        "abstention_rate": sum(r["prediction"] == ABSTAIN for r in rows) / num,
        "median_certified_radius": median_certified_radius(
            [r["rho2"] if ok else None for r, ok in zip(rows, correct)]),
    }


def _per_image(cfg: dict, command: str, decide, params, x_all, *settings) -> list:
    """``decide(params, x, noise, *settings, stream)`` for each test image
    x, with the run's workers, on one stream per image spawned from the
    command's derived seed."""
    streams = np.random.default_rng(_derived_seeds(cfg)[command]).spawn(len(x_all))
    return [decide(params, x, cfg["noise"], *settings, stream, workers=cfg["workers"])
            for x, stream in zip(x_all, streams)]


def _cmd_predict(cfg: dict) -> int:
    params, dataset = _load_model(cfg)
    n, alpha = cfg["predict.n"], cfg["predict.alpha"]
    x_all, y_all = dataset.as_arrays()
    preds = _per_image(cfg, "predict", smoothed_predict, params, x_all, n, alpha)
    rows = [[i, int(y), p.predicted, float(p.p_value), int(p.predicted == ABSTAIN)]
            for i, (y, p) in enumerate(zip(y_all, preds))]
    _write_table(Path(cfg["out_dir"]) / "predictions.csv",
                 _header(cfg, "predict", n=n, alpha=alpha),
                 ["id", "label", "prediction", "p_value", "abstained"], rows)
    summary = _write_summary(
        cfg, "predict", n=n, alpha=alpha, num_images=len(dataset),
        draws=sum(p.num_samples for p in preds),
        accuracy=sum(pred == label for _, label, pred, _, _ in rows) / len(rows),
        abstention_rate=sum(abstained for *_, abstained in rows) / len(rows))
    print(f"predict: accuracy {summary['accuracy']:.3f}, "
          f"abstention rate {summary['abstention_rate']:.3f} over {len(dataset)} images")
    return 0


def _cmd_certify(cfg: dict) -> int:
    params, dataset = _load_model(cfg)
    n0, n, alpha = cfg["certify.n0"], cfg["certify.n"], cfg["certify.alpha"]
    x_all, y_all = dataset.as_arrays()
    base_predictions = np.argmax(params.forward_batch(x_all), axis=1)
    certs = _per_image(cfg, "certify", certify, params, x_all, n0, n, alpha)
    rows = [dict(zip(_CERTIFY_COLUMNS, (i, int(y), int(base), c.predicted, float(c.p_lower),
                                        c.rho2, int(c.predicted == ABSTAIN))))
            for i, (y, base, c) in enumerate(zip(y_all, base_predictions, certs))]
    _write_table(Path(cfg["out_dir"]) / "certificates.csv",
                 _header(cfg, "certify", n0=n0, n=n, alpha=alpha, num_classes=params.num_classes),
                 _CERTIFY_COLUMNS, map(dict.values, rows))
    summary = _write_summary(cfg, "certify", n0=n0, n=n, alpha=alpha, num_images=len(dataset),
                             **_certify_stats(rows))
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
    meta = _header(cfg, "attack", iterations=acfg.iterations,
                   gradient_samples=acfg.gradient_samples, predict_samples=acfg.predict_samples)
    out = Path(cfg["out_dir"])
    _write_table(out / "attack_curve.csv", meta, ["radius", "accuracy"], curve)
    _write_table(out / "attack_results.csv", meta,
                 ["id", "label", "clean_correct", "success", "budget",
                  "first_iteration", "oracle_radius"],
                 [[i, int(label), int(res.clean_correct), int(res.success), float(res.budget),
                   res.iteration, res.oracle_radius]
                  for i, (label, res) in enumerate(zip(dataset.labels, results))])
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


def _read_table(path: Path) -> tuple[dict, list[str], dict[int, list[str]]]:
    """A table's metadata, column names, and each nonblank row's cells by line number."""
    try:
        with open(path, encoding="utf-8") as fh:
            first = fh.readline()
            if not first.startswith("#"):
                raise SystemExit(f"error: {path} lacks the `# key=value` metadata line")
            meta = dict(tok.split("=", 1) for tok in first[1:].split())
            header = fh.readline().strip().split(",")
            rows = {k: line.split(",") for k, line in enumerate(map(str.strip, fh), 3) if line}
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a token without "="
        raise SystemExit(f"error: cannot read table {path}: {exc}")
    return meta, header, rows


def _cmd_report(cfg: dict, tables: list[Path]) -> int:
    entries = []
    for path in tables:
        meta, columns, rows = _read_table(path)
        if meta.get("command") != "certify":
            raise SystemExit(f"error: {path} is not a certify table")
        if not rows:
            raise SystemExit(f"error: {path} holds no rows")
        try:  # each setting by the rule of the config key that sets it
            run_cfg = {key: _check_value(key, kind, kind(meta[key.split(".")[-1]]), rule)
                       for key, (kind, rule, _) in _SCHEMA.items() if key in _CERTIFY_SETTINGS}
            k = _check_value("num_classes", int, int(meta["num_classes"]), AT_LEAST_2)
        except (KeyError, ValueError) as exc:
            raise SystemExit(f"error: {path} has malformed metadata ({exc!r})")
        label = (f"in [0, {k})", lambda v: 0 <= v < k)
        class_cells = {"label": label, "base_prediction": label, "prediction": (
            f"in [0, {k}) or {ABSTAIN}", lambda v: v == ABSTAIN or 0 <= v < k)}
        # A row refuses the table unless its class cells are class indices (or
        # ABSTAIN, for a prediction) and it is the certificate certify derives from its p_lower.
        for line, cells in rows.items():
            try:
                if len(cells) != len(columns):
                    raise ValueError(f"{len(cells)} cells under {len(columns)} columns")
                r = rows[line] = dict(zip(columns, cells))
                for name, rule in class_cells.items():
                    r[name] = _check_value(name, int, int(r[name]), rule)
                rho2 = radius_from_plower(float(r["p_lower"]), run_cfg["sigma"],
                                          _SCHEME_MAP[run_cfg["scheme"]])
                abstains = rho2 is None  # exactly when p_lower <= 1/2
                if ((r["rho2"] != "" if abstains else
                     not math.isclose(float(r["rho2"]), rho2, rel_tol=1e-12))
                        or int(r["abstained"]) != abstains
                        or (r["prediction"] == ABSTAIN) != abstains):
                    raise ValueError(f"its rho2, prediction and abstained cells are not "
                                     f"the certificate of p_lower {r['p_lower']}")
                r.update(rho2=rho2, id=r["id"])
            except (KeyError, ValueError) as exc:
                raise SystemExit(f"error: {path} line {line} is malformed ({exc!r})")
        entries.append({"scheme": run_cfg["scheme"], "sigma": run_cfg["sigma"],
                        "seed": run_cfg["seed"], "num_images": len(rows),
                        **_certify_stats(list(rows.values()))})
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


_MODEL = {"out_dir": "directory for outputs", "scheme": "noise scheme: flow or pixel",
          "sigma": "noise standard deviation (> 0)", "checkpoint": "model checkpoint path (.npz)"}
_WORKERS = {"workers": "sampling worker threads"}

# Each command: its handler, its help, and the config keys its flags set,
# each with its flag's help.  Every command also takes --config and --seed;
# oracle-check's --pairs and report's tables are added by _build_parser.
_COMMANDS = {
    "train": (_cmd_train, "train a base classifier under smoothing noise",
              {**_MODEL, "train.epochs": "training epochs"}),
    "predict": (_cmd_predict, "smoothed predictions on the test split", {
        **_MODEL, **_WORKERS,
        "predict.n": "prediction sample cap; the decision is the n-draw test's",
        "predict.alpha": "abstention significance level"}),
    "certify": (_cmd_certify, "certified radii on the test split", {
        **_MODEL, **_WORKERS, "certify.n0": "class-guess sample count",
        "certify.n": "bound sample count", "certify.alpha": "confidence level alpha"}),
    "attack": (_cmd_attack, "flow-domain PGD attack curve on the test split", {
        **_MODEL, "attack.radii": "comma-separated L1 budgets, e.g. 0,0.005,0.01",
        "attack.max_images": "attack at most this many test images"}),
    "oracle-check": (_cmd_oracle_check, "cross-validate the transport oracles", {}),
    "report": (_cmd_report, "merge certify tables into a comparison report",
               {"out_dir": _MODEL["out_dir"]}),
}


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per _COMMANDS entry.  A key's flag is its last part
    with "-" for "_" (train.epochs -> --epochs), and its dest is the key."""
    parser = argparse.ArgumentParser(
        prog="wsmooth",
        description="Wasserstein-smoothed classification: train, certify, attack.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, about, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=about)
        p.add_argument("--config", type=Path, help="JSON settings file")
        for key, flag_help in {"seed": "master seed for all randomness", **flags}.items():
            kind = _SCHEMA[key][0]
            p.add_argument("--" + key.split(".")[-1].replace("_", "-"), dest=key,
                           type=_number_list if kind == [float] else kind, help=flag_help)
    sub.choices["oracle-check"].add_argument("--pairs", type=int, default=50,
                                             help="random image pairs per property")
    sub.choices["report"].add_argument("tables", nargs="+", type=Path,
                                       help="certificates.csv files to merge")
    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    extras = {k: v for k, v in vars(args).items()  # --pairs, tables
              if k not in _SCHEMA.keys() | {"command", "config"}}
    return _COMMANDS[args.command][0](_merge_config(args), **extras)


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
