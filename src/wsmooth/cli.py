"""Command-line front end: train noised base classifiers, predict and
certify with the smoothed classifier, attack it, cross-check the transport
oracles, and merge result tables.

Settings come from an optional JSON config file, overridden by flags
(flags beat the WSMOOTH_OUT_DIR environment variable, which beats the
config file).  All randomness derives from one master seed, and every
emitted table starts with a `# key=value ...` comment line recording the
settings that produced it, so reruns are byte-for-byte identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import classifier as clf
from . import dataset_io
from .attack import AttackConfig, robustness_curve
from .smoothing import (
    ABSTAIN,
    Certificate,
    CertificationRecord,
    NoiseSpec,
    certify,
    median_certified_radius,
    smoothed_predict,
)
from .transport_oracle import run_oracle_checks

_SCHEME_MAP = {"flow": "wasserstein_flow", "pixel": "laplace_pixel"}

_DEFAULT_DATASET = {"kind": "blobs", "train_size": 200, "test_size": 50, "shape": [6, 6]}

# Every key some command reads from a config file, with the keys each
# section may hold (None for a plain value).  One file serves all commands,
# so a key is known if any command reads it; anything else is a typo that
# would silently fall back to a default.
_CONFIG_KEYS = {
    "seed": None, "workers": None, "scheme": None, "sigma": None, "checkpoint": None,
    "out_dir": None,
    "dataset": {"kind", "train_size", "test_size", "shape"},
    "idx": {"train_images", "train_labels", "test_images", "test_labels", "num_classes",
            "label_base"},
    "train": {"epochs", "batch_size", "learning_rate", "momentum", "weight_decay", "hidden"},
    "predict": {"n", "alpha"},
    "certify": {"n0", "n", "alpha"},
    "attack": {"radii", "max_images", "iterations", "gradient_samples", "growth_factor",
               "growth_interval", "predict_samples", "predict_alpha"},
}


@dataclass
class RunConfig:
    """Merged settings for one command invocation."""

    command: str
    seed: int = 0
    out_dir: str = "runs"
    workers: int = 1
    scheme: str = "flow"
    sigma: float = 0.05
    checkpoint: str | None = None
    dataset: dict = field(default_factory=lambda: dict(_DEFAULT_DATASET))
    idx: dict | None = None
    train: dict = field(default_factory=dict)
    predict: dict = field(default_factory=dict)
    certify: dict = field(default_factory=dict)
    attack: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.scheme not in _SCHEME_MAP:
            raise SystemExit(f"error: scheme must be one of {sorted(_SCHEME_MAP)}, got {self.scheme!r}")
        if (isinstance(self.sigma, bool) or not isinstance(self.sigma, (int, float))
                or not math.isfinite(self.sigma)):
            raise SystemExit(f"error: sigma must be a finite number, got {self.sigma!r}")
        if self.command in ("train", "predict", "certify", "attack") and not self.sigma > 0:
            raise SystemExit(
                f"error: sigma must be > 0 (got {self.sigma!r}); "
                "smoothing with nonpositive noise certifies nothing"
            )
        for key in ("seed", "workers"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise SystemExit(f"error: {key} must be an integer, got {value!r}")
        if self.seed < 0:
            raise SystemExit(f"error: seed must be >= 0, got {self.seed!r}")
        if self.workers < 1:
            raise SystemExit("error: workers must be >= 1")

    @property
    def noise_spec(self) -> NoiseSpec:
        return NoiseSpec(_SCHEME_MAP[self.scheme], self.sigma)

    @property
    def checkpoint_path(self) -> Path:
        if self.checkpoint:
            return Path(self.checkpoint)
        return Path(self.out_dir) / f"model_{self.scheme}_sigma{self.sigma:g}.npz"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsmooth",
        description="Wasserstein-smoothed classification: train, certify, attack.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_noise=True):
        p.add_argument("--config", type=Path, help="JSON settings file")
        p.add_argument("--seed", type=int, help="master seed for all randomness")
        p.add_argument("--out-dir", help="directory for outputs")
        p.add_argument("--workers", type=int, help="sampling worker threads")
        if with_noise:
            p.add_argument("--scheme", choices=sorted(_SCHEME_MAP), help="noise scheme")
            p.add_argument("--sigma", type=float, help="noise standard deviation (> 0)")
            p.add_argument("--checkpoint", help="model checkpoint path (.npz)")

    p = sub.add_parser("train", help="train a base classifier under smoothing noise")
    add_common(p)
    p.add_argument("--epochs", type=int, help="training epochs")

    p = sub.add_parser("predict", help="smoothed predictions on the test split")
    add_common(p)
    p.add_argument("--n", type=int, help="prediction sample count")
    p.add_argument("--alpha", type=float, help="abstention significance level")

    p = sub.add_parser("certify", help="certified radii on the test split")
    add_common(p)
    p.add_argument("--n0", type=int, help="class-guess sample count")
    p.add_argument("--n", type=int, help="bound sample count")
    p.add_argument("--alpha", type=float, help="confidence level alpha")

    p = sub.add_parser("attack", help="flow-domain PGD attack curve on the test split")
    add_common(p)
    p.add_argument("--radii", help="comma-separated L1 budgets, e.g. 0,0.005,0.01")
    p.add_argument("--max-images", type=int, help="attack at most this many test images")

    p = sub.add_parser("oracle-check", help="cross-validate the transport oracles")
    add_common(p, with_noise=False)
    p.add_argument("--pairs", type=int, default=50, help="random image pairs per property")

    p = sub.add_parser("report", help="merge certify tables into a comparison report")
    add_common(p, with_noise=False)
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
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise SystemExit(f"error: config file {path} must hold a JSON object")
    return data


def _check_config_keys(cfg: dict, path: Path | None):
    for key, value in cfg.items():
        if key not in _CONFIG_KEYS:
            raise SystemExit(f"error: unknown config key {key!r} in {path}")
        allowed = _CONFIG_KEYS[key]
        if allowed is None:
            continue
        if not isinstance(value, dict):
            raise SystemExit(f"error: config key {key!r} in {path} must hold a JSON object")
        for sub in value:
            if sub not in allowed:
                raise SystemExit(f"error: unknown config key '{key}.{sub}' in {path}")


def _merge_config(args: argparse.Namespace) -> RunConfig:
    path = getattr(args, "config", None)
    file_cfg = _load_json(path)
    _check_config_keys(file_cfg, path)
    cfg = RunConfig(command=args.command)
    for key, value in file_cfg.items():
        setattr(cfg, key, value)
    env_out = os.environ.get("WSMOOTH_OUT_DIR")
    if env_out:
        cfg.out_dir = env_out
    for key in ("seed", "workers", "scheme", "sigma", "checkpoint"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    if getattr(args, "out_dir", None) is not None:
        cfg.out_dir = args.out_dir
    if getattr(args, "epochs", None) is not None:
        cfg.train = {**cfg.train, "epochs": args.epochs}
    if getattr(args, "n0", None) is not None:
        cfg.certify = {**cfg.certify, "n0": args.n0}
    if getattr(args, "n", None) is not None:
        cfg.certify = {**cfg.certify, "n": args.n}
        cfg.predict = {**cfg.predict, "n": args.n}
    if getattr(args, "alpha", None) is not None:
        cfg.certify = {**cfg.certify, "alpha": args.alpha}
        cfg.predict = {**cfg.predict, "alpha": args.alpha}
    if getattr(args, "radii", None) is not None:
        try:
            radii = [float(tok) for tok in str(args.radii).split(",") if tok.strip()]
        except ValueError:
            raise SystemExit(f"error: --radii must be comma-separated numbers, got {args.radii!r}")
        cfg.attack = {**cfg.attack, "radii": radii}
    if getattr(args, "max_images", None) is not None:
        cfg.attack = {**cfg.attack, "max_images": args.max_images}
    # Revalidate after overrides.
    cfg.__post_init__()
    return cfg


def _derived_seeds(cfg: RunConfig) -> dict[str, np.random.SeedSequence]:
    root = np.random.SeedSequence(cfg.seed)
    names = ("dataset_train", "dataset_test", "train", "predict", "certify", "attack")
    return dict(zip(names, root.spawn(len(names))))


def _load_split(cfg: RunConfig, split: str) -> dataset_io.LabeledDataset:
    """Build the train or test dataset from the config (synthetic or IDX)."""
    if cfg.idx:
        images = cfg.idx[f"{split}_images"]
        labels = cfg.idx[f"{split}_labels"]
        raw_x, raw_y = dataset_io.load_idx(images, labels)
        return dataset_io.make_dataset(
            raw_x, raw_y,
            num_classes=cfg.idx.get("num_classes"),
            label_base=cfg.idx.get("label_base", 0),
        )
    ds = dict(_DEFAULT_DATASET)
    ds.update(cfg.dataset)
    seeds = _derived_seeds(cfg)
    seed = seeds["dataset_train"] if split == "train" else seeds["dataset_test"]
    return dataset_io.synthetic_dataset(ds["kind"], ds[f"{split}_size"], tuple(ds["shape"]), seed=seed)


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


def _write_summary(path: Path, summary: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _meta(cfg: RunConfig, **extra) -> dict:
    base = {"command": cfg.command, "scheme": cfg.scheme, "sigma": _fmt(float(cfg.sigma)),
            "seed": cfg.seed}
    base.update(extra)
    return base


def _cmd_train(cfg: RunConfig) -> int:
    dataset = _load_split(cfg, "train")
    train_seed = int(np.random.default_rng(_derived_seeds(cfg)["train"]).integers(2**31))
    tc = clf.TrainConfig(
        epochs=int(cfg.train.get("epochs", 200)),
        batch_size=int(cfg.train.get("batch_size", 128)),
        learning_rate=float(cfg.train.get("learning_rate", 1e-3)),
        momentum=float(cfg.train.get("momentum", 0.9)),
        weight_decay=float(cfg.train.get("weight_decay", 5e-4)),
        noise=_SCHEME_MAP[cfg.scheme],
        sigma=float(cfg.sigma),
        seed=train_seed,
    )
    hidden = cfg.train.get("hidden")
    result = clf.train(dataset, tc, hidden=int(hidden) if hidden else None)
    ckpt = cfg.checkpoint_path
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    clf.save_checkpoint(ckpt, result.params, tc)
    train_acc = clf.accuracy(result.params, dataset)
    final_loss = result.epoch_losses[-1]
    # A uniform guess over K classes scores cross-entropy ln K; NaN or inf
    # compares false, so a diverged run is flagged too.
    chance = math.log(dataset.num_classes)
    at_chance = not final_loss < chance
    summary = {
        "command": "train", "scheme": cfg.scheme, "sigma": cfg.sigma, "seed": cfg.seed,
        "num_images": len(dataset), "epochs": tc.epochs,
        "final_loss": final_loss, "train_accuracy": train_acc,
        "loss_at_or_above_chance": at_chance, "checkpoint": str(ckpt),
    }
    _write_summary(Path(cfg.out_dir) / "train_summary.json", summary)
    print(f"train: {len(dataset)} images, {tc.epochs} epochs, "
          f"final loss {final_loss:.6f}, train accuracy {train_acc:.3f}")
    if at_chance:
        print(f"warning: final loss {final_loss:.6f} is not below ln {dataset.num_classes} = "
              f"{chance:.6f}; the classifier is no better than chance")
    print(f"checkpoint written to {ckpt}")
    return 0


def _load_model(cfg: RunConfig) -> clf.ClassifierParams:
    ckpt = cfg.checkpoint_path
    if not ckpt.exists():
        raise SystemExit(f"error: checkpoint {ckpt} not found; run `wsmooth train` first")
    params, _ = clf.load_checkpoint(ckpt)
    return params


def _cmd_predict(cfg: RunConfig) -> int:
    dataset = _load_split(cfg, "test")
    params = _load_model(cfg)
    n = int(cfg.predict.get("n", 10000))
    alpha = float(cfg.predict.get("alpha", 0.05))
    rng = np.random.default_rng(_derived_seeds(cfg)["predict"])
    streams = rng.spawn(len(dataset))
    x_all, y_all = dataset.as_arrays()
    rows = []
    hits = 0
    abstentions = 0
    for i in range(len(dataset)):
        pred = smoothed_predict(params, x_all[i], cfg.noise_spec, n, alpha, streams[i],
                                workers=cfg.workers)
        abstained = int(pred.predicted == ABSTAIN)
        abstentions += abstained
        hits += int(pred.predicted == int(y_all[i]))
        rows.append([i, int(y_all[i]), pred.predicted, float(pred.p_value), abstained])
    meta = _meta(cfg, n=n, alpha=_fmt(alpha))
    out = Path(cfg.out_dir)
    _write_table(out / "predictions.csv", meta,
                 ["id", "label", "prediction", "p_value", "abstained"], rows)
    summary = {
        "command": "predict", "scheme": cfg.scheme, "sigma": cfg.sigma, "seed": cfg.seed,
        "n": n, "alpha": alpha, "num_images": len(dataset),
        "accuracy": hits / len(dataset), "abstention_rate": abstentions / len(dataset),
    }
    _write_summary(out / "predict_summary.json", summary)
    print(f"predict: accuracy {summary['accuracy']:.3f}, "
          f"abstention rate {summary['abstention_rate']:.3f} over {len(dataset)} images")
    return 0


def _cmd_certify(cfg: RunConfig) -> int:
    dataset = _load_split(cfg, "test")
    params = _load_model(cfg)
    n0 = int(cfg.certify.get("n0", 1000))
    n = int(cfg.certify.get("n", 10000))
    alpha = float(cfg.certify.get("alpha", 0.05))
    rng = np.random.default_rng(_derived_seeds(cfg)["certify"])
    streams = rng.spawn(len(dataset))
    x_all, y_all = dataset.as_arrays()
    rows = []
    records = []
    hits = 0
    abstentions = 0
    base_hits = 0
    for i in range(len(dataset)):
        cert = certify(params, x_all[i], cfg.noise_spec, n0, n, alpha, streams[i],
                       workers=cfg.workers)
        label = int(y_all[i])
        records.append(CertificationRecord(i, label, cert))
        base_pred = int(np.argmax(params.forward_batch(x_all[i][None])[0])) + 1
        base_hits += int(base_pred == label)
        abstained = int(cert.predicted == ABSTAIN)
        abstentions += abstained
        hits += int(cert.predicted == label)
        rows.append([i, label, base_pred, cert.predicted, float(cert.p_lower),
                     cert.rho2, abstained])
    median = median_certified_radius(records)
    meta = _meta(cfg, n0=n0, n=n, alpha=_fmt(alpha))
    out = Path(cfg.out_dir)
    _write_table(out / "certificates.csv", meta,
                 ["id", "label", "base_prediction", "prediction", "p_lower", "rho2", "abstained"],
                 rows)
    summary = {
        "command": "certify", "scheme": cfg.scheme, "sigma": cfg.sigma, "seed": cfg.seed,
        "n0": n0, "n": n, "alpha": alpha, "num_images": len(dataset),
        "base_accuracy": base_hits / len(dataset),
        "accuracy": hits / len(dataset),
        "abstention_rate": abstentions / len(dataset),
        "median_certified_radius": median,
    }
    _write_summary(out / "certify_summary.json", summary)
    med = "not certified" if median is None else f"{median:.6f}"
    print(f"certify: accuracy {summary['accuracy']:.3f}, "
          f"abstention rate {summary['abstention_rate']:.3f}, "
          f"median certified radius {med} over {len(dataset)} images")
    return 0


def _cmd_attack(cfg: RunConfig) -> int:
    dataset = _load_split(cfg, "test")
    params = _load_model(cfg)
    acfg_dict = dict(cfg.attack)
    radii = [float(r) for r in acfg_dict.pop("radii", [0.0, 0.005, 0.01, 0.02])]
    max_images = acfg_dict.pop("max_images", None)
    if max_images is not None:
        dataset = dataset.subset(np.arange(min(int(max_images), len(dataset))))
    attack_seed = int(np.random.default_rng(_derived_seeds(cfg)["attack"]).integers(2**31))
    acfg = AttackConfig(
        iterations=int(acfg_dict.get("iterations", 200)),
        gradient_samples=int(acfg_dict.get("gradient_samples", 128)),
        max_radius=max(radii) if radii and max(radii) > 0 else 1.0,
        growth_factor=float(acfg_dict.get("growth_factor", 1.5)),
        growth_interval=int(acfg_dict.get("growth_interval", 10)),
        predict_samples=int(acfg_dict.get("predict_samples", 10000)),
        predict_alpha=float(acfg_dict.get("predict_alpha", 0.05)),
        seed=attack_seed,
    )
    curve, results = robustness_curve(params, dataset, cfg.noise_spec, radii, acfg)
    meta = _meta(cfg, iterations=acfg.iterations, gradient_samples=acfg.gradient_samples,
                 predict_samples=acfg.predict_samples)
    out = Path(cfg.out_dir)
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
    clean_acc = float(np.mean([r.clean_correct for r in results]))
    summary = {
        "command": "attack", "scheme": cfg.scheme, "sigma": cfg.sigma, "seed": cfg.seed,
        "num_images": len(dataset), "radii": radii,
        "clean_accuracy": clean_acc,
        "curve": {repr(float(rho)): acc for rho, acc in curve},
    }
    _write_summary(out / "attack_summary.json", summary)
    for rho, acc in curve:
        print(f"attack: accuracy {acc:.3f} at L1 budget {rho:g}")
    return 0


def _cmd_oracle_check(cfg: RunConfig, pairs: int) -> int:
    outcomes = run_oracle_checks(num_pairs=pairs, seed=cfg.seed)
    failed = 0
    for oc in outcomes:
        status = "PASS" if oc.passed else "FAIL"
        failed += int(not oc.passed)
        print(f"{status} {oc.name}: max residual {oc.max_residual:.3e} (tolerance {oc.tolerance:g})")
    if failed:
        print(f"{failed} oracle properties failed")
        return 1
    print(f"all {len(outcomes)} oracle properties hold over {pairs} random pairs (seed {cfg.seed})")
    return 0


def _read_table(path: Path) -> tuple[dict, list[dict]]:
    with open(path) as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise SystemExit(f"error: {path} lacks the `# key=value` metadata line")
        meta = dict(tok.split("=", 1) for tok in first[1:].split())
        header = fh.readline().strip().split(",")
        rows = []
        for line in fh:
            line = line.strip()
            if line:
                rows.append(dict(zip(header, line.split(","))))
    return meta, rows


def _cmd_report(cfg: RunConfig, tables: list[Path]) -> int:
    entries = []
    for path in tables:
        meta, rows = _read_table(path)
        if meta.get("command") != "certify":
            raise SystemExit(f"error: {path} is not a certify table")
        if not rows:
            raise SystemExit(f"error: {path} holds no rows")
        # Recompute every summary statistic from the per-image rows.
        try:
            spec = NoiseSpec(_SCHEME_MAP[meta["scheme"]], float(meta["sigma"]))
            records = [CertificationRecord(r["id"], int(r["label"]), Certificate(
                int(r["prediction"]), float(r["p_lower"]), float(r["rho2"]) if r["rho2"] else None,
                spec, int(meta["n0"]), int(meta["n"]), float(meta["alpha"]))) for r in rows]
        except (KeyError, ValueError) as exc:
            raise SystemExit(f"error: {path} has malformed metadata or rows ({exc!r})")
        correct = sum(rec.correct for rec in records)
        abstained = sum(rec.certificate.predicted == ABSTAIN for rec in records)
        base_hits = sum(1 for r in rows if r.get("base_prediction") == r["label"])
        median = median_certified_radius(records)
        entries.append({
            "scheme": meta["scheme"],
            "sigma": spec.sigma,
            "seed": meta.get("seed", "?"),
            "num_images": len(rows),
            "base_accuracy": base_hits / len(rows),
            "accuracy": correct / len(rows),
            "abstention_rate": abstained / len(rows),
            "median_certified_radius": median,
        })
    entries.sort(key=lambda e: (e["scheme"], e["sigma"]))
    out = Path(cfg.out_dir)
    header = ["scheme", "sigma", "seed", "num_images", "base_accuracy", "accuracy",
              "abstention_rate", "median_certified_radius"]
    _write_table(out / "report.csv", {"command": "report", "seed": cfg.seed}, header,
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
    if args.command == "train":
        return _cmd_train(cfg)
    if args.command == "predict":
        return _cmd_predict(cfg)
    if args.command == "certify":
        return _cmd_certify(cfg)
    if args.command == "attack":
        return _cmd_attack(cfg)
    if args.command == "oracle-check":
        return _cmd_oracle_check(cfg, args.pairs)
    if args.command == "report":
        return _cmd_report(cfg, args.tables)
    raise SystemExit(f"error: unknown command {args.command!r}")


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
