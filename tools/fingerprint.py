"""Fixed-seed fingerprint of wsmooth's outputs, for refactors that must not
change a single bit.

    python tools/fingerprint.py OUT.pkl          # record every case
    python tools/fingerprint.py --compare A B    # exit 1 on any difference

Library cases call the package's public names; ``cli/...`` cases run the
train/predict/certify/attack/report commands on a tiny fixed config in a
temporary directory and record the bytes of every file they write and what
they print.

The package is imported from PYTHONPATH when it is set there, otherwise from
the ``src`` directory next to this script, so one copy of the tool can
fingerprint any checkout:

    PYTHONPATH=/path/to/other/checkout/src python tools/fingerprint.py other.pkl

Every case uses arrays and public names only, except the ``sampler/...``
cases, which record smoothing._edge_noise itself so that a change of the
random stream shows up under its own name.  Outputs are reduced to plain
Python values and numpy arrays and compared exactly: equal dtype, shape and
bits for arrays, ``==`` for everything else.  Compare only files this tool
wrote: loading a pickle can run arbitrary code.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import pickle
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

import wsmooth  # noqa: E402
from wsmooth import (  # noqa: E402
    AttackConfig,
    NoiseSpec,
    TrainConfig,
    apply_flow,
    certify,
    flow_from_edge,
    flow_pgd_attack,
    init_params,
    make_dataset,
    robustness_curve,
    run_oracle_checks,
    smoothed_predict,
    synthetic_dataset,
    train,
    wasserstein_grid_l1,
    wasserstein_lp,
)
from wsmooth.smoothing import _edge_noise  # noqa: E402

FLOW = "wasserstein_flow"
PIXEL = "laplace_pixel"

def _plain(value):
    """Reduce library results to numpy arrays and plain Python values."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
        return (type(value).__name__, fields)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return np.array(value)
    if isinstance(value, np.generic):
        return value.item()
    return value


def _dataset(ds):
    x, y = ds.as_arrays()
    return {"x": x, "y": y, "num_classes": ds.num_classes}


def _unit(rng, shape):
    a = rng.random(shape)
    return a / a.sum()


def cases() -> dict:
    out = {}
    train_ds = synthetic_dataset("corners", 80, (6, 6), seed=11)
    test_ds = synthetic_dataset("corners", 6, (6, 6), seed=12)
    out["dataset/corners"] = _dataset(train_ds)
    out["dataset/bars"] = _dataset(synthetic_dataset("bars", 20, (5, 7), seed=3))
    out["dataset/blobs"] = _dataset(synthetic_dataset("blobs", 20, (6, 5), seed=4))
    out["dataset/subset"] = _dataset(train_ds.subset([5, 0, 5, 79]))
    raw = np.random.default_rng(5).integers(0, 256, size=(7, 4, 5), dtype=np.uint8)
    out["make_dataset/idx_bytes"] = _dataset(make_dataset(raw, np.arange(7) % 3, label_base=0))

    for scheme in (FLOW, PIXEL):
        out[f"sampler/{scheme}/1x28x28"] = _edge_noise(
            NoiseSpec(scheme, 0.05), (1, 28, 28), 8, np.random.default_rng(61))

    models = {}
    for scheme in (FLOW, PIXEL):
        cfg = TrainConfig(epochs=15, batch_size=16, learning_rate=0.5, weight_decay=1e-4,
                          noise=scheme, sigma=0.05, seed=21)
        res = train(train_ds, cfg, hidden=8 if scheme == PIXEL else None)
        models[scheme] = res.params
        out[f"train/{scheme}"] = _plain(res)
    # Three channels, and a last minibatch of 7 after two of 8.
    raw3 = np.random.default_rng(22).random((23, 3, 4, 5))
    out["train/ragged/3ch"] = _plain(train(
        make_dataset(raw3, np.arange(23) % 2, label_base=0),
        TrainConfig(epochs=4, batch_size=8, learning_rate=0.5, noise=FLOW, sigma=0.05,
                    seed=23), hidden=6))

    x_all, y_all = test_ds.as_arrays()
    for scheme, params in models.items():
        spec = NoiseSpec(scheme, 0.05)
        for workers in (1, 2):
            for i in range(3):
                seed = 100 + i
                out[f"predict/{scheme}/w{workers}/{i}"] = _plain(smoothed_predict(
                    params, x_all[i], spec, 2500, 0.05, np.random.default_rng(seed),
                    workers=workers))
                out[f"certify/{scheme}/w{workers}/{i}"] = _plain(certify(
                    params, x_all[i], spec, 200, 2500, 0.05, np.random.default_rng(seed),
                    workers=workers))

    # Where smoothed_predict stops drawing: a near-unanimous image and an
    # abstaining blend of two classes, at a cap of ten batches.
    flow_spec = NoiseSpec(FLOW, 0.05)
    for name, x, seed in (("unanimous", x_all[0], 300),
                          ("abstain", 0.5 * (x_all[0] + x_all[5]), 301)):
        pred = smoothed_predict(models[FLOW], x, flow_spec, 10000, 0.05,
                                np.random.default_rng(seed))
        out[f"predict/stop/{name}"] = [pred.predicted, pred.num_samples, pred.top_counts]

    acfg = AttackConfig(iterations=12, gradient_samples=32, max_radius=0.5,
                        predict_samples=400)
    for i in range(2):
        out[f"attack/{i}"] = _plain(flow_pgd_attack(
            models[FLOW], x_all[i], int(y_all[i]), flow_spec, acfg, rng=31))
    rows, results = robustness_curve(
        models[FLOW], test_ds.subset([0, 1, 2]), flow_spec, [0.0, 0.1, 0.5], acfg, rng=31)
    out["robustness_curve"] = _plain((rows, results))

    rng = np.random.default_rng(41)
    x3 = _unit(rng, (3, 5, 5))
    params3 = init_params((3, 5, 5), 2, hidden=6, rng=np.random.default_rng(42))
    out["predict/3ch"] = _plain(smoothed_predict(
        params3, x3, flow_spec, 1500, 0.05, np.random.default_rng(43), workers=2))
    label3 = out["predict/3ch"][1]["predicted"]
    label3 = label3 if label3 > 0 else 1
    out["attack/3ch"] = _plain(flow_pgd_attack(
        params3, x3, label3, NoiseSpec(FLOW, 0.02),
        AttackConfig(iterations=10, gradient_samples=32, max_radius=0.5, step_size=0.2,
                     predict_samples=300), rng=44))
    # Weak random models that flip while every pixel stays nonnegative, so
    # the attack's exact oracle radius is computed on one and three channels.
    small_spec = NoiseSpec(FLOW, 0.01)
    small_cfg = AttackConfig(iterations=15, gradient_samples=16, max_radius=0.2,
                             step_size=0.02, predict_samples=300)
    for shape, seed in (((5, 5), 3), ((3, 5, 5), 2)):
        x = 0.5 + np.random.default_rng(60 + seed).random(shape)
        x /= x.sum()
        params = init_params(shape, 2, rng=np.random.default_rng(70 + seed))
        label = smoothed_predict(params, x, small_spec, 300, 0.05,
                                 np.random.default_rng(1)).predicted
        out[f"attack/oracle_radius/{len(shape)}d"] = _plain(
            flow_pgd_attack(params, x, label, small_spec, small_cfg, rng=5))

    rng = np.random.default_rng(52)
    for shape in ((1, 7), (5, 6), (28, 28)):
        edges = 0.01 * rng.normal(size=2 * shape[0] * shape[1] - shape[0] - shape[1])
        out[f"flow/apply/{shape[0]}x{shape[1]}"] = _plain(apply_flow(_unit(rng, shape), edges))

    rng = np.random.default_rng(51)
    for shape in ((4, 4), (3, 6), (1, 9), (12, 12)):
        a, b = _unit(rng, shape), _unit(rng, shape)
        key = f"{shape[0]}x{shape[1]}"
        distance, edge = wasserstein_grid_l1(a, b)
        out[f"grid_l1/{key}"] = _plain((distance, edge))
        out[f"min_flow_plan/{key}"] = _plain(flow_from_edge(edge))
        if a.size <= 64:
            distance, coupling = wasserstein_lp(a, b)
            out[f"lp/{key}"] = _plain((distance, coupling))
    weights = np.array([0.2, 0.3, 0.5])[:, None, None]
    a = weights * rng.dirichlet(np.ones(36), size=3).reshape(3, 6, 6)
    b = weights * rng.dirichlet(np.ones(36), size=3).reshape(3, 6, 6)
    out["per_channel_wasserstein"] = wasserstein_grid_l1(a, b)[0]
    out["run_oracle_checks"] = _plain(run_oracle_checks(num_pairs=6, seed=3))
    return out


CLI_CONFIG = {
    "seed": 3, "scheme": "flow", "sigma": 0.05,
    "dataset": {"kind": "blobs", "train_size": 40, "test_size": 5, "shape": [5, 5]},
    "train": {"epochs": 40, "batch_size": 16, "learning_rate": 0.5, "weight_decay": 0,
              "hidden": 4},
    "predict": {"n": 300, "alpha": 0.05},
    "certify": {"n0": 50, "n": 400, "alpha": 0.05},
    "attack": {"radii": [0.0, 0.02], "iterations": 6, "gradient_samples": 8,
               "predict_samples": 200, "growth_factor": 2},
}
CLI_COMMANDS = [
    ["train", "--out-dir", "flow"],
    ["predict", "--out-dir", "flow", "--workers", "2"],
    ["certify", "--out-dir", "flow", "--n0", "60"],
    ["attack", "--out-dir", "flow", "--radii", "0,0.03", "--max-images", "2"],
    ["train", "--out-dir", "pixel", "--scheme", "pixel", "--epochs", "30"],
    ["certify", "--out-dir", "pixel", "--scheme", "pixel", "--alpha", "0.1"],
    ["report", "--out-dir", "report", "flow/certificates.csv", "pixel/certificates.csv"],
]


def cli_cases() -> dict:
    """Run CLI_COMMANDS in a fresh directory; every file they leave, and
    each command's exit status and printed lines."""
    from wsmooth.cli import run

    out = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("config.json").write_text(json.dumps(CLI_CONFIG))
            for i, argv in enumerate(CLI_COMMANDS):
                printed = io.StringIO()
                with contextlib.redirect_stdout(printed):
                    status = run(argv + ["--config", "config.json"])
                out[f"cli/{i}/{argv[0]}"] = [status, printed.getvalue()]
            for path in sorted(Path(".").rglob("*")):
                if path.is_file():
                    out[f"cli/{path}"] = path.read_bytes()
        finally:
            os.chdir(home)
    return out


def _diff(a, b, path: str, found: list):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        same = (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b))
        if not same:
            found.append(path)
    elif isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b), key=str):
            if k not in a or k not in b:
                found.append(f"{path}/{k} (missing on one side)")
            else:
                _diff(a[k], b[k], f"{path}/{k}", found)
    elif isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            found.append(f"{path} (length {len(a)} vs {len(b)})")
        else:
            for i, (u, v) in enumerate(zip(a, b)):
                _diff(u, v, f"{path}[{i}]", found)
    elif type(a) is not type(b) or a != b:
        found.append(path)


def compare(path_a: Path, path_b: Path) -> int:
    with open(path_a, "rb") as fh:
        a = pickle.load(fh)["cases"]
    with open(path_b, "rb") as fh:
        b = pickle.load(fh)["cases"]
    failed = 0
    for name in sorted(set(a) | set(b)):
        found: list[str] = []
        if name not in a or name not in b:
            found.append("missing on one side")
        else:
            _diff(a[name], b[name], "", found)
        failed += bool(found)
        print(f"{'SAME' if not found else 'DIFF'} {name}" + (f": {found[:3]}" if found else ""))
    print(f"{len(set(a) | set(b)) - failed} identical, {failed} different")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", type=Path, help="pickle to write")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two fingerprints instead of recording one")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("give OUT.pkl or --compare A B")
    recorded = {**cases(), **cli_cases()}
    with open(args.out, "wb") as fh:
        pickle.dump({"package": wsmooth.__file__, "cases": recorded}, fh)
    print(f"{len(recorded)} cases from {wsmooth.__file__} written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
