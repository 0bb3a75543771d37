"""Fixed-seed fingerprint of wsmooth's outputs, for refactors that must not
change a single bit.

    python tools/fingerprint.py OUT.pkl          # record every case
    python tools/fingerprint.py --compare A B    # exit 1 on any difference

Library cases call the package's public names; ``cli/...`` cases run the
train/predict/certify/attack/report commands on a tiny fixed config in a
temporary directory and record the bytes of every file they write and what
they print, and ``cli/schema`` records each config key's type name, range
words and default.  ``errors/...`` cases feed one bad input per refusal
rule and record the message and whether the exception is a ValueError, the
type the CLI turns into its one-line ``error:`` exit; ``errors/report/...``
record that line for each certify table ``report`` refuses.

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
import struct
import sys
import tempfile
import zipfile
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

import wsmooth  # noqa: E402
from wsmooth import (  # noqa: E402
    ABSTAIN,
    AttackConfig,
    ClassifierParams,
    LabeledDataset,
    NoiseSpec,
    RawGrid,
    TrainConfig,
    apply_flow,
    certify,
    flow_from_edge,
    flow_pgd_attack,
    init_params,
    load_checkpoint,
    load_idx,
    loss_and_gradients,
    make_dataset,
    median_certified_radius,
    prediction_from_counts,
    project_l1_ball,
    robustness_curve,
    run_oracle_checks,
    save_checkpoint,
    smoothed_predict,
    solve_flow_1d,
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


def _idx_roundtrip(images, labels):
    """Write an unsigned-byte IDX image/label pair, then load_idx -> make_dataset."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, a in (("images", images), ("labels", labels)):
            path = Path(tmp) / name
            path.write_bytes(struct.pack(f">{1 + a.ndim}i", 0x800 + a.ndim, *a.shape)
                             + a.tobytes())
            paths.append(path)
        return _dataset(make_dataset(*load_idx(*paths)))


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
    out["make_dataset/idx_bytes"] = _dataset(make_dataset(raw, np.arange(7) % 3))
    out["load_idx/roundtrip"] = _idx_roundtrip(raw, np.arange(7, dtype=np.uint8) % 3)

    for scheme in (FLOW, PIXEL):
        out[f"sampler/{scheme}/1x28x28"] = _edge_noise(
            NoiseSpec(scheme, 0.05), (1, 28, 28), 8, np.random.default_rng(61))

    models = {}
    for scheme in (FLOW, PIXEL):
        cfg = TrainConfig(epochs=15, batch_size=16, learning_rate=0.5, weight_decay=1e-4,
                          noise=scheme, sigma=0.05, seed=21, hidden=8 if scheme == PIXEL else None)
        res = train(train_ds, cfg)
        models[scheme] = res.params
        out[f"train/{scheme}"] = _plain(res)
    # Three channels, and a last minibatch of 7 after two of 8.
    raw3 = np.random.default_rng(22).random((23, 3, 4, 5))
    out["train/ragged/3ch"] = _plain(train(
        make_dataset(raw3, np.arange(23) % 2),
        TrainConfig(epochs=4, batch_size=8, learning_rate=0.5, noise=FLOW, sigma=0.05,
                    seed=23, hidden=6)))

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
    # Pixel noise pulls each gradient back through D^T; a hidden layer of 8.
    out[f"attack/{PIXEL}"] = _plain(flow_pgd_attack(
        models[PIXEL], x_all[0], int(y_all[0]), NoiseSpec(PIXEL, 0.05), acfg, rng=31))
    # Growth every iteration takes the curve's schedule to its largest radius.
    rows, results = robustness_curve(
        models[FLOW], test_ds.subset([0, 1, 2]), flow_spec, [0.0, 0.1, 0.5],
        dataclasses.replace(acfg, growth_interval=1), rng=31)
    out["robustness_curve"] = _plain((rows, results))
    # One image per outcome on a top-vs-bottom linear classifier: a wrong
    # clean prediction, an image broken at iteration 6 and a survivor.
    weights = np.zeros((16, 2))
    weights[:8, 0] = weights[8:, 1] = 50.0
    split = np.zeros((3, 4, 4))
    for image, top in zip(split, (0.56, 0.56, 0.9)):
        image[1], image[2] = top / 4, (1 - top) / 4
    halves = ClassifierParams((4, 4), [weights], [np.zeros(2)])
    split_ds = make_dataset(split, [1, 0, 0], 2)
    outcomes_cfg = AttackConfig(iterations=20, gradient_samples=32, growth_interval=1,
                                predict_samples=400)
    out["robustness_curve/outcomes"] = _plain(robustness_curve(
        halves, split_ds, flow_spec, [0.0, 0.05, 0.1], outcomes_cfg, rng=7))
    # Radii of only 0: the clean predictions, no attack.
    out["robustness_curve/zero_radius"] = _plain(robustness_curve(
        halves, split_ds, flow_spec, [0.0], outcomes_cfg, rng=7))

    rng = np.random.default_rng(41)
    x3 = _unit(rng, (3, 5, 5))
    params3 = init_params((3, 5, 5), 2, hidden=6, rng=np.random.default_rng(42))
    out["predict/3ch"] = _plain(smoothed_predict(
        params3, x3, flow_spec, 1500, 0.05, np.random.default_rng(43), workers=2))
    label3 = out["predict/3ch"][1]["predicted"]
    label3 = label3 if label3 != ABSTAIN else 0
    out["attack/3ch"] = _plain(flow_pgd_attack(
        params3, x3, label3, NoiseSpec(FLOW, 0.02),
        AttackConfig(iterations=10, gradient_samples=32, max_radius=0.5, predict_samples=300),
        rng=44))
    # A one-pixel grid has no edges: flow noise draws nothing.
    for shape in ((1, 1), (3, 1, 1)):
        params = init_params(shape, 2, rng=np.random.default_rng(45))
        out[f"certify/edge_free/{'x'.join(map(str, shape))}"] = _plain(certify(
            params, np.full(shape, 1 / np.prod(shape)), flow_spec, 10, 100, 0.05,
            np.random.default_rng(46)))
    # Weak random models that flip while every pixel stays nonnegative, so
    # the attack's exact oracle radius is computed on one and three channels.
    small_spec = NoiseSpec(FLOW, 0.01)
    small_cfg = AttackConfig(iterations=15, gradient_samples=16, max_radius=0.2,
                             predict_samples=300)
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
    out["flow/apply/3x5x6"] = _plain(apply_flow(_unit(rng, (3, 5, 6)),
                                                0.01 * rng.normal(size=3 * 49)))

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


def _refusal(call):
    """The message of what ``call`` raised and whether it is a ValueError,
    or None if it returned."""
    try:
        call()
    except Exception as exc:  # the type is part of what is recorded
        return [str(exc), isinstance(exc, ValueError)]
    return None


def _flip_member_byte(raw: bytes, member: str, at_start: bool = False) -> bytes:
    """raw with one byte of an archive member's stored data inverted: in the
    middle, which a stored member fails by its CRC, or at the start, where a
    deflated member's first block header fails to inflate."""
    with zipfile.ZipFile(io.BytesIO(raw)) as zf:
        info = zf.getinfo(member)
    out, header = bytearray(raw), info.header_offset
    name_len, extra_len = struct.unpack("<HH", out[header + 26:header + 30])
    out[header + 30 + name_len + extra_len + (0 if at_start else info.compress_size // 2)] ^= 0xFF
    return bytes(out)


def error_cases() -> dict:
    """One bad input per refusal rule.  The IDX and checkpoint files are read
    by relative name from a temporary directory, so their messages do not
    depend on it."""
    images = struct.pack(">iiii", 0x803, 3, 2, 2) + bytes(12)
    labels = struct.pack(">ii", 0x801, 3) + bytes(3)
    idx = {"magic": (struct.pack(">iiii", 0x801, 1, 1, 1) + b"\0", labels),
           "dimensions": (struct.pack(">iiii", 0x803, 1, -1, 2), labels),
           "header": (images, b"\0\0"),
           "payload": (images[:-1], labels),
           "trailing": (images, labels + b"\0"),
           "pairing": (images, struct.pack(">ii", 0x801, 2) + bytes(2))}
    npy, npz, stored, deflated = io.BytesIO(), io.BytesIO(), io.BytesIO(), io.BytesIO()
    np.save(npy, np.zeros((4, 2)))
    np.savez(npz, w0=np.zeros((4, 2)), b0=np.zeros(2))
    members = {"meta": np.array("{}"), "w0": np.zeros((25, 2)), "b0": np.zeros(2)}
    np.savez(stored, **members)
    np.savez_compressed(deflated, **members)
    checkpoints = {"empty": b"", "npy": npy.getvalue(), "no_meta": npz.getvalue(),
                   "not_zip": npz.getvalue()[:40],
                   "bad_crc": _flip_member_byte(stored.getvalue(), "w0.npy"),
                   "bad_inflate": _flip_member_byte(deflated.getvalue(), "meta.npy", at_start=True)}
    out = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for rule, (raw_images, raw_labels) in idx.items():
                Path("images.idx").write_bytes(raw_images)
                Path("labels.idx").write_bytes(raw_labels)
                out[f"errors/idx/{rule}"] = _refusal(lambda: load_idx("images.idx", "labels.idx"))
            for rule, raw in checkpoints.items():
                Path("model.npz").write_bytes(raw)
                out[f"errors/checkpoint/{rule}"] = _refusal(lambda: load_checkpoint("model.npz"))
        finally:
            os.chdir(home)
    quarter = np.full((2, 2), 0.25)
    negative = np.array([[0.75, 0.5], [0.0, -0.25]])
    overflow, inf_pair = np.array([[1e308, 1e308], [0, 0]]), np.array([[np.inf, -np.inf], [1, 0]])
    params = init_params((3, 3), 2, rng=np.random.default_rng(0))
    ninth, spec = np.full((3, 3), 1 / 9), NoiseSpec(FLOW, 0.1)
    diverged = init_params((3, 3), 2, rng=np.random.default_rng(0))
    diverged.weights[0][0, 0] = np.nan  # as training leaves a diverged run's arrays
    refusals = {
        "pairing/make_dataset": lambda: make_dataset(np.ones((3, 2, 2)), [0, 1]),
        "pairing/dataset": lambda: LabeledDataset(np.full((3, 2, 2), 0.25), [0, 1], 2),
        "pairing/backward": lambda: loss_and_gradients(params, np.zeros((2, 3, 3)), [0]),
        "raw/negative": lambda: make_dataset([[[1.0, -0.5]]], [0], 2),
        "raw/non_finite": lambda: make_dataset([[[1.0, np.nan]]], [0], 2),
        "raw/overflow": lambda: make_dataset(np.full((1, 2, 2), 1e308), [0], 2),
        "zero_mass": lambda: make_dataset(np.zeros((2, 2, 2)), [0, 1]),
        "unit_mass/negative": lambda: LabeledDataset(np.stack([quarter, negative]), [0, 1], 2),
        "unit_mass/total": lambda: wasserstein_grid_l1(quarter, np.full((2, 2), 0.3)),
        "unit_mass/nan": lambda: solve_flow_1d([0.5, 0.5], [0.5, np.nan]),
        "unit_mass/raw_grid": lambda: RawGrid(np.full((2, 2), 0.3)),
        "stack_shape": lambda: LabeledDataset(np.full((2, 4), 0.25), [0, 1], 2),
        "shape/pair": lambda: wasserstein_lp(quarter, np.full((1, 4), 0.25)),
        "shape/flow": lambda: apply_flow(quarter, np.zeros(5)),
        "width/batch": lambda: params.forward_batch(np.zeros((1, 4, 4))),
        "width/image": lambda: smoothed_predict(params, quarter, NoiseSpec(FLOW, 0.1), 10),
        "layer_chain": lambda: ClassifierParams((2, 2), [np.zeros((4, 3))], [np.zeros(2)]),
        "lp_cap": lambda: wasserstein_lp(np.full((9, 9), 1 / 81), np.full((9, 9), 1 / 81)),
        "channel_mass": lambda: wasserstein_grid_l1(np.stack([0.7 * quarter, 0.3 * quarter]),
                                                    np.stack([0.4 * quarter, 0.6 * quarter])),
        "count/non_integer": lambda: certify(params, ninth, spec, n0=2.5),
        "count/bool": lambda: certify(params, ninth, spec, 10, n=True),
        "level/alpha": lambda: smoothed_predict(params, ninth, spec, 10000, alpha=1.5),
        "config/train": lambda: TrainConfig(epochs=0),
        "config/attack": lambda: AttackConfig(predict_alpha=1.0),
        "tally/float": lambda: prediction_from_counts([900.7, 100.9], 0.05),
        "radius/nan": lambda: median_certified_radius([0.3, np.nan, 0.1]),
        "count/hidden": lambda: init_params((3, 3), 2, hidden=2.5),
        "count/num_classes": lambda: make_dataset(np.ones((2, 2, 2)), [0, 1], num_classes=2.5),
        "count/size": lambda: synthetic_dataset("corners", True),
        "count/num_pairs": lambda: run_oracle_checks(True),
        "radius/projection": lambda: project_l1_ball(np.ones(3), True),
        "empty_dataset": lambda: synthetic_dataset("blobs", 5).subset([]),
        "tally/negative": lambda: prediction_from_counts([5, -3], 0.05),
        "count/workers": lambda: certify(params, ninth, spec, 10, 10, workers=2.5),
        "shape/synthetic": lambda: synthetic_dataset("blobs", 3, shape=(6.5, 6)),
        "kind/synthetic": lambda: synthetic_dataset(["blobs"], 3),
        "scheme/non_string": lambda: NoiseSpec(None, 0.1),
        "shape/image": lambda: certify(init_params((4, 6), 2), np.full((6, 4), 1 / 24), spec,
                                       10, 10),
        "subset/mask": lambda: synthetic_dataset("blobs", 4).subset([True, False, True, False]),
        "attack/label": lambda: flow_pgd_attack(params, ninth, 7, spec, AttackConfig()),
        "attack/unit_mass": lambda: flow_pgd_attack(params, 2 * ninth, 0, spec, AttackConfig()),
        "checkpoint/hidden": lambda: save_checkpoint(os.devnull, init_params((3, 3), 2, hidden=4),
                                                     TrainConfig(hidden=9)),
        "shape/input_side": lambda: ClassifierParams((2.7, 2), [np.zeros((4, 2))], [np.zeros(2)]),
        "subset/range": lambda: synthetic_dataset("blobs", 3).subset([10]),
        "unit_mass/overflow": lambda: LabeledDataset(np.stack([quarter, overflow]), [0, 1], 2),
        "unit_mass/inf_pair": lambda: LabeledDataset(np.stack([quarter, inf_pair]), [0, 1], 2),
        "attack/non_finite": lambda: flow_pgd_attack(params, np.full((3, 3), np.nan), 0, spec,
                                                     AttackConfig()),
        "shape/init_side": lambda: init_params((3, 0), 2),
        "shape/lp_channels": lambda: wasserstein_lp(np.full((3, 2, 2), 1 / 12),
                                                    np.full((3, 2, 2), 1 / 12)),
        "metric/lp": lambda: wasserstein_lp(quarter, quarter, "L1"),
        "subset/rank": lambda: synthetic_dataset("blobs", 4).subset([[0, 1], [2, 3]]),
        "certify/unit_mass": lambda: certify(params, 2 * ninth, NoiseSpec(PIXEL, 0.1), 10, 10),
        "certify/negative": lambda: certify(
            params, np.array([[-0.5, 1.5, 0], [0, 0, 0], [0, 0, 0]]), spec, 10, 10),
        "predict/unit_mass": lambda: smoothed_predict(params, 12 * ninth, spec, 10),
        "checkpoint/non_finite": lambda: save_checkpoint(os.devnull, diverged, TrainConfig()),
        "labels/str": lambda: make_dataset(np.ones((2, 2, 2)), ["a", "b"]),
        "labels/none": lambda: LabeledDataset(np.full((2, 2, 2), 0.25), [None, None], 2),
        "labels/complex": lambda: make_dataset(np.ones((2, 2, 2)), [1j, 0]),
    }
    for rule, call in refusals.items():
        out[f"errors/{rule}"] = _refusal(call)
    return out


CLI_CONFIG = {
    "seed": 3, "scheme": "flow", "sigma": 0.05,
    "dataset": {"kind": "blobs", "train_size": 40, "test_size": 5, "shape": [5, 5]},
    "train": {"epochs": 40, "batch_size": 16, "learning_rate": 0.5, "weight_decay": 0,
              "hidden": 4},
    "predict": {"n": 300, "alpha": 0.05},
    "certify": {"n0": 50, "n": 400, "alpha": 0.05},
    "attack": {"radii": [0.0, 0.02], "iterations": 6, "gradient_samples": 8,
               "predict_samples": 200, "growth_factor": 2, "growth_interval": 1},
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
# Certify tables that report refuses, one per rule, each with one bad header
# or row: a p_lower outside [0, 1], then a radius at p_lower <= 1/2 with a bad
# abstained cell; a radius p_lower does not give; settings out of range; no
# seed; a row with too many cells and one with too few; a label and a
# prediction that are not class indices.
_CERTIFY_HEAD = ("# command=certify scheme=flow sigma=0.05 seed=3 n0=50 n=400 alpha=0.05 "
                 "num_classes=2\n")
_CERTIFY_COLUMNS = "id,label,base_prediction,prediction,p_lower,rho2,abstained\n"
REPORT_REFUSALS = {
    "p_lower": _CERTIFY_HEAD + _CERTIFY_COLUMNS + "0,1,1,1,5.0,-3.0,0\n1,0,0,0,0.2,7.5,zz\n",
    "radius": _CERTIFY_HEAD + _CERTIFY_COLUMNS + "0,1,1,1,0.9,0.2,0\n",
    "settings": ("# command=certify scheme=flow sigma=0.05 seed=3 n0=-5 n=0 alpha=7\n"
                 + _CERTIFY_COLUMNS + "0,1,1,-1,0.4,,1\n"),
    "no_seed": ("# command=certify scheme=flow sigma=0.05 n0=50 n=400 alpha=0.05\n"
                + _CERTIFY_COLUMNS + "0,1,1,-1,0.4,,1\n"),
    "long_row": _CERTIFY_HEAD + _CERTIFY_COLUMNS + "0,1,1,-1,0.4,,1,1\n",
    "short_row": _CERTIFY_HEAD + _CERTIFY_COLUMNS + "0,1,1,-1,0.4,\n",
    "label": _CERTIFY_HEAD + _CERTIFY_COLUMNS + "0,-1,-1,-1,0.4,,1\n",
    "prediction": _CERTIFY_HEAD + _CERTIFY_COLUMNS + "0,1,1,2,0.9,0.2,0\n",
}


def _cli(run, argv: list[str]) -> list:
    """The exit status of one command, or its `error:` line, and what it printed."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        try:
            status = run(argv + ["--config", "config.json"])
        except SystemExit as exc:
            status = exc.code
    return [status, printed.getvalue()]


def cli_cases() -> dict:
    """Run CLI_COMMANDS in a fresh directory; every file they leave, and
    each command's exit status and printed lines.  Then predict and certify
    as CLI_COMMANDS do with the flow model saved for (1, n, m) images, and
    report on each of REPORT_REFUSALS.  Also the config schema."""
    from wsmooth.cli import _SCHEMA, run

    out = {"cli/schema": {
        key: (f"[{kind[0].__name__}]" if isinstance(kind, list) else kind.__name__,
              rule and rule[0], default)
        for key, (kind, rule, default) in _SCHEMA.items()}}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("config.json").write_text(json.dumps(CLI_CONFIG))
            for i, argv in enumerate(CLI_COMMANDS):
                out[f"cli/{i}/{argv[0]}"] = _cli(run, argv)
            params, config = load_checkpoint("flow/model_flow_sigma0.05.npz")
            save_checkpoint("channels.npz", dataclasses.replace(params, input_shape=(1, 5, 5)),
                            config)
            for argv in CLI_COMMANDS[1:3]:
                out[f"cli/channels/{argv[0]}"] = _cli(
                    run, [argv[0], "--out-dir", "channels", "--checkpoint", "channels.npz",
                          *argv[3:]])
            for rule, text in REPORT_REFUSALS.items():
                Path(f"{rule}.csv").write_text(text)
                out[f"errors/report/{rule}"] = _cli(run, ["report", "--out-dir", "refused",
                                                          f"{rule}.csv"])
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
    recorded = {**cases(), **error_cases(), **cli_cases()}
    with open(args.out, "wb") as fh:
        pickle.dump({"package": wsmooth.__file__, "cases": recorded}, fh)
    print(f"{len(recorded)} cases from {wsmooth.__file__} written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
