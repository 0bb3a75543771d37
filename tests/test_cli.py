import argparse
import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wsmooth
from wsmooth import transport_oracle
from wsmooth import (ABSTAIN, AttackConfig, LabeledDataset, TrainConfig, load_checkpoint,
                     save_checkpoint, synthetic_dataset, train)
from wsmooth.cli import (_SCHEMA, _build_parser, _certify_stats, _load_split, _merge_config, main,
                         run)

from analytic import write_idx

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=5)
PLAUSIBLE = {int: st.integers(-1, 300), float: st.floats(-0.5, 2.0),
             str: st.sampled_from(["flow", "pixel", "blobs", "x"])}


def mostly(typed, other=JSON_VALUES):
    """A draw from ``typed`` nine times in ten, else from ``other``."""
    return st.integers(0, 9).flatmap(lambda i: typed if i else other)


def schema_value(key):
    """A value of the key's type (in range or not), or any JSON value."""
    kind = _SCHEMA[key][0]
    return mostly(st.lists(PLAUSIBLE[kind[0]], max_size=3) if isinstance(kind, list)
                  else PLAUSIBLE[kind])


def with_typos(known):
    """Dicts drawn from ``known``, now and then with one extra key of any name."""
    typo = st.dictionaries(st.text(max_size=4), JSON_VALUES, min_size=1, max_size=1)
    return st.builds(lambda a, b: {**a, **b}, known, mostly(st.just({}), typo))


def config_files():
    """JSON objects whose keys come mostly from the real schema."""
    sections = {}
    for key in _SCHEMA:
        head, _, sub = key.partition(".")
        if sub:
            sections.setdefault(head, {})[sub] = schema_value(key)
    top = {key: schema_value(key) for key in _SCHEMA if "." not in key}
    for name, subs in sections.items():
        top[name] = mostly(with_typos(st.fixed_dictionaries({}, optional=subs)))
    return with_typos(st.fixed_dictionaries({}, optional=top))


@pytest.fixture
def config_path(tmp_path):
    cfg = {
        "seed": 1,
        "scheme": "flow",
        "sigma": 0.1,
        "out_dir": str(tmp_path / "out"),
        "dataset": {"kind": "blobs", "train_size": 40, "test_size": 10, "shape": [5, 5]},
        "train": {"epochs": 25, "batch_size": 16, "learning_rate": 0.5},
        "predict": {"n": 500, "alpha": 0.05},
        "certify": {"n0": 100, "n": 800, "alpha": 0.05},
        "attack": {
            "radii": [0.0, 0.02],
            "iterations": 8,
            "growth_interval": 1,
            "gradient_samples": 16,
            "predict_samples": 300,
            "max_images": 2,
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def package_env():
    """The environment for a child Python that imports the package this
    process imported.  A relative PYTHONPATH entry (e.g. `src`) would
    resolve against the child's working directory, so the directory holding
    the package goes first, as an absolute path."""
    package_root = str(Path(wsmooth.__file__).resolve().parents[1])
    pythonpath = [package_root, os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}


def test_cli_import_leaves_the_lp_solver_unloaded():
    # linprog is imported on the first LP solve, so commands that solve
    # none (train, predict, certify) do not pay for loading scipy.optimize.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, wsmooth.cli; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, env=package_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def read_table(path):
    lines = path.read_text().splitlines()
    meta = dict(tok.split("=", 1) for tok in lines[0][1:].split())
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return meta, rows


class TestTrainCommand:
    def test_writes_checkpoint_and_summary(self, config_path, tmp_path):
        assert run(["train", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        assert (out / "model_flow_sigma0.1.npz").exists()
        summary = json.loads((out / "train_summary.json").read_text())
        assert summary["scheme"] == "flow"
        assert summary["num_images"] == 40
        assert summary["epochs"] == 25
        assert 0.0 <= summary["train_accuracy"] <= 1.0

    def test_rerun_is_byte_identical(self, config_path, tmp_path):
        run(["train", "--config", str(config_path)])
        out = tmp_path / "out"
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        run(["train", "--config", str(config_path)])
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_flag_overrides_config(self, config_path, tmp_path):
        run(["train", "--config", str(config_path), "--epochs", "3"])
        summary = json.loads((tmp_path / "out" / "train_summary.json").read_text())
        assert summary["epochs"] == 3

    @pytest.mark.parametrize("hidden", [None, 6], ids=["linear", "hidden6"])
    def test_checkpoint_config_retrains_its_params(self, config_path, tmp_path, hidden):
        # The config a checkpoint records, width included, is all train
        # needs to rebuild the checkpoint's params bit for bit.
        cfg = json.loads(config_path.read_text())
        if hidden is not None:
            cfg["train"]["hidden"] = hidden
        config_path.write_text(json.dumps(cfg))
        assert run(["train", "--config", str(config_path)]) == 0
        saved, config = load_checkpoint(tmp_path / "out" / "model_flow_sigma0.1.npz")
        assert config.hidden == hidden and len(saved.weights) == (1 if hidden is None else 2)
        args = _build_parser().parse_args(["train", "--config", str(config_path)])
        dataset = _load_split(_merge_config(args), "train")
        retrained = train(dataset, config).params
        for a, b in zip(retrained.arrays(), saved.arrays(), strict=True):
            assert np.array_equal(a, b)


    def test_flags_loss_at_or_above_chance(self, tmp_path, capsys):
        # Three epochs at the default learning rate leave this model no
        # better than a uniform guess between the two bar orientations.
        path = tmp_path / "chance.json"
        path.write_text(json.dumps({
            "seed": 0, "scheme": "flow", "sigma": 0.05, "out_dir": str(tmp_path / "out"),
            "dataset": {"kind": "bars", "train_size": 100, "test_size": 10, "shape": [4, 4]},
            "train": {"epochs": 3},
        }))
        assert run(["train", "--config", str(path)]) == 0
        summary = json.loads((tmp_path / "out" / "train_summary.json").read_text())
        assert summary["final_loss"] >= math.log(2)
        assert summary["loss_at_or_above_chance"] is True
        assert capsys.readouterr().out.count("warning: final loss") == 1

    def test_a_diverged_run_exits_with_one_error_line_and_writes_nothing(
            self, config_path, tmp_path, monkeypatch, capsys):
        # At this rate the weights overflow to inf and NaN within the run.
        cfg = json.loads(config_path.read_text())
        cfg["train"].update(learning_rate=1e200, epochs=3)
        config_path.write_text(json.dumps(cfg))
        monkeypatch.setattr(sys, "argv", ["wsmooth", "train", "--config", str(config_path)])
        assert main() == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: train: weights and biases must be finite; the run diverged and nothing "
            "was written"]
        assert not (tmp_path / "out").exists()

    def test_trained_model_is_not_flagged(self, config_path, tmp_path, capsys):
        run(["train", "--config", str(config_path)])
        summary = json.loads((tmp_path / "out" / "train_summary.json").read_text())
        assert summary["final_loss"] < math.log(2)
        assert summary["loss_at_or_above_chance"] is False
        assert "warning" not in capsys.readouterr().out


class TestPredictCommand:
    def test_needs_checkpoint(self, config_path):
        with pytest.raises(SystemExit, match="checkpoint"):
            run(["predict", "--config", str(config_path)])

    def test_outputs_and_determinism(self, config_path, tmp_path):
        run(["train", "--config", str(config_path)])
        assert run(["predict", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        meta, rows = read_table(out / "predictions.csv")
        assert meta["command"] == "predict" and meta["scheme"] == "flow"
        assert len(rows) == 10
        for row in rows:
            assert row["abstained"] in ("0", "1")
            assert 0.0 <= float(row["p_value"]) <= 1.0
        summary = json.loads((out / "predict_summary.json").read_text())
        assert summary["n"] == 500
        assert 0 < summary["draws"] <= 500 * len(rows)
        assert 0.0 <= summary["accuracy"] <= 1.0
        first = (out / "predictions.csv").read_bytes()
        run(["predict", "--config", str(config_path)])
        assert (out / "predictions.csv").read_bytes() == first


class TestCertifyCommand:
    def test_outputs_match_summary(self, config_path, tmp_path):
        run(["train", "--config", str(config_path)])
        assert run(["certify", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        meta, rows = read_table(out / "certificates.csv")
        assert meta["command"] == "certify"
        summary = json.loads((out / "certify_summary.json").read_text())
        correct = sum(
            1 for r in rows if r["prediction"] == r["label"] and r["abstained"] == "0"
        )
        assert summary["accuracy"] == pytest.approx(correct / len(rows))
        # Certified rows carry a radius, abstaining rows never do.
        for r in rows:
            if r["abstained"] == "1":
                assert r["rho2"] == ""
            else:
                assert float(r["rho2"]) >= 0.0

    def test_workers_do_not_change_results(self, config_path, tmp_path):
        run(["train", "--config", str(config_path)])
        run(["certify", "--config", str(config_path)])
        out = tmp_path / "out"
        first = (out / "certificates.csv").read_bytes()
        run(["certify", "--config", str(config_path), "--workers", "3"])
        assert (out / "certificates.csv").read_bytes() == first


class TestAttackCommand:
    def test_curve_is_nonincreasing_from_clean(self, config_path, tmp_path):
        run(["train", "--config", str(config_path)])
        assert run(["attack", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        _, curve_rows = read_table(out / "attack_curve.csv")
        accs = [float(r["accuracy"]) for r in curve_rows]
        assert all(a >= b for a, b in zip(accs, accs[1:]))
        summary = json.loads((out / "attack_summary.json").read_text())
        assert accs[0] == summary["clean_accuracy"]
        _, result_rows = read_table(out / "attack_results.csv")
        assert len(result_rows) == 2  # max_images honored

    def test_radii_flag_parsing(self, config_path, tmp_path):
        run(["train", "--config", str(config_path)])
        run(["attack", "--config", str(config_path), "--radii", "0,0.01"])
        _, rows = read_table(tmp_path / "out" / "attack_curve.csv")
        assert [float(r["radius"]) for r in rows] == [0.0, 0.01]
        with pytest.raises(SystemExit, match="radii"):
            run(["attack", "--config", str(config_path), "--radii", "0,abc"])

    def test_radii_past_the_schedules_reach_exit_with_one_error_line(
            self, config_path, tmp_path, monkeypatch, capsys):
        run(["train", "--config", str(config_path)])
        cfg = json.loads(config_path.read_text())
        cfg["attack"]["growth_interval"] = 10
        config_path.write_text(json.dumps(cfg))
        monkeypatch.setattr(sys, "argv", ["wsmooth", "attack", "--config", str(config_path)])
        capsys.readouterr()
        assert main() == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: attack: the schedule reaches L1 budget 0.002 after 8 iterations, short of "
            "the largest radius 0.02"]
        assert not (tmp_path / "out" / "attack_curve.csv").exists()


class TestOracleCheckCommand:
    def test_passes_and_prints(self, tmp_path, capsys):
        assert run(["oracle-check", "--pairs", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(1 for line in lines if line.startswith("PASS")) == 8
        assert not any(line.startswith("FAIL") for line in lines)

    def test_a_failing_property_exits_with_status_1(self, monkeypatch, capsys):
        monkeypatch.setitem(transport_oracle._CHECK_TOLERANCES, "lp_vs_grid_l1", -1.0)
        assert run(["oracle-check", "--pairs", "2"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == [
            "FAIL lp_vs_grid_l1"]
        assert lines[-1] == "1 oracle properties failed"

    def test_console_script_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "wsmooth.cli", "oracle-check", "--pairs", "3"],
            capture_output=True, text=True, cwd=tmp_path, env=package_env(),
        )
        assert proc.returncode == 0
        assert "PASS" in proc.stdout


def certify_row(label, base_prediction, prediction, rho2):
    """A certify row keyed by its column names, as certify and report pass it."""
    return {"label": label, "base_prediction": base_prediction, "prediction": prediction,
            "rho2": rho2}


class TestCertifyStats:
    def test_abstentions_and_wrong_classes_certify_nothing(self):
        rows = [certify_row(*row) for row in [
            (0, 0, 0, 0.3),
            (1, 0, 1, 0.2),  # the base classifier is wrong, the smoothed one right
            (0, 0, ABSTAIN, None),
            (1, 1, 0, 0.5),  # wrong class: its radius is ignored
        ]]
        assert _certify_stats(rows) == {
            "base_accuracy": 0.75, "accuracy": 0.5, "abstention_rate": 0.25,
            # 2 of 4 must be correct at radius >= rho; counting the wrong
            # class's 0.5 would give 0.3.
            "median_certified_radius": 0.2,
        }

    def test_an_abstention_never_matches_a_label(self):
        stats = _certify_stats([certify_row(ABSTAIN, 0, ABSTAIN, None)])
        assert stats["accuracy"] == 0.0
        assert stats["median_certified_radius"] is None


class TestReportCommand:
    def test_merges_and_recomputes(self, config_path, tmp_path):
        run(["train", "--config", str(config_path)])
        run(["certify", "--config", str(config_path)])
        out = tmp_path / "out"
        flow_csv = out / "flow_certificates.csv"
        (out / "certificates.csv").rename(flow_csv)
        flow_summary = json.loads((out / "certify_summary.json").read_text())

        run(["train", "--config", str(config_path), "--scheme", "pixel"])
        run(["certify", "--config", str(config_path), "--scheme", "pixel"])
        pixel_csv = out / "pixel_certificates.csv"
        (out / "certificates.csv").rename(pixel_csv)
        pixel_summary = json.loads((out / "certify_summary.json").read_text())

        assert run(["report", "--out-dir", str(out), str(flow_csv), str(pixel_csv)]) == 0
        _, rows = read_table(out / "report.csv")
        by_scheme = {r["scheme"]: r for r in rows}
        assert set(by_scheme) == {"flow", "pixel"}
        for scheme, summary in (("flow", flow_summary), ("pixel", pixel_summary)):
            row = by_scheme[scheme]
            for key in ("base_accuracy", "accuracy", "abstention_rate"):
                assert float(row[key]) == summary[key]
            med = summary["median_certified_radius"]
            assert row["median_certified_radius"] == ("" if med is None else repr(med))

    @pytest.mark.parametrize("cell, change", [
        ("rho2", lambda v: repr(float(v) * (1 + 1e-10))), ("rho2", lambda v: ""),
        ("prediction", lambda v: str(ABSTAIN)), ("abstained", lambda v: "1"),
    ], ids=["rho2_off", "rho2_empty", "prediction_abstains", "abstained_set"])
    def test_refuses_a_row_that_is_not_its_certificate(self, config_path, tmp_path, monkeypatch,
                                                        capsys, cell, change):
        run(["train", "--config", str(config_path)])
        run(["certify", "--config", str(config_path)])
        lines = (tmp_path / "out" / "certificates.csv").read_text().splitlines()
        columns = lines[1].split(",")
        at = next(i for i, line in enumerate(lines[2:], 2)  # a certified row
                  if line.split(",")[columns.index("rho2")])
        cells = lines[at].split(",")
        cells[columns.index(cell)] = change(cells[columns.index(cell)])
        lines[at] = ",".join(cells)
        table = tmp_path / "certificates.csv"
        table.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(sys, "argv", ["wsmooth", "report", "--out-dir",
                                          str(tmp_path / "report"), str(table)])
        capsys.readouterr()
        assert main() == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {table} line {at + 1} is malformed")
        assert not (tmp_path / "report").exists()

    def test_rejects_non_certify_table(self, config_path, tmp_path):
        run(["train", "--config", str(config_path)])
        run(["predict", "--config", str(config_path)])
        table = tmp_path / "out" / "predictions.csv"
        with pytest.raises(SystemExit, match="not a certify table"):
            run(["report", "--out-dir", str(tmp_path), str(table)])


    @pytest.mark.parametrize("text, needle", [
        (b"# command=certify seed=1 scheme=flow sigma=0.1 n0=100 n=800 alpha=0.05 num_classes=2\n"
         b"id,label,base_prediction,prediction,p_lower,rho2,abstained\n0,1,1,1,0.9,zzz,0\n",
         "malformed"),
        (b"# command=certify seed=1 sigma=0.1 n0=100 n=800 alpha=0.05\n"
         b"id,label,base_prediction,prediction,p_lower,rho2,abstained\n0,1,1,1,0.9,0.01,0\n",
         "malformed"),
        (None, "cannot read table"),
        (b"# command=certify junk\n", "cannot read table"),
        (b"# command=certify seed=\xff\n", "cannot read table"),
        (b"# command=certify seed=1 scheme=flow sigma=0.1 n0=100 n=800 alpha=0.05 num_classes=2\n"
         b"id,label,base_prediction,prediction,p_lower,rho2,abstained\n0,1,1,1,0.9,nan,0\n",
         "line 3 is malformed (ValueError('its rho2, prediction and abstained cells are not "
         "the certificate of p_lower 0.9'))"),
        (b"# command=certify seed=1 scheme=flow sigma=0.1 n0=100 n=800 alpha=0.05 num_classes=2\n"
         b"id,label,base_prediction,prediction,p_lower,rho2,abstained\n"
         b"0,1,1,1,5.0,-3.0,0\n1,0,0,0,0.2,7.5,zz\n",
         "line 3 is malformed (ValueError('p_lower must be in [0, 1], got 5.0'))"),
        (b"# command=certify seed=1 scheme=flow sigma=0.1 n0=100 n=800 alpha=0.05 num_classes=2\n"
         b"id,label,base_prediction,prediction,p_lower,rho2,abstained\n0,0,0,0,0.2,7.5,0\n",
         "line 3 is malformed (ValueError('its rho2, prediction and abstained cells are not "
         "the certificate of p_lower 0.2'))"),
        (b"# command=certify seed=1 scheme=flow sigma=0.1 n0=-5 n=0 alpha=7\n"
         b"id,label,base_prediction,prediction,p_lower,rho2,abstained\n0,0,0,-1,0.2,,1\n",
         "malformed metadata (ValueError('certify.n0 must be >= 1, got -5'))"),
        (b"# command=certify scheme=flow sigma=0.1 n0=100 n=800 alpha=0.05\n"
         b"id,label,base_prediction,prediction,p_lower,rho2,abstained\n0,0,0,-1,0.2,,1\n",
         "malformed metadata (KeyError('seed'))"),
        (b"# command=certify seed=1 scheme=flow sigma=0.1 n0=100 n=800 alpha=0.05 num_classes=2\n"
         b"id,label,base_prediction,prediction,p_lower,rho2,abstained\n"
         b"0,0,0,-1,0.2,,1\n\n1,0,0,-1,0.2,,1,7\n",
         "line 5 is malformed (ValueError('8 cells under 7 columns'))"),
        (b"# command=certify seed=1 scheme=flow sigma=0.1 n0=100 n=800 alpha=0.05 num_classes=2\n"
         b"id,label,base_prediction,prediction,p_lower,rho2,abstained\n0,0,0,-1,0.2,\n",
         "line 3 is malformed (ValueError('6 cells under 7 columns'))"),
        (b"id,label,base_prediction,prediction,p_lower,rho2,abstained\n0,0,0,-1,0.2,,1\n",
         "lacks the `# key=value` metadata line"),
        (b"# command=certify seed=1 scheme=flow sigma=0.1 n0=100 n=800 alpha=0.05 num_classes=2\n"
         b"id,label,base_prediction,prediction,p_lower,rho2,abstained\n\n", "holds no rows"),
    ], ids=["bad_radius", "no_scheme", "missing", "token_without_equals", "not_utf8",
            "nan_radius", "p_lower_out_of_range", "radius_below_half", "settings_out_of_range",
            "no_seed", "long_row", "short_row", "no_metadata_line", "no_rows"])
    def test_rejects_malformed_table(self, tmp_path, monkeypatch, capsys, text, needle):
        table = tmp_path / "certificates.csv"
        if text is not None:
            table.write_bytes(text)
        monkeypatch.setattr(sys, "argv", ["wsmooth", "report", "--out-dir",
                                          str(tmp_path / "out"), str(table)])
        assert main() == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and needle in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("head, row, needle", [
        ("num_classes=2", "0,-1,-1,-1,0.4,,1",  # counted as base-correct before
         "line 3 is malformed (ValueError('label must be in [0, 2), got -1'))"),
        ("num_classes=2", "0,1,2,-1,0.4,,1",
         "line 3 is malformed (ValueError('base_prediction must be in [0, 2), got 2'))"),
        ("num_classes=3", "0,1,1,3,0.4,,1",
         "line 3 is malformed (ValueError('prediction must be in [0, 3) or -1, got 3'))"),
        ("num_classes=1", "0,0,0,-1,0.4,,1",
         "has malformed metadata (ValueError('num_classes must be >= 2, got 1'))"),
        ("", "0,0,0,-1,0.4,,1", "has malformed metadata (KeyError('num_classes'))"),
    ], ids=["label", "base_prediction", "prediction", "one_class", "written_before_num_classes"])
    def test_refuses_class_cells_that_are_not_class_indices(self, tmp_path, monkeypatch, capsys,
                                                           head, row, needle):
        table = tmp_path / "certificates.csv"
        table.write_text(f"# command=certify seed=1 scheme=flow sigma=0.1 n0=100 n=800 "
                         f"alpha=0.05 {head}\n"
                         f"id,label,base_prediction,prediction,p_lower,rho2,abstained\n{row}\n")
        monkeypatch.setattr(sys, "argv", ["wsmooth", "report", "--out-dir",
                                          str(tmp_path / "out"), str(table)])
        assert main() == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {table} {needle}"]
        assert not (tmp_path / "out").exists()

    def test_prints_n_a_when_no_image_is_certified_correct(self, tmp_path, capsys):
        table = tmp_path / "certificates.csv"
        table.write_text("# command=certify seed=1 scheme=flow sigma=0.1 n0=100 n=800 "
                         "alpha=0.05 num_classes=2\n"
                         "id,label,base_prediction,prediction,p_lower,rho2,abstained\n"
                         "0,0,0,-1,0.2,,1\n")
        assert run(["report", "--out-dir", str(tmp_path / "out"), str(table)]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert row.split()[-1] == "n/a" and header.split()[-1] == "median_certified_radius"
        _, rows = read_table(tmp_path / "out" / "report.csv")
        assert rows[0]["median_certified_radius"] == ""

    def test_certify_header_records_the_class_count(self, config_path, tmp_path):
        run(["train", "--config", str(config_path)])
        run(["certify", "--config", str(config_path)])
        meta, rows = read_table(tmp_path / "out" / "certificates.csv")
        assert meta["num_classes"] == str(synthetic_dataset("blobs", 10, (5, 5)).num_classes)


class TestConfigHandling:
    def test_rejects_bad_scheme_in_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scheme": "fourier"}))
        with pytest.raises(SystemExit, match="scheme"):
            run(["predict", "--config", str(path)])

    def test_rejects_nonpositive_sigma(self, config_path):
        with pytest.raises(SystemExit, match="sigma"):
            run(["certify", "--config", str(config_path), "--sigma", "0"])

    @pytest.mark.parametrize("cfg, needle", [
        ({"sigma": "0.05"}, "sigma must be a finite number"),
        ({"train": {"epoch": 2}}, "unknown config key 'train.epoch'"),
        ({"sigmaa": 0.05}, "unknown config key 'sigmaa'"),
        ({"workers": "2"}, "workers must be an integer"),
        ({"workers": True}, "workers must be an integer"),
        ({"seed": "1"}, "seed must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"train": {"epochs": "3"}}, "train.epochs must be an integer"),
        ({"train": {"epochs": 2.7}}, "train.epochs must be an integer"),
        ({"train": {"hidden": 0}}, "train: hidden must be >= 1, got 0"),
        ({"idx": {}}, "idx section"),
        ({"dataset": {"train_size": 0}}, "dataset.train_size must be >= 1"),
        ({"certify": {"n": 0}}, "certify.n must be >= 1"),
        ({"certify": {"alpha": 1.5}}, "certify.alpha must be in (0, 1)"),
        ({"attack": {"radii": "abc"}}, "attack.radii must be a nonempty list"),
        ({"attack": {"max_images": 0}}, "attack.max_images must be >= 1"),
        ({"attack": {"radii": [0.1, -0.1]}}, "attack.radii[1] must be >= 0"),
        ({"train": {"learning_rate": float("nan")}}, "train.learning_rate must be a finite number"),
        ({"train": {"momentum": 1}}, "train: momentum must be in [0, 1)"),
        ({"attack": {"growth_factor": 0.5}}, "attack: growth_factor must be >= 1"),
        ({"idx": {"train_images": "x", "test_images": "y"}}, "must name train_labels, test_labels"),
        ({"train.epochs": 3}, "unknown config key 'train.epochs'"),
        ({"dataset": {"kind": "stripes"}}, "unknown synthetic dataset kind 'stripes'"),
        ({"dataset": {"shape": [3, 3]}}, "blobs need at least a 4x3 grid"),
        ({"idx": {"label_base": 0}}, "unknown config key 'idx.label_base'"),
        ({"dataset": {"shape": [3, 8, 8]}},
         "cannot load the train split: shape must be (rows, columns), got (3, 8, 8)"),
        ({"dataset": {"shape": [8]}},
         "cannot load the train split: shape must be (rows, columns), got (8,)"),
        ([1, 2], "must hold a JSON object"),
    ])
    def test_bad_config_exits_with_one_error_line(self, tmp_path, monkeypatch, capsys,
                                                  cfg, needle):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        monkeypatch.setattr(sys, "argv", ["wsmooth", "train", "--config", str(path),
                                          "--out-dir", str(tmp_path / "out")])
        assert main() == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and needle in err[0]
        assert not (tmp_path / "out").exists()

    def test_train_and_attack_keys_are_the_config_fields(self, tmp_path):
        # Each field that no other key sets is a key of its annotated type
        # (X for X | None), range-free and unset, and a value given for it
        # reaches the class.  Top-level keys set noise, sigma and seed;
        # --radii sets max_radius.
        own = {"attack.radii", "attack.max_images"}
        fields, given = {}, {}
        for section, cls, skip in (("train", TrainConfig, {"noise", "sigma", "seed"}),
                                   ("attack", AttackConfig, {"max_radius", "initial_radius"})):
            hints = get_type_hints(cls)
            for f in dataclasses.fields(cls):
                if f.name not in skip:
                    kind = (get_args(hints[f.name]) or (hints[f.name],))[0]
                    fields[f"{section}.{f.name}"] = (kind, None, None)
                    given.setdefault(section, {})[f.name] = (
                        (f.default or 0) + 1 if kind is int else math.nextafter(f.default, 0))
        assert {key: _SCHEMA[key] for key in fields if key in _SCHEMA} == fields
        assert {key for key in _SCHEMA if key.split(".")[0] in given} - set(fields) == own
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(given))
        cfg = _merge_config(_build_parser().parse_args(["attack", "--config", str(path)]))
        for section, values in given.items():
            assert {name: getattr(cfg[section], name) for name in values} == values

    @settings(max_examples=200, deadline=None)
    @given(cfg=config_files())
    def test_any_json_object_merges_or_exits_with_an_error_line(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(cfg))
            args = _build_parser().parse_args(["certify", "--config", str(path)])
            try:
                merged = _merge_config(args)
            except SystemExit as exc:
                assert isinstance(exc.code, str) and exc.code.startswith("error:")
                assert "\n" not in exc.code
                return
        for key, value in merged.items():
            if key in _SCHEMA:
                kind = _SCHEMA[key][0]
                assert type(value) is (list if isinstance(kind, list) else kind)

    @pytest.mark.parametrize("fault, needle", [
        ("truncated", "truncated file {images}: expected 48 bytes of pixels, got 43"),
        ("missing", "No such file or directory: '{images}'"),
        # Headers alone, declaring more pixels than any file holds: the size
        # is checked before a byte of payload is allocated or read.
        ((2**31 - 1,) * 3, f"expected {(2**31 - 1) ** 3} bytes of pixels, got 0"),
        ((2**31 - 1, 32767, 32767), f"expected {(2**31 - 1) * 32767**2} bytes of pixels, got 0"),
    ])
    def test_malformed_idx_file_exits_with_one_error_line(self, tmp_path, monkeypatch, capsys,
                                                           fault, needle):
        idx = {}
        for split in ("train", "test"):
            write_idx(tmp_path / f"{split}-images", np.full((3, 4, 4), 7))
            write_idx(tmp_path / f"{split}-labels", np.array([0, 1, 0]))
            idx[f"{split}_images"] = str(tmp_path / f"{split}-images")
            idx[f"{split}_labels"] = str(tmp_path / f"{split}-labels")
        images = tmp_path / "train-images"
        if fault == "truncated":
            images.write_bytes(images.read_bytes()[:-5])
        elif fault == "missing":
            images.unlink()
        else:
            images.write_bytes(struct.pack(">iiii", 0x803, *fault))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"idx": idx}))
        monkeypatch.setattr(sys, "argv", ["wsmooth", "train", "--config", str(path),
                                          "--out-dir", str(tmp_path / "out")])
        assert main() == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot load the train split: ")
        assert needle.format(images=images) in err[0]
        assert not (tmp_path / "out").exists()

    def test_zero_pairs_exits_with_one_error_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["wsmooth", "oracle-check", "--pairs", "0"])
        assert main() == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --pairs 0: num_pairs must be >= 1, got 0"]

    @pytest.mark.parametrize("flags, needle", [
        (["--scheme", "pixel"], "laplace_pixel at sigma 0.1"),
        (["--sigma", "0.2"], "wasserstein_flow at sigma 0.2"),
    ], ids=["scheme", "sigma"])
    def test_refuses_checkpoint_trained_under_other_noise(self, config_path, tmp_path,
                                                          monkeypatch, capsys, flags, needle):
        run(["train", "--config", str(config_path)])
        ckpt = tmp_path / "out" / "model_flow_sigma0.1.npz"
        monkeypatch.setattr(sys, "argv", ["wsmooth", "certify", "--config", str(config_path),
                                          "--checkpoint", str(ckpt)] + flags)
        capsys.readouterr()
        assert main() == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: checkpoint {ckpt} was trained under "
                                                   "wasserstein_flow noise at sigma 0.1")
        assert needle in err[0]
        assert not (tmp_path / "out" / "certificates.csv").exists()

    @pytest.mark.parametrize("fault, needle", [
        ("shape", "takes (5, 5) images, but the dataset holds (6, 6) images"),
        ("text", "is not a readable wsmooth checkpoint: ValueError("),
        ("no_meta", "is not a readable wsmooth checkpoint: KeyError("),
        ("unknown_key", "does not fit: TypeError(\"TrainConfig.__init__() got an unexpected"),
        ("wrong_type", "does not fit: ValueError(\"epochs must be an integer"),
        ("list_meta", "ValueError(\"checkpoint meta is not a JSON object: [{"),
        ("truncated", "is not a readable wsmooth checkpoint: BadZipFile("),
        ("non_finite", "ValueError('weights and biases must be finite')"),
        ("flat_shape", "ValueError('expected a 2-D or 3-D image, got shape (25,)')"),
        ("four_sides", "ValueError('expected a 2-D or 3-D image, got shape (1, 1, 5, 5)')"),
        ("unrecorded_hidden", "does not fit: ValueError('hidden None does not describe the "
                              "hidden widths [4]')"),
    ])
    def test_refuses_a_checkpoint_that_does_not_fit(self, config_path, tmp_path, monkeypatch,
                                                     capsys, fault, needle):
        ckpt = tmp_path / "model.npz"
        cfg = json.loads(config_path.read_text())
        if fault in ("shape", "non_finite"):
            run(["train", "--config", str(config_path), "--checkpoint", str(ckpt)])
        if fault == "shape":
            cfg["dataset"]["shape"] = [6, 6]
        elif fault == "non_finite":
            with np.load(ckpt) as z:
                payload = {k: z[k] for k in z.files}
            payload["w0"][:] = np.nan
            np.savez(ckpt, **payload)
        elif fault == "text":
            ckpt.write_text("not a checkpoint\n")
        elif fault == "no_meta":
            np.savez(ckpt, w0=np.zeros((25, 2)), b0=np.zeros(2))
        elif fault == "unrecorded_hidden":  # a hidden layer, saved before the config held its width
            meta = {"version": 1, "input_shape": [5, 5], "num_classes": 2, "num_layers": 2,
                    "config": {"noise": "wasserstein_flow", "sigma": 0.1}}
            np.savez(ckpt, meta=np.array(json.dumps(meta)), w0=np.zeros((25, 4)),
                     b0=np.zeros(4), w1=np.zeros((4, 2)), b1=np.zeros(2))
        elif fault == "truncated":
            np.savez(ckpt, w0=np.zeros((25, 2)), b0=np.zeros(2))
            ckpt.write_bytes(ckpt.read_bytes()[:40])
        else:
            bad = {"unknown_key": {"colour": 1}, "wrong_type": {"epochs": "3"}}.get(fault, {})
            sides = {"flat_shape": [25], "four_sides": [1, 1, 5, 5]}.get(fault, [5, 5])
            meta = {"version": 1, "input_shape": sides, "num_classes": 2, "num_layers": 1,
                    "config": {"noise": "wasserstein_flow", "sigma": 0.1, **bad}}
            meta = [meta] if fault == "list_meta" else meta
            np.savez(ckpt, meta=np.array(json.dumps(meta)), w0=np.zeros((25, 2)), b0=np.zeros(2))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        monkeypatch.setattr(sys, "argv", ["wsmooth", "certify", "--config", str(path),
                                          "--checkpoint", str(ckpt),
                                          "--out-dir", str(tmp_path / "certify")])
        capsys.readouterr()
        assert main() == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: checkpoint {ckpt} ")
        assert needle in err[0]
        assert not (tmp_path / "certify").exists()

    def test_one_channel_checkpoint_fits_a_split_of_its_grid(self, config_path, tmp_path):
        # (n, m) and (1, n, m) are one shape here, as in certify and predict.
        x, y = synthetic_dataset("blobs", 40, (5, 5), seed=0).as_arrays()
        tc = TrainConfig(epochs=25, batch_size=16, learning_rate=0.5, sigma=0.1)
        params = train(LabeledDataset(x[:, None], y, 2), tc).params
        assert params.input_shape == (1, 5, 5)
        tables = []
        for shape in ((5, 5), (1, 5, 5)):
            ckpt, out = tmp_path / f"{len(shape)}.npz", tmp_path / f"out{len(shape)}"
            save_checkpoint(ckpt, dataclasses.replace(params, input_shape=shape), tc)
            for command in ("predict", "certify"):
                run([command, "--config", str(config_path), "--checkpoint", str(ckpt),
                     "--out-dir", str(out)])
            tables.append([(out / name).read_bytes()
                           for name in ("predictions.csv", "certificates.csv")])
        assert tables[0] == tables[1]
        cfg = json.loads(config_path.read_text())
        cfg["dataset"]["shape"] = [6, 6]
        config_path.write_text(json.dumps(cfg))
        with pytest.raises(SystemExit, match=r"^error: checkpoint .* takes \(1, 5, 5\) images, "
                                             r"but the dataset holds \(6, 6\) images$"):
            run(["certify", "--config", str(config_path), "--checkpoint", str(ckpt)])

    def test_infinite_sigma_flag_exits_with_one_error_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["wsmooth", "certify", "--sigma", "inf",
                                          "--out-dir", str(tmp_path)])
        assert main() == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: sigma must be a finite number")

    @pytest.mark.parametrize("argv", [
        ["train", "--workers", "2"],
        ["attack", "--workers", "2"],
        ["oracle-check", "--workers", "2"],
        ["report", "--workers", "2", "certificates.csv"],
        ["oracle-check", "--out-dir", "D"],
    ], ids=["train-workers", "attack-workers", "oracle-check-workers", "report-workers",
            "oracle-check-out-dir"])
    def test_flag_the_command_does_not_read_is_refused(self, tmp_path, monkeypatch, capsys,
                                                        argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_each_command_takes_the_flags_readme_lists(self):
        # README's "Command line" section: all commands take --config and
        # --seed; train, predict, certify and attack the model flags; report
        # --out-dir; oracle-check --pairs; predict and certify --workers.
        model = {"--out-dir", "--scheme", "--sigma", "--checkpoint"}
        listed = {
            "train": model | {"--epochs"},
            "predict": model | {"--workers", "--n", "--alpha"},
            "certify": model | {"--workers", "--n0", "--n", "--alpha"},
            "attack": model | {"--radii", "--max-images"},
            "oracle-check": {"--pairs"},
            "report": {"--out-dir"},
        }
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Command line")[1].split("\n## ")[0]
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(listed)
        for command, flags in listed.items():
            actions = [a for a in sub.choices[command]._actions if a.dest != "help"]
            options = {flag for a in actions for flag in a.option_strings}
            assert options == flags | {"--config", "--seed"}, command
            assert all(a.help for a in actions), command
            assert all(f"`{flag}`" in section for flag in options), command

    def test_rejects_missing_config(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            run(["train", "--config", str(tmp_path / "nope.json")])

    def test_rejects_malformed_config(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit, match="valid JSON"):
            run(["train", "--config", str(path)])

    def test_out_dir_ignores_the_environment(self, config_path, tmp_path, monkeypatch):
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("WSMOOTH_OUT_DIR", str(env_dir))
        run(["train", "--config", str(config_path), "--epochs", "2"])
        assert not env_dir.exists()
        assert (tmp_path / "out" / "train_summary.json").exists()  # the config's out_dir
        flag_dir = tmp_path / "flag_out"
        run(["train", "--config", str(config_path), "--epochs", "2",
             "--out-dir", str(flag_dir)])
        assert (flag_dir / "train_summary.json").exists()


class TestClassCount:
    """predict, certify and attack use the checkpoint's class count."""

    def idx_config(self, tmp_path, test_labels, **idx):
        rng = np.random.default_rng(0)
        for split, labels in (("train", np.arange(30) % 3), ("test", np.asarray(test_labels))):
            write_idx(tmp_path / f"{split}-images", rng.integers(1, 256, (len(labels), 4, 4)))
            write_idx(tmp_path / f"{split}-labels", labels)
            idx[f"{split}_images"] = str(tmp_path / f"{split}-images")
            idx[f"{split}_labels"] = str(tmp_path / f"{split}-labels")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"out_dir": str(tmp_path / "out"), "idx": idx,
                                    "train": {"epochs": 2}, "predict": {"n": 100},
                                    "certify": {"n0": 50, "n": 100},
                                    "attack": {"iterations": 2, "growth_factor": 10,
                                               "growth_interval": 1, "gradient_samples": 4,
                                               "predict_samples": 50}}))
        assert run(["train", "--config", str(path)]) == 0
        return path

    @pytest.mark.parametrize("command", ["predict", "certify", "attack"])
    def test_idx_test_split_takes_the_checkpoints_class_count(self, tmp_path, command):
        # The test labels name only two of the checkpoint's three classes.
        path = self.idx_config(tmp_path, [0, 1, 1, 0])
        assert run([command, "--config", str(path)]) == 0

    def test_idx_labels_reach_every_table_unchanged(self, tmp_path):
        path = self.idx_config(tmp_path, [0, 1, 2, 2])
        for command, table in (("predict", "predictions.csv"), ("certify", "certificates.csv"),
                               ("attack", "attack_results.csv")):
            assert run([command, "--config", str(path)]) == 0
            _, rows = read_table(tmp_path / "out" / table)
            assert [int(r["label"]) for r in rows] == [0, 1, 2, 2]

    @pytest.mark.parametrize("labels, idx, needle", [
        ([0, 1, 3], {}, "cannot load the test split: labels must lie in [0, 3)"),
        ([0, 1, 2], {"num_classes": 4}, "scores 3 classes, but the dataset has 4"),
    ], ids=["label_beyond_checkpoint", "idx_num_classes"])
    def test_idx_split_that_does_not_fit_exits_with_one_error_line(
            self, tmp_path, monkeypatch, capsys, labels, idx, needle):
        path = self.idx_config(tmp_path, labels)
        if idx:
            cfg = json.loads(path.read_text())
            cfg["idx"].update(idx)
            path.write_text(json.dumps(cfg))
        monkeypatch.setattr(sys, "argv", ["wsmooth", "certify", "--config", str(path)])
        capsys.readouterr()
        assert main() == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and needle in err[0]
        assert not (tmp_path / "out" / "certificates.csv").exists()

    def test_synthetic_split_of_another_class_count_exits_with_one_error_line(
            self, tmp_path, monkeypatch, capsys):
        ckpt = tmp_path / "corners.npz"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"out_dir": str(tmp_path / "out"), "train": {"epochs": 2},
                                    "dataset": {"kind": "corners", "train_size": 20}}))
        assert run(["train", "--config", str(path), "--checkpoint", str(ckpt)]) == 0
        path.write_text(json.dumps({"out_dir": str(tmp_path / "out"),
                                    "dataset": {"kind": "blobs", "test_size": 5}}))
        monkeypatch.setattr(sys, "argv", ["wsmooth", "certify", "--config", str(path),
                                          "--checkpoint", str(ckpt)])
        capsys.readouterr()
        assert main() == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0] == (f"error: checkpoint {ckpt} scores 4 classes, but "
                                            "the dataset has 2")
        assert not (tmp_path / "out" / "certificates.csv").exists()
