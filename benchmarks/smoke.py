"""Smoke test of the benchmark itself, at tiny sizes (a few seconds).

    python3 benchmarks/smoke.py

Checks that every workload, untraced and traced, reports exactly the
metrics BENCHMARK.json names, each with its unit and a finite value; that the
traced run sees every layer a workload is meant to exercise; and that a
deliberately broken reference makes failed ops show up in failed_fraction.
It is not part of the tier-1 test suite.
"""

import copy
import json
import math
import os
import sys
from pathlib import Path

from run import BLAS_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

TINY = {
    "certify-28": {"dataset": {"shape": [8, 8], "train_size": 200, "test_size": 6},
                   "train": {"epochs": 30}, "certify": {"n0": 20, "n": 200}, "min_ops": 4},
    "attack-16": {"dataset": {"shape": [8, 8], "train_size": 200, "test_size": 3},
                  "train": {"epochs": 30},
                  "attack": {"iterations": 3, "gradient_samples": 16, "predict_samples": 100},
                  "min_ops": 3},
    # The grid metrics name the grid sizes, so the oracle keeps its shapes.
    "oracle-16": {"pairs": 1, "min_ops": 1},
}

# Per-layer metrics that must be nonzero in each workload's traced run.
BUSY = {
    "certify-28": ["smoothing.certify.calls", "smoothing.clopper_pearson_lower.calls",
                   "classifier.forward_batch.calls", "smoothing.draws", "classifier.train.busy_s",
                   "dataset_io.synthetic_dataset.busy_s", "dataset_io.as_arrays.calls"],
    "attack-16": ["attack.flow_pgd_attack.calls", "smoothing.smoothed_predict.calls",
                  "smoothing.prediction_from_counts.calls", "classifier.forward_batch.calls",
                  "classifier.input_gradient_batch.calls", "attack.project_l1_ball.calls",
                  "smoothing.draws", "attack.iterations", "attack.predict_evals",
                  "classifier.train.busy_s"],
    "oracle-16": ["transport_oracle.wasserstein_grid_l1.16x16.calls",
                  "transport_oracle.wasserstein_grid_l1.8x8.calls",
                  "transport_oracle.wasserstein_lp.calls"],
}


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        out[key] = _merge(out[key], value) if isinstance(value, dict) else value
    return out


def _check_metrics(result: dict, declared: list, label: str):
    names = [m["name"] for m in declared]
    got = result["metrics"]
    if list(got) != names:
        raise AssertionError(f"{label}: metrics {sorted(got)} != declared {sorted(names)}")
    for m in declared:
        entry = got[m["name"]]
        if entry["unit"] != m["unit"] or not math.isfinite(entry["value"]):
            raise AssertionError(f"{label}: bad entry {m['name']}: {entry}")


def main() -> int:
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    settings = json.loads((HERE / "workloads.json").read_text())
    tiny = {**settings, **{w: _merge(settings[w], o) for w, o in TINY.items()}}
    if [w["name"] for w in bench["workloads"]] != list(TINY):
        raise AssertionError("BENCHMARK.json workloads differ from the smoke test's")

    for name in TINY:
        for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            result = harness.run_workload(name, tiny, seed=3, seconds=0.2, trace=trace, import_s=0.0,
                                          setup_reps=2)
            label = f"{name} trace={int(trace)}"
            if not result["correct"] or result["failed"]:
                raise AssertionError(f"{label}: {result['failed']} of {result['attempted']} ops failed")
            _check_metrics(result, declared, label)
            idle = [m for m in BUSY[name] if trace and not result["metrics"][m]["value"] > 0]
            if idle:
                raise AssertionError(f"{label}: layers report 0: {idle}")
            print(f"ok  {label}: {len(declared)} metrics, {result['attempted']} ops")

    def broken_radius(p_lower, sigma, scheme):
        return 1.5 * harness.smoothing.radius_from_plower(p_lower, sigma, scheme)

    result = harness.run_workload("certify-28", tiny, seed=3, seconds=0.2, trace=False,
                                  import_s=0.0, references={"radius": broken_radius}, setup_reps=1)
    if result["correct"] or result["detail"]["failed_fraction"] <= 0:
        raise AssertionError("a broken radius reference went unnoticed")
    print(f"ok  broken reference: failed_fraction {result['detail']['failed_fraction']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
