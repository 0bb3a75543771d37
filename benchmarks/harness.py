"""Workloads, timing loop and correctness checks of the wsmooth benchmark.

Every workload builds its inputs from the workload seed, generates and trains
what it needs in set-up, and then exposes one op per input: one certified
image (certify-28), one attacked image (attack-16) or one oracle pair case
(oracle-16).  The timing loop cycles over the inputs, checks every op's
output, and summarises per-input median op times, so a run that ends part
way through a pass over the inputs still weighs every input once.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
import scipy

from wsmooth import attack, classifier, dataset_io, flow_domain, smoothing, transport_oracle

import tracer as tracing


# Sampling worker threads.  certify gets it explicitly; flow_pgd_attack takes
# no worker count and calls smoothed_predict with that function's default, 1.
WORKERS = 1
# Set-up repetitions per run; setup_s and the set-up layers report their median.
SETUP_REPS = 3


class SetupError(RuntimeError):
    """The workload cannot be timed, e.g. its classifier did not train."""


def _seed_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1)[0])


def _train_model(cfg: dict, s_train, s_test, s_model) -> tuple:
    """Train the workload's smoothed classifier and refuse a degenerate one.

    A final training loss at or above ln K (K classes) is no better than a
    constant classifier, so timing it would measure the wrong workload.
    """
    d = cfg["dataset"]
    shape = tuple(d["shape"])
    train_ds = dataset_io.synthetic_dataset(d["kind"], d["train_size"], shape, seed=s_train)
    test_ds = dataset_io.synthetic_dataset(d["kind"], d["test_size"], shape, seed=s_test)
    config = classifier.TrainConfig(**cfg["train"], noise=cfg["scheme"], sigma=cfg["sigma"],
                                    seed=_seed_int(s_model))
    result = classifier.train(train_ds, config)
    loss = result.epoch_losses[-1]
    if not math.isfinite(loss) or loss >= math.log(train_ds.num_classes):
        raise SetupError(f"final training loss {loss!r} is not below ln {train_ds.num_classes}")
    x, y = test_ds.as_arrays()
    health = {"final_train_loss": loss,
              "clean_accuracy": classifier.accuracy(result.params, test_ds)}
    return result.params, x, y, health


class Workload:
    """One op per input; subclasses set up the inputs and run and check ops."""

    def __init__(self, cfg: dict, seed: int, references: dict):
        self.cfg, self.seed, self.references = cfg, seed, references

    def counters(self, i: int, out) -> dict:
        """Per-op tallies summed over a window."""
        return {}

    def run_checks(self, totals: dict, ops: int) -> list[str]:
        """Checks on a whole window's tallies."""
        return []


class _SmoothedWorkload(Workload):
    """Ops on test images of a classifier trained under the smoothing noise."""

    def __init__(self, cfg: dict, seed: int, references: dict):
        super().__init__(cfg, seed, references)
        self.spec = smoothing.NoiseSpec(cfg["scheme"], cfg["sigma"])

    def setup(self) -> dict:
        s_train, s_test, s_model, s_ops = np.random.SeedSequence(self.seed).spawn(4)
        self.params, self.x, self.y, health = _train_model(self.cfg, s_train, s_test, s_model)
        self.op_seeds = s_ops.spawn(len(self.x))
        return health

    @property
    def num_inputs(self) -> int:
        return len(self.x)


class CertifyWorkload(_SmoothedWorkload):
    """Monte Carlo certification, one ``certify`` call per test image."""

    def run(self, i: int):
        c = self.cfg["certify"]
        return smoothing.certify(self.params, self.x[i], self.spec, c["n0"], c["n"], c["alpha"],
                                 np.random.default_rng(self.op_seeds[i]), workers=WORKERS)

    def check(self, i: int, cert) -> list[str]:
        if cert.predicted == smoothing.ABSTAIN:
            if cert.rho2 is not None or cert.p_lower > 0.5:
                return [f"abstained with p_lower={cert.p_lower} and rho2={cert.rho2}"]
            return []
        expected = self.references["radius"](cert.p_lower, self.spec.sigma, self.spec.scheme)
        if cert.rho2 is None or not math.isclose(cert.rho2, expected, rel_tol=1e-12):
            return [f"rho2={cert.rho2} but radius_from_plower gives {expected}"]
        return []

    def steps(self, cert) -> int:
        return cert.n0 + cert.n

    def counters(self, i: int, cert) -> dict:
        return {"certified": int(cert.predicted != smoothing.ABSTAIN),
                "certified_correct": int(cert.predicted == self.y[i])}

    def run_checks(self, totals: dict, ops: int) -> list[str]:
        accuracy = totals.get("certified_correct", 0) / ops
        floor = self.cfg["certified_accuracy_floor"]
        return [] if accuracy >= floor else [f"certified accuracy {accuracy} below floor {floor}"]


class AttackWorkload(_SmoothedWorkload):
    """Flow-domain PGD against the smoothed classifier, one image per op."""

    def __init__(self, cfg: dict, seed: int, references: dict):
        super().__init__(cfg, seed, references)
        self.config = attack.AttackConfig(**cfg["attack"])

    def run(self, i: int):
        return attack.flow_pgd_attack(self.params, self.x[i], int(self.y[i]), self.spec,
                                      self.config, np.random.default_rng(self.op_seeds[i]))

    def check(self, i: int, res) -> list[str]:
        tol = self.cfg["budget_tol"]
        problems = []
        if res.budget > self.config.max_radius + tol:
            problems.append(f"budget {res.budget} exceeds max_radius {self.config.max_radius}")
        norm = sum(flow_domain.l1_norm(plan) for plan in res.plans)
        if abs(norm - res.budget) > tol:
            problems.append(f"plans have L1 norm {norm} but budget is {res.budget}")
        return problems

    def steps(self, res) -> int:
        return res.iteration if res.success else self.config.iterations

    def counters(self, i: int, res) -> dict:
        return {"iterations": self.steps(res), "successes": int(res.success)}


class OracleWorkload(Workload):
    """Exact W1 solves: a 16x16 grid min-cost flow per pair, plus an 8x8
    pair solved by both the grid solver and the dense coupling LP."""

    def setup(self) -> dict:
        rng = np.random.default_rng(self.seed)

        def pair(shape):
            n, m = shape
            return tuple(rng.dirichlet(np.ones(n * m)).reshape(n, m) for _ in range(2))

        self.pairs = [(pair(self.cfg["shape"]), pair(self.cfg["cross_check_shape"]))
                      for _ in range(self.cfg["pairs"])]
        return {}

    @property
    def num_inputs(self) -> int:
        return len(self.pairs)

    def run(self, i: int):
        (x, xp), (small, small_p) = self.pairs[i]
        distance, edge = transport_oracle.wasserstein_grid_l1(x, xp)
        small_grid, _ = transport_oracle.wasserstein_grid_l1(small, small_p)
        small_lp, _ = transport_oracle.wasserstein_lp(small, small_p)
        return distance, edge, small_grid, small_lp

    def check(self, i: int, out) -> list[str]:
        distance, edge, small_grid, small_lp = out
        (x, xp), _ = self.pairs[i]
        plan = flow_domain.flow_from_edge(edge)
        moved = flow_domain.apply_flow(x, plan).values
        gaps = {
            "lp_agreement_tol": abs(small_grid - small_lp),
            "feasibility_tol": float(np.abs(moved - xp / xp.sum()).max()),
            "plan_norm_tol": abs(flow_domain.l1_norm(plan) - distance),
        }
        return [f"gap {gap} exceeds {name}" for name, gap in gaps.items() if not gap <= self.cfg[name]]

    def steps(self, out) -> int:
        return 3


WORKLOADS = {"certify-28": CertifyWorkload, "attack-16": AttackWorkload, "oracle-16": OracleWorkload}
REFERENCES = {"radius": smoothing.radius_from_plower}

# End-to-end metrics with their units.  An op is one certified image, one
# attacked image or one oracle pair case; a step is one Monte Carlo draw,
# one PGD iteration or one exact W1 solve.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_fraction": "fraction",
    "ops_per_s": "1/s",
    "steps_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
}

# The same numbers under the per-workload names they answer to.
ALIASES = {
    "certify-28": {"certify.images_per_s": "ops_per_s", "certify.image_ms.p50": "op_ms.p50",
                   "certify.image_ms.p90": "op_ms.p90"},
    "attack-16": {"attack.iterations_per_s": "steps_per_s", "attack.image_ms.p50": "op_ms.p50"},
    "oracle-16": {"oracle.pairs_per_s": "ops_per_s", "oracle.pair_ms.p50": "op_ms.p50"},
}


@dataclass
class Window:
    """Timed ops of one measurement window, in run order."""

    index: list[int] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    steps: list[int] = field(default_factory=list)
    failed: int = 0
    counters: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.index)


def _run_op(wl, i: int, win: Window, scope):
    """Run, time and check one op on input ``i``; the check runs outside the
    timed interval."""
    t0 = time.perf_counter()
    try:
        with scope:
            out = wl.run(i)
        dt = time.perf_counter() - t0
        problems = wl.check(i, out)
    except Exception:  # an op that raises is a failed op; keep timing the rest
        dt = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        out, problems = None, ["raised"]
    if problems:
        win.failed += 1
        if win.failed <= 3:
            print(f"check failed on input {i}: {'; '.join(problems)}", file=sys.stderr)
    win.index.append(i)
    win.seconds.append(dt)
    win.steps.append(wl.steps(out) if out is not None else 0)
    for key, value in (wl.counters(i, out) if out is not None else {}).items():
        win.counters[key] = win.counters.get(key, 0) + value


def _measure(wl, seconds: float, min_ops: int, tracer=None) -> list[Window]:
    """Run ops over the inputs in a fixed cycle until ``seconds`` have passed
    and at least ``min_ops`` ops ran.

    With a tracer, every op runs twice in a row on the same input, first
    untraced and then traced, so the two windows see the same machine speed
    and their ratio is the tracing overhead.
    """
    windows = [Window()] + ([Window()] if tracer else [])
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(windows[0]) < min_ops:
        i = len(windows[0]) % wl.num_inputs
        _run_op(wl, i, windows[0], nullcontext())
        if tracer:
            tracing.install(tracer)
            try:
                _run_op(wl, i, windows[1], tracer.op_scope(len(windows[1])))
            finally:
                tracer.unpatch()
    return windows


def _summary(win: Window) -> dict:
    """Throughput and latency over per-input median op times."""
    times: dict[int, list[float]] = {}
    steps: dict[int, int] = {}
    for i, dt, s in zip(win.index, win.seconds, win.steps):
        times.setdefault(i, []).append(dt)
        steps.setdefault(i, s)
    med = [statistics.median(v) for v in times.values()]
    busy = sum(med)
    p50, p90 = np.percentile(med, [50, 90]) * 1e3
    return {"ops_per_s": len(med) / busy, "steps_per_s": sum(steps.values()) / busy,
            "op_ms.p50": float(p50), "op_ms.p90": float(p90),
            "latency_samples": len(med), "ops_run": len(win)}


def run_workload(name: str, settings: dict, seed: int, seconds: float, trace: bool,
                 import_s: float, references: dict = REFERENCES,
                 setup_reps: int = SETUP_REPS) -> dict:
    """Set up, warm up and measure one workload; returns the result object
    (correct, attempted, failed, metrics) plus a ``detail`` block."""
    cfg = settings[name]
    wl = WORKLOADS[name](cfg, seed, references)
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracing.install(tracer)
    try:
        setup_times, setup_ops = [], []
        for rep in range(setup_reps):
            setup_ops.append(f"setup-{rep}")
            t0 = time.perf_counter()
            with tracer.op_scope(setup_ops[-1], None) if tracer else nullcontext():
                health = wl.setup()
            setup_times.append(time.perf_counter() - t0)
        if tracer:
            tracer.unpatch()
        wl.run(0)  # warm-up op, untimed and untraced
        windows = _measure(wl, seconds, cfg["min_ops"], tracer)
    finally:
        if tracer:
            tracer.unpatch()

    attempted = sum(len(w) for w in windows)
    failed = sum(w.failed for w in windows)
    run_problems = [p for w in windows for p in wl.run_checks(w.counters, len(w))]
    for p in run_problems:
        print(f"run check failed: {p}", file=sys.stderr)
    if run_problems:
        failed = attempted
    summary = _summary(windows[0])
    detail = {"workload": name, "settings": cfg, **health, "counters": windows[-1].counters,
              "failed_fraction": failed / attempted, "setup_reps_s": setup_times,
              "import_s": import_s, **{k: summary[k] for k in ("latency_samples", "ops_run")}}
    if not trace:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_fraction": 1.0 - failed / attempted,
            **{k: summary[k] for k in ("ops_per_s", "steps_per_s", "op_ms.p50", "op_ms.p90")},
        }
        units = END_TO_END_UNITS
    else:
        plain_s, traced_s = sum(windows[0].seconds), sum(windows[1].seconds)
        metrics = tracing.per_layer_metrics(tracer, setup_ops, windows[1].counters,
                                            traced_s / plain_s - 1.0)
        units = tracing.PER_LAYER_UNITS
        detail.update({"untraced_s": plain_s, "traced_s": traced_s,
                       "self_s_total": tracing.self_time_total(tracer),
                       "flops": "computed from layer shapes"})
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "detail": detail,
        "tracer": tracer,
    }


def environment(root, seed: int, blas_vars) -> dict:
    """Versions, machine and source identity recorded with every run."""
    files = sorted((root / "src" / "wsmooth").glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in blas_vars},
        "workers": WORKERS,
        "commit": _git_commit(root),
        "seed": seed,
        "src_lines": sum(f.read_bytes().count(b"\n") for f in files),
    }


def _git_commit(root) -> str | None:
    """HEAD of the repository at ``root`` when it is a loose ref or detached;
    None otherwise, as in a checkout that is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return None
