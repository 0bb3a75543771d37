"""Span tracer for the benchmark's traced run.

The tracer wraps public wsmooth entry points where the library looks them
up, records one span per call (name, start, end, parent span, op id) in
memory, and derives per-layer metrics from those spans once the run is
over.  Calls are nested on one thread (the benchmark runs with workers=1),
so a span's children never overlap and self time is the span's duration
minus the summed durations of its direct children.  A span whose name has no
per-layer metric (say, a grid solve at a size the metrics do not name) is an
error, so a changed workload shape cannot report a layer as idle.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager

# Span record layout: [name, start, end, parent span index, op id, rows, flops].
NAME, START, END, PARENT, OP, ROWS, FLOPS = range(7)

# Root span the harness opens around each timed op.
OP_SPAN = "bench.op"


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _enter(self, name: str, rows: int = 0, flops: float = 0.0) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, rows, flops])
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def _exit(self, sid: int):
        self.spans[sid][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op_scope(self, op, name: str | None = OP_SPAN):
        """Tag every span opened inside with ``op``; open a root span unless
        ``name`` is None."""
        previous, self.op = self.op, op
        sid = self._enter(name) if name else None
        try:
            yield
        finally:
            if sid is not None:
                self._exit(sid)
            self.op = previous

    def patch(self, owner, attr: str, name, describe=None):
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``name`` is the span name, or a function of the call's arguments that
        returns it.  ``describe(*args, **kwargs)`` returns (rows, flops) for
        the call.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            rows, flops = describe(*args, **kwargs) if describe else (0, 0.0)
            sid = self._enter(label, rows, flops)
            try:
                return original(*args, **kwargs)
            finally:
                self._exit(sid)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unpatch(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write the spans as JSON lines, one object per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "op": s[OP], "rows": s[ROWS], "flops": s[FLOPS],
                }) + "\n")


def _rows(x) -> int:
    return int(getattr(x, "shape", (len(x),))[0])


def _forward_describe(params, X):
    rows = _rows(X)
    return rows, float(sum(2 * rows * w.shape[0] * w.shape[1] for w in params.weights))


def _grid_name(x, xp):
    shape = getattr(x, "values", x).shape
    return f"transport_oracle.wasserstein_grid_l1.{shape[0]}x{shape[1]}"


def install(tracer: Tracer):
    """Wrap the entry points the per-layer metrics are built from."""
    from wsmooth import attack, classifier, dataset_io, smoothing, transport_oracle

    tracer.patch(smoothing, "certify", "smoothing.certify")
    tracer.patch(attack, "smoothed_predict", "smoothing.smoothed_predict")
    tracer.patch(smoothing, "clopper_pearson_lower", "smoothing.clopper_pearson_lower")
    tracer.patch(smoothing, "prediction_from_counts", "smoothing.prediction_from_counts")
    tracer.patch(classifier.ClassifierParams, "forward_batch", "classifier.forward_batch",
                 _forward_describe)
    tracer.patch(attack, "input_gradient_batch", "classifier.input_gradient_batch",
                 lambda params, X, labels: (_rows(X), 0.0))
    tracer.patch(classifier, "train", "classifier.train")
    tracer.patch(attack, "flow_pgd_attack", "attack.flow_pgd_attack")
    tracer.patch(attack, "project_l1_ball", "attack.project_l1_ball")
    tracer.patch(attack, "wasserstein_grid_l1", _grid_name)
    tracer.patch(transport_oracle, "wasserstein_grid_l1", _grid_name)
    tracer.patch(transport_oracle, "wasserstein_lp", "transport_oracle.wasserstein_lp")
    tracer.patch(dataset_io, "synthetic_dataset", "dataset_io.synthetic_dataset")
    tracer.patch(dataset_io.LabeledDataset, "as_arrays", "dataset_io.as_arrays")


# Per-layer metrics with their units, in report order.  Layers measured in
# set-up report the median over set-up repetitions; all others sum over the
# traced ops.
SETUP_METRICS = {
    "classifier.train.busy_s": "s",
    "dataset_io.synthetic_dataset.busy_s": "s",
    "dataset_io.as_arrays.calls": "count",
    "dataset_io.as_arrays.busy_s": "s",
}
_OP_LAYERS = {
    "smoothing.certify": ("calls", "busy_s", "self_s"),
    "smoothing.smoothed_predict": ("calls", "busy_s", "self_s"),
    "smoothing.clopper_pearson_lower": ("calls", "busy_s"),
    "smoothing.prediction_from_counts": ("calls", "busy_s"),
    "classifier.forward_batch": ("calls", "rows", "busy_s"),
    "classifier.input_gradient_batch": ("calls", "rows", "busy_s"),
    "attack.flow_pgd_attack": ("calls", "busy_s", "self_s"),
    "attack.project_l1_ball": ("calls", "busy_s"),
    "transport_oracle.wasserstein_grid_l1.16x16": ("calls", "busy_s"),
    "transport_oracle.wasserstein_grid_l1.8x8": ("calls", "busy_s"),
    "transport_oracle.wasserstein_lp": ("calls", "busy_s"),
}
_UNITS = {"calls": "count", "rows": "count", "busy_s": "s", "self_s": "s"}
DERIVED_METRICS = {
    "smoothing.draws": "count",
    "smoothing.draws_per_s": "1/s",
    "smoothing.certified_fraction": "fraction",
    "classifier.forward_batch.gflops_per_s": "GFLOP/s",
    "attack.iterations": "count",
    "attack.predict_evals": "count",
    "attack.successes": "count",
    "trace.overhead_frac": "fraction",
}
PER_LAYER_UNITS = {
    **{f"{layer}.{field}": _UNITS[field] for layer, fields in _OP_LAYERS.items() for field in fields},
    **SETUP_METRICS,
    **DERIVED_METRICS,
}


def _layer_totals(spans, keep) -> dict[str, dict[str, float]]:
    """calls, rows, flops, busy and self seconds per span name, over the
    spans whose op id satisfies ``keep``."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    totals: dict[str, dict[str, float]] = {}
    for sid, s in enumerate(spans):
        if not keep(s[OP]):
            continue
        t = totals.setdefault(s[NAME], {"calls": 0, "rows": 0, "flops": 0.0, "busy_s": 0.0, "self_s": 0.0})
        busy = s[END] - s[START]
        t["calls"] += 1
        t["rows"] += s[ROWS]
        t["flops"] += s[FLOPS]
        t["busy_s"] += busy
        t["self_s"] += busy - child[sid]
    return totals


def _draws(spans, keep) -> int:
    """Noise draws scored by the smoothed classifier: forward rows whose
    caller chain passes through certify or smoothed_predict."""
    sampling = {"smoothing.certify", "smoothing.smoothed_predict"}
    total = 0
    for s in spans:
        if s[NAME] != "classifier.forward_batch" or not keep(s[OP]):
            continue
        parent = s[PARENT]
        while parent is not None and spans[parent][NAME] not in sampling:
            parent = spans[parent][PARENT]
        if parent is not None:
            total += s[ROWS]
    return total


def per_layer_metrics(tracer: Tracer, setup_ops, counters: dict[str, float],
                      overhead_frac: float) -> dict[str, float]:
    """All per-layer metrics of a traced run.

    ``setup_ops`` are the op ids of the set-up repetitions; every integer op
    id is a traced op.  ``counters`` holds the harness's own per-op tallies
    (attack iterations and successes, non-abstaining certificates).
    """
    spans = tracer.spans
    known = {OP_SPAN, *_OP_LAYERS, *(key.rsplit(".", 1)[0] for key in SETUP_METRICS)}
    unknown = {s[NAME] for s in spans} - known
    if unknown:
        raise ValueError(f"spans with no per-layer metric: {sorted(unknown)}")
    is_op = lambda op: isinstance(op, int)  # noqa: E731
    ops = _layer_totals(spans, is_op)
    metrics: dict[str, float] = {}
    for layer, fields in _OP_LAYERS.items():
        t = ops.get(layer, {})
        for field in fields:
            metrics[f"{layer}.{field}"] = t.get(field, 0)
    per_rep = [_layer_totals(spans, lambda op, r=r: op == r) for r in setup_ops]
    for key in SETUP_METRICS:
        layer, field = key.rsplit(".", 1)
        metrics[key] = statistics.median(rep.get(layer, {}).get(field, 0) for rep in per_rep)

    sampling_busy = metrics["smoothing.certify.busy_s"] + metrics["smoothing.smoothed_predict.busy_s"]
    draws = _draws(spans, is_op)
    forward = ops.get("classifier.forward_batch", {})
    certify_calls = metrics["smoothing.certify.calls"]
    metrics.update({
        "smoothing.draws": draws,
        "smoothing.draws_per_s": draws / sampling_busy if sampling_busy else 0.0,
        "smoothing.certified_fraction":
            counters.get("certified", 0) / certify_calls if certify_calls else 0.0,
        "classifier.forward_batch.gflops_per_s":
            forward["flops"] / forward["busy_s"] / 1e9 if forward.get("busy_s") else 0.0,
        "attack.iterations": counters.get("iterations", 0),
        # smoothed_predict is wrapped where the attack module looks it up,
        # so every traced call is an attack's prediction.
        "attack.predict_evals": metrics["smoothing.smoothed_predict.calls"],
        "attack.successes": counters.get("successes", 0),
        "trace.overhead_frac": overhead_frac,
    })
    return {key: metrics[key] for key in PER_LAYER_UNITS}


def self_time_total(tracer: Tracer) -> float:
    """Summed self time of every span inside traced ops; equals the summed
    duration of the op root spans."""
    totals = _layer_totals(tracer.spans, lambda op: isinstance(op, int))
    return sum(t["self_s"] for t in totals.values())
