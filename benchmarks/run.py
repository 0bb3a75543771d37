"""wsmooth benchmark: certify-28, attack-16 and oracle-16.

Run from the repository root:

    python3 benchmarks/run.py --workload certify-28 --seed 1 --seconds 20 --trace 0

One process, workers=1 and BLAS pinned to one thread.  The workload's
dataset, noise, training and check settings are fixed in
benchmarks/workloads.json; the seed only changes the generated inputs.
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
reports per-layer metrics from spans recorded around the library's public
entry points, and writes the spans to benchmarks/out/.  The last line of
standard output is the result object as JSON.
"""

import os
import sys
import time

_T0 = time.perf_counter()
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv) -> int:
    import argparse
    import json
    from pathlib import Path

    parser = argparse.ArgumentParser(description="wsmooth benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    here = Path(__file__).resolve().parent
    root = here.parent
    if not (root / "src" / "wsmooth" / "__init__.py").is_file():
        print(f"error: no wsmooth sources under {root / 'src'}", file=sys.stderr)
        return 2
    settings = json.loads((here / "workloads.json").read_text())
    if not isinstance(settings.get(args.workload), dict):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    sys.path.insert(0, str(root / "src"))
    import harness  # imports numpy, scipy and wsmooth

    import_s = time.perf_counter() - _T0
    env = harness.environment(root, args.seed, BLAS_VARS)
    print("env " + json.dumps(env))
    try:
        result = harness.run_workload(args.workload, settings, args.seed, args.seconds,
                                      bool(args.trace), import_s)
    except harness.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    tracer = result.pop("tracer")
    if tracer:
        tracer.write(here / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
    detail = result.pop("detail")
    print("detail " + json.dumps(detail))
    metrics = result["metrics"]
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']} {m['unit']}")
    if not args.trace:
        print(f"as failed_fraction = {detail['failed_fraction']} fraction")
        for alias, name in harness.ALIASES[args.workload].items():
            print(f"as {alias} = {metrics[name]['value']} {metrics[name]['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.exit(main(sys.argv[1:]))
