"""Kondo benchmark: the debloat pipeline and the campaign service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pipeline-3d --seed 1 --seconds 30 --trace 0

Workloads: ``pipeline-3d``, ``audit-2d``, ``serve`` (see
``perfbench/README.md`` for why each exists; the traced ``serve`` run
also measures the fleet layer).  ``--trace 0`` measures
the end-to-end metrics; ``--trace 1`` runs the same work untraced and
then traced, and reports the per-layer metrics.  The metric names, units
and directions come from ``BENCHMARK.json``; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The line before it carries the run's details (passes or
jobs, tail percentile and its sample count, outstanding jobs, poll
interval, the first errors).  With ``--trace 1`` the spans are written
to ``perfbench/.out/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("pipeline-3d", "audit-2d", "serve")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def declared_metrics(trace: bool) -> dict:
    """``{name: unit}`` of the metrics BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: str):
    import pipeline
    import service

    if name == "pipeline-3d":
        return pipeline.run(pipeline.PIPELINE_3D, seed, seconds, trace,
                            workdir)
    if name == "audit-2d":
        return pipeline.run(pipeline.AUDIT_2D, seed, seconds, trace, workdir)
    return service.run(service.SERVE, seed, seconds, trace, workdir, SRC)


def result_line(outcome, declared: dict, trace: bool) -> dict:
    """The contract's result object; per-layer metrics of layers the
    workload never calls read 0."""
    unknown = set(outcome.metrics) - set(declared)
    missing = set(declared) - set(outcome.metrics)
    if unknown or (missing and not trace):
        raise RuntimeError(f"metrics not as declared: unknown "
                           f"{sorted(unknown)}, missing {sorted(missing)}")
    metrics = {name: {"value": float(outcome.metrics.get(name, 0.0)),
                      "unit": unit}
               for name, unit in declared.items()}
    return {"correct": outcome.failed == 0, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no Kondo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    declared = declared_metrics(bool(args.trace))
    # Relative, so daemon socket paths stay short wherever the checkout is.
    workdir = os.path.join("perfbench", ".work",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), workdir)
        if args.trace:
            out = os.path.join("perfbench", ".out")
            os.makedirs(out, exist_ok=True)
            shutil.copy(os.path.join(workdir, "spans.jsonl"), os.path.join(
                out, f"spans-{args.workload}-{args.seed}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = result_line(outcome, declared, bool(args.trace))
    info = dict(outcome.info, workload=args.workload, seed=args.seed,
                failed_frac=outcome.failed / max(1, outcome.attempted))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
