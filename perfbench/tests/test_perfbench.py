"""Tests of the benchmark harness (not of Kondo itself).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Every workload runs once untraced and once traced at a tiny scale; the
metric set is checked against BENCHMARK.json and against the list the
benchmark was specified with; and the traced run must leave every
function it wrapped exactly as it found it.
"""

import dataclasses
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import pipeline  # noqa: E402
import run as runner  # noqa: E402
import service  # noqa: E402
from tracer import Tracer  # noqa: E402

END_TO_END = {"setup_s", "pipeline_s", "peak_rss_mb", "recall", "precision",
              "debloat_pct", "job_p50_s", "job_tail_s", "jobs_per_s"}
PER_LAYER = {
    "geometry.hull_s", "geometry.lattice_s", "carving.split_s",
    "carving.cell_hulls", "carving.merge_s", "carving.close_calls",
    "carving.hulls", "geometry.raster_s", "perf.union_s",
    "arraymodel.extents_s", "arraymodel.create_s", "arraymodel.extents",
    "arraymodel.bytes_written", "core.debloat_file_s", "fuzzing.run_s",
    "fuzzing.execute_s", "fuzzing.schedule_s", "fuzzing.tests",
    "fuzzing.useful_frac", "fuzzing.tests_per_s", "workloads.access_s",
    "core.analyze_s", "audit.accessed_indices_s", "audit.io_calls",
    "audit.overhead_frac", "service.submit_s", "service.status_s",
    "service.queue_wait_s", "service.shard_exec_s", "service.merge_s",
    "service.notify_s", "service.cache_hit_s", "service.retries",
    "fleet.submit_s", "fleet.status_s", "fleet.audit_s", "fleet.double_exec",
    "fleet.latency_drift", "fleet.store_files", "fuzzing.peak_mb",
    "carving.peak_mb", "geometry.peak_mb", "arraymodel.peak_mb",
    "trace.overhead_frac",
}
#: Per-layer metrics each workload must report as measured (non-zero).
EXERCISED = {
    "pipeline-3d": {m for m in PER_LAYER
                    if m.split(".")[0] in ("geometry", "carving", "perf",
                                           "arraymodel", "core", "fuzzing",
                                           "workloads")},
    "audit-2d": {"audit.accessed_indices_s", "audit.io_calls",
                 "audit.overhead_frac", "fuzzing.execute_s",
                 "core.analyze_s", "arraymodel.create_s"},
    # The traced serve run also drives a two-daemon fleet.
    "serve": {m for m in PER_LAYER if m.startswith("service.")}
    - {"service.retries"}
    | {"fleet.submit_s", "fleet.status_s", "fleet.audit_s",
       "fleet.latency_drift", "fleet.store_files"},
}

TINY = {
    "pipeline-3d": dataclasses.replace(
        pipeline.PIPELINE_3D,
        programs=(("PRL3D", (16, 16, 16)), ("LDC3D", (12, 12, 12)),
                  ("RDC3D", (12, 12, 12)))),
    "audit-2d": dataclasses.replace(
        pipeline.AUDIT_2D,
        programs=(("CS", (16, 16)), ("LDC2D", (16, 16)),
                  ("RDC2D", (16, 16)), ("PRL2D", (20, 20)))),
    "serve": dataclasses.replace(service.SERVE, dims=(16, 16), max_iter=32),
}


def run_tiny(name, trace, workdir):
    workload = TINY[name]
    if isinstance(workload, pipeline.PipelineWorkload):
        return pipeline.run(workload, 3, 0.1, trace, workdir)
    return service.run(workload, 3, 1.0, trace, workdir, runner.SRC)


def test_benchmark_json_declares_every_metric_with_unit_and_direction():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(runner.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"] for m in spec["per_layer"]} == PER_LAYER
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] and m["better"] in ("higher", "lower"), m
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", runner.WORKLOADS)
def test_tiny_run_is_correct_and_emits_every_metric(name, trace, tmp_path):
    outcome = run_tiny(name, trace, str(tmp_path))
    assert outcome.attempted >= 1
    assert outcome.failed == 0, outcome.info["errors"]
    line = runner.result_line(outcome, runner.declared_metrics(trace), trace)
    assert line["correct"]
    assert set(line["metrics"]) == (PER_LAYER if trace else END_TO_END)
    values = {k: v["value"] for k, v in line["metrics"].items()}
    if trace:
        assert all(values[m] > 0 for m in EXERCISED[name]), values
    else:
        assert all(v > 0 for v in values.values()), values


def wrapped_targets():
    tracer = Tracer()
    pipeline.install(tracer)
    targets = [(owner, attr, raw) for owner, attr, raw in tracer._patches]
    tracer.restore()
    return targets


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else \
        getattr(owner, attr)


def test_traced_run_restores_every_wrapped_function(tmp_path):
    targets = wrapped_targets()
    assert len(targets) >= 15
    pipeline.make_sources(TINY["pipeline-3d"], 3, str(tmp_path))
    tracer, runs, failed = pipeline.traced_pass(TINY["pipeline-3d"], 3,
                                                str(tmp_path), True)
    assert failed == 0 and tracer.spans
    for owner, attr, raw in targets:
        assert current(owner, attr) is raw, (owner, attr)


def test_tracer_self_time_subtracts_children():
    tracer = Tracer()

    def child():
        return sum(range(20000))

    def parent():
        return tracer.call("child", child) + tracer.call("child", child)

    tracer.call("parent", parent)
    spans = {s.name: s for s in tracer.spans}
    selfs = tracer.self_times()
    parent_span = spans["parent"]
    children = sum(s.end - s.start for s in tracer.spans
                   if s.name == "child")
    assert selfs[parent_span.id] == pytest.approx(
        parent_span.end - parent_span.start - children)
    assert all(s.parent == parent_span.id for s in tracer.spans
               if s.name == "child")
