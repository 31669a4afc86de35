"""The pipeline workloads: ``pipeline-3d`` and ``audit-2d``.

One *pass* runs, for every program of the workload, ``Kondo.analyze``
followed by ``Kondo.debloat_file`` of a real KND source file.  Every
pass of a run repeats the same work (same sources, same fuzz seeds),
and a run makes as many passes as its seconds hold at the workload's
nominal pass time.
Each program run is then checked outside the timed region: the KNDS
file opens with its CRC verified, holds exactly the carved element
count, returns the source's values at sampled indices, and the
observed indices are a subset of the carved ones.

``pipeline_s`` is the sum over the programs of each program's best
time (analyze + debloat_file) over the passes.  Other tenants of a
shared host slow a core by up to 1.4x for seconds at a time; the best
of the passes is the one they disturbed least, and a change to the
program moves it as much as it moves every pass.

A run of these workloads has one *job*, the debloat of the workload's
whole data set, and its latency is ``pipeline_s``: ``job_p50_s`` and
``job_tail_s`` repeat it and ``jobs_per_s`` is its inverse.  Two finer
jobs were tried and dropped as unsteady.  One pass as the job: the
slowest of two passes spread 0.22 over five seeds, against 0.11 for
``pipeline_s``.  One program run as the job: which program is the
middle one changed from seed to seed, and the median with it.
"""

from __future__ import annotations

import os
import resource
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro import (
    ArrayFile,
    ArraySchema,
    DebloatedArrayFile,
    DebloatTest,
    FuzzConfig,
    Kondo,
    accuracy,
    get_program,
)

from common import Outcome, median, repeat_setup, stopwatch
from tracer import Tracer

#: Indices per program run whose KNDS value is compared with the source.
VALUE_SAMPLES = 256
#: Fuzz seeds tried per program run before an empty subset is accepted.
MAX_ATTEMPTS = 4


@dataclass(frozen=True)
class PipelineWorkload:
    name: str
    programs: Tuple[Tuple[str, Tuple[int, ...]], ...]
    #: Debloat tests read the KND file through the audit layer.
    audited: bool
    #: The traced run adds a tracemalloc pass for per-layer peaks.  Off
    #: for audit-2d: event capture allocates per I/O call, and the pass
    #: would run about five times slower than the untraced one.
    track_memory: bool
    #: ``FuzzConfig.max_iter``; Kondo multiplies it by ndim - 1, so a 3-D
    #: campaign runs twice as many debloat tests.  Every campaign runs
    #: all of them (no stop on stagnation), so the seed changes the
    #: inputs and not the amount of work.
    max_iter: int
    #: Nominal seconds of one pass on a 2-vCPU host.  A run makes
    #: ``seconds // pass_s`` passes (at least one), a count that does not
    #: depend on how fast the host happens to run.
    pass_s: float


PIPELINE_3D = PipelineWorkload(
    "pipeline-3d",
    (("PRL3D", (192, 192, 192)), ("LDC3D", (128, 128, 128)),
     ("RDC3D", (128, 128, 128))),
    audited=False, track_memory=True, max_iter=2000, pass_s=13.0,
)
AUDIT_2D = PipelineWorkload(
    "audit-2d",
    (("CS", (128, 128)), ("LDC2D", (128, 128)), ("RDC2D", (128, 128)),
     ("PRL2D", (256, 256))),
    audited=True, track_memory=False, max_iter=800, pass_s=7.0,
)


@dataclass
class ProgramRun:
    name: str
    dims: Tuple[int, ...]
    seconds: float
    iterations: int
    useful: int
    n_hulls: int
    carved: np.ndarray
    observed: np.ndarray
    error: Optional[str] = None


def source_path(workdir: str, name: str) -> str:
    return os.path.join(workdir, f"{name}.knd")


def make_sources(workload: PipelineWorkload, seed: int, workdir: str) -> None:
    for i, (name, dims) in enumerate(workload.programs):
        rng = np.random.default_rng([seed, i])
        ArrayFile.create(source_path(workdir, name), ArraySchema(dims, "f8"),
                         rng.standard_normal(dims)).close()


def run_program(workload: PipelineWorkload, index: int, seed: int,
                workdir: str) -> ProgramRun:
    """One timed analyze + debloat_file for one program."""
    name, dims = workload.programs[index]
    src = source_path(workdir, name)
    t0 = time.perf_counter()
    # A campaign that finds no useful debloat test carves an empty subset
    # (with the default stagnation stop, PRL3D did on about one seed in
    # ten); like a user, re-run it with the next fuzz seed rather than
    # ship nothing.
    for attempt in range(MAX_ATTEMPTS):
        kondo = Kondo(get_program(name), dims, fuzz_config=FuzzConfig(
            max_iter=workload.max_iter,
            stop_iter=workload.max_iter * len(dims),
            rng_seed=(seed * 16 + index) * MAX_ATTEMPTS + attempt))
        test = kondo.make_test(
            mode="audited" if workload.audited else "direct",
            data_path=src if workload.audited else None)
        result = kondo.analyze(test=test)
        if result.fuzz.n_useful:
            break
    kondo.debloat_file(src, os.path.join(workdir, f"{name}.knds"),
                       result).close()
    seconds = time.perf_counter() - t0
    return ProgramRun(name, dims, seconds, int(result.fuzz.iterations),
                      int(result.fuzz.n_useful),
                      int(result.carve.n_hulls), result.carved_flat,
                      result.observed_flat)


def check_program(run: ProgramRun, seed: int, workdir: str) -> Optional[str]:
    """Verify one program run's KNDS output; ``None`` when correct."""
    if not np.isin(run.observed, run.carved).all():
        return f"{run.name}: observed indices outside the carved set"
    path = os.path.join(workdir, f"{run.name}.knds")
    with DebloatedArrayFile.open(path) as knds, \
            ArrayFile.open(source_path(workdir, run.name)) as src:
        kept = knds.kept_nbytes // knds.schema.itemsize
        if kept != run.carved.size:
            return f"{run.name}: KNDS holds {kept} elements, carved " \
                   f"{run.carved.size}"
        rng = np.random.default_rng(seed)
        picks = rng.choice(run.carved, size=min(VALUE_SAMPLES,
                                                run.carved.size),
                           replace=False)
        for flat in picks:
            index = np.unravel_index(int(flat), run.dims)
            if knds.read_point(index) != src.read_point(index):
                return f"{run.name}: value mismatch at {index}"
    return None


def run_pass(workload: PipelineWorkload, seed: int,
             workdir: str) -> List[ProgramRun]:
    runs = []
    for i in range(len(workload.programs)):
        try:
            runs.append(run_program(workload, i, seed, workdir))
        except Exception as exc:  # counted as a failed operation
            name, dims = workload.programs[i]
            runs.append(ProgramRun(name, dims, 0.0, 0, 0, 0,
                                   np.empty(0, np.int64),
                                   np.empty(0, np.int64),
                                   error=f"{name}: {exc!r}"))
    return runs


def score(runs: List[ProgramRun]) -> Tuple[float, float, float]:
    """Mean recall, precision and % debloated over the programs."""
    recall, precision, debloat = [], [], []
    for r in runs:
        truth = get_program(r.name).ground_truth_flat(r.dims)
        acc = accuracy(truth, r.carved)
        recall.append(acc.recall)
        precision.append(acc.precision)
        debloat.append(100.0 * (1.0 - r.carved.size / np.prod(r.dims)))
    return (float(np.mean(recall)), float(np.mean(precision)),
            float(np.mean(debloat)))


def run(workload: PipelineWorkload, seed: int, seconds: float,
        trace: bool, workdir: str) -> Outcome:
    setup = repeat_setup(
        lambda _rep: stopwatch(make_sources, workload, seed, workdir))
    passes: List[List[ProgramRun]] = []
    errors: List[str] = []
    n_passes = 1 if trace else max(1, int(seconds // workload.pass_s))
    for _ in range(n_passes):
        runs = run_pass(workload, seed, workdir)
        if not passes:
            # The first pass's peak: a second pass on pipeline-3d raised
            # it by about 100 MB, so the value would depend on --seconds.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        errors += [r.error or check_program(r, seed, workdir) for r in runs]
        passes.append(runs)
    errors = [e for e in errors if e]
    attempted = sum(len(p) for p in passes)
    program_s = {name: min(p[i].seconds for p in passes)
                 for i, (name, _) in enumerate(workload.programs)}
    pipeline_s = sum(program_s.values())
    recall, precision, debloat_pct = score(passes[-1])
    info = {"passes": len(passes), "jobs": 1,
            "pass_s": [sum(r.seconds for r in p) for p in passes],
            "program_s": program_s,
            "tail_percentile": 100.0, "jobs_beyond_tail": 0,
            "setup_reps": len(setup), "errors": errors[:5]}
    if trace:
        metrics, traced_attempted, traced_failed = traced_metrics(
            workload, seed, workdir, pipeline_s)
        return Outcome(metrics, attempted + traced_attempted,
                       len(errors) + traced_failed, info)
    metrics = {
        "setup_s": median(setup),
        "pipeline_s": pipeline_s,
        "peak_rss_mb": peak_rss_mb,
        "recall": recall,
        "precision": precision,
        "debloat_pct": debloat_pct,
        "job_p50_s": pipeline_s,
        "job_tail_s": pipeline_s,
        "jobs_per_s": 1.0 / pipeline_s,
    }
    return Outcome(metrics, attempted, len(errors), info)


# -- the traced run ----------------------------------------------------------


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every pipeline layer."""
    from repro.arraymodel import debloated
    from repro.audit.blockcapture import BlockRecorder
    from repro.audit.session import AuditSession
    from repro.carving import carver, merge
    from repro.fuzzing.schedule import FuzzSchedule
    from repro.geometry.hull import Hull
    from repro.workloads.base import Program

    tracer.wrap(Kondo, "analyze", "core.analyze")
    tracer.wrap(Kondo, "debloat_file", "core.debloat_file")
    tracer.wrap(FuzzSchedule, "run", "fuzzing.run")
    tracer.wrap(DebloatTest, "__call__", "fuzzing.execute")
    tracer.wrap(Program, "access_flat", "workloads.access")
    tracer.wrap(Program, "run", "workloads.access")
    tracer.wrap(carver, "split_into_cells", "carving.split")
    tracer.wrap(carver.Carver, "build_cell_hulls", "carving.cell_hulls",
                counter=len)
    tracer.wrap(carver, "merge_hulls", "carving.merge")
    tracer.wrap(merge, "close", "carving.close", spans=False)
    tracer.wrap(Hull, "from_points", "geometry.hull")
    tracer.wrap(carver, "lattice_boundary_points", "geometry.lattice")
    tracer.wrap(carver, "flat_indices_in_hulls", "geometry.raster")
    tracer.wrap(carver, "integer_points_in_hulls", "geometry.raster")
    tracer.wrap(carver, "union_flat", "perf.union")
    tracer.wrap(debloated, "extents_from_flat_indices", "arraymodel.extents",
                counter=len)
    tracer.wrap(DebloatedArrayFile, "create", "arraymodel.create",
                counter=lambda f: f.file_nbytes)
    tracer.wrap(AuditSession, "accessed_indices", "audit.accessed_indices")
    tracer.wrap(AuditSession, "record", "audit.record", spans=False)
    tracer.wrap(BlockRecorder, "record", "audit.record", spans=False)


def audit_overhead(workload: PipelineWorkload, seed: int,
                   workdir: str) -> float:
    """Pooled ``measure_overhead`` slowdown over the workload's programs.

    Each reader replays three useful valuations drawn from the seed.
    """
    from repro.audit.overhead import measure_overhead

    plain = audited = 0.0
    for i, (name, dims) in enumerate(workload.programs):
        program = get_program(name)
        space = program.parameter_space(dims)
        rng = np.random.default_rng([seed, i, 1])
        values = []
        while len(values) < 3:
            v = space.sample(rng)
            if program.is_useful(v, dims):
                values.append(v)

        def reader(f, program=program, values=values, dims=dims):
            return sum(program.run(f.read_point, v, dims) for v in values)

        report = measure_overhead(name, source_path(workdir, name), reader)
        plain += report.plain_seconds
        audited += report.plain_seconds * (1.0 + report.overhead_fraction)
    return audited / plain - 1.0


def traced_pass(workload: PipelineWorkload, seed: int, workdir: str,
                memory: bool) -> Tuple[Tracer, List[ProgramRun], int]:
    """One pass with every layer wrapped; returns its failed checks too."""
    tracer = Tracer(memory=memory)
    with tracer:
        install(tracer)
        runs = []
        for i in range(len(workload.programs)):
            tracer.set_run(f"{workload.name}:{workload.programs[i][0]}")
            runs.append(run_program(workload, i, seed, workdir))
    failed = sum(1 for r in runs if check_program(r, seed, workdir))
    return tracer, runs, failed


def traced_metrics(workload: PipelineWorkload, seed: int, workdir: str,
                   untraced_s: float) -> Tuple[dict, int, int]:
    """Per-layer metrics; returns them with the operations attempted and
    failed.  Spans are timed without tracemalloc, whose per-allocation
    hook would distort layer times; allocation peaks come from a second
    pass on workloads with ``track_memory``."""
    tracer, runs, failed = traced_pass(workload, seed, workdir, False)
    tracer.write(os.path.join(workdir, "spans.jsonl"))
    attempted = len(runs)
    tests = sum(r.iterations for r in runs)
    run_s = tracer.total("fuzzing.run")
    count = tracer.counts.get
    metrics = {
        "core.analyze_s": tracer.total("core.analyze"),
        "core.debloat_file_s": tracer.total("core.debloat_file"),
        "fuzzing.run_s": run_s,
        "fuzzing.execute_s": tracer.total("fuzzing.execute"),
        "fuzzing.schedule_s": tracer.self_total("fuzzing.run"),
        "fuzzing.tests": tests,
        "fuzzing.useful_frac": sum(r.useful for r in runs) / tests,
        "fuzzing.tests_per_s": tests / run_s,
        "workloads.access_s": tracer.total("workloads.access"),
        "carving.split_s": tracer.total("carving.split"),
        "carving.cell_hulls": count("carving.cell_hulls", 0),
        "carving.merge_s": tracer.total("carving.merge"),
        "carving.close_calls": count("carving.close", 0),
        "carving.hulls": sum(r.n_hulls for r in runs),
        "geometry.hull_s": tracer.total("geometry.hull"),
        "geometry.lattice_s": tracer.total("geometry.lattice"),
        "geometry.raster_s": tracer.total("geometry.raster"),
        "perf.union_s": tracer.total("perf.union"),
        "arraymodel.extents_s": tracer.total("arraymodel.extents"),
        "arraymodel.extents": count("arraymodel.extents", 0),
        "arraymodel.create_s": tracer.total("arraymodel.create"),
        "arraymodel.bytes_written": count("arraymodel.create", 0),
        "audit.accessed_indices_s": tracer.total("audit.accessed_indices"),
        "audit.io_calls": count("audit.record", 0),
        "audit.overhead_frac": (audit_overhead(workload, seed, workdir)
                                if workload.audited else 0.0),
        "trace.overhead_frac":
            sum(r.seconds for r in runs) / untraced_s - 1.0,
    }
    if workload.track_memory:
        memory, runs, mem_failed = traced_pass(workload, seed, workdir, True)
        attempted += len(runs)
        failed += mem_failed
        for layer in ("fuzzing", "carving", "geometry", "arraymodel"):
            metrics[f"{layer}.peak_mb"] = memory.peak_mb(f"{layer}.")
    return metrics, attempted, failed
