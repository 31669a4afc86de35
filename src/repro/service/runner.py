"""Job execution: one (program, Θ, D) campaign in a supervised child.

:func:`execute_job` is the function the daemon's workers run — usually
inside a forked, watched, resource-limited child via
:class:`~repro.resilience.supervision.runner.SupervisedCall`, so a job
that hangs, leaks, or dies takes down its child, never a worker.  It is
deliberately *pure*: spec in, digest out, no daemon state touched — the
property that makes a retried attempt bit-identical to the first.

The digest carries SHA-256 content hashes of the observed and carved
offset arrays, which is how the chaos drills (and the cache) assert that
a requeued-after-SIGKILL job produced *exactly* the result an
uninterrupted run would have.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np

from repro.core import Kondo
from repro.fuzzing import FuzzConfig
from repro.perf.config import PerfConfig
from repro.service.jobs import JobSpec
from repro.workloads import get_program


def _array_sha256(arr: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(arr, dtype=np.int64).tobytes()
    ).hexdigest()


def result_digest(result) -> dict:
    """The compact, record-able summary of one campaign result."""
    return {
        "iterations": int(result.fuzz.iterations),
        "n_useful": int(result.fuzz.n_useful),
        "observed": int(result.observed_flat.size),
        "carved": int(result.carved_flat.size),
        "n_hulls": int(result.carve.n_hulls),
        "observed_sha256": _array_sha256(result.observed_flat),
        "carved_sha256": _array_sha256(result.carved_flat),
    }


def execute_job(spec_json: dict) -> dict:
    """Run the campaign a job spec describes; return its result digest.

    Takes the JSON form (not the dataclass) so the call pickles/forks
    cleanly and the child revalidates the spec itself.
    """
    spec = JobSpec.from_json(spec_json)
    program = get_program(spec.program)
    fuzz = FuzzConfig(rng_seed=spec.seed)
    if spec.max_iter is not None:
        fuzz = replace(fuzz, max_iter=spec.max_iter)
    perf = PerfConfig(workers=spec.workers) if spec.workers else None
    kondo = Kondo(program, spec.dims, fuzz_config=fuzz,
                  carver=spec.carver, perf=perf)
    result = kondo.analyze(time_budget_s=spec.budget_s)
    return result_digest(result)
