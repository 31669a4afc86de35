"""The end-to-end Kondo pipeline (paper Figure 3).

``Kondo`` wires the pieces together: sample initial parameter values, run
the audited fuzzer (Algorithm 1), hand the discovered index set to the
carver (Algorithm 2), and optionally materialize the debloated data file
``D_Theta`` in the KNDS format.

Typical use::

    from repro import Kondo, get_program

    program = get_program("CS")
    kondo = Kondo(program, dims=(128, 128))
    result = kondo.analyze()
    print(result.summary())
    kondo.debloat_file("mnist.knd", "mnist.knds", result)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro.arraymodel.datafile import ArrayFile
from repro.arraymodel.debloated import DebloatedArrayFile
from repro.carving.carver import Carver, CarveResult
from repro.carving.simple_convex import SimpleConvexCarver
from repro.core.debloat_test import DebloatTest
from repro.errors import ProgramError
from repro.fuzzing.config import CarveConfig, FuzzConfig
from repro.fuzzing.schedule import FuzzCampaignResult, FuzzSchedule
from repro.resilience.config import ResilienceConfig
from repro.resilience.supervision import supervisor_from_config
from repro.workloads.base import Program

#: Reference extent the paper's Figure 5 configuration was tuned for.
_REFERENCE_EXTENT = 128.0


@dataclass
class KondoResult:
    """Combined output of one Kondo analysis."""

    program: str
    dims: tuple
    fuzz: FuzzCampaignResult
    carve: CarveResult
    elapsed_seconds: float

    @property
    def carved_flat(self) -> np.ndarray:
        """Flat offsets of the approximated ``I'_Theta``."""
        return self.carve.flat_indices

    @property
    def observed_flat(self) -> np.ndarray:
        """Flat offsets directly observed by fuzzing (before carving)."""
        return self.fuzz.flat_indices

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        n = int(np.prod(self.dims))
        kept = self.carved_flat.size
        return (
            f"Kondo[{self.program} {self.dims}]: "
            f"{self.fuzz.iterations} debloat tests "
            f"({self.fuzz.n_useful} useful) in {self.elapsed_seconds:.2f}s; "
            f"{self.observed_flat.size} offsets observed, "
            f"{kept} carved into {self.carve.n_hulls} hulls "
            f"({100.0 * (1 - kept / n):.1f}% of the array debloated)"
        )


class Kondo:
    """Provenance-driven data debloater for one program + array shape.

    Args:
        program: the containerized application's entry program.
        dims: shape of the data array ``D``.
        fuzz_config: Algorithm 1 configuration (paper defaults if omitted).
        carve_config: Algorithm 2 configuration (paper defaults if omitted).
        auto_scale: scale frame distances / cell sizes / merge thresholds
            proportionally when ``dims`` differ from the 128-reference the
            paper tuned for (Section V-D4 keeps relative behaviour stable
            across file sizes).
        carver: "merge" for Kondo's bottom-up merging carver, "simple" for
            the SC baseline carver.
        resilience: convenience override — when given, replaces the
            ``resilience`` layer of the fuzz config (campaign
            checkpointing, quarantine, supervised execution).
            Resilience settings never change a fault-free run's results.
    """

    def __init__(
        self,
        program: Program,
        dims: Sequence[int],
        fuzz_config: Optional[FuzzConfig] = None,
        carve_config: Optional[CarveConfig] = None,
        auto_scale: bool = True,
        carver: str = "merge",
        resilience: Optional[ResilienceConfig] = None,
    ):
        self.program = program
        self.dims = program.check_dims(dims)
        fuzz_config = fuzz_config if fuzz_config is not None else FuzzConfig()
        carve_config = carve_config if carve_config is not None else CarveConfig()
        if resilience is not None:
            fuzz_config = replace(fuzz_config, resilience=resilience)
        if auto_scale:
            space = program.parameter_space(self.dims)
            fuzz_config = fuzz_config.scaled_to(
                max(space.max_extent, 1.0), _REFERENCE_EXTENT
            )
            carve_config = carve_config.scaled_to(
                float(max(self.dims)), _REFERENCE_EXTENT
            )
            if self.program.ndim >= 3:
                # Higher-dimensional parameter spaces need proportionally
                # more debloat tests to outline subset boundaries — the
                # paper's per-program time budgets grow the same way
                # (e.g. PRL 14.4 s in 2-D vs 28 s in 3-D, Section V-C).
                fuzz_config = replace(
                    fuzz_config,
                    max_iter=fuzz_config.max_iter * (self.program.ndim - 1),
                )
        self.fuzz_config = fuzz_config
        self.carve_config = carve_config
        if carver == "merge":
            self.carver = Carver(self.dims, carve_config)
        elif carver == "simple":
            self.carver = SimpleConvexCarver(self.dims, carve_config)
        else:
            raise ProgramError(f"unknown carver {carver!r}")

    def make_test(self, mode: str = "direct",
                  data_path: Optional[str] = None) -> DebloatTest:
        """Construct the audited debloat test this pipeline fuzzes with."""
        return DebloatTest(self.program, self.dims, mode=mode,
                           data_path=data_path)

    def analyze(
        self,
        time_budget_s: Optional[float] = None,
        test: Optional[DebloatTest] = None,
        resume_from: Optional[str] = None,
    ) -> KondoResult:
        """Run fuzzing then carving; return the combined result.

        Args:
            time_budget_s: optional wall-clock cap for the fuzz campaign.
            test: override the debloat test (defaults to a fresh one).
            resume_from: path of a campaign checkpoint written by a prior
                (crashed or interrupted) run with
                ``resilience.checkpoint_path`` set; the campaign resumes
                from the checkpointed iteration and completes exactly as
                the uninterrupted run would have.
        """
        start = time.perf_counter()
        test = test if test is not None else self.make_test()
        n_flat = test.n_flat
        # Supervision runs every debloat test in a watched child; with it
        # off the schedule calls the test directly.
        supervisor = supervisor_from_config(self.fuzz_config.resilience)
        if supervisor is not None:
            test = supervisor.bind(test)
        space = self.program.parameter_space(self.dims)
        if resume_from is not None:
            schedule = FuzzSchedule.from_checkpoint(
                test, space, self.fuzz_config, n_flat, resume_from
            )
        else:
            schedule = FuzzSchedule(test, space, self.fuzz_config, n_flat)
        fuzz = schedule.run(time_budget_s=time_budget_s)
        carve = self.carver.carve_flat(fuzz.flat_indices)
        return KondoResult(
            program=self.program.name,
            dims=self.dims,
            fuzz=fuzz,
            carve=carve,
            elapsed_seconds=time.perf_counter() - start,
        )

    def debloat_file(self, source_path: str, out_path: str,
                     result: KondoResult,
                     granularity: str = "element") -> DebloatedArrayFile:
        """Materialize ``D_Theta`` as a KNDS file from an analysis result.

        Args:
            granularity: "element" keeps exactly the carved elements;
                "chunk" (chunked sources only) rounds the subset up to
                whole chunks — the unit real HDF5 readers fetch
                (Section VI).  Chunk granularity keeps a superset of the
                carved elements, so it can only improve effective recall.
        """
        if granularity not in ("element", "chunk"):
            raise ProgramError(f"unknown granularity {granularity!r}")
        with ArrayFile.open(source_path) as source:
            if source.schema.dims != self.dims:
                raise ProgramError(
                    f"data file dims {source.schema.dims} != analysis dims "
                    f"{self.dims}"
                )
            if granularity == "chunk":
                if source.schema.chunks is None:
                    raise ProgramError(
                        "chunk granularity requires a chunked data file"
                    )
                from repro.arraymodel.chunk_debloat import (
                    chunk_keep_extents,
                    chunks_for_flat_indices,
                )

                chunks = chunks_for_flat_indices(
                    source.layout, result.carved_flat, self.dims
                )
                return DebloatedArrayFile.create(
                    out_path, source,
                    keep_extents=chunk_keep_extents(source.layout, chunks),
                )
            if source.schema.chunks is None:
                keep = result.carved_flat
            else:
                # Chunked layout: flat element numbers follow the chunk
                # order, so translate logical indices through the layout.
                from repro.arraymodel.layout import unflatten_many

                idx = unflatten_many(result.carved_flat, self.dims)
                keep = source.layout.offsets_of(idx) // source.schema.itemsize
            return DebloatedArrayFile.create(
                out_path, source, keep_flat_indices=keep
            )
