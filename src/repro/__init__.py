"""Kondo: Efficient Provenance-Driven Data Debloating — full reproduction.

Reproduces Modi et al., ICDE 2024: fuzzing-guided discovery of the array
offsets a containerized application can access over its whole supported
parameter space, convex-hull carving of the accessed region, and
materialization of the debloated data subset (with a user-side runtime
raising "data missing" exceptions on over-debloated accesses).

Quickstart::

    from repro import Kondo, get_program

    program = get_program("CS")          # the paper's cross-stencil program
    kondo = Kondo(program, dims=(128, 128))
    result = kondo.analyze()
    print(result.summary())

Subsystem map (see DESIGN.md):

* :mod:`repro.core` — the Kondo pipeline (Figure 3) and debloat test.
* :mod:`repro.fuzzing` — Algorithm 1 schedules, mutation, clusters.
* :mod:`repro.carving` — Algorithm 2 cell split + hull merging.
* :mod:`repro.geometry` — convex hulls (Qhull for every full rank >= 2)
  and rasters.
* :mod:`repro.audit` — fine-grained I/O lineage (events, block capture
  into flat interval stores, interposition, strace ingestion).
* :mod:`repro.arraymodel` — KND/KNDS array file formats and layouts.
* :mod:`repro.workloads` — the Table II benchmark programs and Table III
  real-application programs.
* :mod:`repro.baselines` — BF, random sampling, and MiniAFL.
* :mod:`repro.metrics` / :mod:`repro.experiments` — evaluation drivers for
  every table and figure.
* :mod:`repro.container` — container specs, images, and debloated runtime.
"""

from repro.arraymodel import (
    ArrayFile,
    ArraySchema,
    DebloatedArrayFile,
    KondoRuntime,
)
from repro.core import DebloatTest, Kondo, KondoResult
from repro.errors import DataMissingError, KondoError
from repro.fuzzing import CarveConfig, FuzzConfig, ParameterSpace
from repro.metrics import accuracy, bloat_fraction, missed_valuations
from repro.workloads import (
    all_benchmarks,
    default_dims,
    get_program,
    program_names,
    real_applications,
)

__version__ = "1.0.0"

__all__ = [
    "Kondo",
    "KondoResult",
    "DebloatTest",
    "FuzzConfig",
    "CarveConfig",
    "ParameterSpace",
    "ArraySchema",
    "ArrayFile",
    "DebloatedArrayFile",
    "KondoRuntime",
    "KondoError",
    "DataMissingError",
    "get_program",
    "program_names",
    "default_dims",
    "all_benchmarks",
    "real_applications",
    "accuracy",
    "bloat_fraction",
    "missed_valuations",
    "__version__",
]
