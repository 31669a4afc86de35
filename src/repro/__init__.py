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

import importlib

__version__ = "1.0.0"

#: Public name -> the module that defines it.  Importing ``repro`` loads
#: none of them (so ``repro.analysis`` runs without numpy or scipy);
#: each loads on first access (PEP 562).
_EXPORTS = {
    "Kondo": "repro.core",
    "KondoResult": "repro.core",
    "DebloatTest": "repro.core",
    "FuzzConfig": "repro.fuzzing",
    "CarveConfig": "repro.fuzzing",
    "ParameterSpace": "repro.fuzzing",
    "ArraySchema": "repro.arraymodel",
    "ArrayFile": "repro.arraymodel",
    "DebloatedArrayFile": "repro.arraymodel",
    "KondoRuntime": "repro.arraymodel",
    "KondoError": "repro.errors",
    "DataMissingError": "repro.errors",
    "get_program": "repro.workloads",
    "program_names": "repro.workloads",
    "default_dims": "repro.workloads",
    "all_benchmarks": "repro.workloads",
    "real_applications": "repro.workloads",
    "accuracy": "repro.metrics",
    "bloat_fraction": "repro.metrics",
    "missed_valuations": "repro.metrics",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
