"""Pinned pipeline answers: one row per (program, scale, mode, carver).

Each row runs ``Kondo.analyze`` at a quick scale and a fixed seed, then
``Kondo.debloat_file`` of a deterministic KND source, and records:

* the ``service/shards.py`` :func:`result_digest` fields (iteration and
  useful counts, observed/carved sizes and sha256, hull count);
* the merge's cell-hull and merge counts;
* ``hulls_sha256`` — the final hull vertices in canonical form (rounded
  to 1e-6, rows sorted, hulls in merge order), so neither qhull's vertex
  order nor BLAS rounding in the affine-subspace lift enters the hash;
* ``knds_sha256`` — the bytes of the KNDS file;
* recall, precision and % debloat against ``ground_truth_flat``.

The table in ``table.json`` changes only with a stated answer change.
Regenerate it with::

    PYTHONPATH=src python -m tests.golden.golden
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

import numpy as np

from repro import ArrayFile, ArraySchema, FuzzConfig, Kondo, accuracy, get_program
from repro.service.shards import result_digest
from repro.workloads.registry import ALL_BENCHMARKS

TABLE_PATH = os.path.join(os.path.dirname(__file__), "table.json")

#: Fuzz seed of every row.
SEED = 7
#: Per-program (dims, max_iter).  Kondo doubles max_iter for 3-D programs.
SCALES: Dict[str, Tuple[Tuple[int, ...], int]] = {
    "CS": ((64, 64), 300),
    "PRL2D": ((128, 128), 300),
    "LDC2D": ((64, 64), 300),
    "RDC2D": ((64, 64), 300),
    "CS1": ((64, 64), 300),
    "CS2": ((64, 64), 300),
    "CS3": ((64, 64), 300),
    "CS5": ((64, 64), 300),
    "PRL3D": ((64, 64, 64), 300),
    "LDC3D": ((48, 48, 48), 300),
    "RDC3D": ((48, 48, 48), 300),
}


@dataclass(frozen=True)
class Case:
    program: str
    mode: str
    carver: str = "merge"

    @property
    def name(self) -> str:
        return f"{self.program}-{self.mode}-{self.carver}"


CASES: List[Case] = (
    [Case(p, "direct") for p in ALL_BENCHMARKS]
    + [Case(p, "audited") for p in ALL_BENCHMARKS]
    + [Case("CS", "direct", carver="simple")]
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def hulls_sha256(hulls) -> str:
    """Hash of the hull vertex arrays in canonical form."""
    h = hashlib.sha256()
    for hull in hulls:
        verts = np.round(np.asarray(hull.vertices, dtype=np.float64), 6)
        verts = verts + 0.0  # -0.0 -> 0.0
        verts = verts[np.lexsort(verts.T[::-1])]
        h.update(np.asarray(verts.shape, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(verts).tobytes())
    return h.hexdigest()


def write_source(path: str, dims: Tuple[int, ...]) -> None:
    """A KND source whose value at flat offset i is i."""
    data = np.arange(int(np.prod(dims)), dtype="f8").reshape(dims)
    ArrayFile.create(path, ArraySchema(dims, "f8"), data).close()


def compute_row(case: Case, workdir: str) -> dict:
    dims, max_iter = SCALES[case.program]
    program = get_program(case.program)
    src = os.path.join(workdir, f"{case.name}.knd")
    out = os.path.join(workdir, f"{case.name}.knds")
    write_source(src, dims)
    kondo = Kondo(program, dims, carver=case.carver, fuzz_config=replace(
        FuzzConfig(rng_seed=SEED), max_iter=max_iter))
    test = kondo.make_test(
        mode=case.mode, data_path=src if case.mode == "audited" else None)
    result = kondo.analyze(test=test)
    kondo.debloat_file(src, out, result).close()
    with open(out, "rb") as fh:
        knds = _sha256(fh.read())
    acc = accuracy(program.ground_truth_flat(dims), result.carved_flat)
    row = {"case": case.name, "dims": list(dims), "seed": SEED,
           "max_iter": max_iter}
    row.update(result_digest(result))
    stats = result.carve.merge_stats
    row.update({
        "cell_hulls": int(stats.initial_hulls),
        "merges": int(stats.merges),
        "hulls_sha256": hulls_sha256(result.carve.hulls),
        "knds_sha256": knds,
        "recall": acc.recall,
        "precision": acc.precision,
        "debloat_pct": 100.0 * (1.0 - result.carved_flat.size
                                / float(np.prod(dims))),
    })
    return row


def compute_table() -> List[dict]:
    with tempfile.TemporaryDirectory() as workdir:
        return [compute_row(case, workdir) for case in CASES]


def load_table() -> List[dict]:
    with open(TABLE_PATH) as fh:
        return json.load(fh)["rows"]


def main() -> None:
    rows = compute_table()
    with open(TABLE_PATH, "w") as fh:
        json.dump({"rows": rows}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(rows)} rows to {TABLE_PATH}")


if __name__ == "__main__":
    main()
