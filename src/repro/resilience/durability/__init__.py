"""Durable bundles: per-span integrity, journaled lifecycle, fsck, repair.

The durability layer is what makes every artifact the pipeline ships
survive durable-state failure — bitrot, torn writes, crashes mid-heal.
The per-span CRC32 table that localizes corruption to one span is part
of the KND/KNDS v3 format and lives in :mod:`repro.arraymodel.spans`.

* :mod:`~repro.resilience.durability.journal` — the append-only patch /
  generation journal (intent → fsync → commit) that replaces whole-file
  heal rewrites, with crash recovery that always lands on the old or the
  new generation — never a hybrid — and rollback to any prior one.
* :mod:`~repro.resilience.durability.fsck` — the deep verifier behind
  ``kondo fsck``: header, per-span payload, mask/subset consistency,
  journal state.
* :mod:`~repro.resilience.durability.repair` — ``kondo repair``:
  re-fetch only the corrupt spans from an origin source and commit the
  fix as a new journaled generation.
"""

from repro.resilience.durability.fsck import FsckReport, fsck_file
from repro.resilience.durability.journal import (
    BundleJournal,
    PatchFile,
    read_patch,
    write_patch,
)
from repro.resilience.durability.repair import RepairReport, repair_bundle

__all__ = [
    "BundleJournal",
    "FsckReport",
    "PatchFile",
    "RepairReport",
    "fsck_file",
    "read_patch",
    "repair_bundle",
    "write_patch",
]
