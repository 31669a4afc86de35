"""The journaled patch / generation lifecycle for shipped bundles.

``heal()`` used to rewrite the whole KNDS in place — one crash away from
destroying the only copy of ``D_Theta``.  The journal replaces that with
an intent → fsync → commit protocol whose every durable step is either
atomic (``os.replace``) or torn-tolerant (self-checksummed append-only
records), so a crash at *any* byte boundary leaves the bundle readable
as exactly the old or exactly the new generation — never a hybrid.

On-disk layout, next to a bundle ``b.knds``::

    b.knds.journal/
        journal.log            append-only JSONL, one CRC-sealed record
                               per line (a torn tail line is detected
                               and discarded by recovery)
        gen-000001.knds        snapshot of every committed generation
        patch-000002.kpatch    the delta patch that produced gen 2

Commit protocol for a new generation ``g`` (action ``patch`` / ``repair``
/ ``rollback``)::

    1. write gen-g file (atomic), fsync the journal dir   [invisible]
    2. append BEGIN record {gen, base, file_crc32, prev_crc32} + fsync
    3. os.replace the bundle with the new bytes           [the flip]
    4. append COMMIT record                               [seals it]

Crash analysis: before 2 → old generation, orphan files cleaned up on
open; between 2 and 3 → bundle CRC matches ``prev_crc32``, recovery
appends ABORT; between 3 and 4 → bundle CRC matches ``file_crc32``,
recovery appends COMMIT (roll-forward).  The bundle file itself never
passes through a torn state because step 3 is a rename.

Generation numbers only ever grow — a rollback *commits a new
generation* whose content equals the restored one (like ``git revert``),
so the journal stays append-only and auditable.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arraymodel.datafile import meta_crc32
from repro.arraymodel.debloated import (
    DebloatedArrayFile,
    compose_knds_bytes,
    merge_extents,
)
from repro.errors import FileFormatError
from repro.ioutil import atomic_write, durable_append, fsync_dir
# The sealed-record discipline lives in records, shared with the service
# job store.
from repro.resilience.durability.records import parse_log, seal_record

PATCH_MAGIC = b"KNDP"

JOURNAL_DIRNAME_SUFFIX = ".journal"
LOG_NAME = "journal.log"

#: Record operations.  ``begin`` marks intent, ``commit`` seals a
#: generation, ``abort`` records a rolled-back intent.
OPS = ("begin", "commit", "abort")

#: What produced a generation.
ACTIONS = ("adopt", "patch", "repair", "rollback")


# ---------------------------------------------------------------------------
# Delta-patch files (KNDP)


@dataclass(frozen=True)
class PatchFile:
    """An append-only delta patch: authoritative bytes for some extents.

    ``extents`` are *source-payload* byte ranges (the KNDS coordinate
    system), sorted and non-overlapping; ``payload`` is the
    concatenation of their bytes.
    """

    extents: Tuple[Tuple[int, int], ...]
    payload: bytes

    def __post_init__(self):
        end = -1
        for start, size in self.extents:
            if size <= 0 or start < 0:
                raise FileFormatError(
                    f"bad patch extent [{start}, {start + size})"
                )
            if start < end:
                raise FileFormatError(
                    "patch extents must be sorted and non-overlapping"
                )
            end = start + size
        if len(self.payload) != sum(z for _s, z in self.extents):
            raise FileFormatError(
                f"patch payload is {len(self.payload)} bytes, extents "
                f"total {sum(z for _s, z in self.extents)}"
            )

    @property
    def nbytes(self) -> int:
        return len(self.payload)

    def chunks(self) -> List[Tuple[int, int, bytes]]:
        """``(start, size, bytes)`` triples, one per extent."""
        out = []
        pos = 0
        for start, size in self.extents:
            out.append((start, size, self.payload[pos:pos + size]))
            pos += size
        return out


def build_patch(extent_bytes: Sequence[Tuple[int, int, bytes]]) -> PatchFile:
    """Assemble a :class:`PatchFile` from ``(start, size, bytes)`` parts.

    Parts may arrive unsorted; overlaps are rejected (a patch with two
    opinions about one byte is a logic error upstream).
    """
    parts = sorted(extent_bytes, key=lambda t: t[0])
    extents = []
    payload = []
    for start, size, raw in parts:
        if len(raw) != size:
            raise FileFormatError(
                f"patch part at {start} declares {size} bytes, "
                f"carries {len(raw)}"
            )
        extents.append((int(start), int(size)))
        payload.append(raw)
    return PatchFile(extents=tuple(extents), payload=b"".join(payload))


def write_patch(path: str, patch: PatchFile) -> None:
    """Persist a patch: magic, CRC-sealed JSON header, payload."""
    body = {
        "extents": [[s, z] for s, z in patch.extents],
        "payload_crc32": zlib.crc32(patch.payload),
    }
    header = dict(body)
    header["meta_crc32"] = meta_crc32(body)
    raw = json.dumps(header).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(PATCH_MAGIC)
        fh.write(len(raw).to_bytes(4, "little"))
        fh.write(raw)
        fh.write(patch.payload)


def read_patch(path: str) -> PatchFile:
    """Load and fully verify a patch; torn/corrupt ⇒ FileFormatError."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != PATCH_MAGIC:
            raise FileFormatError(f"{path}: bad patch magic {magic!r}")
        hlen_raw = fh.read(4)
        if len(hlen_raw) != 4:
            raise FileFormatError(f"{path}: truncated patch header length")
        hlen = int.from_bytes(hlen_raw, "little")
        raw = fh.read(hlen)
        if len(raw) != hlen:
            raise FileFormatError(f"{path}: truncated patch header")
        try:
            header = json.loads(raw.decode("utf-8"))
            extents = tuple(
                (int(s), int(z)) for s, z in header["extents"]
            )
            stored_payload_crc = int(header["payload_crc32"])
            stored_meta_crc = int(header["meta_crc32"])
        except (ValueError, KeyError, TypeError) as exc:
            raise FileFormatError(
                f"{path}: malformed patch header: {exc}"
            ) from exc
        body = {k: v for k, v in header.items() if k != "meta_crc32"}
        if meta_crc32(body) != stored_meta_crc:
            raise FileFormatError(f"{path}: patch header checksum mismatch")
        payload = fh.read(sum(z for _s, z in extents))
    if zlib.crc32(payload) != stored_payload_crc:
        raise FileFormatError(
            f"{path}: patch payload checksum mismatch (torn or corrupt)"
        )
    return PatchFile(extents=extents, payload=payload)


def apply_patch(bundle: DebloatedArrayFile, patch: PatchFile) -> bytes:
    """Produce the next generation's complete file image.

    Patch bytes are authoritative wherever they cover; everything else
    is salvaged from the current bundle's payload.  The result goes
    through :func:`compose_knds_bytes`, so it is byte-for-byte the file
    a fresh carve of the merged extents would have written.
    """
    new_extents = merge_extents(
        list(bundle.extents) + [(s, z) for s, z in patch.extents]
    )
    patch_parts = patch.chunks()
    payload = bytearray()
    for start, size in new_extents:
        block = bytearray(size)
        # Old bytes first (merged extents are unions of old+patch
        # intervals, so every byte is covered by at least one side).
        for (old_start, old_size), placed in zip(bundle.extents,
                                                 bundle._placement):
            lo = max(start, old_start)
            hi = min(start + size, old_start + old_size)
            if lo < hi:
                raw = bundle.read_local_raw(placed + (lo - old_start),
                                            hi - lo)
                if len(raw) < hi - lo:
                    # Truncated bundle: the missing tail must be covered
                    # by patch bytes (repair guarantees this); zero-fill
                    # so offsets stay aligned for the override pass.
                    raw = raw.ljust(hi - lo, b"\0")
                block[lo - start:hi - start] = raw
        # Patch bytes override.
        for p_start, p_size, raw in patch_parts:
            lo = max(start, p_start)
            hi = min(start + size, p_start + p_size)
            if lo < hi:
                block[lo - start:hi - start] = \
                    raw[lo - p_start:hi - p_start]
        payload.extend(block)
    return compose_knds_bytes(bundle.schema, new_extents, bytes(payload))


# ---------------------------------------------------------------------------
# The journal


class BundleJournal:
    """Generation/patch lifecycle manager for one bundle file.

    Args:
        bundle_path: the live KNDS the user's runtime opens.
        keep_generations: prune generation snapshots beyond the newest
            N (0 = keep all; the current generation is never pruned).
    """

    def __init__(self, bundle_path: str, keep_generations: int = 0):
        self.bundle_path = bundle_path
        self.journal_dir = bundle_path + JOURNAL_DIRNAME_SUFFIX
        self.log_path = os.path.join(self.journal_dir, LOG_NAME)
        self.keep_generations = keep_generations
        self.records: List[dict] = []
        #: Whether the log ended in a torn (half-written) record.  Only
        #: meaningful in inspection mode; recovery truncates the tail.
        self.torn = False
        #: What recovery did on open: "clean", "rolled-forward",
        #: "rolled-back", or "adopted" (fresh journal).
        self.recovery: str = "clean"

    # -- opening / recovery -------------------------------------------------

    @classmethod
    def open(cls, bundle_path: str, keep_generations: int = 0,
             recover: bool = True) -> "BundleJournal":
        """Open (creating if needed) the journal of ``bundle_path``.

        With ``recover=True`` (default), a torn commit left by a crash
        is resolved before returning: rolled forward when the bundle
        already carries the new bytes, rolled back otherwise.  Pass
        ``recover=False`` for read-only inspection (``kondo fsck``).
        """
        if not os.path.exists(bundle_path):
            raise FileFormatError(f"{bundle_path}: no such bundle")
        journal = cls(bundle_path, keep_generations=keep_generations)
        if not os.path.isdir(journal.journal_dir):
            if not recover:
                return journal  # absent journal, inspection mode
            os.makedirs(journal.journal_dir, exist_ok=True)
        journal._load(recover=recover)
        return journal

    def _load(self, recover: bool) -> None:
        if not os.path.exists(self.log_path):
            if recover:
                self._adopt()
            return
        with open(self.log_path, "rb") as fh:
            raw = fh.read()
        self.records, clean_end, self.torn = parse_log(raw)
        if recover:
            if self.torn:
                self._truncate_log(clean_end)
                self.torn = False
            self._recover()
            self._remove_orphans()

    def _truncate_log(self, clean_end: int) -> None:
        """Drop a torn tail record so new appends form valid JSONL."""
        # kondo: allow[KND002] journal recovery must cut the torn tail
        # in place; the log's own per-record CRCs make this reviewable
        # kondo: allow[KND007] this *is* the durability journal API
        with open(self.log_path, "r+b") as fh:
            fh.truncate(clean_end)
        fsync_dir(self.journal_dir)

    # -- state --------------------------------------------------------------

    @property
    def current_generation(self) -> int:
        """The last committed generation (0 = journal empty)."""
        gen = 0
        for rec in self.records:
            if rec["op"] == "commit":
                gen = rec["gen"]
        return gen

    @property
    def pending(self) -> Optional[dict]:
        """The BEGIN record of an unresolved commit, if any."""
        open_begin: Optional[dict] = None
        for rec in self.records:
            if rec["op"] == "begin":
                open_begin = rec
            elif rec["op"] in ("commit", "abort") and open_begin is not None \
                    and rec["gen"] == open_begin["gen"]:
                open_begin = None
        return open_begin

    def generations(self) -> List[int]:
        """Generation numbers with a snapshot file present, ascending."""
        if not os.path.isdir(self.journal_dir):
            return []
        out = []
        for name in os.listdir(self.journal_dir):
            if name.startswith("gen-") and name.endswith(".knds"):
                try:
                    out.append(int(name[4:-5]))
                except ValueError:
                    continue
        return sorted(out)

    def generation_path(self, gen: int) -> str:
        return os.path.join(self.journal_dir, f"gen-{gen:06d}.knds")

    def patch_path(self, gen: int) -> str:
        return os.path.join(self.journal_dir, f"patch-{gen:06d}.kpatch")

    def committed_record(self, gen: int) -> Optional[dict]:
        """The BEGIN/adopt record describing generation ``gen``."""
        for rec in self.records:
            if rec["gen"] == gen and rec["op"] in ("begin", "commit") \
                    and "file_crc32" in rec:
                return rec
        return None

    def state(self) -> dict:
        """Inspection summary used by ``kondo fsck`` reports."""
        pending = self.pending
        return {
            "present": os.path.isdir(self.journal_dir),
            "current_generation": self.current_generation,
            "generations": self.generations(),
            "pending": None if pending is None else {
                "gen": pending["gen"],
                "action": pending.get("action"),
            },
            "torn": self.torn,
            "recovery": self.recovery,
        }

    # -- primitives ---------------------------------------------------------

    def _append(self, rec: dict) -> None:
        self.records.append(rec)
        durable_append(self.log_path, seal_record(rec))

    def _bundle_crc(self) -> int:
        with open(self.bundle_path, "rb") as fh:
            return zlib.crc32(fh.read())

    def _next_seq(self) -> int:
        return len(self.records) + 1

    def _adopt(self) -> None:
        """Snapshot the live bundle as generation 1 of a fresh journal."""
        with open(self.bundle_path, "rb") as fh:
            blob = fh.read()
        with atomic_write(self.generation_path(1)) as fh:
            fh.write(blob)
        fsync_dir(self.journal_dir)
        self._append({
            "seq": self._next_seq(), "op": "commit", "action": "adopt",
            "gen": 1, "base": 0, "patch": None,
            "file_crc32": zlib.crc32(blob),
        })
        self.recovery = "adopted"

    # -- the commit protocol ------------------------------------------------

    def commit_bytes(self, new_bytes: bytes, action: str,
                     patch_name: Optional[str] = None,
                     extra: Optional[Dict] = None) -> int:
        """Run the full intent → fsync → commit protocol for new content.

        Returns the new generation number.  See the module docstring
        for the crash analysis of each step.
        """
        if action not in ACTIONS:
            raise FileFormatError(f"unknown journal action {action!r}")
        if self.pending is not None:
            raise FileFormatError(
                "journal has an unresolved pending commit; run recovery "
                "(BundleJournal.open) before writing"
            )
        if not self.records:
            self._adopt()
        base = self.current_generation
        gen = base + 1
        with atomic_write(self.generation_path(gen)) as fh:
            fh.write(new_bytes)
        fsync_dir(self.journal_dir)
        begin = {
            "seq": self._next_seq(), "op": "begin", "action": action,
            "gen": gen, "base": base, "patch": patch_name,
            "file_crc32": zlib.crc32(new_bytes),
            "prev_crc32": self._bundle_crc(),
        }
        if extra:
            begin.update(extra)
        self._append(begin)
        with atomic_write(self.bundle_path) as fh:
            fh.write(new_bytes)
        self._append({"seq": self._next_seq(), "op": "commit", "gen": gen})
        self._prune()
        return gen

    def commit_patch(self, patch: PatchFile, action: str = "patch") -> int:
        """Persist ``patch``, apply it to the bundle, commit the result."""
        if self.pending is not None:
            raise FileFormatError(
                "journal has an unresolved pending commit; run recovery "
                "(BundleJournal.open) before writing"
            )
        if not self.records:
            self._adopt()
        gen = self.current_generation + 1
        write_patch(self.patch_path(gen), patch)
        fsync_dir(self.journal_dir)
        # Degrade mode + no CRC pass: the whole point of a repair patch
        # is that the bundle may be damaged; apply_patch overwrites the
        # damaged ranges with the patch's authoritative bytes.
        with DebloatedArrayFile.open(self.bundle_path,
                                     verify_checksum=False,
                                     on_corruption="degrade") as bundle:
            new_bytes = apply_patch(bundle, patch)
        return self.commit_bytes(
            new_bytes, action,
            patch_name=os.path.basename(self.patch_path(gen)),
        )

    def rollback(self, to_gen: Optional[int] = None) -> int:
        """Restore a prior generation's content (as a *new* generation).

        ``to_gen=None`` restores the generation before the current one.
        """
        current = self.current_generation
        if current == 0:
            raise FileFormatError("journal is empty; nothing to roll back")
        if to_gen is None:
            committed = sorted({
                rec["gen"] for rec in self.records if rec["op"] == "commit"
            })
            if len(committed) < 2:
                raise FileFormatError(
                    "only one committed generation; nothing to roll back"
                )
            to_gen = committed[-2]
        gen_path = self.generation_path(to_gen)
        if not os.path.exists(gen_path):
            raise FileFormatError(
                f"generation {to_gen} has no snapshot (pruned?); "
                f"available: {self.generations()}"
            )
        with open(gen_path, "rb") as fh:
            blob = fh.read()
        record = self.committed_record(to_gen)
        if record is not None and zlib.crc32(blob) != record["file_crc32"]:
            raise FileFormatError(
                f"generation {to_gen} snapshot is corrupt; cannot roll back"
            )
        return self.commit_bytes(blob, "rollback",
                                 extra={"rolled_back_to": to_gen})

    # -- crash recovery -----------------------------------------------------

    def _recover(self) -> None:
        pending = self.pending
        if pending is None:
            self.recovery = "clean"
            return
        gen = pending["gen"]
        bundle_crc = self._bundle_crc()
        if bundle_crc == pending["file_crc32"]:
            # The rename happened; only the COMMIT record is missing.
            self._append({"seq": self._next_seq(), "op": "commit",
                          "gen": gen})
            self.recovery = "rolled-forward"
            return
        if bundle_crc == pending.get("prev_crc32"):
            # Crash before the rename: the old generation is intact.
            self._abort_pending(gen)
            self.recovery = "rolled-back"
            return
        # The bundle matches neither side: independent corruption on
        # top of the torn commit.  Restore the base generation snapshot
        # if it verifies; otherwise surface as unrecoverable.
        base_rec = self.committed_record(pending["base"])
        base_path = self.generation_path(pending["base"])
        if base_rec is not None and os.path.exists(base_path):
            with open(base_path, "rb") as fh:
                blob = fh.read()
            if zlib.crc32(blob) == base_rec["file_crc32"]:
                with atomic_write(self.bundle_path) as fh:
                    fh.write(blob)
                self._abort_pending(gen)
                self.recovery = "rolled-back"
                return
        raise FileFormatError(
            f"{self.bundle_path}: torn commit of generation {gen} and "
            f"the bundle matches neither the old nor the new content; "
            f"re-fetch with 'kondo repair'"
        )

    def _abort_pending(self, gen: int) -> None:
        self._append({"seq": self._next_seq(), "op": "abort", "gen": gen})
        for path in (self.generation_path(gen), self.patch_path(gen)):
            if os.path.exists(path):
                os.remove(path)

    def _remove_orphans(self) -> None:
        """Delete gen/patch files beyond the last committed generation.

        A crash between writing a generation snapshot and appending its
        BEGIN record leaves files the journal never mentions.
        """
        current = self.current_generation
        mentioned = {rec["gen"] for rec in self.records}
        for gen in self.generations():
            if gen > current and gen not in mentioned:
                for path in (self.generation_path(gen),
                             self.patch_path(gen)):
                    if os.path.exists(path):
                        os.remove(path)

    def _prune(self) -> None:
        if self.keep_generations <= 0:
            return
        gens = self.generations()
        keep = set(gens[-self.keep_generations:])
        keep.add(self.current_generation)
        for gen in gens:
            if gen not in keep:
                for path in (self.generation_path(gen),
                             self.patch_path(gen)):
                    if os.path.exists(path):
                        os.remove(path)
