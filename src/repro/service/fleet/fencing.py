"""Token-stamped, CRC-sealed writes to the campaign store.

Every byte the service ever puts into its store — a daemon's own state
directory or a fleet's shared one — flows through this module (KND015
enforces that statically).  Three primitives cover
the whole protocol, each built on a different atomicity guarantee of a
POSIX filesystem:

* :func:`publish_sealed` — ``atomic_write`` (temp file + fsync +
  same-directory rename): the record lands whole or not at all, and a
  reader concurrently opening the path sees the old record or the new
  one, never a hybrid.  Used for re-writable records (lease renewals,
  heartbeats, registration).
* :func:`create_sealed_exclusive` — write a private temporary file,
  then ``link`` it to the name: exactly one of any number of racing
  writers wins the path, and the name never holds a torn record.  This is the store's
  compare-and-swap — fencing-token claims, failure and dead-letter
  records, unit completions, cancels, and the outcome are all
  first-writer-wins records, so a partitioned
  worker coming back from the dead can *race* but never *clobber*.
* :func:`append_sealed` — ``durable_append``: the per-daemon audit
  trail of fenced events, torn-tail-tolerant like every journal in this
  tree.

Records are sealed with the same CRC32 line discipline as the bundle
journal (:mod:`repro.resilience.durability.records`); :func:`read_sealed`
degrades a missing, torn, or corrupt record to ``None`` — absent, never
wrong.  :func:`stamp` is the token-stamping half of the contract: every
record that mutates shard state carries ``(job, shard, token, worker,
epoch)``, which is exactly the tuple the dedupe and audit layers key
on.
"""

from __future__ import annotations

import os
import threading
from typing import Optional

from repro.errors import FleetError
from repro.ioutil import atomic_write, durable_append, fsync_dir
from repro.resilience.durability.records import check_record, seal_record


def stamp(record: dict, *, job: str, shard: Optional[int], token: int,
          worker: str, epoch: int) -> dict:
    """Stamp a record with its full fencing identity.

    The ``(job, shard, token)`` triple is the store's dedupe key and
    the token audit's subject; ``(worker, epoch)`` names who held the
    token, so a fenced-out write is attributable after the fact.
    """
    if token < 1:
        raise FleetError(f"fencing tokens start at 1, got {token}")
    stamped = dict(record)
    stamped.update(job=job, shard=shard, token=token, worker=worker,
                   epoch=epoch)
    return stamped


def publish_sealed(path: str, record: dict) -> None:
    """Atomically (re)write one sealed record at ``path``.

    Old-or-new by construction: the rename either happened or it did
    not, so no reader ever sees a torn record.
    """
    with atomic_write(path, "wb") as fh:
        fh.write(seal_record(record))


def create_sealed_exclusive(path: str, record: dict) -> bool:
    """First-writer-wins: create ``path`` with a sealed record.

    Returns ``True`` when this call created the file, ``False`` when it
    already existed (some racer won).  The record is written and
    fsynced under a private temporary name and then hard-linked into
    place — ``link`` fails if the name exists, so it is the exclusive
    create — which means the name never holds a torn record: a writer
    that dies mid-write leaves only its temporary file, and the name
    stays free for the next writer.  The directory fsync makes the name
    durable.
    """
    # Private to this thread: a leftover from its own failed write is
    # simply overwritten.
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    fd = os.open(tmp, os.O_CREAT | os.O_TRUNC | os.O_WRONLY)
    try:
        try:
            os.write(fd, seal_record(record))
            os.fsync(fd)
        finally:
            os.close(fd)
        os.link(tmp, path)
    except FileExistsError:
        return False
    finally:
        os.unlink(tmp)
    fsync_dir(os.path.dirname(path) or ".")
    return True


def append_sealed(path: str, record: dict) -> int:
    """Durably append one sealed record (the fenced-event audit trail)."""
    return durable_append(path, seal_record(record))


def read_sealed(path: str) -> Optional[dict]:
    """The sealed record at ``path``, or ``None`` on any doubt.

    A missing file, a torn write, or a failed CRC all read as absent —
    the fleet re-derives state rather than trusting a damaged record.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError:
        return None
    line = raw.rstrip(b"\n")
    if not line:
        return None
    return check_record(line)
