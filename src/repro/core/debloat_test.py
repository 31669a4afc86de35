"""The debloat test (paper Definition 2).

"Given a fine-grained auditing system AS, a debloat test determines the
indices I_v using X_AS, v, and D."  The test runs the audited program on a
parameter value and reports the flat offsets accessed — marking the value
*useful* (non-empty ``I_v``) or *not useful*.

Two execution modes are provided:

* ``direct`` — the program reports the offsets it *would* access, with no
  real file I/O.  This is the paper's own experimental methodology
  (Section V-C: read calls replaced by loops that print offsets) and the
  fast path the fuzzer uses.
* ``audited`` — the program actually reads a KND file through the
  interposed audit layer; offsets come from the recorded syscall events.
  Slower, used to validate that both paths agree and to measure audit
  overhead.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.arraymodel.datafile import ArrayFile
from repro.arraymodel.layout import flatten_many
from repro.audit.session import AuditSession
from repro.errors import ProgramError
from repro.workloads.base import Program


class DebloatTest:
    """Callable debloat test over one program and array shape.

    Instances are the ``test`` argument of
    :class:`~repro.fuzzing.schedule.FuzzSchedule`: ``test(v)`` returns the
    1-D int64 array of flat offsets in ``I_v``.

    Args:
        program: the workload under test.
        dims: the data array shape.
        mode: "direct" (offset replay, no I/O) or "audited" (real reads
            through the audit layer; requires ``data_path``).
        data_path: a KND file matching ``dims`` (audited mode only).
    """

    def __init__(
        self,
        program: Program,
        dims: Sequence[int],
        mode: str = "direct",
        data_path: Optional[str] = None,
    ):
        if mode not in ("direct", "audited"):
            raise ProgramError(f"unknown debloat-test mode {mode!r}")
        if mode == "audited" and data_path is None:
            raise ProgramError("audited mode requires data_path")
        self.program = program
        self.dims = program.check_dims(dims)
        self.mode = mode
        self.data_path = data_path
        self.executions = 0
        self.useful_executions = 0

    @property
    def n_flat(self) -> int:
        """Size of the flat offset space (for the fuzzer's bitmap)."""
        return math.prod(self.dims)

    def __call__(self, v: Tuple[float, ...]) -> np.ndarray:
        self.executions += 1
        if self.mode == "direct":
            flat = self.program.access_flat(v, self.dims)
        else:
            flat = self._audited_run(v)
        if flat.size:
            self.useful_executions += 1
        return flat

    def _audited_run(self, v: Tuple[float, ...]) -> np.ndarray:
        session = AuditSession()
        with ArrayFile.open(self.data_path, recorder=session.recorder) as f:
            self.program.run(f.read_point, v, self.dims)
            idx = session.accessed_indices(self.data_path, f.layout)
        return flatten_many(idx, self.dims)
