"""The finding model: what a rule reports and how it is identified.

A :class:`Finding` is one violation at one source location.  Its
*fingerprint* deliberately ignores line numbers — it hashes the rule ID,
the module, and the stripped source line — so a code-scanning service
keeps matching a SARIF result after unrelated edits shift code up or
down, while any change to the offending line itself is a new result.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple


class Severity(Enum):
    """How bad a finding is; orders ``NOTE < WARNING < ERROR``."""

    NOTE = "note"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return {"note": 0, "warning": 1, "error": 2}[self.value]

    @property
    def sarif_level(self) -> str:
        return {"note": "note", "warning": "warning",
                "error": "error"}[self.value]


#: Rule ID reserved for framework diagnostics (parse failures, malformed
#: suppression comments) rather than invariant violations.
FRAMEWORK_RULE_ID = "KND000"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        rule_id: stable rule identifier, e.g. ``"KND002"``.
        message: human-oriented description of this occurrence.
        path: file path as given to the scanner (kept relative when the
            scan root was relative, so reports are machine-portable).
        module: dotted module name, e.g. ``"repro.arraymodel.bundle"``.
        line: 1-based source line.
        col: 1-based source column.
        severity: :class:`Severity` of the rule (rules may override
            per-finding).
        snippet: the stripped source line, used for fingerprinting and
            human context in reports.
        witness: optional interprocedural evidence chain (call hops and
            ``path:line`` sites) attached by the flow-aware concurrency
            rules; purely informational — never part of the fingerprint,
            so a refactor that reroutes the chain does not churn it.
    """

    rule_id: str
    message: str
    path: str
    module: str
    line: int
    col: int = 1
    severity: Severity = Severity.ERROR
    snippet: str = ""
    suppression_reason: Optional[str] = field(default=None, compare=False)
    witness: Tuple[str, ...] = field(default=(), compare=False)

    def fingerprint(self) -> str:
        """Line-number-independent identity (SARIF
        ``partialFingerprints``)."""
        raw = f"{self.rule_id}|{self.module}|{self.snippet}"
        return hashlib.sha1(raw.encode("utf-8")).hexdigest()[:16]

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.col} "
                f"{self.rule_id} {self.severity.value}: {self.message}")
