"""Finding reporters: human text, machine JSON, and SARIF 2.1.0.

SARIF output targets the subset GitHub code scanning and most SARIF
viewers consume: one run, driver metadata with the rule catalog, one
result per finding with a physical location.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import List, Sequence

from repro.analysis.model import Finding
from repro.analysis.rulebase import Rule

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
TOOL_NAME = "kondo-check"
TOOL_URI = "https://github.com/kondo-repro/kondo"


def render_text(new: List[Finding], n_files: int) -> str:
    parts: List[str] = []
    for f in new:
        parts.append(f.format())
        if f.snippet:
            parts.append(f"    {f.snippet}")
        for hop in f.witness:
            parts.append(f"      via {hop}")
    by_sev = Counter(f.severity.value for f in new)
    sev_text = ", ".join(
        f"{by_sev[s]} {s}" for s in ("error", "warning", "note")
        if by_sev.get(s))
    tail = (f"kondo check: {len(new)} finding(s)"
            f"{' (' + sev_text + ')' if sev_text else ''} "
            f"in {n_files} file(s)")
    parts.append(tail)
    return "\n".join(parts)


def render_json(new: List[Finding]) -> str:
    def encode(f: Finding) -> dict:
        return {
            "rule": f.rule_id,
            "severity": f.severity.value,
            "path": f.path,
            "module": f.module,
            "line": f.line,
            "col": f.col,
            "message": f.message,
            "snippet": f.snippet,
            "witness": list(f.witness),
            "fingerprint": f.fingerprint(),
        }
    return json.dumps({"findings": [encode(f) for f in new]}, indent=2)


def render_sarif(new: List[Finding], rules: Sequence[Rule]) -> str:
    rule_meta = [{
        "id": r.rule_id,
        "name": r.name,
        "shortDescription": {"text": r.summary},
        "fullDescription": {"text": r.rationale.strip() or r.summary},
        "defaultConfiguration": {"level": r.severity.sarif_level},
    } for r in rules]
    results = [{
        "ruleId": f.rule_id,
        "level": f.severity.sarif_level,
        "message": {"text": f.message if not f.witness else
                    f.message + "\nwitness: "
                    + " -> ".join(f.witness)},
        "partialFingerprints": {"kondoFingerprint/v1": f.fingerprint()},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": f.path.replace("\\", "/")},
                "region": {"startLine": f.line, "startColumn": f.col},
            },
        }],
    } for f in new]
    doc = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {"driver": {
                "name": TOOL_NAME,
                "informationUri": TOOL_URI,
                "rules": rule_meta,
            }},
            "results": results,
        }],
    }
    return json.dumps(doc, indent=2)
