"""KND001 — replay determinism in the campaign-critical packages.

Campaigns must replay bit-identically: checkpoint/resume and sharded
campaigns both promise seed-for-seed identical results,
which a single call into the *global* RNG or a wall-clock timestamp
silently breaks.  Inside the replay-critical packages (``fuzzing``,
``carving``, ``perf``, ``resilience.checkpoint``) this rule bans:

* any use of the global numpy RNG (``np.random.rand`` & co., including
  ``np.random.seed`` — seeding a process-global is still shared state);
* the stdlib ``random`` module (same global-state hazard);
* unseeded RNG construction — ``default_rng()`` pulls OS entropy; a
  documented entry point must thread an explicit seed through
  (``default_rng(config.rng_seed)``);
* wall-clock timestamp reads (``time.time``, ``datetime.now``, ...).

Monotonic *interval* clocks (``time.perf_counter``, ``time.monotonic``)
are permitted: the paper's fixed time budgets are part of the spec, and
replay identity is keyed to iteration counts carried by checkpoints, not
to wall time.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.model import Finding, Severity
from repro.analysis.project import Project, ProjectFile
from repro.analysis.rulebase import Rule, register
from repro.analysis.scopes import AliasTable

REPLAY_CRITICAL = (
    "repro.fuzzing",
    "repro.carving",
    "repro.perf",
    "repro.resilience.checkpoint",
)

#: Seeded-construction entry points: allowed only with an explicit seed.
SEEDED_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.Philox",
    "numpy.random.Generator",
}

WALL_CLOCKS = {
    "time.time",
    "time.time_ns",
    "time.ctime",
    "time.localtime",
    "time.gmtime",
    "time.strftime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


def in_replay_critical(module: str) -> bool:
    return any(module == p or module.startswith(p + ".")
               for p in REPLAY_CRITICAL)


def _has_explicit_seed(call: ast.Call) -> bool:
    """True when any argument names a seed or is a literal number."""
    args = list(call.args) + [kw.value for kw in call.keywords]
    for arg in args:
        for node in ast.walk(arg):
            if isinstance(node, ast.Constant) and isinstance(
                    node.value, (int, float)):
                return True
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else None)
            if name is not None and "seed" in name.lower():
                return True
    return False


@register
class DeterminismRule(Rule):
    rule_id = "KND001"
    name = "determinism"
    severity = Severity.ERROR
    summary = ("no global RNG, unseeded default_rng, or wall-clock "
               "timestamps in replay-critical packages "
               "(fuzzing, carving, perf, resilience.checkpoint)")
    rationale = __doc__ or ""

    def check(self, pf: ProjectFile, project: Project
              ) -> Iterator[Finding]:
        if not in_replay_critical(pf.module):
            return
        aliases = AliasTable.scan(pf.tree)
        for node in ast.walk(pf.tree):
            if not isinstance(node, ast.Call):
                continue
            qname = aliases.qualify(node.func)
            if qname is None:
                continue
            if qname in SEEDED_CONSTRUCTORS:
                if not _has_explicit_seed(node):
                    yield self.finding(
                        pf, node,
                        f"{qname}() without an explicit seed draws OS "
                        f"entropy and breaks bit-identical replay; "
                        f"thread a seed from the campaign config "
                        f"(e.g. default_rng(config.rng_seed))",
                    )
            elif qname.startswith("numpy.random."):
                yield self.finding(
                    pf, node,
                    f"global numpy RNG call {qname}() is process-shared "
                    f"state; construct a seeded Generator at the "
                    f"campaign entry point and pass it down",
                )
            elif qname == "random" or qname.startswith("random."):
                yield self.finding(
                    pf, node,
                    f"stdlib {qname}() uses the global RNG; use a "
                    f"seeded numpy Generator threaded from the config",
                )
            elif qname in WALL_CLOCKS:
                yield self.finding(
                    pf, node,
                    f"wall-clock read {qname}() in a replay-critical "
                    f"package; replay must not depend on calendar "
                    f"time (interval clocks like time.perf_counter "
                    f"are fine for budgets)",
                )
