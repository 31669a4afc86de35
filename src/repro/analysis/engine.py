"""The check runner: load -> run rules -> suppress -> report.

The run is one serial pass that writes nothing but its report.  It
parses every file in sorted-walk order, runs the per-file rules, then
the project rules; the flow-aware rules build the interprocedural
context on first use, so a run that selects only per-file rules never
summarizes.

Exit codes: 0 clean (every finding suppressed inline), 1 when findings
remain, 2 when the analyzer itself fails (usage errors, an internal
crash).  A *rule* raising is not an analyzer failure: it becomes a
KND000 internal-error finding and the run continues.  ``kondo check``
and ``python -m repro.analysis`` are two doors into :func:`main`.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.analysis.model import FRAMEWORK_RULE_ID, Finding, Severity
from repro.analysis.project import Project, discover_sources
from repro.analysis.report import render_json, render_sarif, render_text
from repro.analysis.rulebase import Rule, all_rules
from repro.ioutil import atomic_write


@dataclass
class CheckResult:
    """Everything one ``kondo check`` run produced."""

    new: List[Finding]
    suppressed: List[Finding]
    n_files: int
    rules: List[Rule] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.new else 0


def _crash_finding(rule: Rule, path: str, module: str,
                   exc: Exception) -> Finding:
    return Finding(
        rule_id=FRAMEWORK_RULE_ID,
        message=(f"rule {rule.rule_id} ({rule.name}) crashed: "
                 f"{type(exc).__name__}: {exc} — results for this rule "
                 f"may be incomplete"),
        path=path, module=module, line=1,
        severity=Severity.ERROR,
    )


def run_check(paths: Sequence[str],
              select: Optional[Sequence[str]] = None) -> CheckResult:
    """Run the selected rules over ``paths`` (no reporting/IO)."""
    project = Project.load(paths)
    rules = all_rules()
    if select:
        wanted = {s.upper() for s in select}
        rules = [r for r in rules if r.rule_id in wanted]
    findings: List[Finding] = list(project.load_findings)
    suppressed: List[Finding] = []

    def admit(pf, f: Finding) -> None:
        sup = pf.suppressions.match(f.rule_id, f.line)
        if sup is not None:
            suppressed.append(dataclasses.replace(
                f, suppression_reason=sup.reason))
        else:
            findings.append(f)

    for pf in project.files:
        findings.extend(pf.suppressions.malformed_findings(
            pf.path, pf.module, pf.lines))
        for rule in rules:
            try:
                produced = list(rule.check(pf, project))
            # kondo: allow[KND003] a crashing rule is converted into a
            # visible KND000 finding on the file (exit 1), per the
            # exit-code contract; aborting the run would hide every
            # other rule's findings behind one rule bug
            except Exception as exc:  # noqa: BLE001
                findings.append(_crash_finding(rule, pf.path, pf.module,
                                               exc))
                continue
            for f in produced:
                admit(pf, f)
    by_path = {pf.path: pf for pf in project.files}
    for rule in rules:
        try:
            produced = list(rule.check_project(project))
        # kondo: allow[KND003] same contract as the per-file pass: the
        # crash surfaces as a KND000 finding instead of killing the run
        except Exception as exc:  # noqa: BLE001
            findings.append(_crash_finding(rule, "<project>", "<project>",
                                           exc))
            continue
        for f in produced:
            pf = by_path.get(f.path)
            if pf is not None:
                admit(pf, f)
            else:
                findings.append(f)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return CheckResult(new=findings, suppressed=suppressed,
                       n_files=len(project.files), rules=rules)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the checker's arguments to ``parser`` (shared with cli)."""
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to check "
                             "(default: src/repro)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="report format")
    parser.add_argument("--output", help="write the report to this file "
                                         "(atomic) instead of stdout")
    parser.add_argument("--select", default=None,
                        help="comma-separated rule IDs to run "
                             "(e.g. KND001,KND004)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")


def build_arg_parser(prog: str = "kondo check"
                     ) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="AST invariant linter for the Kondo codebase",
    )
    add_arguments(parser)
    return parser


def main(argv: Optional[Sequence[str]] = None,
         prog: str = "kondo check") -> int:
    return run_from_args(build_arg_parser(prog).parse_args(argv))


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a check described by parsed arguments; returns exit code.

    The exit-code contract: 0 clean, 1 findings (including a rule crash
    surfaced as KND000), 2 analyzer failure (usage error, internal
    crash).
    """
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.name:18s} "
                  f"[{rule.severity.value}]  {rule.summary}")
        return 0
    for p in args.paths:
        if not os.path.exists(p):
            print(f"error: no such path: {p}", file=sys.stderr)
            return 2
    if not discover_sources(args.paths):
        print(f"error: no Python sources under {', '.join(args.paths)}",
              file=sys.stderr)
        return 2
    select = (args.select.split(",") if args.select else None)
    try:
        result = run_check(args.paths, select=select)
    # kondo: allow[KND003] the CLI boundary: an internal analyzer crash
    # must exit 2 (distinct from "findings" = 1) with a diagnostic, not
    # a bare traceback — the failure is reported, not swallowed
    except Exception as exc:  # noqa: BLE001
        print(f"error: internal analyzer failure: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.format == "text":
        report = render_text(result.new, result.n_files)
    elif args.format == "json":
        report = render_json(result.new)
    else:
        report = render_sarif(result.new, result.rules)
    if args.output:
        with atomic_write(args.output, "w") as fh:
            fh.write(report)
            fh.write("\n")
        print(f"wrote {args.format} report to {args.output}")
    else:
        print(report)
    return result.exit_code
