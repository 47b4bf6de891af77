"""``python -m repro.analysis`` — the static analyzer's command line.

Examples::

    # mbuf lifecycle lint over sources
    python -m repro.analysis examples/ src/repro/protocols

    # layout + budget + scheduler-config lint of the modelled stacks
    python -m repro.analysis --stack synthetic --stack netbsd

    # whole-package determinism & parallel-purity gate (DET rules)
    python -m repro.analysis --determinism

    # everything, machine-readable, for CI
    python -m repro.analysis examples/ --stack synthetic --format json

    # the rule catalog
    python -m repro.analysis --list-rules

Exit status: 0 when no finding reaches the ``--fail-on`` threshold,
1 when one does, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import ReproError
from .findings import RULES, Finding, Severity
from .mbuflint import lint_paths
from .reporters import order_findings, render_json, render_text
from .stacks import STACK_NAMES, analyze_stack


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Static cache-conflict, working-set, scheduler-config and "
            "mbuf-lifecycle analysis for the LDLP reproduction."
        ),
    )
    parser.add_argument(
        "targets",
        nargs="*",
        help="Python files or directories to run the mbuf lifecycle lint on",
    )
    parser.add_argument(
        "--stack",
        action="append",
        choices=STACK_NAMES,
        default=None,
        help="also analyze a modelled stack (repeatable)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="placement seed for --stack runs"
    )
    parser.add_argument(
        "--placement",
        choices=("random", "sequential"),
        default="random",
        help="code placement strategy for --stack runs",
    )
    parser.add_argument(
        "--harness",
        action="store_true",
        help=(
            "check every experiment's sweep-point import closure against "
            "its declared cache sources (HARN001) and registry sweep "
            "coverage (HARN002-HARN006)"
        ),
    )
    parser.add_argument(
        "--determinism",
        action="store_true",
        help=(
            "run the DET rule family: whole-package determinism lint "
            "(unseeded RNG, salted hash, wall clocks, unordered "
            "iteration) plus sweep-point parallel purity (DET001-DET005)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry (id, name, severity, summary) and exit",
    )
    parser.add_argument(
        "--format",
        dest="fmt",
        choices=("text", "json"),
        default="text",
        help="report format",
    )
    parser.add_argument(
        "--fail-on",
        choices=("error", "warning", "never"),
        default="error",
        help="lowest severity that makes the exit status non-zero",
    )
    return parser


def _should_fail(findings: list[Finding], threshold: str) -> bool:
    if threshold == "never":
        return False
    floor = Severity.ERROR if threshold == "error" else Severity.WARNING
    return any(finding.severity.rank >= floor.rank for finding in findings)


def run(args: argparse.Namespace) -> tuple[list[Finding], dict[str, object]]:
    """Collect findings for parsed arguments (shared with ldlp-experiment)."""
    findings: list[Finding] = []
    summaries: dict[str, object] = {}
    if args.targets:
        findings.extend(lint_paths(list(args.targets)))
    for stack in args.stack or []:
        analysis = analyze_stack(stack, seed=args.seed, placement=args.placement)
        findings.extend(analysis.findings)
        summaries[f"stack:{analysis.name}"] = analysis.summary
    if args.harness:
        from .harnesscheck import check_all_specs

        harness_findings = check_all_specs()
        findings.extend(harness_findings)
        summaries["harness"] = {
            "experiments_checked": True,
            "harn_findings": len(harness_findings),
        }
    if args.determinism:
        from .detcheck import check_determinism

        det_findings = check_determinism()
        findings.extend(det_findings)
        summaries["determinism"] = {
            "package_scanned": True,
            "det_findings": len(det_findings),
        }
    return findings, summaries


def list_rules() -> str:
    """The rule registry rendered as one line per rule, sorted by id."""
    lines = []
    for rule_id in sorted(RULES):
        rule = RULES[rule_id]
        lines.append(
            f"{rule.rule_id}  {rule.name:<26} {rule.severity.value:<8} "
            f"[{rule.paper_section}]"
        )
        lines.append(f"        {rule.summary}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(list_rules())
        return 0
    if not args.targets and not args.stack and not args.harness \
            and not args.determinism:
        parser.error(
            "nothing to analyze: give source targets, --stack, --harness, "
            "and/or --determinism"
        )
    try:
        findings, summaries = run(args)
    except ReproError as exc:
        print(f"analysis failed: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read target: {exc}", file=sys.stderr)
        return 2
    render = render_json if args.fmt == "json" else render_text
    print(render(order_findings(findings), summaries))
    return 1 if _should_fail(findings, args.fail_on) else 0


if __name__ == "__main__":
    sys.exit(main())
