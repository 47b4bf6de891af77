"""Findings, rules, and severities — the vocabulary of ``repro.analysis``.

Every check in the analyzer reports :class:`Finding` objects tagged with
a stable rule id (``LDLP001``, ``SCHED002``, ``MBUF001``...), so CI can
gate on specific rules and reports can link each finding back to the
paper section it enforces.  The registry in :data:`RULES` is the single
source of truth for ids, default severities, and paper cross-references;
DESIGN.md renders the same table for humans.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import ConfigurationError


class Severity(enum.Enum):
    """How bad a finding is; drives the CI gate's exit code."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 2, "warning": 1, "info": 0}[self.value]


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    rule_id: str
    name: str
    severity: Severity
    paper_section: str
    summary: str


#: The rule registry.  Ids are grouped by subsystem: LDLP* for cache /
#: working-set checks, SCHED* for scheduler-configuration checks, MBUF*
#: for the mbuf-lifecycle linter, HARN* for harness cache-dependency
#: checks, DET* for the determinism / parallel-purity analyzer.
RULES: dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule(
            "LDLP001",
            "conflict-overflow",
            Severity.ERROR,
            "Section 4",
            "Two hot regions alias at the same direct-mapped cache index "
            "even though the hot working set fits the cache; a different "
            "placement would avoid the conflict misses.",
        ),
        Rule(
            "LDLP002",
            "working-set-overflow",
            Severity.WARNING,
            "Section 2, Table 1",
            "The hot working set exceeds cache capacity, so conflict "
            "misses are unavoidable regardless of placement (the paper's "
            "~30 KB path vs the 8 KB primary cache).",
        ),
        Rule(
            "LDLP003",
            "group-footprint-overflow",
            Severity.WARNING,
            "Section 5, Table 1",
            "A scheduler group's combined code footprint exceeds the "
            "instruction cache, nullifying the LDLP benefit within the "
            "group.",
        ),
        Rule(
            "LDLP004",
            "batch-footprint-overflow",
            Severity.WARNING,
            "Section 3.2",
            "The LDLP batch cap times the typical message size exceeds "
            "the data cache; batched messages evict each other between "
            "layers.",
        ),
        Rule(
            "SCHED001",
            "group-overlap",
            Severity.ERROR,
            "Section 3.2",
            "A layer index appears in more than one scheduler group; the "
            "layer would process some messages twice.",
        ),
        Rule(
            "SCHED002",
            "unreachable-layer",
            Severity.ERROR,
            "Section 3.2",
            "A layer (or group) no message can ever reach: missing from "
            "every group, out of range, or an empty group.",
        ),
        Rule(
            "SCHED003",
            "completion-order-hazard",
            Severity.ERROR,
            "Section 3.2",
            "Groups list layers out of stack order, so messages would "
            "complete out of order or be routed backwards.",
        ),
        Rule(
            "SCHED004",
            "flush-ignored",
            Severity.WARNING,
            "Section 3.2",
            "A layer coalesces messages (overrides flush) under a "
            "scheduler that never calls flush; held messages would be "
            "stranded.",
        ),
        Rule(
            "MBUF001",
            "double-free",
            Severity.ERROR,
            "Section 3.2",
            "An mbuf (or chain) is returned to its pool twice.",
        ),
        Rule(
            "MBUF002",
            "use-after-free",
            Severity.ERROR,
            "Section 3.2",
            "An mbuf variable is used after being returned to its pool.",
        ),
        Rule(
            "HARN001",
            "undeclared-cache-source",
            Severity.ERROR,
            "Reproduction methodology",
            "A sweep point function's transitive repro.* import closure "
            "reaches a module not covered by the experiment's declared "
            "cache sources; editing that module would not invalidate "
            "cached results (stale cache hits).",
        ),
        Rule(
            "HARN002",
            "unexercised-dispatch-policy",
            Severity.ERROR,
            "Reproduction methodology",
            "A dispatch policy registered in repro.core.dispatch is not "
            "exercised by any multicore sweep point at any scale; its "
            "behaviour would drift unpinned by the golden gate.",
        ),
        Rule(
            "HARN003",
            "unexercised-flow-cache-organization",
            Severity.ERROR,
            "Reproduction methodology",
            "A flow-lookup cache organization registered in "
            "repro.flows.lookup is not exercised by any flows sweep "
            "point at any scale; its behaviour would drift unpinned by "
            "the golden gate.",
        ),
        Rule(
            "HARN004",
            "unexercised-framing-mode",
            Severity.ERROR,
            "Reproduction methodology",
            "A gossip framing mode registered in repro.gossip.wire is "
            "not exercised by any gossip sweep point at any scale; its "
            "wire layout would drift unpinned by the golden gate.",
        ),
        Rule(
            "HARN005",
            "unexercised-scheduler",
            Severity.ERROR,
            "Reproduction methodology",
            "A scheduler named in repro.sim.runner.SCHEDULER_NAMES is "
            "not exercised by any multicore sweep point at any scale; "
            "its behaviour would drift unpinned by the golden gate.",
        ),
        Rule(
            "HARN006",
            "unexercised-drop-policy",
            Severity.ERROR,
            "Reproduction methodology",
            "A drop policy registered in repro.core.overload is not "
            "exercised by any faults sweep point at any scale; its "
            "behaviour would drift unpinned by the golden gate.",
        ),
        Rule(
            "MBUF003",
            "mbuf-leak",
            Severity.WARNING,
            "Section 3.2",
            "An allocated mbuf is neither freed nor handed off before "
            "its scope ends.",
        ),
        Rule(
            "DET001",
            "unseeded-rng",
            Severity.ERROR,
            "Reproduction methodology",
            "RNG constructed without a seed (default_rng(), "
            "random.Random()) or a call into the process-global "
            "random / legacy numpy.random state; results would differ "
            "per run and per worker fork.",
        ),
        Rule(
            "DET002",
            "salted-hash",
            Severity.ERROR,
            "Reproduction methodology",
            "Builtin hash() (PYTHONHASHSEED-salted for str/bytes) or "
            "id() (an allocation address) feeding a computed value; "
            "use a content hash instead.",
        ),
        Rule(
            "DET003",
            "wall-clock",
            Severity.ERROR,
            "Reproduction methodology",
            "Wall-clock read (time.time, perf_counter, datetime.now) "
            "in analyzed code; per-run timestamps may only feed "
            "measurement metadata, via a reason-carrying suppression.",
        ),
        Rule(
            "DET004",
            "unordered-iteration",
            Severity.ERROR,
            "Reproduction methodology",
            "Iteration over a set of salted-hash elements (str/bytes/"
            "Path) flowing into ordered output without sorted(); "
            "element order follows the per-interpreter hash salt.",
        ),
        Rule(
            "DET005",
            "impure-sweep-point",
            Severity.ERROR,
            "Reproduction methodology",
            "A module in a declared sweep point's import closure "
            "writes module-level state from a function body; point "
            "functions must be pure functions of their parameters to "
            "cache and parallelize safely.",
        ),
    )
}


@dataclass
class Finding:
    """One analyzer result.

    Attributes
    ----------
    rule_id:
        Key into :data:`RULES`.
    message:
        Human-readable, finding-specific explanation.
    target:
        What was analyzed: a file path for source lints, a component
        label (e.g. ``"stack:netbsd"``) for configuration checks.
    line:
        1-based source line for file findings, ``None`` otherwise.
    details:
        Machine-readable specifics (offending indices, byte counts...),
        carried verbatim into the JSON report.
    """

    rule_id: str
    message: str
    target: str
    line: int | None = None
    details: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rule_id not in RULES:
            raise ConfigurationError(f"unknown rule id {self.rule_id!r}")

    @property
    def rule(self) -> Rule:
        return RULES[self.rule_id]

    @property
    def severity(self) -> Severity:
        return self.rule.severity

    @property
    def location(self) -> str:
        if self.line is not None:
            return f"{self.target}:{self.line}"
        return self.target


def count_by_severity(findings: list[Finding]) -> dict[str, int]:
    """``{"error": n, "warning": m, "info": k}`` over a finding list."""
    counts = {severity.value: 0 for severity in Severity}
    for finding in findings:
        counts[finding.severity.value] += 1
    return counts


def worst_severity(findings: list[Finding]) -> Severity | None:
    """The most severe level present, or ``None`` when clean."""
    if not findings:
        return None
    return max((finding.severity for finding in findings), key=lambda s: s.rank)
