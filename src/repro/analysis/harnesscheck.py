"""HARN001 — sweep-point import closures vs declared cache sources.

The parallel harness caches every sweep point on disk, keyed by the
point function, its parameters, and a digest of the experiment's
declared ``sources`` modules (:class:`repro.harness.points.SweepSpec`).
The declaration is trust-based: if a point function transitively
imports a ``repro.*`` module the spec does *not* declare, editing that
module leaves the digest unchanged and ``regress`` happily serves
stale cached results — the nastiest kind of reproduction bug, because
everything still passes.

This checker closes the loop statically.  For each registered spec it

1. collects the modules named by every point's ``func`` across all
   scales,
2. walks each module's transitive ``repro.*`` import closure by parsing
   ASTs (absolute imports, relative imports at any level, and
   ``from pkg import submodule`` resolved against the package tree —
   nothing is executed or imported),
3. reports a :class:`~repro.analysis.findings.Finding` (rule
   ``HARN001``, ERROR) for every closed-over module no declared source
   covers.

A module ``m`` is covered by source ``s`` when ``m == s`` or ``m``
lives under the package ``s``.  The package root ``repro`` itself and
``repro.version`` are exempt: the root ``__init__`` is a thin lazy
wrapper and the version string is already part of the cache key.

One deliberate refinement keeps the closure honest instead of
everything-reaches-everything: importing a submodule executes every
ancestor package ``__init__``, and re-export hubs like
``repro.experiments.__init__`` eagerly import *every sibling* — which
would drag the whole codebase into every experiment's closure and make
the rule useless.  Ancestor ``__init__`` files that are pure re-export
hubs (docstring + imports + ``__all__`` only) are therefore treated as
inert: their imports are not followed and they need no declaration.
Any ``__init__`` reached through a real import edge (``from ..core
import BatchPolicy``), or containing actual logic, is followed in
full — its code demonstrably feeds the point result.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from typing import NamedTuple

import repro

from ..errors import ConfigurationError
from ..harness.points import SCALES, SweepSpec
from .findings import Finding

#: The package every experiment lives under.
PACKAGE = "repro"

_ROOT = Path(repro.__file__).resolve().parent

#: Modules whose changes need not invalidate caches: the root
#: ``__init__`` only lazy-imports, and the version string is hashed
#: into every cache key independently of source digests.
IGNORED_MODULES = frozenset({PACKAGE, f"{PACKAGE}.version"})


def module_path(name: str) -> Path | None:
    """Resolve a dotted ``repro.*`` module name to its source file.

    Packages resolve to their ``__init__.py``; names that do not exist
    under the package tree resolve to ``None``.
    """
    if name == PACKAGE:
        return _ROOT / "__init__.py"
    if not name.startswith(PACKAGE + "."):
        return None
    candidate = _ROOT.joinpath(*name.split(".")[1:])
    package_init = candidate / "__init__.py"
    if package_init.is_file():
        return package_init
    module_file = candidate.with_suffix(".py")
    if module_file.is_file():
        return module_file
    return None


def _relative_base(importer: str, level: int) -> list[str] | None:
    """The package a level-``level`` relative import resolves against."""
    parts = importer.split(".")
    path = module_path(importer)
    if path is not None and path.name == "__init__.py":
        package = parts
    else:
        package = parts[:-1]
    if level - 1 >= len(package):
        return None
    return package[: len(package) - (level - 1)]


def imported_modules(importer: str, tree: ast.AST) -> set[str]:
    """Every ``repro.*`` module one file's imports name.

    Walks the whole AST, so lazy function-body imports count too — they
    still execute when the point function runs.  For ``from pkg import
    name``, ``name`` is kept as a module only when a matching file
    exists under the package tree (otherwise it is an attribute).
    """
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name
                if name == PACKAGE or name.startswith(PACKAGE + "."):
                    found.add(name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _relative_base(importer, node.level)
                if base is None:
                    continue
                target_parts = base + (node.module.split(".") if node.module else [])
                target = ".".join(target_parts)
            else:
                target = node.module or ""
            if target != PACKAGE and not target.startswith(PACKAGE + "."):
                continue
            found.add(target)
            for alias in node.names:
                submodule = f"{target}.{alias.name}"
                if module_path(submodule) is not None:
                    found.add(submodule)
    return found


def _ancestors(name: str) -> list[str]:
    """Every enclosing package of a dotted name (importing a submodule
    executes every ancestor ``__init__`` too)."""
    parts = name.split(".")
    return [".".join(parts[:length]) for length in range(1, len(parts))]


def _is_reexport_hub(tree: ast.Module) -> bool:
    """True when a module is nothing but a re-export hub.

    A hub contains only a docstring, imports, and ``__all__``
    assignments — no functions, classes, or other logic whose behaviour
    a point result could depend on.
    """
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        if isinstance(node, ast.Assign) and all(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            continue
        return False
    return True


def import_closure(root_module: str) -> set[str]:
    """The transitive ``repro.*`` import closure of one module.

    Includes the root module and everything reachable through import
    edges, plus ancestor package ``__init__`` files that contain real
    logic (inert re-export hubs reached only as ancestors are skipped —
    see the module docstring).  Purely static (AST-based); nothing is
    executed.
    """
    closure: set[str] = set()
    inert_hubs: set[str] = set()
    queue: list[tuple[str, bool]] = [(root_module, False)]
    while queue:
        name, via_ancestor = queue.pop()
        if name in closure:
            continue
        path = module_path(name)
        if path is None:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if via_ancestor and path.name == "__init__.py" and _is_reexport_hub(tree):
            inert_hubs.add(name)
            continue
        closure.add(name)
        inert_hubs.discard(name)
        for ancestor in _ancestors(name):
            if ancestor not in closure and ancestor not in inert_hubs:
                queue.append((ancestor, True))
        for dependency in imported_modules(name, tree):
            if dependency not in closure:
                queue.append((dependency, False))
    return closure


def _covered(module: str, sources: tuple[str, ...]) -> bool:
    """True when some declared source digests this module's file."""
    return any(
        module == source or module.startswith(source + ".")
        for source in sources
    )


def check_spec(spec: SweepSpec) -> list[Finding]:
    """HARN001 findings for one experiment's sweep spec."""
    func_modules: set[str] = set()
    for scale in SCALES:
        try:
            points = spec.points_for(scale)
        except (KeyError, ConfigurationError):
            # A scale this experiment does not define.
            continue
        for point in points:
            module, _, _ = point.func.partition(":")
            func_modules.add(module)
    closure: set[str] = set()
    for module in sorted(func_modules):
        closure |= import_closure(module)
    missing = sorted(
        module
        for module in closure
        if module not in IGNORED_MODULES and not _covered(module, spec.sources)
    )
    if not missing:
        return []
    return [
        Finding(
            rule_id="HARN001",
            message=(
                f"experiment {spec.name!r}: point functions transitively "
                f"import {module}, which no declared cache source covers "
                f"— edits to it would serve stale cached results "
                f"(declared sources: {', '.join(spec.sources)})"
            ),
            target=f"experiment:{spec.name}",
            details={
                "experiment": spec.name,
                "module": module,
                "sources": list(spec.sources),
            },
        )
        for module in missing
    ]


class CoverageRule(NamedTuple):
    """One registry whose every entry some sweep point must exercise."""

    rule_id: str
    #: Dotted path of the registry mapping, ``module.ATTRIBUTE``.
    registry: str
    experiment: str
    #: The sweep-point parameter that names a registry entry.
    param: str
    #: The finding's ``details`` key for the unexercised entry.
    key: str
    noun: str
    #: What of the entry the golden gate would leave unpinned.
    pins: str


#: The registry sweep-coverage rules.  An experiment's golden gate only
#: pins the registry entries its sweep actually runs, so an entry
#: absent from every scale's points could change without tripping any
#: golden.
COVERAGE_RULES = (
    CoverageRule("HARN002", "repro.core.dispatch.DISPATCH_POLICIES",
                 "multicore", "dispatch", "policy", "dispatch policy",
                 "behaviour"),
    CoverageRule("HARN003", "repro.flows.lookup.FLOW_CACHE_ORGS",
                 "flows", "organization", "organization",
                 "flow-cache organization", "behaviour"),
    CoverageRule("HARN004", "repro.gossip.wire.FRAMING_MODES",
                 "gossip", "framing", "framing", "framing mode",
                 "wire layout"),
)


def check_registry_coverage() -> list[Finding]:
    """HARN002-HARN004 findings: registry entries no sweep exercises.

    For each :data:`COVERAGE_RULES` row, every entry of the registry
    must appear as the row's parameter of at least one sweep point of
    its experiment at some scale.  Registries are looked up when the
    check runs, so a registration made after import is checked too.
    """
    from ..harness.registry import get_spec

    findings: list[Finding] = []
    for rule in COVERAGE_RULES:
        module, _, attribute = rule.registry.rpartition(".")
        registry = getattr(importlib.import_module(module), attribute)
        spec = get_spec(rule.experiment)
        exercised: set[str] = set()
        for scale in SCALES:
            try:
                points = spec.points_for(scale)
            except (KeyError, ConfigurationError):
                continue
            for point in points:
                name = point.params.get(rule.param)
                if name is not None:
                    exercised.add(str(name))
        findings.extend(
            Finding(
                rule_id=rule.rule_id,
                message=(
                    f"{rule.noun} {name!r} is registered in "
                    f"{rule.registry} but exercised by no "
                    f"{rule.experiment} sweep point at any scale — its "
                    f"{rule.pins} is unpinned by the golden gate "
                    f"(exercised: {', '.join(sorted(exercised)) or 'none'})"
                ),
                target=f"experiment:{rule.experiment}",
                details={rule.key: name, "exercised": sorted(exercised)},
            )
            for name in sorted(set(registry) - exercised)
        )
    return findings


def check_all_specs() -> list[Finding]:
    """HARN findings across every registered experiment.

    HARN001 (undeclared cache sources) for each spec, plus the
    registry sweep-coverage rules HARN002-HARN004
    (:func:`check_registry_coverage`).
    """
    from ..harness.registry import all_specs

    findings: list[Finding] = []
    for spec in all_specs():
        findings.extend(check_spec(spec))
    findings.extend(check_registry_coverage())
    return findings
