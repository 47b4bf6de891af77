"""The multi-core machine topology: N modeled CPUs behind one shared L2.

The paper's machine (Section 4) is a single 100 MHz CPU with split 8 KB
primary caches.  This module generalizes it to the topology every
modern small-message server runs: ``num_cores`` copies of that CPU,
each with *private* I/D primaries, optionally backed by one *shared*
unified L2 that all cores probe — "ultimately the execution rate is
bounded by the second level cache bandwidth" holds per package, not per
core.  Each core keeps its own cycle clock and miss statistics, so
per-core miss attribution (``repro.obs``) falls out of the same
counters the single-core model already exposes.

Which core a message lands on is decided *above* this module by a
:class:`repro.core.dispatch.DispatchPolicy`; this module only
describes the topology, and :func:`repro.sim.multicore.build_cores`
builds the live cores and their one shared L2 from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from ..cache.hierarchy import CacheGeometry, MachineSpec
from ..errors import ConfigurationError


@dataclass(frozen=True)
class MultiCoreSpec:
    """Static description of an N-core machine.

    Attributes
    ----------
    num_cores:
        Core count; 1 reproduces the paper's single-CPU model exactly.
    core:
        The per-core machine description (clock, private I/D caches,
        miss penalty) — each core gets an identical private copy.
    shared_l2:
        Geometry of one unified second-level cache shared by every
        core, or ``None`` for the paper's flat model (every primary
        miss costs ``core.miss_penalty``).  When set, a primary miss
        that hits the shared L2 stalls ``core.miss_penalty`` cycles and
        a miss in both levels ``core.memory_penalty`` cycles.
    """

    num_cores: int = 4
    core: MachineSpec = field(default_factory=MachineSpec)
    shared_l2: CacheGeometry | None = None

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ConfigurationError(
                f"core count must be >= 1, got {self.num_cores}"
            )
        if self.core.l2 is not None:
            raise ConfigurationError(
                "per-core L2 and MultiCoreSpec cannot be combined; model "
                "the second level via shared_l2"
            )
        if self.shared_l2 is not None:
            for primary in (self.core.icache, self.core.dcache):
                if self.shared_l2.line_size != primary.line_size:
                    raise ConfigurationError(
                        "shared L2 line size must match the primary caches"
                    )
                if self.shared_l2.size < primary.size:
                    raise ConfigurationError(
                        "shared L2 must be at least as large as each "
                        "primary cache"
                    )

    def core_spec(self) -> MachineSpec:
        """The effective per-core :class:`MachineSpec`.

        With a shared L2 configured, each core's spec carries the L2
        geometry so its hierarchy charges the two-level penalties; the
        actual cache *state* is then replaced by the one shared
        instance (:func:`repro.sim.multicore.build_cores` does the rewiring).
        """
        if self.shared_l2 is None:
            return self.core
        return replace(self.core, l2=self.shared_l2)

    def describe(self) -> dict[str, Any]:
        """Static description for offline analysis and reports."""
        return {
            "num_cores": self.num_cores,
            "clock_hz": self.core.clock_hz,
            "icache": self.core.icache.describe(),
            "dcache": self.core.dcache.describe(),
            "miss_penalty": self.core.miss_penalty,
            "shared_l2": (
                self.shared_l2.describe() if self.shared_l2 is not None else None
            ),
        }
