"""The flat machine: split instruction/data primaries, one miss penalty.

The paper's machine model charges a fixed stall per primary-cache read
miss (20 cycles in Section 4; 10 cycles on the DEC 3000/400 of Section 2)
and treats the secondary cache / memory as flat beyond that: every
primary miss is assumed to hit the secondary cache.  :class:`MachineSpec`
describes that machine; :class:`repro.machine.cpu.CPU` builds its two
caches and converts miss counts into stall cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..errors import ConfigurationError
from ..units import kb
from .cache import DirectMappedCache


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one primary cache."""

    size: int = kb(8)
    line_size: int = 32

    def build(self) -> DirectMappedCache:
        """Construct a direct-mapped cache with this geometry."""
        return DirectMappedCache(self.size, self.line_size)

    @property
    def num_lines(self) -> int:
        return self.size // self.line_size

    @property
    def num_sets(self) -> int:
        """Set count (equal to the line count: direct-mapped)."""
        return self.num_lines

    def describe(self) -> dict[str, int]:
        """Static description for offline analysis and reports."""
        return {
            "size": self.size,
            "line_size": self.line_size,
            "num_sets": self.num_sets,
        }


@dataclass(frozen=True)
class MachineSpec:
    """The simulated machine of the paper's Section 4.

    100 MHz clock, 8 KB direct-mapped split I/D caches with 32-byte
    lines, and a 20-cycle stall per read miss.

    The flat ``miss_penalty`` (whole cycles) matches the paper's model,
    where every primary miss hits in the secondary cache.
    """

    clock_hz: float = 100e6
    icache: CacheGeometry = field(default_factory=CacheGeometry)
    dcache: CacheGeometry = field(default_factory=CacheGeometry)
    miss_penalty: int = 20
    #: Fraction of instruction-miss stall hidden by sequential prefetch
    #: ("some processors can prefetch instructions from the second level
    #: cache to hide some of the cache miss cost", Section 4).
    iprefetch_efficiency: float = 0.0

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ConfigurationError(f"clock must be positive, got {self.clock_hz}")
        if isinstance(self.miss_penalty, bool) or not isinstance(
            self.miss_penalty, int
        ):
            raise ConfigurationError(
                f"miss penalty must be a whole number of cycles, got "
                f"{self.miss_penalty!r}"
            )
        if self.miss_penalty < 0:
            raise ConfigurationError(
                f"miss penalty must be non-negative, got {self.miss_penalty}"
            )
        if not 0.0 <= self.iprefetch_efficiency < 1.0:
            raise ConfigurationError(
                "prefetch efficiency must be in [0, 1)"
            )

    def with_clock(self, clock_hz: float) -> "MachineSpec":
        """Return a copy running at a different clock rate (Figure 7)."""
        return replace(self, clock_hz=clock_hz)


#: The DEC 3000/400 of Section 2: 8 KB primaries, 32-byte lines, and a
#: 10-cycle primary-miss penalty ("wastes 20 instruction slots (10
#: cycles)").
DEC3000_400 = MachineSpec(clock_hz=133e6, miss_penalty=10)

#: Rosenblum's 1998 projection quoted in Section 1.2: larger caches but a
#: much larger (60-slot ~ 30-cycle) miss cost.
ROSENBLUM_1998 = MachineSpec(
    clock_hz=400e6,
    icache=CacheGeometry(size=kb(64)),
    dcache=CacheGeometry(size=kb(64)),
    miss_penalty=30,
)
