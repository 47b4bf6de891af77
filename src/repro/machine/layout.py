"""Memory layout: assigning base addresses to regions.

Because the paper's primary caches are direct-mapped, the number of
conflict misses depends on where the linker happened to place each
function.  Section 4 therefore averages results over "100 runs, each
with a different random placement in memory".  :class:`MemoryLayout`
reproduces both strategies:

* :meth:`place_sequential` — packed placement, as a simple linker would
  produce (no self-conflicts within one region, adjacent regions abut);
* :meth:`place_random` — uniformly random line-aligned placement in a
  large address window, non-overlapping.
"""

from __future__ import annotations

import numpy as np

from ..errors import LayoutError
from .program import Region

#: Default address window: 64 MiB, far larger than any cache so random
#: placements exercise all cache indices uniformly.
DEFAULT_SPAN = 64 * 1024 * 1024

#: Seed used when no ``rng`` is supplied.  A *fixed* seed, never OS
#: entropy: an entropy-seeded fallback silently breaks the harness's
#: byte-identical-at-any---jobs contract the first time a caller forgets
#: to thread a seed through (rule DET001).
DEFAULT_SEED = 0


class MemoryLayout:
    """Allocates non-overlapping, line-aligned base addresses.

    Parameters
    ----------
    line_size:
        Alignment unit; regions always start on a line boundary (real
        linkers align functions at least this much).
    base:
        First address available for placement.
    span:
        Size of the address window used for random placement.
    rng:
        RNG driving random placement: a numpy generator or an integer
        seed (coerced to a seeded generator).  The generator is owned by
        this instance — placement never touches module-level RNG state,
        so harness workers constructing layouts concurrently can never
        share or interleave random streams.  When omitted, the layout
        uses :data:`DEFAULT_SEED` — deterministically, never OS entropy —
        so ``MemoryLayout()`` places identically on every run.
    """

    def __init__(
        self,
        line_size: int = 32,
        base: int = 0,
        span: int = DEFAULT_SPAN,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if line_size <= 0:
            raise LayoutError(f"line size must be positive, got {line_size}")
        if span <= 0:
            raise LayoutError(f"span must be positive, got {span}")
        self.line_size = line_size
        self.base = base
        self.span = span
        if rng is None:
            rng = DEFAULT_SEED
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(int(rng))
        self.rng = rng
        self._next_free = base
        self._intervals: list[tuple[int, int]] = []  # sorted (start, end)

    def _round_up(self, addr: int) -> int:
        return -(-addr // self.line_size) * self.line_size

    @property
    def reserved_bytes(self) -> int:
        """Total bytes already reserved by placed regions."""
        return sum(end - start for start, end in self._intervals)

    @property
    def free_bytes(self) -> int:
        """Bytes of the window not yet reserved (ignores fragmentation)."""
        return self.span - self.reserved_bytes

    def _overlaps(self, start: int, end: int) -> bool:
        for existing_start, existing_end in self._intervals:
            if start < existing_end and existing_start < end:
                return True
        return False

    def _reserve(self, start: int, end: int) -> None:
        self._intervals.append((start, end))
        self._intervals.sort()

    def place_sequential(self, region: Region) -> Region:
        """Place ``region`` at the lowest line-aligned free address."""
        if region.placed:
            raise LayoutError(f"region {region.name!r} is already placed")
        start = self._round_up(self._next_free)
        while self._overlaps(start, start + region.size):
            start = self._round_up(start + region.size)
        region.base = start
        self._reserve(start, start + region.size)
        self._next_free = start + region.size
        return region

    def place_random(self, region: Region, max_attempts: int = 1000) -> Region:
        """Place ``region`` at a random line-aligned address in the window."""
        if region.placed:
            raise LayoutError(f"region {region.name!r} is already placed")
        if region.size > self.span:
            raise LayoutError(
                f"region {region.name!r} ({region.size} B) exceeds the "
                f"{self.span} B placement window"
            )
        if region.size > self.free_bytes:
            raise LayoutError(
                f"region {region.name!r} ({region.size} B) cannot fit: only "
                f"{self.free_bytes} B of the {self.span} B window remain free"
            )
        max_line = (self.base + self.span - region.size) // self.line_size
        min_line = -(-self.base // self.line_size)
        for _ in range(max_attempts):
            start = int(self.rng.integers(min_line, max_line + 1)) * self.line_size
            if not self._overlaps(start, start + region.size):
                region.base = start
                self._reserve(start, start + region.size)
                return region
        raise LayoutError(
            f"could not place region {region.name!r} after {max_attempts} attempts; "
            f"the placement window is too full"
        )

    def place_all_sequential(self, regions: list[Region]) -> None:
        """Place every region back to back, in order."""
        for region in regions:
            self.place_sequential(region)

    def place_all_random(self, regions: list[Region]) -> None:
        """Place every region at an independent random base."""
        for region in regions:
            self.place_random(region)
