"""The run-scoped recorder: spans, counters, and the global switch.

This module is the dependency-free core of :mod:`repro.obs`.  It defines
the event model (:class:`Span`, :class:`CounterSet`) and the
:class:`Recorder` that instrumented hot paths write into, plus the
process-global install point the instrumentation checks.

Zero cost when disabled
-----------------------
Instrumentation sites follow one pattern::

    recorder = active_recorder()
    if recorder is not None:
        ...record a span or bump a counter...

With no recorder installed (the default), the only cost is one global
read and an ``is None`` test; no object is allocated, no RNG is drawn,
and no cache state is touched, so simulation results are byte-identical
with tracing on or off (``tests/test_obs.py`` pins this).

Clocks
------
The recorder does not own a clock: every ``begin``/``end`` carries an
explicit timestamp supplied by the caller, because "now" differs by
subsystem — ``machine.executor``/``sim.runner`` spans use CPU cycles
(:attr:`repro.machine.cpu.CPU.cycles`), while trace-generation spans in
:mod:`repro.netbsd.receive_path` use the reference index, and the
miss-attribution replay uses modelled cycles (1 per reference plus the
miss penalty).  The clock unit is recorded per span track by the sink.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Signature of a counter probe: returns the *cumulative* values of a
#: set of named counters (e.g. cache hits/misses); the recorder stores
#: end-minus-begin deltas on the span.
CounterProbe = Callable[[], dict[str, float]]


class CounterSet:
    """A bag of named monotonically accumulated counters.

    Counter names are dotted strings (``mbuf.alloc``,
    ``layer0.icache_misses``); values are floats so cycle counts and
    event counts share one type.
    """

    def __init__(self) -> None:
        self._values: dict[str, float] = {}

    def add(self, name: str, amount: float = 1.0) -> None:
        """Accumulate ``amount`` into the named counter."""
        self._values[name] = self._values.get(name, 0.0) + amount

    def merge(self, other: dict[str, float]) -> None:
        """Accumulate every counter of ``other`` into this set."""
        for name, amount in other.items():
            self.add(name, amount)

    def get(self, name: str) -> float:
        """Current value of the named counter (0.0 when never bumped)."""
        return self._values.get(name, 0.0)

    def as_dict(self) -> dict[str, float]:
        """Sorted snapshot of all counters (JSON-serializable)."""
        return {name: self._values[name] for name in sorted(self._values)}

    def __len__(self) -> int:
        return len(self._values)

    def __bool__(self) -> bool:
        return bool(self._values)


@dataclass(frozen=True)
class Span:
    """One closed enter/exit interval on a named track.

    Attributes
    ----------
    track:
        The timeline the span belongs to — one track per protocol layer
        (``layer0`` … ``layer4``), plus ``scheduler`` and phase tracks.
        Sinks map tracks to Chrome-trace threads.
    name:
        What ran (layer invocation, scheduler step, trace phase,
        function name in a replay).
    start / end:
        Clock values at enter and exit (unit depends on the producer;
        see the module docstring).
    args:
        Small JSON-serializable annotations (message size, batch size).
    counters:
        End-minus-start deltas of the probe's counters over the span
        (cache hits/misses, stall cycles, …).
    """

    track: str
    name: str
    start: float
    end: float
    args: dict[str, Any] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in its clock's unit."""
        return self.end - self.start


@dataclass
class _OpenSpan:
    """Book-keeping for a span that has begun but not ended."""

    track: str
    name: str
    start: float
    args: dict[str, Any]
    probe: CounterProbe | None
    baseline: dict[str, float]


@dataclass(frozen=True)
class Instant:
    """A zero-duration marker on a track (message arrival, drop)."""

    track: str
    name: str
    time: float
    args: dict[str, Any] = field(default_factory=dict)


class Recorder:
    """Run-scoped collection point for spans, instants, and counters.

    Parameters
    ----------
    keep_spans:
        When False the recorder accumulates only counters and per-track
        totals, discarding span/instant objects — the metrics-sink mode
        the harness uses, where memory must stay bounded over thousands
        of sweep-point messages.
    """

    def __init__(self, keep_spans: bool = True) -> None:
        self.keep_spans = keep_spans
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        self.counters = CounterSet()
        #: Aggregate per-track counter totals (always maintained, even
        #: when spans themselves are discarded).
        self.track_totals: dict[str, CounterSet] = {}

    # ------------------------------------------------------------------
    # Spans

    def begin(
        self,
        track: str,
        name: str,
        clock: float,
        probe: CounterProbe | None = None,
        **args: Any,
    ) -> _OpenSpan:
        """Open a span; returns the handle :meth:`end` closes."""
        baseline = probe() if probe is not None else {}
        return _OpenSpan(track, name, clock, dict(args), probe, baseline)

    def end(self, handle: _OpenSpan, clock: float) -> Span | None:
        """Close a span handle, computing counter deltas since begin."""
        deltas: dict[str, float] = {}
        if handle.probe is not None:
            current = handle.probe()
            deltas = {
                key: current[key] - handle.baseline.get(key, 0.0)
                for key in current
            }
        totals = self.track_totals.setdefault(handle.track, CounterSet())
        totals.add("spans")
        totals.add("clock_units", clock - handle.start)
        totals.merge(deltas)
        if not self.keep_spans:
            return None
        span = Span(
            track=handle.track,
            name=handle.name,
            start=handle.start,
            end=clock,
            args=handle.args,
            counters=deltas,
        )
        self.spans.append(span)
        return span

    @contextmanager
    def span(
        self,
        track: str,
        name: str,
        clock: Callable[[], float],
        probe: CounterProbe | None = None,
        **args: Any,
    ) -> Iterator[_OpenSpan]:
        """Context-manager form: ``clock`` is called at enter and exit."""
        handle = self.begin(track, name, clock(), probe, **args)
        try:
            yield handle
        finally:
            self.end(handle, clock())

    def instant(self, track: str, name: str, clock: float, **args: Any) -> None:
        """Record a zero-duration event (skipped in counters-only mode)."""
        totals = self.track_totals.setdefault(track, CounterSet())
        totals.add(f"instant.{name}")
        if self.keep_spans:
            self.instants.append(Instant(track, name, clock, dict(args)))

    # ------------------------------------------------------------------
    # Counters

    def count(self, name: str, amount: float = 1.0) -> None:
        """Bump a run-global counter."""
        self.counters.add(name, amount)

    def tracks(self) -> list[str]:
        """All track names seen, in first-seen order."""
        seen = dict.fromkeys(span.track for span in self.spans)
        for instant in self.instants:
            seen.setdefault(instant.track, None)
        for track in self.track_totals:
            seen.setdefault(track, None)
        return list(seen)


def machine_counters(cpu: Any) -> CounterProbe:
    """A counter probe over a :class:`repro.machine.cpu.CPU`.

    Duck-typed (anything with ``cycles``, ``stall_cycles``, ``icache``
    and ``dcache`` works) so this module stays free of machine-layer
    imports.
    """

    icache, dcache = cpu.icache, cpu.dcache

    def probe() -> dict[str, float]:
        return {
            "cycles": float(cpu.cycles),
            "stall_cycles": float(cpu.stall_cycles),
            "icache_hits": float(icache.stats.hits),
            "icache_misses": float(icache.stats.misses),
            "dcache_hits": float(dcache.stats.hits),
            "dcache_misses": float(dcache.stats.misses),
        }

    return probe


# ----------------------------------------------------------------------
# The process-global install point

_recorder: Recorder | None = None


def active_recorder() -> Recorder | None:
    """The installed recorder, or None when tracing is disabled.

    This is the single check every instrumentation site performs; it
    must stay a plain module-global read.
    """
    return _recorder


def install(recorder: Recorder | None) -> Recorder | None:
    """Install (or, with None, remove) the process-global recorder.

    Returns the previously installed recorder so callers can restore it.
    Prefer the :func:`recording` context manager, which restores
    automatically.
    """
    global _recorder
    previous = _recorder
    _recorder = recorder  # det: allow[DET005] process-local install point; harness workers install and restore their own recorder per point
    return previous


@contextmanager
def recording(recorder: Recorder) -> Iterator[Recorder]:
    """Install ``recorder`` for the duration of the ``with`` block."""
    previous = install(recorder)
    try:
        yield recorder
    finally:
        install(previous)
