"""Latency, throughput, and miss statistics for simulation runs."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, TypeVar, get_args, get_origin, get_type_hints

import numpy as np

from ..errors import SimulationError


R = TypeVar("R", bound="ResultRecord")


class ResultRecord:
    """JSON codec shared by every result dataclass.

    :meth:`to_dict` walks :func:`dataclasses.fields`: nested records
    become dicts, tuples become lists, every other value is stored as
    is.  :meth:`from_dict` inverts it from the type hints (resolved
    through the MRO, so subclasses inherit their parents' fields): a
    record-typed field is rebuilt recursively, a ``tuple[X, ...]``
    field becomes a tuple again, and a field missing from ``data``
    takes its dataclass default.
    """

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (the harness result cache)."""
        return {f.name: _encode(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls: type[R], data: dict[str, Any]) -> R:
        """Inverse of :meth:`to_dict`."""
        hints = get_type_hints(cls)
        return cls(**{
            f.name: _decode(hints[f.name], data[f.name])
            for f in fields(cls)
            if f.name in data
        })


def _encode(value: Any) -> Any:
    """The JSON form of one field value."""
    if isinstance(value, ResultRecord):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


def _decode(hint: Any, value: Any) -> Any:
    """Rebuild one field value of type ``hint`` from its JSON form."""
    if isinstance(hint, type) and issubclass(hint, ResultRecord):
        return hint.from_dict(value)
    if get_origin(hint) is tuple:
        return tuple(_decode(get_args(hint)[0], item) for item in value)
    return value


def sum_records(records: list[R], **fixed: Any) -> R:
    """One record of ``records``' type: the ``fixed`` fields as given,
    every other field summed across ``records``."""
    kind = type(records[0])
    summed = {
        f.name: sum(getattr(record, f.name) for record in records)
        for f in fields(kind)
        if f.name not in fixed
    }
    return kind(**fixed, **summed)


class LatencyRecorder:
    """Accumulates per-message latencies (seconds)."""

    def __init__(self) -> None:
        self._samples: list[float] = []

    def record(self, latency: float) -> None:
        """Append one latency sample; negative values are a model bug."""
        if latency < 0:
            raise SimulationError(f"negative latency {latency}")
        self._samples.append(latency)

    def __len__(self) -> int:
        return len(self._samples)

    def summary(self) -> "LatencySummary":
        """Reduce the samples to a :class:`LatencySummary` (NaNs if empty)."""
        if not self._samples:
            return LatencySummary(0, float("nan"), float("nan"), float("nan"),
                                  float("nan"), float("nan"))
        data = np.asarray(self._samples)
        return LatencySummary(
            count=int(data.size),
            mean=float(data.mean()),
            median=float(np.median(data)),
            p95=float(np.percentile(data, 95)),
            p99=float(np.percentile(data, 99)),
            maximum=float(data.max()),
        )


@dataclass(frozen=True)
class LatencySummary(ResultRecord):
    """Summary statistics of message latency, all in seconds."""

    count: int
    mean: float
    median: float
    p95: float
    p99: float
    maximum: float

    def format(self) -> str:
        """Human-readable one-liner with unit-scaled durations."""
        from ..units import format_duration

        if self.count == 0:
            return "no completed messages"
        return (
            f"n={self.count} mean={format_duration(self.mean)} "
            f"median={format_duration(self.median)} p95={format_duration(self.p95)} "
            f"p99={format_duration(self.p99)} max={format_duration(self.maximum)}"
        )


@dataclass(frozen=True)
class MissesPerMessage(ResultRecord):
    """Primary-cache misses per completed message (Figure 5's y-axis)."""

    instruction: float
    data: float

    @property
    def total(self) -> float:
        """Instruction plus data misses per message."""
        return self.instruction + self.data


@dataclass(frozen=True)
class RunResult(ResultRecord):
    """Everything one simulation run produces.

    Attributes mirror the paper's reporting: latency (Figure 6/7),
    misses per message (Figure 5), plus throughput and drop accounting.
    """

    scheduler: str
    arrival_rate: float
    offered: int
    completed: int
    dropped: int
    duration: float
    latency: LatencySummary
    misses: MissesPerMessage
    cycles_per_message: float
    mean_batch_size: float

    @property
    def delivered_rate(self) -> float:
        """Completed messages per second of simulated time."""
        if self.duration <= 0:
            return 0.0
        return self.completed / self.duration

    @property
    def drop_fraction(self) -> float:
        """Fraction of offered messages dropped at the input buffer."""
        if self.offered == 0:
            return 0.0
        return self.dropped / self.offered

    def summary(self) -> str:
        """One reporting line: throughput, drops, latency, misses, batch."""
        return (
            f"{self.scheduler}: rate={self.arrival_rate:.0f}/s "
            f"completed={self.completed}/{self.offered} "
            f"(drops={self.dropped}) latency[{self.latency.format()}] "
            f"misses/msg I={self.misses.instruction:.0f} D={self.misses.data:.0f} "
            f"cycles/msg={self.cycles_per_message:.0f} "
            f"batch={self.mean_batch_size:.1f}"
        )


def merge_results(results: list[RunResult]) -> RunResult:
    """Average several same-configuration runs (the paper's 100-placement
    averaging).  Latency summaries are averaged field-wise, weighted by
    sample count; counters are summed."""
    if not results:
        raise SimulationError("cannot merge zero results")
    total_completed = sum(r.completed for r in results)
    weights = np.asarray(
        [r.latency.count if r.latency.count else 0 for r in results], dtype=float
    )
    if weights.sum() == 0:
        weights = np.ones(len(results))
    weights = weights / weights.sum()

    def wavg(getter) -> float:
        """Weighted average of one field, ignoring non-finite entries."""
        values = np.asarray([getter(r) for r in results], dtype=float)
        finite = np.isfinite(values)
        if not finite.any():
            return float("nan")
        w = weights.copy()
        w[~finite] = 0.0
        if w.sum() == 0:
            return float("nan")
        return float(np.dot(values[finite], w[finite] / w.sum()))

    latency = LatencySummary(
        count=sum(r.latency.count for r in results),
        mean=wavg(lambda r: r.latency.mean),
        median=wavg(lambda r: r.latency.median),
        p95=wavg(lambda r: r.latency.p95),
        p99=wavg(lambda r: r.latency.p99),
        maximum=max((r.latency.maximum for r in results if r.latency.count), default=float("nan")),
    )
    return RunResult(
        scheduler=results[0].scheduler,
        arrival_rate=float(np.mean([r.arrival_rate for r in results])),
        offered=sum(r.offered for r in results),
        completed=total_completed,
        dropped=sum(r.dropped for r in results),
        duration=sum(r.duration for r in results),
        latency=latency,
        misses=MissesPerMessage(
            instruction=wavg(lambda r: r.misses.instruction),
            data=wavg(lambda r: r.misses.data),
        ),
        cycles_per_message=wavg(lambda r: r.cycles_per_message),
        mean_batch_size=wavg(lambda r: r.mean_batch_size),
    )
