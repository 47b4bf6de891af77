"""In-memory span tracer wrapped around the repository's public calls.

The tracer never touches the program's source or its obs layer.  It
replaces selected functions and methods with timing wrappers *where the
caller looks them up*: a method on its class (and on every subclass
that overrides it), a module-level function in every loaded ``repro``
module that holds a reference to it.  Each call becomes one span with a
name, start, end, parent span and the sweep point it ran under.  Spans
are stored in flat arrays and written out when the run ends.

It deliberately never installs a span-keeping ``repro.obs`` recorder:
``try_drive_vec`` declines under one, so the traced run would measure
the scalar engine instead of the program the untraced run measures.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Any, Callable

import numpy as np

_ABSENT = object()

#: Counts a wrapped call contributes: ``hook(tracer, args, kwargs, result)``.
CountHook = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.points: list[str] = []
        self.point = -1
        self.name_id = array("i")
        self.parent = array("i")
        self.point_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------

    def intern(self, name: str) -> int:
        """Id of a span name, allocating one on first use."""
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def count(self, name: str, value: float = 1.0) -> None:
        """Add to one of the tracer's own counters."""
        self.counters[name] = self.counters.get(name, 0.0) + value

    def in_span(self, name: str) -> bool:
        """Whether a span called ``name`` is open on the current stack."""
        wanted = self._name_ids.get(name)
        return wanted is not None and any(
            self.name_id[index] == wanted for index in self._stack
        )

    def wrap(
        self,
        name: str,
        func: Callable,
        hook: CountHook | None = None,
        point_of: Callable[[tuple], str] | None = None,
    ) -> Callable:
        """A wrapper recording one ``name`` span per call of ``func``.

        ``point_of`` marks a root call: it names the sweep point the
        call's spans belong to.
        """
        nid = self.intern(name)
        stack = self._stack
        name_ids, parents, point_ids = self.name_id, self.parent, self.point_id
        starts, ends = self.start, self.end
        clock = time.perf_counter
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if point_of is not None:
                tracer.point = len(tracer.points)
                tracer.points.append(point_of(args))
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            point_ids.append(tracer.point)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    # -- installing ---------------------------------------------------

    def patch_method(
        self, cls: type, attr: str, name: str, hook: CountHook | None = None
    ) -> None:
        """Wrap ``attr`` on ``cls`` and every subclass defining its own.

        Raises ``LookupError`` when no class defines it, so a renamed
        method cannot silently read as a layer that takes no time.
        """
        patched = 0
        for klass in [cls, *_all_subclasses(cls)]:
            original = klass.__dict__.get(attr)
            if original is None or getattr(original, "__wrapped_by_perfbench__", False):
                continue
            self._undo.append((klass, attr, original))
            setattr(klass, attr, self.wrap(name, original, hook))
            patched += 1
        if not patched:
            raise LookupError(f"no class under {cls.__name__} defines {attr!r}")

    def patch_function(
        self,
        module: str,
        attr: str,
        name: str,
        hook: CountHook | None = None,
        point_of: Callable[[tuple], str] | None = None,
    ) -> None:
        """Wrap a module-level function in every ``repro`` module binding it."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = self.wrap(name, original, hook, point_of)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_attr(
        self, owner: Any, attr: str, name: str, original: Callable,
        hook: CountHook | None = None,
    ) -> None:
        """Set ``owner.attr`` to a wrapped ``original`` (e.g. an inherited method)."""
        self._undo.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, self.wrap(name, original, hook))

    def uninstall(self) -> None:
        """Put back every original the tracer replaced."""
        for owner, attr, original in reversed(self._undo):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis -----------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The span table as numpy arrays."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "point_id": np.frombuffer(self.point_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        """Write every span, with its name and point tables, to ``path``."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            points=np.array(self.points, dtype=str),
            **self.arrays(),
        )


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the part its direct children cover.

    Calls are single-threaded and strictly nested, so a span's children
    never overlap one another and their summed durations are exactly the
    covered part.
    """
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - covered


def nesting_violations(spans: dict[str, np.ndarray]) -> int:
    """Spans that end before they start or stick out of their parent."""
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    bad = int(np.count_nonzero(end < start))
    child = np.flatnonzero(parent >= 0)
    up = parent[child]
    bad += int(np.count_nonzero((start[child] < start[up]) | (end[child] > end[up])))
    return bad


def layer_totals(
    tracer: Tracer, point_scale: np.ndarray | None = None, other_scale: float = 1.0
) -> dict[str, dict[str, float]]:
    """Per span name: call count, self seconds and inclusive seconds.

    ``self_s`` multiplies each span's self time by the scale of the
    point it ran under (``point_scale[point_id]``, or ``other_scale``
    outside any point); ``raw_self_s`` is the unscaled sum.
    """
    spans = tracer.arrays()
    own = self_times(spans)
    ids = spans["name_id"]
    size = len(tracer.names)
    scale = np.full(len(own), other_scale)
    if point_scale is not None:
        inside = spans["point_id"] >= 0
        scale[inside] = point_scale[spans["point_id"][inside]]
    calls = np.bincount(ids, minlength=size)
    self_s = np.bincount(ids, weights=own * scale, minlength=size)
    raw_self_s = np.bincount(ids, weights=own, minlength=size)
    total_s = np.bincount(ids, weights=spans["end"] - spans["start"], minlength=size)
    return {
        name: {
            "calls": float(calls[i]),
            "self_s": float(self_s[i]),
            "raw_self_s": float(raw_self_s[i]),
            "total_s": float(total_s[i]),
        }
        for i, name in enumerate(tracer.names)
    }


def _all_subclasses(cls: type) -> list[type]:
    found: list[type] = []
    todo = list(cls.__subclasses__())
    while todo:
        klass = todo.pop()
        if klass not in found:
            found.append(klass)
            todo.extend(klass.__subclasses__())
    return found
