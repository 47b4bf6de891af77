"""Reproduction harnesses: one module per table/figure of the paper.

Each module declares a :class:`repro.harness.SweepSpec` named
``SWEEP``: its sweep points, golden quantities, and an ``assemble``
that rebuilds a structured result (with a ``render()`` text table and
the paper's shape/tolerance predicates) from the point results.
``ldlp-experiment run <name>`` (see :mod:`repro.experiments.cli`)
runs the sweep and prints that table.
"""

from . import (
    ablations,
    figure1,
    figure5,
    figure6,
    figure7,
    figure8,
    motivation,
    schedules,
    table1,
    table2,
    table3,
)

__all__ = [
    "ablations",
    "figure1",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "motivation",
    "schedules",
    "table1",
    "table2",
    "table3",
]
