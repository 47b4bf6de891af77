"""Run an experiment's sweep points in-process and assemble the result.

Tests read every swept experiment through its ``SWEEP`` declaration,
the one way the CLI runs it, with their own (small) inputs.
"""

from __future__ import annotations

from unittest import mock

from repro.experiments import ablations


def assembled(spec, points):
    """``spec.assemble`` over ``points`` executed in this process."""
    return spec.assemble(points, {point.key: point.execute() for point in points})


def ci_points(module, values):
    """``module.SWEEP``'s points with ``values`` as its ``ci`` scale entry."""
    with mock.patch.dict(module.SWEEP_SCALES, {"ci": values}):
        return module.SWEEP.points_for("ci")


def ablation(sweep, values, rate, duration):
    """One ablation's table (conventional vs LDLP per value), from its points."""
    points = ci_points(ablations, ({sweep: (values, rate)}, duration))
    (result,) = assembled(ablations.SWEEP, points).sweeps
    return result
