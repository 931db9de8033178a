"""Single-circuit runs of the lane engine for the physics tests.

A circuit is a one-lane :class:`~repro.spice.plan.CircuitPlan`; these
helpers wrap that call and raise :class:`ConvergenceError` where the lane
engine would report a dead lane, so a test reads like a plain DC or
transient analysis of one circuit.
"""

from repro.spice import CircuitPlan, ConvergenceError, LaneSystem, LaneTransientAnalysis
from repro.spice.plan import NewtonOptions, lane_dc_solve

from tests.spice.reference_engine import DCResult


def dc_operating_point(circuit, **homotopy) -> DCResult:
    """DC operating point of ``circuit`` as a one-lane :func:`lane_dc_solve`.

    ``homotopy`` passes ``gmin_steps`` / ``source_steps`` through.
    """
    plan = CircuitPlan([circuit])
    x, converged, iterations = lane_dc_solve(LaneSystem(plan), NewtonOptions(), **homotopy)
    if not converged[0]:
        raise ConvergenceError("DC operating point did not converge")
    return DCResult(circuit, x[0, : plan.n_unknowns].copy(), int(iterations[0]))


def transient(circuit, **settings):
    """Transient of ``circuit`` as a one-lane :class:`LaneTransientAnalysis`."""
    (result,) = LaneTransientAnalysis([circuit], **settings).run()
    if result is None:
        raise ConvergenceError("transient time stepping did not converge")
    return result
