"""Single-circuit runs of the lane engine for the physics tests.

A circuit is a one-lane :class:`~repro.spice.plan.CircuitPlan`; these
helpers wrap that call and raise :class:`ConvergenceError` where the lane
engine would report a dead lane, so a test reads like a plain DC or
transient analysis of one circuit.  :func:`hard_start_circuit` is the
circuit the homotopy tests share.
"""

from repro.spice import (
    MOSFET,
    NMOS_DEFAULT,
    Circuit,
    CircuitPlan,
    LaneSystem,
    LaneTransientAnalysis,
    VoltageSource,
)
from repro.spice.plan import NewtonOptions, lane_dc_solve

from tests.spice.reference_engine import ConvergenceError, DCResult

#: Newton options under which the plain solve of :func:`hard_start_circuit`
#: from zero fails (it needs 13 iterations) while every step of the gmin
#: ladder (at most 8) and of the source ramp (at most 3) converges.
HARD_START_OPTIONS = NewtonOptions(max_iterations=10)


def hard_start_circuit() -> Circuit:
    """Four stacked diode-connected NMOS devices across 1.2 V.

    From zero every device is cut off, so the plain Newton solve crawls
    down the subthreshold exponentials; the devices are wide enough that
    the plan's 1e-12 S conditioning shunt stays far below the solver
    tolerance.
    """
    circuit = Circuit()
    circuit.add(VoltageSource("vdd", "n0", "0", 1.2))
    for i in range(4):
        source = f"n{i + 1}" if i < 3 else "0"
        circuit.add(MOSFET(f"m{i}", f"n{i}", f"n{i}", source, "0", NMOS_DEFAULT, 100e-6, 0.24e-6))
    return circuit


def plain_newton_converges(circuit, options: NewtonOptions) -> bool:
    """Whether the lane DC solve converges with both homotopies disabled."""
    system = LaneSystem(CircuitPlan([circuit]))
    _, converged, _ = lane_dc_solve(system, options, gmin_steps=0, source_steps=0)
    return bool(converged[0])


def dc_operating_point(circuit, options: NewtonOptions | None = None, **homotopy) -> DCResult:
    """DC operating point of ``circuit`` as a one-lane :func:`lane_dc_solve`.

    ``homotopy`` passes ``gmin_steps`` / ``source_steps`` through.
    """
    plan = CircuitPlan([circuit])
    x, converged, iterations = lane_dc_solve(
        LaneSystem(plan), options or NewtonOptions(), **homotopy
    )
    if not converged[0]:
        raise ConvergenceError("DC operating point did not converge")
    return DCResult(circuit, x[0, : plan.n_unknowns].copy(), int(iterations[0]))


def transient(circuit, **settings):
    """Transient of ``circuit`` as a one-lane :class:`LaneTransientAnalysis`."""
    (result,) = LaneTransientAnalysis([circuit], **settings).run()
    if result is None:
        raise ConvergenceError("transient time stepping did not converge")
    return result
