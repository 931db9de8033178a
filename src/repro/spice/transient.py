"""Transient analysis.

A fixed-step (optionally refined) time-marching loop over many
same-topology circuits at once: at every time point the nonlinear system
with capacitor/inductor companion models is solved by the lane Newton
solver of :mod:`repro.spice.plan`, starting from the previous solution.
One circuit is a one-lane run.  Backward Euler is used by default because
of its robustness on switching circuits; trapezoidal integration is
available for higher accuracy on smooth waveforms.

The result object exposes every node voltage as a
:class:`~repro.spice.waveform.Waveform`, plus supply-current waveforms
computed from the voltage-source branch currents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.spice.elements import VoltageSource
from repro.spice.exceptions import AnalysisError
from repro.spice.netlist import Circuit, GROUND
from repro.spice.plan import CircuitPlan, LaneSystem, NewtonOptions, lane_dc_solve, lane_newton
from repro.spice.waveform import Waveform

__all__ = ["TransientResult", "LaneTransientAnalysis"]


@dataclass
class TransientResult:
    """Sampled node voltages and branch currents over time."""

    circuit: Circuit
    time: np.ndarray
    solution: np.ndarray  # shape (n_timepoints, n_unknowns)

    def voltage(self, node: str) -> Waveform:
        """Waveform of one node voltage."""
        if node == GROUND:
            return Waveform(self.time, np.zeros_like(self.time), node)
        index = self.circuit.node_index()[node]
        return Waveform(self.time, self.solution[:, index], node)

    def branch_current(self, element_name: str) -> Waveform:
        """Waveform of an element's branch current."""
        index = self.circuit.branch_index()[element_name]
        return Waveform(self.time, self.solution[:, index], f"i({element_name})")

    def source_current(self, source_name: str) -> Waveform:
        """Current delivered by a voltage source over time."""
        branch = self.branch_current(source_name)
        return Waveform(branch.time, -branch.values, f"i({source_name})")

    def supply_current(self) -> Waveform:
        """Sum of the absolute currents of all voltage sources."""
        sources = self.circuit.elements_of_type(VoltageSource)
        if not sources:
            raise AnalysisError("circuit has no voltage sources to meter")
        branch_index = self.circuit.branch_index()
        columns = [branch_index[source.name] for source in sources]
        total = np.abs(self.solution[:, columns]).sum(axis=1)
        return Waveform(self.time, total, "i(supply)")

    @property
    def nodes(self) -> Dict[str, Waveform]:
        """All node-voltage waveforms keyed by node name."""
        return {node: self.voltage(node) for node in self.circuit.nodes}


class LaneTransientAnalysis:
    """Lane-parallel transient: many same-topology circuits in one loop.

    All lanes are advanced through a single time-marching loop with a
    batched ``(n_lanes, n, n)`` Jacobian and one ``np.linalg.solve`` per
    Newton iteration; per-lane masks handle convergence, step acceptance
    and step refinement independently, so a stiff lane refining its time
    step does not slow the others' Newton iterations down to lock-step.

    Parameters
    ----------
    circuits:
        Circuits sharing one topology (same element types, names and
        nodes — parameter values may differ per lane).
    t_stop:
        Final simulation time (seconds).
    dt:
        Base time step.  When a lane's time point fails to converge its
        step is halved (up to ``max_step_refinements`` times) before the
        lane is given up.
    integrator:
        ``"be"`` (backward Euler, default) or ``"trap"`` (trapezoidal).
    t_start_recording:
        Samples before this time are discarded from the stored result
        (useful for skipping start-up transients while keeping memory low).
    initial_conditions:
        One mapping of node name to initial voltage shared by every lane,
        or a per-lane sequence of mappings.  Nodes not listed start from
        the DC operating point (or zero if ``use_dc_start`` is False).
    use_dc_start:
        Whether to compute a DC operating point as the starting state.

    :meth:`run` returns one :class:`TransientResult` per lane, with
    ``None`` for lanes whose time stepping failed to converge.
    """

    def __init__(
        self,
        circuits: Sequence[Circuit],
        t_stop: float,
        dt: float,
        integrator: str = "be",
        t_start_recording: float = 0.0,
        initial_conditions: Union[Dict[str, float], Sequence[Dict[str, float]], None] = None,
        use_dc_start: bool = True,
        newton_options: NewtonOptions | None = None,
        max_step_refinements: int = 6,
    ) -> None:
        if not circuits:
            raise AnalysisError("LaneTransientAnalysis needs at least one circuit")
        if t_stop <= 0.0 or dt <= 0.0:
            raise AnalysisError("t_stop and dt must be positive")
        if dt >= t_stop:
            raise AnalysisError("dt must be smaller than t_stop")
        if integrator not in ("be", "trap"):
            raise AnalysisError("integrator must be 'be' or 'trap'")
        self.circuits = list(circuits)
        self.t_stop = float(t_stop)
        self.dt = float(dt)
        self.integrator = integrator
        self.t_start_recording = float(t_start_recording)
        if initial_conditions is None:
            ics: List[Dict[str, float]] = [{} for _ in self.circuits]
        elif isinstance(initial_conditions, dict):
            ics = [dict(initial_conditions) for _ in self.circuits]
        else:
            ics = [dict(lane_ics or {}) for lane_ics in initial_conditions]
            if len(ics) != len(self.circuits):
                raise AnalysisError(
                    f"got {len(ics)} initial-condition mappings for {len(self.circuits)} lanes"
                )
        self.initial_conditions = ics
        self.use_dc_start = use_dc_start
        self.newton_options = newton_options or NewtonOptions(
            max_iterations=60, voltage_step_limit=1.0
        )
        self.max_step_refinements = max_step_refinements

    # -- start-up ---------------------------------------------------------------------

    def _initial_state(self, system: LaneSystem) -> np.ndarray:
        plan = system.plan
        x = np.zeros((plan.n_lanes, plan.pad_size))
        if self.use_dc_start:
            dc_x, dc_converged, _ = lane_dc_solve(system, self.newton_options)
            x[dc_converged] = dc_x[dc_converged]
        node_index = plan.circuits[0].node_index()
        for lane, conditions in enumerate(self.initial_conditions):
            for node, value in conditions.items():
                if node == GROUND:
                    continue
                if node not in node_index:
                    raise AnalysisError(f"initial condition on unknown node {node!r}")
                x[lane, node_index[node]] = float(value)
        return x

    # -- main loop ----------------------------------------------------------------------

    def run(self) -> List[Optional[TransientResult]]:
        """Advance every lane to ``t_stop`` and return per-lane results."""
        plan = CircuitPlan(self.circuits)
        system = LaneSystem(plan)
        options = self.newton_options
        n_lanes, n = plan.n_lanes, plan.n_unknowns
        x = self._initial_state(system)
        times: List[List[float]] = [[] for _ in range(n_lanes)]
        solutions: List[List[np.ndarray]] = [[] for _ in range(n_lanes)]
        if self.t_start_recording <= 0.0:
            for lane in range(n_lanes):
                times[lane].append(0.0)
                solutions[lane].append(x[lane, :n].copy())
        t = np.zeros(n_lanes)
        pending_step = np.full(n_lanes, self.dt)
        refinements = np.zeros(n_lanes, dtype=int)
        alive = np.ones(n_lanes, dtype=bool)
        cap_i_prev = np.zeros((n_lanes, plan.n_caps))
        marching = alive & (t < self.t_stop - 1e-21)
        while marching.any():
            attempt = np.minimum(pending_step, self.t_stop - t)
            # Lanes that are done/dead still flow through the assembly; give
            # them a harmless step so geq = C/dt stays finite.
            step = np.where(marching, attempt, self.dt)
            system.begin_tran(
                time=t + step,
                dt=step,
                x_prev=x,
                integrator=self.integrator,
                cap_i_prev=cap_i_prev if self.integrator == "trap" else None,
                gmin=options.gmin,
                source_scale=options.source_scale,
            )
            x_trial = x.copy()
            converged, _ = lane_newton(system, x_trial, marching, options)
            accepted = marching & converged
            rejected = marching & ~converged
            if rejected.any():
                refinements[rejected] += 1
                dead = rejected & (refinements > self.max_step_refinements)
                alive &= ~dead
                retry = rejected & ~dead
                pending_step[retry] = attempt[retry] * 0.5
            if accepted.any():
                if self.integrator == "trap" and plan.n_caps:
                    committed = system.cap_currents(x_trial, x, step, cap_i_prev)
                    cap_i_prev[accepted] = committed[accepted]
                t[accepted] += step[accepted]
                x[accepted] = x_trial[accepted]
                pending_step[accepted] = self.dt
                refinements[accepted] = 0
                for lane in np.flatnonzero(accepted):
                    if t[lane] >= self.t_start_recording:
                        times[lane].append(float(t[lane]))
                        solutions[lane].append(x[lane, :n].copy())
            marching = alive & (t < self.t_stop - 1e-21)
        results: List[Optional[TransientResult]] = []
        for lane in range(n_lanes):
            if not alive[lane]:
                results.append(None)
                continue
            if not times[lane]:
                raise AnalysisError("no time points were recorded; check t_start_recording")
            results.append(
                TransientResult(
                    plan.circuits[lane], np.asarray(times[lane]), np.vstack(solutions[lane])
                )
            )
        return results
