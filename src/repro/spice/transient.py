"""Transient analysis.

A fixed-step (optionally refined) time-marching loop over many
same-topology circuits at once: at every time point the nonlinear system
with capacitor companion models is solved by the lane Newton
solver of :mod:`repro.spice.plan`, starting from the previous solution.
One circuit is a one-lane run.  Backward Euler is used by default because
of its robustness on switching circuits; trapezoidal integration is
available for higher accuracy on smooth waveforms.

The result object exposes every node voltage and every voltage-source
current as a :class:`~repro.spice.waveform.Waveform`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

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
        t = np.zeros(n_lanes)
        # Room for the base steps, the start point and one step that float
        # rounding may leave before t_stop; refined steps grow the buffers.
        span = max(self.t_stop - max(self.t_start_recording, 0.0), 0.0)
        recording = _Recording(int(span / self.dt) + 3, n_lanes, n)
        if self.t_start_recording <= 0.0:
            recording.add(x[:, :n], t, np.ones(n_lanes, dtype=bool))
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
                row = accepted[:, None]
                if self.integrator == "trap" and plan.n_caps:
                    committed = system.cap_currents(x_trial, x, step, cap_i_prev)
                    np.copyto(cap_i_prev, committed, where=row)
                np.add(t, step, out=t, where=accepted)
                np.copyto(x, x_trial, where=row)
                np.copyto(pending_step, self.dt, where=accepted)
                np.copyto(refinements, 0, where=accepted)
                record = accepted & (t >= self.t_start_recording)
                if record.any():
                    recording.add(x[:, :n], t, record)
            marching = alive & (t < self.t_stop - 1e-21)
        results: List[Optional[TransientResult]] = []
        for lane, circuit in enumerate(plan.circuits):
            if not alive[lane]:
                results.append(None)
                continue
            time, solution = recording.lane(lane)
            if not time.size:
                raise AnalysisError("no time points were recorded; check t_start_recording")
            results.append(TransientResult(circuit, time, solution))
        return results


class _Recording:
    """Every lane's time and solution, one row per recorded step.

    A row holds all lanes, and ``recorded`` marks the lanes that its step
    records.  The buffers start at ``rows`` rows and double when full.
    """

    def __init__(self, rows: int, n_lanes: int, n: int) -> None:
        self.count = 0
        self.time = np.empty((rows, n_lanes))
        self.solution = np.empty((rows, n_lanes, n))
        self.recorded = np.zeros((rows, n_lanes), dtype=bool)

    def add(self, x: np.ndarray, t: np.ndarray, recorded: np.ndarray) -> None:
        if self.count == len(self.time):
            self.time, self.solution, self.recorded = (
                np.concatenate((array, np.zeros_like(array)))
                for array in (self.time, self.solution, self.recorded)
            )
        self.time[self.count] = t
        self.solution[self.count] = x
        self.recorded[self.count] = recorded
        self.count += 1

    def lane(self, lane: int) -> Tuple[np.ndarray, np.ndarray]:
        """The recorded times and solution rows of one lane, as new arrays."""
        rows = self.recorded[: self.count, lane]
        return self.time[: self.count][rows, lane], self.solution[: self.count][rows, lane]
