"""Per-element reference SPICE engine: the parity oracle of the lane engine.

The package's one engine (:mod:`repro.spice.plan`) compiles a circuit
into stamp arrays and solves many same-topology circuits at once.  This
module re-stamps every element in plain Python on every Newton iteration
instead, the direct transcription of modified nodal analysis, so the
lane engine's tests and ``benchmarks/bench_spice_engine.py`` have an
independent implementation to compare against:

* :class:`StampContext` accumulates the residual vector and Jacobian of
  the nonlinear nodal equations ``f(x) = 0``; one stamp function per
  element type (:data:`STAMPS`) adds each element's contribution;
* :class:`NewtonSolver` performs damped Newton-Raphson iteration with
  voltage-step limiting and an optional ``gmin`` shunt on every node;
* :class:`DCOperatingPoint` adds the gmin- and source-stepping
  homotopies, :class:`TransientAnalysis` the time-marching loop;
* :class:`ReferenceTestbench` and :class:`ReferenceSpiceEvaluator` run
  the ring-VCO test bench and its evaluator on this engine.

Residual convention: for each node, the residual is the sum of currents
flowing *out* of the node into the connected elements; for each branch,
it is the element's branch (voltage) equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.circuits.evaluators import RingVcoSpiceEvaluator
from repro.circuits.testbench import VcoTestbench
from repro.spice.elements import (
    Capacitor,
    CurrentSource,
    Diode,
    Inductor,
    Resistor,
    VCCS,
    VCVS,
    VoltageSource,
)
from repro.spice.exceptions import AnalysisError, ConvergenceError, SingularMatrixError
from repro.spice.mosfet import MOSFET
from repro.spice.netlist import Circuit, GROUND
from repro.spice.plan import NewtonOptions
from repro.spice.transient import TransientResult


class StampContext:
    """Accumulator for residual and Jacobian contributions.

    ``x`` is the present estimate of the unknowns (node voltages followed
    by branch currents); ``analysis`` is ``"dc"`` or ``"tran"``.  The
    transient-only arguments are the present ``time`` and step ``dt``,
    the unknowns ``x_prev`` at the previous accepted time point, the
    ``integrator`` (``"be"`` or ``"trap"``) and ``state``, a per-element
    dictionary that persists across time points (trapezoidal capacitor
    currents).
    """

    def __init__(
        self,
        circuit: Circuit,
        x: np.ndarray,
        analysis: str = "dc",
        time: float = 0.0,
        dt: float = 0.0,
        x_prev: Optional[np.ndarray] = None,
        integrator: str = "be",
        state: Optional[Dict[str, Dict[str, float]]] = None,
        gmin: float = 0.0,
        source_scale: float = 1.0,
    ) -> None:
        self.circuit = circuit
        self.analysis = analysis
        self.time = time
        self.dt = dt
        self.integrator = integrator
        self.state = state if state is not None else {}
        self.gmin = gmin
        self.source_scale = source_scale
        self._node_index = circuit.node_index()
        self._branch_index = circuit.branch_index()
        self.x = x
        self.x_prev = x_prev
        n = circuit.n_unknowns
        self.residual = np.zeros(n)
        self.jacobian = np.zeros((n, n))

    @property
    def transient(self) -> bool:
        """Whether companion models apply (a transient step with ``dt > 0``)."""
        return self.analysis == "tran" and self.dt > 0.0

    def node(self, name: str) -> int:
        """Unknown index of a node (-1 for ground)."""
        if name == GROUND:
            return -1
        return self._node_index[name]

    def branch(self, element_name: str) -> int:
        """Unknown index of an element's branch current."""
        return self._branch_index[element_name]

    def v(self, name: str) -> float:
        """Present voltage estimate of a node (0.0 for ground)."""
        index = self.node(name)
        return 0.0 if index < 0 else float(self.x[index])

    def v_prev(self, name: str) -> float:
        """Node voltage at the previous accepted time point."""
        if self.x_prev is None:
            return self.v(name)
        index = self.node(name)
        return 0.0 if index < 0 else float(self.x_prev[index])

    def i_branch(self, element_name: str) -> float:
        """Present estimate of an element's branch current."""
        return float(self.x[self.branch(element_name)])

    def i_branch_prev(self, element_name: str) -> float:
        """Branch current at the previous accepted time point."""
        if self.x_prev is None:
            return self.i_branch(element_name)
        return float(self.x_prev[self.branch(element_name)])

    def element_state(self, element_name: str) -> Dict[str, float]:
        """Persistent per-element state dictionary (transient integrators)."""
        return self.state.setdefault(element_name, {})

    def add_residual(self, index: int, value: float) -> None:
        """Add ``value`` to the residual row ``index`` (ignored for ground)."""
        if index >= 0:
            self.residual[index] += value

    def add_jacobian(self, row: int, col: int, value: float) -> None:
        """Add ``value`` to the Jacobian entry (ignored for ground rows/cols)."""
        if row >= 0 and col >= 0:
            self.jacobian[row, col] += value

    def stamp_current(self, node_pos: int, node_neg: int, current: float) -> None:
        """Current flowing out of ``node_pos`` into the element and back out
        of the element into ``node_neg``."""
        self.add_residual(node_pos, current)
        self.add_residual(node_neg, -current)

    def stamp_conductance(self, node_a: int, node_b: int, g: float) -> None:
        """Jacobian entries of a two-terminal conductance between two nodes."""
        self.add_jacobian(node_a, node_a, g)
        self.add_jacobian(node_b, node_b, g)
        self.add_jacobian(node_a, node_b, -g)
        self.add_jacobian(node_b, node_a, -g)

    def stamp_branch(self, element, node_pos: int, node_neg: int) -> int:
        """KCL of a branch current leaving ``node_pos`` and entering
        ``node_neg``, plus the ``v(pos) - v(neg)`` terms of its branch
        equation; returns the branch row."""
        k = self.branch(element.name)
        current = self.i_branch(element.name)
        self.add_residual(node_pos, current)
        self.add_residual(node_neg, -current)
        self.add_jacobian(node_pos, k, 1.0)
        self.add_jacobian(node_neg, k, -1.0)
        self.add_jacobian(k, node_pos, 1.0)
        self.add_jacobian(k, node_neg, -1.0)
        return k

    def stamp_companion(
        self, state: Dict[str, float], key: str, node_a: str, node_b: str, capacitance: float
    ) -> None:
        """Backward-Euler or trapezoidal companion model of a capacitance.

        The step's current is parked under ``pending_<key>`` until
        :func:`accept_timestep` commits it as the trapezoidal history.
        """
        a, b = self.node(node_a), self.node(node_b)
        v_now = self.v(node_a) - self.v(node_b)
        v_prev = self.v_prev(node_a) - self.v_prev(node_b)
        if self.integrator == "trap":
            geq = 2.0 * capacitance / self.dt
            current = geq * (v_now - v_prev) - state.get(key, 0.0)
        else:  # backward Euler
            geq = capacitance / self.dt
            current = geq * (v_now - v_prev)
        state[f"pending_{key}"] = current
        self.stamp_current(a, b, current)
        self.stamp_conductance(a, b, geq)

    def finalise(self) -> None:
        """Apply the gmin conductance from every node to ground."""
        if self.gmin <= 0.0:
            return
        n_nodes = self.circuit.n_nodes
        self.residual[:n_nodes] += self.gmin * self.x[:n_nodes]
        diag = np.arange(n_nodes)
        self.jacobian[diag, diag] += self.gmin


# -- one stamp function per element type ---------------------------------------------


def _source_value(source, ctx: StampContext) -> float:
    """Instantaneous source value scaled by any homotopy factor."""
    if ctx.analysis == "tran":
        raw = source.waveform.value(ctx.time)
    else:
        raw = source.waveform.dc
    return ctx.source_scale * raw


def _stamp_resistor(element: Resistor, ctx: StampContext) -> None:
    a = ctx.node(element.nodes[0])
    b = ctx.node(element.nodes[1])
    g = element.conductance
    current = g * (ctx.v(element.nodes[0]) - ctx.v(element.nodes[1]))
    ctx.stamp_current(a, b, current)
    ctx.stamp_conductance(a, b, g)


def _stamp_capacitor(element: Capacitor, ctx: StampContext) -> None:
    # Open circuit in DC.
    if not ctx.transient or element.capacitance == 0.0:
        return
    state = ctx.element_state(element.name)
    ctx.stamp_companion(state, "current", *element.nodes, element.capacitance)


def _stamp_inductor(element: Inductor, ctx: StampContext) -> None:
    a = ctx.node(element.nodes[0])
    b = ctx.node(element.nodes[1])
    k = ctx.stamp_branch(element, a, b)
    v_now = ctx.v(element.nodes[0]) - ctx.v(element.nodes[1])
    if ctx.transient:
        # Backward Euler branch equation: v - L (i - i_prev)/dt = 0.
        req = element.inductance / ctx.dt
        current = ctx.i_branch(element.name)
        ctx.add_residual(k, v_now - req * (current - ctx.i_branch_prev(element.name)))
        ctx.add_jacobian(k, k, -req)
    else:
        # DC: the inductor is a short; enforce v = 0.
        ctx.add_residual(k, v_now)


def _stamp_voltage_source(element: VoltageSource, ctx: StampContext) -> None:
    a = ctx.node(element.nodes[0])
    b = ctx.node(element.nodes[1])
    k = ctx.stamp_branch(element, a, b)
    v_now = ctx.v(element.nodes[0]) - ctx.v(element.nodes[1])
    ctx.add_residual(k, v_now - _source_value(element, ctx))


def _stamp_current_source(element: CurrentSource, ctx: StampContext) -> None:
    a = ctx.node(element.nodes[0])
    b = ctx.node(element.nodes[1])
    ctx.stamp_current(a, b, _source_value(element, ctx))


def _stamp_vcvs(element: VCVS, ctx: StampContext) -> None:
    op, on, cp, cn = (ctx.node(n) for n in element.nodes)
    k = ctx.stamp_branch(element, op, on)
    v_out = ctx.v(element.nodes[0]) - ctx.v(element.nodes[1])
    v_ctrl = ctx.v(element.nodes[2]) - ctx.v(element.nodes[3])
    ctx.add_residual(k, v_out - element.gain * v_ctrl)
    ctx.add_jacobian(k, cp, -element.gain)
    ctx.add_jacobian(k, cn, element.gain)


def _stamp_vccs(element: VCCS, ctx: StampContext) -> None:
    op, on, cp, cn = (ctx.node(n) for n in element.nodes)
    gm = element.transconductance
    ctx.stamp_current(op, on, gm * (ctx.v(element.nodes[2]) - ctx.v(element.nodes[3])))
    ctx.add_jacobian(op, cp, gm)
    ctx.add_jacobian(op, cn, -gm)
    ctx.add_jacobian(on, cp, -gm)
    ctx.add_jacobian(on, cn, gm)


def _stamp_diode(element: Diode, ctx: StampContext) -> None:
    a = ctx.node(element.nodes[0])
    b = ctx.node(element.nodes[1])
    n_vt = element.emission_coefficient * element.thermal_voltage
    v = ctx.v(element.nodes[0]) - ctx.v(element.nodes[1])
    # Junction-voltage limiting keeps the exponential finite.
    v_limited = min(v, 40.0 * n_vt)
    exp_term = math.exp(v_limited / n_vt)
    current = element.saturation_current * (exp_term - 1.0)
    conductance = element.saturation_current * exp_term / n_vt
    if v > v_limited:
        # Linear continuation beyond the limiting voltage.
        current += conductance * (v - v_limited)
    ctx.stamp_current(a, b, current)
    ctx.stamp_conductance(a, b, conductance + 1e-12)


def _stamp_mosfet(element: MOSFET, ctx: StampContext) -> None:
    nd, ng, ns, nb = (ctx.node(n) for n in element.nodes)
    vd, vg, vs, vb = (ctx.v(n) for n in element.nodes)
    ids = element.drain_current(vd, vg, vs, vb)
    delta = 1e-6
    did_dvd = (element.drain_current(vd + delta, vg, vs, vb) - ids) / delta
    did_dvg = (element.drain_current(vd, vg + delta, vs, vb) - ids) / delta
    did_dvs = (element.drain_current(vd, vg, vs + delta, vb) - ids) / delta
    did_dvb = (element.drain_current(vd, vg, vs, vb + delta) - ids) / delta
    # KCL: the channel current enters at the drain and leaves at the source.
    ctx.add_residual(nd, ids)
    ctx.add_residual(ns, -ids)
    for column, derivative in ((nd, did_dvd), (ng, did_dvg), (ns, did_dvs), (nb, did_dvb)):
        ctx.add_jacobian(nd, column, derivative)
        ctx.add_jacobian(ns, column, -derivative)
    # A small drain-source conductance improves conditioning.
    ctx.stamp_conductance(nd, ns, 1e-12)
    if not ctx.transient:
        return
    state = ctx.element_state(element.name)
    for (node_a, node_b), capacitance in element.gate_capacitances().items():
        if capacitance > 0.0:
            ctx.stamp_companion(state, f"i_{node_a}_{node_b}", node_a, node_b, capacitance)


#: Stamp function of every element type the oracle supports.
STAMPS = {
    Resistor: _stamp_resistor,
    Capacitor: _stamp_capacitor,
    Inductor: _stamp_inductor,
    VoltageSource: _stamp_voltage_source,
    CurrentSource: _stamp_current_source,
    VCVS: _stamp_vcvs,
    VCCS: _stamp_vccs,
    Diode: _stamp_diode,
    MOSFET: _stamp_mosfet,
}


def accept_timestep(state: Dict[str, float]) -> None:
    """Commit an element's parked companion-model currents after a step."""
    for key in [key for key in state if key.startswith("pending_")]:
        state[key[len("pending_"):]] = state.pop(key)


# -- Newton-Raphson ----------------------------------------------------------------------


@dataclass
class NewtonResult:
    """Outcome of one Newton solve."""

    x: np.ndarray
    iterations: int


class NewtonSolver:
    """Damped Newton-Raphson solver for the assembled MNA system."""

    def __init__(self, circuit: Circuit, options: NewtonOptions | None = None) -> None:
        circuit.validate()
        self.circuit = circuit
        self.options = options or NewtonOptions()

    def assemble(self, x: np.ndarray, **context_kwargs) -> StampContext:
        """Build residual and Jacobian at the estimate ``x``."""
        ctx = StampContext(
            self.circuit,
            x,
            gmin=context_kwargs.pop("gmin", self.options.gmin),
            source_scale=context_kwargs.pop("source_scale", self.options.source_scale),
            **context_kwargs,
        )
        for element in self.circuit:
            STAMPS[type(element)](element, ctx)
        ctx.finalise()
        return ctx

    def solve(self, x0: Optional[np.ndarray] = None, **context_kwargs) -> NewtonResult:
        """Iterate Newton-Raphson from ``x0`` until convergence.

        Raises :class:`ConvergenceError` if the iteration does not converge
        within the configured maximum number of iterations and
        :class:`SingularMatrixError` when the Jacobian cannot be factored.
        """
        n = self.circuit.n_unknowns
        x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
        if x.size != n:
            raise ValueError(f"initial guess has size {x.size}, expected {n}")
        opts = self.options
        last_residual = float("inf")
        for iteration in range(1, opts.max_iterations + 1):
            ctx = self.assemble(x, **context_kwargs)
            residual_norm = float(np.max(np.abs(ctx.residual))) if n else 0.0
            if not np.isfinite(residual_norm):
                raise ConvergenceError(
                    "residual became non-finite during Newton iteration",
                    iterations=iteration,
                    residual=residual_norm,
                )
            try:
                delta = np.linalg.solve(ctx.jacobian, -ctx.residual)
            except np.linalg.LinAlgError as exc:
                raise SingularMatrixError(
                    f"singular MNA Jacobian at iteration {iteration}: {exc}"
                ) from exc
            # Limit the voltage update to aid convergence on stiff circuits.
            n_nodes = self.circuit.n_nodes
            voltage_delta = delta[:n_nodes]
            max_step = float(np.max(np.abs(voltage_delta))) if n_nodes else 0.0
            scale = 1.0
            if max_step > opts.voltage_step_limit > 0.0:
                scale = opts.voltage_step_limit / max_step
            x = x + opts.damping * scale * delta
            delta_norm = float(np.max(np.abs(delta))) if n else 0.0
            converged = (
                residual_norm < opts.abs_tolerance
                or delta_norm < opts.abs_tolerance
                or (
                    residual_norm < opts.rel_tolerance * max(last_residual, 1e-30)
                    and delta_norm < opts.rel_tolerance * max(float(np.max(np.abs(x))), 1.0)
                )
            )
            if converged:
                return NewtonResult(x=x, iterations=iteration)
            last_residual = residual_norm
        raise ConvergenceError(
            f"Newton iteration did not converge within {opts.max_iterations} iterations "
            f"(residual {last_residual:.3e})",
            iterations=opts.max_iterations,
            residual=last_residual,
        )


# -- DC operating point -------------------------------------------------------------------


@dataclass
class DCResult:
    """Solved DC operating point of a circuit."""

    circuit: Circuit
    x: np.ndarray
    iterations: int

    def voltage(self, node: str) -> float:
        """Node voltage (0.0 for ground)."""
        if node == GROUND:
            return 0.0
        return float(self.x[self.circuit.node_index()[node]])

    @property
    def voltages(self) -> Dict[str, float]:
        """All node voltages keyed by node name."""
        return {node: self.voltage(node) for node in self.circuit.nodes}

    def branch_current(self, element_name: str) -> float:
        """Branch current of a voltage source / inductor / VCVS."""
        return float(self.x[self.circuit.branch_index()[element_name]])

    def source_current(self, source_name: str) -> float:
        """Current delivered by a voltage source (positive = sourcing).

        The branch current flows from node+ through the source to node-,
        so the current delivered to the circuit is its negative.
        """
        return -self.branch_current(source_name)

    def supply_current(self) -> float:
        """Total current drawn from all DC voltage sources (absolute sum)."""
        return sum(
            abs(self.branch_current(source.name))
            for source in self.circuit.elements_of_type(VoltageSource)
        )


class DCOperatingPoint:
    """DC operating point: plain Newton, then gmin stepping, then source stepping."""

    def __init__(
        self,
        circuit: Circuit,
        options: NewtonOptions | None = None,
        gmin_steps: int = 8,
        source_steps: int = 10,
    ) -> None:
        self.circuit = circuit
        self.options = options or NewtonOptions()
        self.gmin_steps = gmin_steps
        self.source_steps = source_steps

    def run(self, x0: Optional[np.ndarray] = None) -> DCResult:
        """Solve for the DC operating point."""
        solver = NewtonSolver(self.circuit, self.options)
        try:
            result = solver.solve(x0, analysis="dc")
            return DCResult(self.circuit, result.x, result.iterations)
        except ConvergenceError:
            pass
        # gmin stepping: start with a heavy shunt conductance and relax it.
        x = np.zeros(self.circuit.n_unknowns) if x0 is None else np.array(x0, dtype=float)
        iterations = 0
        try:
            gmin_values = np.logspace(-3, np.log10(self.options.gmin), self.gmin_steps)
            for gmin in gmin_values:
                result = solver.solve(x, analysis="dc", gmin=float(gmin))
                x = result.x
                iterations += result.iterations
            result = solver.solve(x, analysis="dc")
            return DCResult(self.circuit, result.x, iterations + result.iterations)
        except ConvergenceError:
            pass
        # Source stepping: ramp all independent sources from zero.
        x = np.zeros(self.circuit.n_unknowns)
        iterations = 0
        for scale in np.linspace(0.1, 1.0, self.source_steps):
            result = solver.solve(x, analysis="dc", source_scale=float(scale))
            x = result.x
            iterations += result.iterations
        return DCResult(self.circuit, x, iterations)


# -- transient ----------------------------------------------------------------------------


class TransientAnalysis:
    """Time-domain simulation of one circuit.

    Takes the settings of :class:`repro.spice.LaneTransientAnalysis` for a
    single circuit, and raises :class:`ConvergenceError` where the lane
    engine reports a failed lane as ``None``.
    """

    def __init__(
        self,
        circuit: Circuit,
        t_stop: float,
        dt: float,
        integrator: str = "be",
        t_start_recording: float = 0.0,
        initial_conditions: Optional[Dict[str, float]] = None,
        use_dc_start: bool = True,
        newton_options: NewtonOptions | None = None,
        max_step_refinements: int = 6,
    ) -> None:
        if t_stop <= 0.0 or dt <= 0.0:
            raise AnalysisError("t_stop and dt must be positive")
        if dt >= t_stop:
            raise AnalysisError("dt must be smaller than t_stop")
        if integrator not in ("be", "trap"):
            raise AnalysisError("integrator must be 'be' or 'trap'")
        self.circuit = circuit
        self.t_stop = float(t_stop)
        self.dt = float(dt)
        self.integrator = integrator
        self.t_start_recording = float(t_start_recording)
        self.initial_conditions = dict(initial_conditions or {})
        self.use_dc_start = use_dc_start
        self.newton_options = newton_options or NewtonOptions(
            max_iterations=60, voltage_step_limit=1.0
        )
        self.max_step_refinements = max_step_refinements

    def _initial_state(self) -> np.ndarray:
        n = self.circuit.n_unknowns
        x = np.zeros(n)
        if self.use_dc_start:
            try:
                x = DCOperatingPoint(self.circuit, self.newton_options).run().x.copy()
            except ConvergenceError:
                x = np.zeros(n)
        node_index = self.circuit.node_index()
        for node, value in self.initial_conditions.items():
            if node == GROUND:
                continue
            if node not in node_index:
                raise AnalysisError(f"initial condition on unknown node {node!r}")
            x[node_index[node]] = float(value)
        return x

    def run(self) -> TransientResult:
        """Run the transient simulation and return the sampled solution."""
        solver = NewtonSolver(self.circuit, self.newton_options)
        state: Dict[str, Dict[str, float]] = {}
        x = self._initial_state()
        times = []
        solutions = []
        if self.t_start_recording <= 0.0:
            times.append(0.0)
            solutions.append(x.copy())
        t = 0.0
        while t < self.t_stop - 1e-21:
            step = min(self.dt, self.t_stop - t)
            refinements = 0
            while True:
                try:
                    result = solver.solve(
                        x,
                        analysis="tran",
                        time=t + step,
                        dt=step,
                        x_prev=x,
                        integrator=self.integrator,
                        state=state,
                    )
                    break
                except ConvergenceError:
                    refinements += 1
                    if refinements > self.max_step_refinements:
                        raise
                    step *= 0.5
            t += step
            x = result.x
            for element_state in state.values():
                accept_timestep(element_state)
            if t >= self.t_start_recording:
                times.append(t)
                solutions.append(x.copy())
        if not times:
            raise AnalysisError("no time points were recorded; check t_start_recording")
        return TransientResult(self.circuit, np.asarray(times), np.vstack(solutions))


# -- ring-VCO test bench and evaluator on the oracle ---------------------------------------


class ReferenceTestbench(VcoTestbench):
    """The ring-VCO test bench with one oracle transient per circuit."""

    def _transients(
        self, circuits: Sequence[Circuit], initial_conditions: Sequence[Dict[str, float]]
    ) -> List[Optional[TransientResult]]:
        results: List[Optional[TransientResult]] = []
        for circuit, conditions in zip(circuits, initial_conditions):
            try:
                analysis = TransientAnalysis(
                    circuit,
                    t_stop=self._t_stop(),
                    dt=self.dt,
                    initial_conditions=conditions,
                    use_dc_start=False,
                )
                results.append(analysis.run())
            except AnalysisError:  # includes ConvergenceError and SingularMatrixError
                results.append(None)
        return results


class ReferenceSpiceEvaluator(RingVcoSpiceEvaluator):
    """The ring-VCO SPICE evaluator measuring on :class:`ReferenceTestbench`."""

    testbench_cls = ReferenceTestbench
