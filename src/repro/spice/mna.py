"""Modified nodal analysis (MNA) assembly and Newton-Raphson solution.

The analyses (DC, transient) all funnel through the machinery here:

* :class:`StampContext` is handed to every element's ``contribute`` method
  and accumulates the residual vector and Jacobian matrix of the nonlinear
  nodal equations ``f(x) = 0`` where ``x`` stacks node voltages and branch
  currents.
* :class:`NewtonSolver` performs damped Newton-Raphson iteration with
  voltage-step limiting and an optional ``gmin`` conductance to ground on
  every node (used by the homotopies in :mod:`repro.spice.dc`).

Residual convention: for each node, the residual is the sum of currents
flowing *out* of the node into the connected elements; for each branch, it
is the element's branch (voltage) equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.spice.exceptions import ConvergenceError, SingularMatrixError
from repro.spice.netlist import Circuit, GROUND

__all__ = ["StampContext", "NewtonSolver", "NewtonOptions"]


class StampContext:
    """Accumulator for residual and Jacobian contributions.

    Parameters
    ----------
    circuit:
        The circuit being analysed (used for the node / branch index maps).
    x:
        Current estimate of the unknown vector (node voltages followed by
        branch currents).
    analysis:
        ``"dc"``, ``"tran"`` or ``"ac"``.
    time / dt:
        Present simulation time and time step (transient only).
    x_prev:
        Unknown vector at the previous accepted time point (transient only).
    integrator:
        ``"be"`` (backward Euler) or ``"trap"`` (trapezoidal), transient only.
    state:
        Mutable per-element state dictionary that persists across time
        points (used e.g. for trapezoidal capacitor currents).
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

    # -- index helpers ---------------------------------------------------------

    def node(self, name: str) -> int:
        """Unknown index of a node (-1 for ground)."""
        if name == GROUND:
            return -1
        return self._node_index[name]

    def branch(self, element_name: str, offset: int = 0) -> int:
        """Unknown index of an element's branch current."""
        return self._branch_index[element_name] + offset

    # -- value accessors ---------------------------------------------------------

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

    def i_branch(self, element_name: str, offset: int = 0) -> float:
        """Present estimate of an element's branch current."""
        return float(self.x[self.branch(element_name, offset)])

    def i_branch_prev(self, element_name: str, offset: int = 0) -> float:
        """Branch current at the previous accepted time point."""
        if self.x_prev is None:
            return self.i_branch(element_name, offset)
        return float(self.x_prev[self.branch(element_name, offset)])

    def element_state(self, element_name: str) -> Dict[str, float]:
        """Persistent per-element state dictionary (transient integrators)."""
        return self.state.setdefault(element_name, {})

    # -- stamping ------------------------------------------------------------------

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

    def stamp_transconductance(
        self, out_pos: int, out_neg: int, ctrl_pos: int, ctrl_neg: int, gm: float
    ) -> None:
        """Jacobian entries of a current from ``out_pos`` to ``out_neg``
        controlled by the voltage ``v(ctrl_pos) - v(ctrl_neg)``."""
        self.add_jacobian(out_pos, ctrl_pos, gm)
        self.add_jacobian(out_pos, ctrl_neg, -gm)
        self.add_jacobian(out_neg, ctrl_pos, -gm)
        self.add_jacobian(out_neg, ctrl_neg, gm)

    def finalise(self) -> None:
        """Apply the gmin conductance from every node to ground."""
        if self.gmin <= 0.0:
            return
        n_nodes = self.circuit.n_nodes
        self.residual[:n_nodes] += self.gmin * self.x[:n_nodes]
        diag = np.arange(n_nodes)
        self.jacobian[diag, diag] += self.gmin


@dataclass
class NewtonOptions:
    """Tuning knobs of the Newton-Raphson solver."""

    max_iterations: int = 100
    abs_tolerance: float = 1e-9
    rel_tolerance: float = 1e-6
    voltage_step_limit: float = 0.6
    damping: float = 1.0
    gmin: float = 1e-12
    source_scale: float = 1.0


@dataclass
class NewtonResult:
    """Outcome of one Newton solve."""

    x: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool
    context: StampContext = field(repr=False, default=None)


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
            element.contribute(ctx)
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
        ctx = None
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
                return NewtonResult(
                    x=x,
                    iterations=iteration,
                    residual_norm=residual_norm,
                    converged=True,
                    context=ctx,
                )
            last_residual = residual_norm
        raise ConvergenceError(
            f"Newton iteration did not converge within {opts.max_iterations} iterations "
            f"(residual {last_residual:.3e})",
            iterations=opts.max_iterations,
            residual=last_residual,
        )
