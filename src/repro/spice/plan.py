"""Stamp-plan MNA engine with lane-parallel assembly.

A :class:`~repro.spice.netlist.Circuit` is compiled *once* into
per-element-type index and parameter arrays, and assembly is then a set
of vectorised scatter-adds whose flat indices are built once:

* :class:`CircuitPlan` is built from ``n_lanes`` circuits that share one
  topology (same element types, names and nodes at every position) but
  may carry different parameter values — exactly the (design, technology,
  mismatch) triples that bottom-up verification fans out.  A single
  circuit is a one-lane plan.
* :class:`LaneSystem` holds the per-step ``(n_lanes, n, n)`` linear
  matrix and ``(n_lanes, n)`` constant vector and assembles all lanes at
  once; the MOSFET model equations are evaluated array-wise over
  every (lane, device) pair via :class:`~repro.spice.mosfet.MOSFETArrays`
  (one stacked device call per assembly), and each target's stamps land
  in one ``np.bincount`` scatter.
* :func:`lane_newton` / :func:`lane_dc_solve` run damped Newton-Raphson
  (voltage-step limiting, gmin shunt, gmin/source-stepping homotopies)
  with per-lane convergence masks and one batched ``np.linalg.solve``
  per iteration.

This is the package's only engine.  Its test oracle, a per-element
engine that re-stamps every element in Python on every Newton
iteration, lives in ``tests/spice/reference_engine.py``.  The two agree
to well below the solver tolerances, not to the bit, and differ on
purpose in two ways:

* the oracle adds the tiny 1e-12 drain-source conditioning shunt of
  MOSFETs to the Jacobian only; the plan folds it into the static
  matrix, so it also contributes ``1e-12 * v`` to the residual — an
  effect at the solver tolerance floor;
* a lane whose Jacobian is singular is reported as non-converged (the
  oracle raises its own ``SingularMatrixError``), so that one
  pathological lane cannot abort its batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.spice.elements import Capacitor, VoltageSource
from repro.spice.exceptions import NetlistError
from repro.spice.mosfet import MOSFET, MOSFETArrays
from repro.spice.netlist import Circuit, GROUND

__all__ = [
    "NewtonOptions",
    "CircuitPlan",
    "LaneSystem",
    "lane_newton",
    "lane_dc_solve",
]

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


class CircuitPlan:
    """Pre-compiled index/parameter arrays of ``n_lanes`` same-topology circuits.

    The unknown vector is padded with one extra slot (index ``n_unknowns``)
    that stands in for the ground node: stamps touching ground land in the
    pad row/column, the pad entry of ``x`` is pinned to zero, and solves
    operate on the leading ``n_unknowns`` block — no per-stamp ground
    branching is needed.
    """

    def __init__(self, circuits: Sequence[Circuit]) -> None:
        if not circuits:
            raise NetlistError("CircuitPlan needs at least one circuit")
        base = circuits[0]
        base.validate()
        for lane, other in enumerate(circuits[1:], start=1):
            self._check_same_topology(base, other, lane)
        self.circuits: List[Circuit] = list(circuits)
        self.n_lanes = len(self.circuits)
        self.n_nodes = base.n_nodes
        self.n_unknowns = base.n_unknowns
        self.pad_size = self.n_unknowns + 1
        node_index = base.node_index()
        branch_index = base.branch_index()
        pad = self.n_unknowns

        def idx(node: str) -> int:
            return pad if node == GROUND else node_index[node]

        lanes = range(self.n_lanes)
        n_elements = len(base.elements)
        columns = [[circuit.elements[i] for circuit in self.circuits] for i in range(n_elements)]

        # -- static linear stamps -------------------------------------------------
        a_static = np.zeros((self.n_lanes, self.pad_size, self.pad_size))

        def stamp_conductance(a: int, b: int, g: np.ndarray) -> None:
            a_static[:, a, a] += g
            a_static[:, b, b] += g
            a_static[:, a, b] -= g
            a_static[:, b, a] -= g

        cap_a: List[int] = []
        cap_b: List[int] = []
        cap_c: List[List[float]] = []
        vs_k: List[int] = []
        vs_values: List[List[float]] = []
        mos_nodes: List[Tuple[int, int, int, int]] = []
        mos_devices: List[List[MOSFET]] = []

        def add_capacitor(node_a: str, node_b: str, values: List[float]) -> None:
            a, b = idx(node_a), idx(node_b)
            if a == b or not any(v > 0.0 for v in values):
                return
            cap_a.append(a)
            cap_b.append(b)
            cap_c.append(values)

        for column in columns:
            element = column[0]
            if isinstance(element, Capacitor):
                add_capacitor(
                    element.nodes[0],
                    element.nodes[1],
                    [column[lane].capacitance for lane in lanes],
                )
            elif isinstance(element, VoltageSource):
                a, b = idx(element.nodes[0]), idx(element.nodes[1])
                k = branch_index[element.name]
                a_static[:, a, k] += 1.0
                a_static[:, b, k] -= 1.0
                a_static[:, k, a] += 1.0
                a_static[:, k, b] -= 1.0
                vs_k.append(k)
                vs_values.append([column[lane].value for lane in lanes])
            elif isinstance(element, MOSFET):
                nd, ng, ns, nb = (idx(n) for n in element.nodes)
                stamp_conductance(nd, ns, np.full(self.n_lanes, 1e-12))
                mos_nodes.append((nd, ng, ns, nb))
                mos_devices.append([column[lane] for lane in lanes])
                # Meyer-style gate capacitances are bias-independent, so they
                # expand into the general capacitor group at compile time.
                pair_order = list(column[0].gate_capacitances())
                per_lane = [column[lane].gate_capacitances() for lane in lanes]
                for pair in pair_order:
                    add_capacitor(pair[0], pair[1], [caps[pair] for caps in per_lane])
            else:
                raise NetlistError(
                    f"element {element.name!r} of type {type(element).__name__} is not "
                    "supported by the lane engine"
                )

        self.a_static = a_static
        P = self.pad_size

        def as_index(values: List[int]) -> np.ndarray:
            return np.asarray(values, dtype=np.intp)

        def as_params(values: List[List[float]]) -> np.ndarray:
            # stored per element -> transpose to (n_lanes, n_elements)
            array = np.asarray(values, dtype=float)
            return array.T if array.size else array.reshape(self.n_lanes, 0)

        # Capacitors (including expanded MOSFET gate capacitances).
        self.cap_a = as_index(cap_a)
        self.cap_b = as_index(cap_b)
        self.cap_c = as_params(cap_c)
        self.n_caps = self.cap_a.size
        a, b = self.cap_a, self.cap_b
        # Stamp columns are stored one row per stamp block, matching the
        # order in which LaneSystem passes the stamp values.
        self.cap_jac_idx = np.stack([a * P + a, b * P + b, a * P + b, b * P + a])
        self.cap_res_rows = np.stack([a, b])

        # Voltage sources: branch rows and per-lane values, (n_lanes, n_vsources).
        self.vs_k = as_index(vs_k)
        self.vs_values = as_params(vs_values)
        self.n_vsources = self.vs_k.size

        # MOSFETs.
        self.n_mosfets = len(mos_nodes)
        if self.n_mosfets:
            nodes = np.asarray(mos_nodes, dtype=np.intp)
            self.mos_d, self.mos_g, self.mos_s, self.mos_b = (nodes[:, i] for i in range(4))
            self.mos_arrays = MOSFETArrays.from_devices(list(map(list, zip(*mos_devices))))
            nd, ng, ns, nb = self.mos_d, self.mos_g, self.mos_s, self.mos_b
            self.mos_jac_idx = np.stack(
                [
                    nd * P + nd, nd * P + ng, nd * P + ns, nd * P + nb,
                    ns * P + nd, ns * P + ng, ns * P + ns, ns * P + nb,
                ]
            )
            self.mos_res_rows = np.stack([nd, ns])
        else:
            self.mos_d = self.mos_g = self.mos_s = self.mos_b = as_index([])
            self.mos_arrays = None
            self.mos_jac_idx = as_index([]).reshape(8, 0)
            self.mos_res_rows = as_index([]).reshape(2, 0)

    @staticmethod
    def _check_same_topology(base: Circuit, other: Circuit, lane: int) -> None:
        base_elements = base.elements
        other_elements = other.elements
        if len(base_elements) != len(other_elements):
            raise NetlistError(
                f"lane {lane} has {len(other_elements)} elements, lane 0 has "
                f"{len(base_elements)}; all lanes must share one topology"
            )
        for position, (ref, elem) in enumerate(zip(base_elements, other_elements)):
            if (
                type(ref) is not type(elem)
                or ref.name != elem.name
                or ref.nodes != elem.nodes
                or ref.n_branches != elem.n_branches
            ):
                raise NetlistError(
                    f"lane {lane} element #{position} ({elem.name!r}) does not match "
                    f"lane 0 ({ref.name!r}); all lanes must share one topology"
                )
            if isinstance(ref, MOSFET) and ref.model.polarity != elem.model.polarity:
                raise NetlistError(
                    f"lane {lane} MOSFET {elem.name!r} changes polarity across lanes"
                )


class _Scatter:
    """``np.add.at`` into a lane buffer, with flat indices built once.

    ``np.add.at(target, (lanes[:, None], columns), values)`` adds the
    stamps cell by cell in (lane, column) order.  This helper does the
    same with one ``np.bincount`` whose weights are the target itself
    followed by the stamps, so every cell accumulates
    ``target + v1 + v2 + ...`` in ``add.at``'s order and ends with the
    same bytes.  The one exception: ``bincount`` starts each cell from
    +0.0, so a -0.0 cell that receives only -0.0 stamps ends as +0.0.

    ``blocks`` is a sequence of column-index rows, one per stamp block;
    a call passes the matching ``(n_lanes, k)`` value arrays (or stacks
    of them) in the same order.  Lanes touch disjoint cells, so laying
    the stamps out block by block keeps each cell's order.
    """

    def __init__(self, n_lanes: int, size: int, blocks: Sequence[np.ndarray]) -> None:
        self.size = n_lanes * size
        lane_offset = np.arange(n_lanes)[:, None] * size
        self.index = np.concatenate(
            [np.arange(self.size)] + [(lane_offset + block).ravel() for block in blocks]
        )

    def __call__(self, target: np.ndarray, *values: np.ndarray) -> np.ndarray:
        """Return ``target`` plus the scattered ``values`` as a new array."""
        weights = np.concatenate((target, *values), axis=None)
        return np.bincount(self.index, weights, minlength=self.size).reshape(target.shape)


class LaneSystem:
    """Per-analysis constant terms plus precomputed scatter indices.

    The nonlinear residual decomposes as ``res = A_step x + b_step + n(x)``
    where ``A_step`` collects every linear stamp of the current analysis
    step (static stamps, capacitor companion conductances, gmin) and
    ``n(x)`` holds only the MOSFET channel currents that must be
    re-evaluated each Newton iteration.
    """

    def __init__(self, plan: CircuitPlan) -> None:
        self.plan = plan
        L, P = plan.n_lanes, plan.pad_size
        self.a_step = np.zeros((L, P, P))
        self.b_step = np.zeros((L, P))
        self.identity = np.eye(plan.n_unknowns)
        # The transient step's matrix, source vector and negated companion
        # conductances, kept while its (dt, integrator, gmin, source_scale)
        # repeat.
        self._tran_key: Optional[Tuple[bytes, str, float, float]] = None
        self._tran_a = self._tran_b = self._tran_neg_geq = np.zeros(0)
        self._node_diag = np.arange(plan.n_nodes)
        self._cap_jac = _Scatter(L, P * P, plan.cap_jac_idx)
        self._cap_res = _Scatter(L, P, plan.cap_res_rows)
        self._device_jac = _Scatter(L, P * P, plan.mos_jac_idx)
        self._device_res = _Scatter(L, P, plan.mos_res_rows)
        # Flat indices of every MOSFET terminal voltage in ``x``, shaped
        # (terminal, lane, device) for one gather per assembly.
        self._mos_terminals = np.arange(L)[:, None] * P + np.stack(
            [plan.mos_d, plan.mos_g, plan.mos_s, plan.mos_b]
        )[:, None, :]

    # -- per-step constant terms -----------------------------------------------------

    def _matrix(self, gmin: float) -> np.ndarray:
        """The static stamps plus the gmin shunts, as a new array."""
        a = self.plan.a_static.copy()
        if gmin > 0.0:
            a[:, self._node_diag, self._node_diag] += gmin
        return a

    def _sources(self, source_scale: float) -> np.ndarray:
        """The constant vector of the voltage sources alone, as a new array."""
        plan = self.plan
        b = np.zeros((plan.n_lanes, plan.pad_size))
        if plan.n_vsources:
            b[:, plan.vs_k] -= source_scale * plan.vs_values
        return b

    def begin_dc(self, gmin: float, source_scale: float = 1.0) -> None:
        """Prepare the linear part of a DC solve (all lanes)."""
        self.a_step = self._matrix(gmin)
        self.b_step = self._sources(source_scale)

    def begin_tran(
        self,
        dt: np.ndarray,
        x_prev: np.ndarray,
        integrator: str,
        cap_i_prev: Optional[np.ndarray],
        gmin: float,
        source_scale: float = 1.0,
    ) -> None:
        """Prepare the linear part of one transient Newton solve.

        ``dt`` is a per-lane array so lanes may refine their time steps
        independently; ``x_prev`` is the padded solution at each
        lane's previous accepted time point.  Only the capacitor history
        term depends on ``x_prev``: the step matrix of the previous call
        is reused while ``dt``, ``integrator``, ``gmin`` and
        ``source_scale`` repeat.  No step array is written in place, so a
        reused one keeps its values.
        """
        plan = self.plan
        key = (dt.tobytes(), integrator, gmin, source_scale)
        if key != self._tran_key:
            self._tran_key = key
            self._tran_a = self._matrix(gmin)
            self._tran_b = self._sources(source_scale)
            if plan.n_caps:
                factor = 2.0 if integrator == "trap" else 1.0
                geq = factor * plan.cap_c / dt[:, None]
                self._tran_a = self._cap_jac(self._tran_a, geq, geq, -geq, -geq)
                self._tran_neg_geq = -geq
        self.a_step = self._tran_a
        self.b_step = self._tran_b
        if plan.n_caps:
            # Branch rows hold the sources and node rows the capacitor
            # terms, so scattering onto the source vector gives the bytes
            # of scattering onto zeros first.
            const = self._tran_neg_geq * (x_prev[:, plan.cap_a] - x_prev[:, plan.cap_b])
            if integrator == "trap" and cap_i_prev is not None:
                const -= cap_i_prev
            self.b_step = self._cap_res(self.b_step, const, -const)

    # -- assembly -----------------------------------------------------------------------

    def assemble(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Residual and Jacobian of every lane at the padded estimate ``x``.

        Both are new arrays, so callers may overwrite them.  Floating-point
        warnings are left to the caller's ``np.errstate``: :func:`lane_newton`
        silences them once for its whole solve, as a diverging lane's
        overflow must not warn.
        """
        plan = self.plan
        res = np.matmul(self.a_step, x[:, :, None])[:, :, 0]
        res += self.b_step
        if not plan.n_mosfets:
            return self._device_res(res), self._device_jac(self.a_step)
        ids, derivatives = plan.mos_arrays.currents_and_derivatives(x.take(self._mos_terminals))
        return (
            self._device_res(res, ids, -ids),
            self._device_jac(self.a_step, derivatives, -derivatives),
        )

    def cap_currents(
        self,
        x_now: np.ndarray,
        x_prev: np.ndarray,
        dt: np.ndarray,
        cap_i_prev: np.ndarray,
    ) -> np.ndarray:
        """Trapezoidal capacitor currents to commit after an accepted step."""
        plan = self.plan
        geq = 2.0 * plan.cap_c / dt[:, None]
        dv_now = x_now[:, plan.cap_a] - x_now[:, plan.cap_b]
        dv_prev = x_prev[:, plan.cap_a] - x_prev[:, plan.cap_b]
        return geq * (dv_now - dv_prev) - cap_i_prev


def lane_newton(
    system: LaneSystem,
    x: np.ndarray,
    active: np.ndarray,
    options: NewtonOptions,
) -> Tuple[np.ndarray, np.ndarray]:
    """Damped Newton-Raphson on every active lane at once.

    Each lane takes a Newton step, scaled down so no node voltage moves by
    more than ``options.voltage_step_limit``, and converges when its
    residual or step max-norm drops below ``abs_tolerance`` or both fall
    by ``rel_tolerance``.  All lanes share one batched solve.  ``x``
    (shape ``(n_lanes, pad_size)``) is updated in place; lanes that fail
    (non-finite values, singular Jacobian, iteration limit) simply end up
    not converged.

    ``pending`` (active, not yet converged, not failed) is carried from
    one iteration to the next.  While every lane is pending, the masks
    that keep finished lanes still are skipped: they would select every
    element.
    """
    plan = system.plan
    L, n, n_nodes = plan.n_lanes, plan.n_unknowns, plan.n_nodes
    limit = options.voltage_step_limit
    converged = np.zeros(L, dtype=bool)
    iterations = np.zeros(L, dtype=int)
    last_residual = np.full(L, np.inf)
    pending = active.copy()
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        for iteration in range(1, options.max_iterations + 1):
            if not pending.any():
                break
            res, jac = system.assemble(x)
            r = res[:, :n]
            j = jac[:, :n, :n]
            # A row's max-norm is NaN or inf exactly when one of its
            # entries is, so the norms double as the finiteness checks.
            residual_norm = np.abs(r).max(axis=1) if n else np.zeros(L)
            finite = np.isfinite(residual_norm)
            if not finite.all():
                pending &= finite
            if pending.all():
                rhs = -r
            else:
                # Inactive / failed lanes get an identity system so the batched
                # factorisation cannot be poisoned by their (meaningless) rows.
                j[~pending] = system.identity
                rhs = np.where(pending[:, None], -r, 0.0)
            try:
                delta = np.linalg.solve(j, rhs[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                delta = np.zeros((L, n))
                for lane in np.flatnonzero(pending):
                    try:
                        delta[lane] = np.linalg.solve(j[lane], rhs[lane])
                    except np.linalg.LinAlgError:
                        pending[lane] = False
            abs_delta = np.abs(delta)
            delta_norm = abs_delta.max(axis=1) if n else np.zeros(L)
            finite = np.isfinite(delta_norm)
            if not finite.all():
                pending &= finite
            if not pending.any():
                continue
            factor = options.damping
            if limit > 0.0 and n_nodes:
                voltage_step = abs_delta[:, :n_nodes].max(axis=1)
                limited = voltage_step > limit
                if limited.any():
                    scale = np.ones(L)
                    scale[limited] = limit / voltage_step[limited]
                    factor = (options.damping * scale)[:, None]
            step = factor * delta
            x[:, :n] += step if pending.all() else np.where(pending[:, None], step, 0.0)
            x_norm = np.abs(x[:, :n]).max(axis=1) if n else np.zeros(L)
            iterations[pending] = iteration
            now_converged = (
                (residual_norm < options.abs_tolerance)
                | (delta_norm < options.abs_tolerance)
                | (
                    (residual_norm < options.rel_tolerance * np.maximum(last_residual, 1e-30))
                    & (delta_norm < options.rel_tolerance * np.maximum(x_norm, 1.0))
                )
            )
            converged |= pending & now_converged
            np.copyto(last_residual, residual_norm, where=pending)
            pending &= ~now_converged
    return converged, iterations


def lane_dc_solve(
    system: LaneSystem,
    options: NewtonOptions,
    x0: Optional[np.ndarray] = None,
    gmin_steps: int = 8,
    source_steps: int = 10,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-lane DC operating point with gmin and source-stepping homotopies.

    A plain solve first, then a gmin ladder restarted from the initial
    guess, then source stepping from zero — each stage only for the lanes
    that still need it.
    Returns ``(x, converged, iterations)`` with ``x`` padded to
    ``(n_lanes, pad_size)``.
    """
    plan = system.plan
    L, P = plan.n_lanes, plan.pad_size
    start = np.zeros((L, P)) if x0 is None else np.array(x0, dtype=float)
    iterations = np.zeros(L, dtype=int)
    result = np.zeros((L, P))

    system.begin_dc(gmin=options.gmin, source_scale=options.source_scale)
    x = start.copy()
    converged, its = lane_newton(system, x, np.ones(L, dtype=bool), options)
    iterations += its
    result[converged] = x[converged]
    done = converged.copy()

    pending = ~done
    if pending.any() and gmin_steps > 0:
        # gmin stepping: heavy shunt conductance relaxed decade by decade,
        # re-using each lane's previous solution as the next start.
        x = start.copy()
        ok = pending.copy()
        for gmin in np.logspace(-3, np.log10(options.gmin), gmin_steps):
            system.begin_dc(gmin=float(gmin), source_scale=options.source_scale)
            step_converged, its = lane_newton(system, x, ok, options)
            iterations += its
            ok &= step_converged
            if not ok.any():
                break
        if ok.any():
            system.begin_dc(gmin=options.gmin, source_scale=options.source_scale)
            step_converged, its = lane_newton(system, x, ok, options)
            iterations += its
            ok &= step_converged
            result[ok] = x[ok]
            done |= ok

    pending = ~done
    if pending.any() and source_steps > 0:
        # Source stepping: ramp all independent sources from zero; a lane
        # must converge at every step of the ramp.
        x = np.zeros((L, P))
        ok = pending.copy()
        for scale in np.linspace(0.1, 1.0, source_steps):
            system.begin_dc(gmin=options.gmin, source_scale=float(scale))
            step_converged, its = lane_newton(system, x, ok, options)
            iterations += its
            ok &= step_converged
            if not ok.any():
                break
        result[ok] = x[ok]
        done |= ok

    return result, done, iterations
