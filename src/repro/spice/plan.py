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
  once; MOSFET and diode model equations are evaluated array-wise over
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

* the oracle adds the tiny 1e-12 conditioning shunt of diodes and
  MOSFETs to the Jacobian only; the plan folds it into the static
  matrix, so it also contributes ``1e-12 * v`` to the residual — an
  effect at the solver tolerance floor;
* a lane whose Jacobian is singular is reported as non-converged instead
  of raising :class:`~repro.spice.exceptions.SingularMatrixError`, so
  that one pathological lane cannot abort its batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.spice.elements import (
    Capacitor,
    CurrentSource,
    DCWaveform,
    Diode,
    Inductor,
    Resistor,
    VCCS,
    VCVS,
    VoltageSource,
)
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


class _SourceTable:
    """Waveform values of one source group, for all lanes at per-lane times.

    When every lane of every source is a plain :class:`DCWaveform` (the
    ring-VCO hot path) the values are precomputed once; otherwise the
    Python waveforms are evaluated per lane and per source.
    """

    def __init__(self, waveforms_by_lane: Sequence[Sequence[object]]) -> None:
        self._waveforms = [list(lane) for lane in waveforms_by_lane]
        self.dc_values = np.array(
            [[waveform.dc for waveform in lane] for lane in self._waveforms], dtype=float
        )
        self._static = all(
            isinstance(waveform, DCWaveform) for lane in self._waveforms for waveform in lane
        )

    def values(self, times: np.ndarray) -> np.ndarray:
        """Source values at each lane's own simulation time, shape (L, K)."""
        if self._static:
            return self.dc_values
        return np.array(
            [
                [waveform.value(float(t)) for waveform in lane]
                for t, lane in zip(times, self._waveforms)
            ],
            dtype=float,
        )


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
        ind_a: List[int] = []
        ind_b: List[int] = []
        ind_k: List[int] = []
        ind_l: List[List[float]] = []
        vs_k: List[int] = []
        vs_waveforms: List[List[object]] = []
        is_a: List[int] = []
        is_b: List[int] = []
        is_waveforms: List[List[object]] = []
        d_a: List[int] = []
        d_b: List[int] = []
        d_isat: List[List[float]] = []
        d_nvt: List[List[float]] = []
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
            if isinstance(element, Resistor):
                stamp_conductance(
                    idx(element.nodes[0]),
                    idx(element.nodes[1]),
                    np.array([column[lane].conductance for lane in lanes]),
                )
            elif isinstance(element, Capacitor):
                add_capacitor(
                    element.nodes[0],
                    element.nodes[1],
                    [column[lane].capacitance for lane in lanes],
                )
            elif isinstance(element, Inductor):
                a, b = idx(element.nodes[0]), idx(element.nodes[1])
                k = branch_index[element.name]
                a_static[:, a, k] += 1.0
                a_static[:, b, k] -= 1.0
                a_static[:, k, a] += 1.0
                a_static[:, k, b] -= 1.0
                ind_a.append(a)
                ind_b.append(b)
                ind_k.append(k)
                ind_l.append([column[lane].inductance for lane in lanes])
            elif isinstance(element, VoltageSource):
                a, b = idx(element.nodes[0]), idx(element.nodes[1])
                k = branch_index[element.name]
                a_static[:, a, k] += 1.0
                a_static[:, b, k] -= 1.0
                a_static[:, k, a] += 1.0
                a_static[:, k, b] -= 1.0
                vs_k.append(k)
                vs_waveforms.append([column[lane].waveform for lane in lanes])
            elif isinstance(element, CurrentSource):
                is_a.append(idx(element.nodes[0]))
                is_b.append(idx(element.nodes[1]))
                is_waveforms.append([column[lane].waveform for lane in lanes])
            elif isinstance(element, VCVS):
                op, on, cp, cn = (idx(n) for n in element.nodes)
                k = branch_index[element.name]
                a_static[:, op, k] += 1.0
                a_static[:, on, k] -= 1.0
                a_static[:, k, op] += 1.0
                a_static[:, k, on] -= 1.0
                gain = np.array([column[lane].gain for lane in lanes])
                a_static[:, k, cp] -= gain
                a_static[:, k, cn] += gain
            elif isinstance(element, VCCS):
                op, on, cp, cn = (idx(n) for n in element.nodes)
                gm = np.array([column[lane].transconductance for lane in lanes])
                a_static[:, op, cp] += gm
                a_static[:, op, cn] -= gm
                a_static[:, on, cp] -= gm
                a_static[:, on, cn] += gm
            elif isinstance(element, Diode):
                a, b = idx(element.nodes[0]), idx(element.nodes[1])
                stamp_conductance(a, b, np.full(self.n_lanes, 1e-12))
                d_a.append(a)
                d_b.append(b)
                d_isat.append([column[lane].saturation_current for lane in lanes])
                d_nvt.append(
                    [
                        column[lane].emission_coefficient * column[lane].thermal_voltage
                        for lane in lanes
                    ]
                )
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

        # Inductors.
        self.ind_a = as_index(ind_a)
        self.ind_b = as_index(ind_b)
        self.ind_k = as_index(ind_k)
        self.ind_l = as_params(ind_l)
        self.n_inductors = self.ind_k.size

        # Independent sources.
        self.vs_k = as_index(vs_k)
        self.vs_table = _SourceTable(list(map(list, zip(*vs_waveforms))) or [[]] * self.n_lanes)
        self.n_vsources = self.vs_k.size
        self.is_a = as_index(is_a)
        self.is_b = as_index(is_b)
        self.is_table = _SourceTable(list(map(list, zip(*is_waveforms))) or [[]] * self.n_lanes)
        self.is_res_rows = np.stack([self.is_a, self.is_b])
        self.n_isources = self.is_a.size

        # Diodes.
        self.d_a = as_index(d_a)
        self.d_b = as_index(d_b)
        self.d_isat = as_params(d_isat)
        self.d_nvt = as_params(d_nvt)
        self.n_diodes = self.d_a.size
        a, b = self.d_a, self.d_b
        self.d_jac_idx = np.stack([a * P + a, b * P + b, a * P + b, b * P + a])
        self.d_res_rows = np.stack([a, b])

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
    step (static stamps, capacitor/inductor companion conductances, gmin)
    and ``n(x)`` holds only the diode and MOSFET channel contributions that
    must be re-evaluated each Newton iteration.
    """

    def __init__(self, plan: CircuitPlan) -> None:
        self.plan = plan
        L, P = plan.n_lanes, plan.pad_size
        self.a_step = np.zeros((L, P, P))
        self.b_step = np.zeros((L, P))
        self.identity = np.eye(plan.n_unknowns)
        self._node_diag = np.arange(plan.n_nodes)
        self.analysis = "dc"
        self._cap_jac = _Scatter(L, P * P, plan.cap_jac_idx)
        self._cap_res = _Scatter(L, P, plan.cap_res_rows)
        self._is_res = _Scatter(L, P, plan.is_res_rows)
        # In every cell, diode stamps are summed before MOSFET stamps.
        self._device_jac = _Scatter(L, P * P, [*plan.d_jac_idx, *plan.mos_jac_idx])
        self._device_res = _Scatter(L, P, [*plan.d_res_rows, *plan.mos_res_rows])
        # Flat indices of every MOSFET terminal voltage in ``x``, shaped
        # (terminal, lane, device) for one gather per assembly.
        self._mos_terminals = np.arange(L)[:, None] * P + np.stack(
            [plan.mos_d, plan.mos_g, plan.mos_s, plan.mos_b]
        )[:, None, :]

    # -- per-step constant terms -----------------------------------------------------

    def _begin(self, gmin: float) -> None:
        self.a_step[:] = self.plan.a_static
        if gmin > 0.0:
            self.a_step[:, self._node_diag, self._node_diag] += gmin
        self.b_step[:] = 0.0

    def begin_dc(self, gmin: float, source_scale: float = 1.0) -> None:
        """Prepare the linear part of a DC solve (all lanes)."""
        plan = self.plan
        self.analysis = "dc"
        self._begin(gmin)
        if plan.n_vsources:
            self.b_step[:, plan.vs_k] -= source_scale * plan.vs_table.dc_values
        if plan.n_isources:
            values = source_scale * plan.is_table.dc_values
            self.b_step = self._is_res(self.b_step, values, -values)

    def begin_tran(
        self,
        time: np.ndarray,
        dt: np.ndarray,
        x_prev: np.ndarray,
        integrator: str,
        cap_i_prev: Optional[np.ndarray],
        gmin: float,
        source_scale: float = 1.0,
    ) -> None:
        """Prepare the linear part of one transient Newton solve.

        ``time`` and ``dt`` are per-lane arrays so lanes may refine their
        time steps independently; ``x_prev`` is the padded solution at each
        lane's previous accepted time point.
        """
        plan = self.plan
        self.analysis = "tran"
        self._begin(gmin)
        dt_col = dt[:, None]
        if plan.n_caps:
            factor = 2.0 if integrator == "trap" else 1.0
            geq = factor * plan.cap_c / dt_col
            self.a_step = self._cap_jac(self.a_step, geq, geq, -geq, -geq)
            v_prev = x_prev[:, plan.cap_a] - x_prev[:, plan.cap_b]
            const = -geq * v_prev
            if integrator == "trap" and cap_i_prev is not None:
                const = const - cap_i_prev
            self.b_step = self._cap_res(self.b_step, const, -const)
        if plan.n_inductors:
            req = plan.ind_l / dt_col
            self.a_step[:, plan.ind_k, plan.ind_k] -= req
            self.b_step[:, plan.ind_k] += req * x_prev[:, plan.ind_k]
        if plan.n_vsources:
            self.b_step[:, plan.vs_k] -= source_scale * plan.vs_table.values(time)
        if plan.n_isources:
            values = source_scale * plan.is_table.values(time)
            self.b_step = self._is_res(self.b_step, values, -values)

    # -- assembly -----------------------------------------------------------------------

    def assemble(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Residual and Jacobian of every lane at the padded estimate ``x``.

        Both are new arrays, so callers may overwrite them.
        """
        plan = self.plan
        res = np.matmul(self.a_step, x[:, :, None])[:, :, 0]
        res += self.b_step
        res_stamps: List[np.ndarray] = []
        jac_stamps: List[np.ndarray] = []
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            if plan.n_diodes:
                v = x[:, plan.d_a] - x[:, plan.d_b]
                n_vt = plan.d_nvt
                v_limited = np.minimum(v, 40.0 * n_vt)
                exp_term = np.exp(v_limited / n_vt)
                current = plan.d_isat * (exp_term - 1.0)
                conductance = plan.d_isat * exp_term / n_vt
                current = np.where(
                    v > v_limited, current + conductance * (v - v_limited), current
                )
                res_stamps += [current, -current]
                jac_stamps += [conductance, conductance, -conductance, -conductance]
            if plan.n_mosfets:
                terminals = x.take(self._mos_terminals)
                ids, derivatives = plan.mos_arrays.currents_and_derivatives(terminals)
                res_stamps += [ids, -ids]
                jac_stamps += [derivatives, -derivatives]
        return self._device_res(res, *res_stamps), self._device_jac(self.a_step, *jac_stamps)

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
    """
    plan = system.plan
    L, n, n_nodes = plan.n_lanes, plan.n_unknowns, plan.n_nodes
    converged = np.zeros(L, dtype=bool)
    failed = np.zeros(L, dtype=bool)
    iterations = np.zeros(L, dtype=int)
    last_residual = np.full(L, np.inf)
    identity = system.identity
    with np.errstate(invalid="ignore"):
        for iteration in range(1, options.max_iterations + 1):
            pending = active & ~converged & ~failed
            if not pending.any():
                break
            res, jac = system.assemble(x)
            r = res[:, :n]
            j = jac[:, :n, :n]
            residual_norm = np.abs(r).max(axis=1) if n else np.zeros(L)
            bad = pending & ~np.isfinite(residual_norm)
            failed |= bad
            pending &= ~bad
            # Inactive / failed lanes get an identity system so the batched
            # factorisation cannot be poisoned by their (meaningless) rows.
            j[~pending] = identity
            rhs = np.where(pending[:, None], -r, 0.0)
            try:
                delta = np.linalg.solve(j, rhs[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                delta = np.zeros((L, n))
                for lane in np.flatnonzero(pending):
                    try:
                        delta[lane] = np.linalg.solve(j[lane], rhs[lane])
                    except np.linalg.LinAlgError:
                        failed[lane] = True
                        pending[lane] = False
            bad = pending & ~np.isfinite(delta).all(axis=1)
            failed |= bad
            pending &= ~bad
            if not pending.any():
                continue
            voltage_step = np.abs(delta[:, :n_nodes]).max(axis=1) if n_nodes else np.zeros(L)
            scale = np.ones(L)
            if options.voltage_step_limit > 0.0:
                limited = voltage_step > options.voltage_step_limit
                scale[limited] = options.voltage_step_limit / voltage_step[limited]
            step = (options.damping * scale)[:, None] * delta
            x[:, :n] += np.where(pending[:, None], step, 0.0)
            delta_norm = np.abs(delta).max(axis=1) if n else np.zeros(L)
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
            last_residual = np.where(pending, residual_norm, last_residual)
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
