"""The lane engine's time loop in its plain form, as a bitwise oracle.

The engine's Newton iteration reuses buffers in place, evaluates the
stacked device call on parameters broadcast to the stack's shape, caches
the transient step matrix and records one snapshot per accepted step.
All of it is promised to leave every lane's ``time`` and ``solution``
bytes unchanged.  This module keeps the straightforward form it replaced,
written against the same :class:`~repro.spice.plan.CircuitPlan`:

* :func:`drain_current` / :func:`currents_and_derivatives` -- the device
  kernel on the ``(n_lanes, n_devices)`` parameter fields, with nested
  ``np.where`` selections and a fresh array per operation;
* :class:`OracleLaneSystem` -- the step's linear terms rebuilt in a
  preallocated buffer on every ``begin_*`` call, and an assembly that
  enters ``np.errstate`` itself;
* :func:`lane_newton` -- per-lane masks on every iteration;
* :func:`run` -- the time loop with one copy per recorded lane and step.

:func:`run` drives its DC start through :func:`lane_newton` too, so no
step of an oracle run touches the engine's own Newton loop.
"""

from typing import List, Optional
from unittest import mock

import numpy as np

from repro.spice import plan as plan_module
from repro.spice.exceptions import AnalysisError
from repro.spice.plan import CircuitPlan, LaneSystem, NewtonOptions
from repro.spice.transient import LaneTransientAnalysis, TransientResult


def _channel_current(arrays, vgs, vds, vbs):
    phi_minus_vbs = np.maximum(arrays.phi - vbs, 1e-6)
    vth = arrays.vth0 + arrays.gamma * (np.sqrt(phi_minus_vbs) - arrays.sqrt_phi)
    vov = vgs - vth
    ratio = vov / arrays.n_vt
    ratio_clipped = np.minimum(np.maximum(ratio, -745.0), 40.0)
    exp_ratio = np.exp(ratio_clipped)
    vov_eff = np.where(
        ratio > 40.0,
        vov,
        np.where(ratio < -40.0, arrays.n_vt * exp_ratio, arrays.n_vt * np.log1p(exp_ratio)),
    )
    vov_eff = vov_eff / (1.0 + arrays.theta * vov_eff)
    vdsat = np.maximum(vov_eff, 1e-9)
    clm = 1.0 + arrays.lambda_ * vds
    triode = arrays.beta * (vov_eff * vds - 0.5 * vds * vds) * clm
    saturation = 0.5 * arrays.beta * vov_eff * vov_eff * clm
    ids = np.where(vds < vdsat, triode, saturation)
    return np.maximum(ids, 0.0)


def drain_current(arrays, vd, vg, vs, vb):
    """Drain currents of a :class:`~repro.spice.mosfet.MOSFETArrays` block."""
    p = arrays.polarity
    nvd, nvg, nvs, nvb = p * vd, p * vg, p * vs, p * vb
    forward = nvd >= nvs
    vref = np.where(forward, nvs, nvd)
    ids = _channel_current(arrays, nvg - vref, np.abs(nvd - nvs), nvb - vref)
    return np.where(forward, p * ids, -p * ids)


def currents_and_derivatives(arrays, terminals):
    """Currents and forward differences in one call on a stack of five points."""
    delta = 1e-6
    stacked = np.repeat(terminals[:, None], 5, axis=1)
    terminal = np.arange(4)
    stacked[terminal, terminal + 1] += delta
    currents = drain_current(arrays, *stacked)
    ids = currents[0]
    return ids, (currents[1:] - ids) / delta


class OracleLaneSystem(LaneSystem):
    """Every ``begin_*`` call rebuilds the step's terms in one buffer."""

    def __init__(self, plan: CircuitPlan) -> None:
        super().__init__(plan)
        self.a_step = np.zeros((plan.n_lanes, plan.pad_size, plan.pad_size))
        self.b_step = np.zeros((plan.n_lanes, plan.pad_size))

    def _begin_buffers(self, gmin):
        self.a_step[:] = self.plan.a_static
        if gmin > 0.0:
            self.a_step[:, self._node_diag, self._node_diag] += gmin
        self.b_step[:] = 0.0

    def begin_dc(self, gmin, source_scale=1.0):
        plan = self.plan
        self._begin_buffers(gmin)
        if plan.n_vsources:
            self.b_step[:, plan.vs_k] -= source_scale * plan.vs_values

    def begin_tran(self, dt, x_prev, integrator, cap_i_prev, gmin, source_scale=1.0):
        plan = self.plan
        self._begin_buffers(gmin)
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
        if plan.n_vsources:
            self.b_step[:, plan.vs_k] -= source_scale * plan.vs_values

    def assemble(self, x):
        plan = self.plan
        res = np.matmul(self.a_step, x[:, :, None])[:, :, 0]
        res += self.b_step
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            terminals = x.take(self._mos_terminals)
            ids, derivatives = currents_and_derivatives(plan.mos_arrays, terminals)
        return (
            self._device_res(res, ids, -ids),
            self._device_jac(self.a_step, derivatives, -derivatives),
        )


def lane_newton(system, x, active, options: NewtonOptions):
    """Damped Newton with every lane mask recomputed on every iteration."""
    plan = system.plan
    L, n, n_nodes = plan.n_lanes, plan.n_unknowns, plan.n_nodes
    converged = np.zeros(L, dtype=bool)
    failed = np.zeros(L, dtype=bool)
    iterations = np.zeros(L, dtype=int)
    last_residual = np.full(L, np.inf)
    identity = np.eye(n)
    with np.errstate(invalid="ignore"):
        for iteration in range(1, options.max_iterations + 1):
            pending = active & ~converged & ~failed
            if not pending.any():
                break
            res, jac = system.assemble(x)
            r = res[:, :n]
            j = jac[:, :n, :n]
            residual_norm = np.abs(r).max(axis=1)
            bad = pending & ~np.isfinite(residual_norm)
            failed |= bad
            pending &= ~bad
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
            voltage_step = np.abs(delta[:, :n_nodes]).max(axis=1)
            scale = np.ones(L)
            if options.voltage_step_limit > 0.0:
                limited = voltage_step > options.voltage_step_limit
                scale[limited] = options.voltage_step_limit / voltage_step[limited]
            step = (options.damping * scale)[:, None] * delta
            x[:, :n] += np.where(pending[:, None], step, 0.0)
            delta_norm = np.abs(delta).max(axis=1)
            x_norm = np.abs(x[:, :n]).max(axis=1)
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


def run(analysis: LaneTransientAnalysis) -> List[Optional[TransientResult]]:
    """``analysis.run()`` through the oracle system, Newton loop and recording."""
    plan = CircuitPlan(analysis.circuits)
    system = OracleLaneSystem(plan)
    options = analysis.newton_options
    n_lanes, n = plan.n_lanes, plan.n_unknowns
    with mock.patch.object(plan_module, "lane_newton", lane_newton):
        x = analysis._initial_state(system)
    times: List[List[float]] = [[] for _ in range(n_lanes)]
    solutions: List[List[np.ndarray]] = [[] for _ in range(n_lanes)]
    if analysis.t_start_recording <= 0.0:
        for lane in range(n_lanes):
            times[lane].append(0.0)
            solutions[lane].append(x[lane, :n].copy())
    t = np.zeros(n_lanes)
    pending_step = np.full(n_lanes, analysis.dt)
    refinements = np.zeros(n_lanes, dtype=int)
    alive = np.ones(n_lanes, dtype=bool)
    cap_i_prev = np.zeros((n_lanes, plan.n_caps))
    marching = alive & (t < analysis.t_stop - 1e-21)
    while marching.any():
        attempt = np.minimum(pending_step, analysis.t_stop - t)
        step = np.where(marching, attempt, analysis.dt)
        system.begin_tran(
            dt=step,
            x_prev=x,
            integrator=analysis.integrator,
            cap_i_prev=cap_i_prev if analysis.integrator == "trap" else None,
            gmin=options.gmin,
            source_scale=options.source_scale,
        )
        x_trial = x.copy()
        converged, _ = lane_newton(system, x_trial, marching, options)
        accepted = marching & converged
        rejected = marching & ~converged
        if rejected.any():
            refinements[rejected] += 1
            dead = rejected & (refinements > analysis.max_step_refinements)
            alive &= ~dead
            retry = rejected & ~dead
            pending_step[retry] = attempt[retry] * 0.5
        if accepted.any():
            if analysis.integrator == "trap" and plan.n_caps:
                committed = system.cap_currents(x_trial, x, step, cap_i_prev)
                cap_i_prev[accepted] = committed[accepted]
            t[accepted] += step[accepted]
            x[accepted] = x_trial[accepted]
            pending_step[accepted] = analysis.dt
            refinements[accepted] = 0
            for lane in np.flatnonzero(accepted):
                if t[lane] >= analysis.t_start_recording:
                    times[lane].append(float(t[lane]))
                    solutions[lane].append(x[lane, :n].copy())
        marching = alive & (t < analysis.t_stop - 1e-21)
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
