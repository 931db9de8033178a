"""Topology parity -- the pseudo-differential VCO through the paper's flow.

The topology seam's claim is structural: a second circuit family runs the
*identical* hierarchical flow.  This benchmark backs that claim with
numbers on the `pseudodiff-vco` topology:

* **Table-2-style wall-clock** -- the full circuit stage (NSGA-II with
  per-Pareto-point Monte Carlo model extraction) followed by the
  system-level PLL optimisation on the extracted combined model, timed
  per stage and printing the resulting Table-2 rows, exactly as
  ``bench_table2_pll_system.py`` does for the ring.
* **Vectorised-vs-serial speedup gate** -- the serial backend evaluates
  each design as a batch of one through the same kernel, whose elements
  are computed independently (the keeper-capacitance term included), so
  the vectorised NSGA-II backend must produce the identical Pareto front
  and beat the serial loop.  The measured ratio is recorded as a ``speedup_*`` key, which the
  CI merge step (``merge_benchmarks.py``) gates at >= 1.0.
"""

import time

import numpy as np

from benchmarks.conftest import SETTINGS, print_header
from repro.circuits.pseudodiff import PseudoDiffAnalyticalEvaluator
from repro.core.circuit_stage import CircuitLevelOptimisation, VcoSizingProblem
from repro.core.system_stage import SystemLevelOptimisation
from repro.optim import NSGA2, NSGA2Config
from repro.optim.individual import parameters_matrix
from repro.process import TECH_012UM


def _pseudodiff_run(evaluator_name: str, repeats: int = 1):
    """NSGA-II sizing runs of the pseudo-differential VCO (best-of timing)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        problem = VcoSizingProblem(PseudoDiffAnalyticalEvaluator(TECH_012UM))
        config = NSGA2Config(
            population_size=SETTINGS["circuit_population"],
            generations=SETTINGS["circuit_generations"],
            seed=SETTINGS["seed"],
            evaluator=evaluator_name,
        )
        start = time.perf_counter()
        result = NSGA2(problem, config).run()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_pseudodiff_table2_wallclock(benchmark, settings):
    """Time the pseudo-differential Table-2 flow stage by stage."""
    evaluator = PseudoDiffAnalyticalEvaluator(TECH_012UM)

    start = time.perf_counter()
    circuit = CircuitLevelOptimisation(
        evaluator=evaluator,
        technology=TECH_012UM,
        config=NSGA2Config(
            population_size=settings["circuit_population"],
            generations=settings["circuit_generations"],
            seed=settings["seed"],
        ),
        mc_samples=settings["mc_samples_per_point"],
        mc_seed=settings["seed"],
        max_model_points=settings["model_points"],
    ).run()
    circuit_time = time.perf_counter() - start

    start = time.perf_counter()
    system = SystemLevelOptimisation(
        circuit.model,
        config=NSGA2Config(
            population_size=settings["system_population"],
            generations=settings["system_generations"],
            seed=settings["seed"],
        ),
        simulation_time=3e-6,
    ).run()
    system_time = time.perf_counter() - start

    rows = benchmark(system.table2_records, 10)
    print_header(
        "Topology parity: pseudo-differential VCO through the Table-2 flow "
        f"(pop={settings['circuit_population']}, "
        f"gen={settings['circuit_generations']}, "
        f"mc={settings['mc_samples_per_point']}/point)"
    )
    print(f"{'stage':>10} {'time [s]':>10} {'output':>40}")
    print(
        f"{'circuit':>10} {circuit_time:10.2f} "
        f"{f'{circuit.front_size}-point front, {circuit.evaluations} evals':>40}"
    )
    print(
        f"{'system':>10} {system_time:10.2f} "
        f"{f'{system.front_size}-point front':>40}"
    )
    print(f"\n{'Kv':>8} {'Iv[mA]':>7} {'Lt[us]':>7} {'Jit[ps]':>8}")
    for row in rows:
        print(
            f"{row['kv_mhz_per_v']:8.0f} {row['iv_ma']:7.2f} "
            f"{row['lock_time_us']:7.3f} {row['jitter_ps']:8.3f}"
        )
    assert rows
    assert circuit.front_size >= 1
    # The pseudo-differential corrections are visible in the data: twice
    # the single-ring current for the anti-phase pair.
    current_ma = circuit.optimisation.front.raw_objective("current") * 1e3
    assert 1.0 < float(np.median(current_ma)) < 40.0
    benchmark.extra_info["pseudodiff_circuit_stage_seconds"] = circuit_time
    benchmark.extra_info["pseudodiff_system_stage_seconds"] = system_time


def test_pseudodiff_vectorised_matches_serial_speedup(benchmark):
    """Identical fronts from both backends, vectorised faster than serial."""
    serial_result, serial_time = _pseudodiff_run("serial", repeats=2)
    vectorised_result, vectorised_time = _pseudodiff_run("vectorised", repeats=3)
    speedup = serial_time / vectorised_time
    print_header(
        "Topology parity: pseudodiff NSGA-II serial vs vectorised "
        f"({SETTINGS['circuit_population']} x {SETTINGS['circuit_generations']}, "
        f"{serial_result.evaluations} evaluations)"
    )
    print(f"{'backend':>12} {'time [s]':>10} {'front':>6}")
    print(f"{'serial':>12} {serial_time:10.3f} {len(serial_result.front):6d}")
    print(
        f"{'vectorised':>12} {vectorised_time:10.3f} {len(vectorised_result.front):6d}"
    )
    print(f"speedup: {speedup:.2f}x")
    # Bit-identical fronts: a design's bits do not depend on its batch --
    # keeper capacitance and all.
    assert np.array_equal(
        serial_result.front.objectives, vectorised_result.front.objectives
    )
    assert np.array_equal(
        parameters_matrix(list(serial_result.front)),
        parameters_matrix(list(vectorised_result.front)),
    )
    assert serial_result.evaluations == vectorised_result.evaluations
    assert speedup >= 1.0, (
        f"pseudodiff vectorised speedup {speedup:.2f}x is below 1.0 -- the "
        "batched path is slower than the serial loop it replaces"
    )
    # Record the vectorised run for the pytest-benchmark report; the ratio
    # feeds the CI regression gate in merge_benchmarks.py.
    benchmark.extra_info["speedup_pseudodiff_vectorised_vs_serial"] = speedup
    benchmark(lambda: _pseudodiff_run("vectorised")[0])
