"""Table 2 -- PLL system-level optimal solution samples.

The paper's Table 2 lists system-level Pareto solutions of the PLL
optimisation: the VCO gain and current with their variation-derived
minimum/maximum values, the loop-filter components C1, C2 and R1, and the
resulting lock time, jitter (with min/max) and supply current (with
min/max).  A solution meeting the specifications (lock < 1 us, current
< 15 mA) including its variation is then selected as the design solution.

This benchmark regenerates those rows from the system-level optimisation
run on the behavioural PLL with the combined VCO model, prints the selected
design solution, and times the PLL evaluation kernel.
"""

import time

import numpy as np

from benchmarks.conftest import print_header
from repro.core.specification import PLL_SPECIFICATIONS
from repro.core.system_stage import PllSystemProblem, SystemLevelOptimisation
from repro.optim import NSGA2Config
from repro.optim.individual import parameters_matrix


def test_table2_rows(benchmark, system_stage, combined_model, settings):
    """Print Table-2 style rows plus the selected solution."""
    rows = benchmark(system_stage.table2_records, 10)
    print_header(
        "Table 2: PLL system-level solution samples "
        f"(pop={settings['system_population']}, gen={settings['system_generations']})"
    )
    print(
        f"{'Kv':>8} {'Kvmin':>8} {'Kvmax':>8} {'Iv':>6} {'Ivmin':>6} {'Ivmax':>6} "
        f"{'C1[pF]':>7} {'C2[pF]':>7} {'R1[k]':>6} {'Lt[us]':>7} {'Jit[ps]':>8} "
        f"{'Jmin':>6} {'Jmax':>6} {'I[mA]':>6} {'Imin':>6} {'Imax':>6}"
    )
    for row in rows:
        print(
            f"{row['kv_mhz_per_v']:8.0f} {row['kv_min_mhz_per_v']:8.0f} "
            f"{row['kv_max_mhz_per_v']:8.0f} "
            f"{row['iv_ma']:6.2f} {row['iv_min_ma']:6.2f} {row['iv_max_ma']:6.2f} "
            f"{row['c1_pf']:7.2f} {row['c2_pf']:7.2f} {row['r1_kohm']:6.2f} "
            f"{row['lock_time_us']:7.3f} {row['jitter_ps']:8.3f} "
            f"{row['jitter_min_ps']:6.3f} {row['jitter_max_ps']:6.3f} "
            f"{row['current_ma']:6.2f} {row['current_min_ma']:6.2f} {row['current_max_ma']:6.2f}"
        )
    assert rows
    # Every reported solution's block values are bracketed by their variation bounds.
    for row in rows:
        assert row["kv_min_mhz_per_v"] <= row["kv_mhz_per_v"] <= row["kv_max_mhz_per_v"]
        assert row["iv_min_ma"] <= row["iv_ma"] <= row["iv_max_ma"]
    # Selected solution: meets the paper's specifications.
    selected = system_stage.selected
    assert selected is not None
    values = system_stage.selected_values
    print("\nSelected design solution (the paper's shaded row):")
    print(
        f"  Kvco = {values['kvco'] / 1e6:.0f} MHz/V, Ivco = {values['ivco'] * 1e3:.2f} mA, "
        f"C1 = {values['c1'] * 1e12:.2f} pF, C2 = {values['c2'] * 1e12:.2f} pF, "
        f"R1 = {values['r1'] / 1e3:.2f} kOhm"
    )
    print(
        f"  lock time = {selected.raw_objectives['lock_time'] * 1e6:.3f} us, "
        f"jitter = {selected.raw_objectives['jitter'] * 1e12:.3f} ps, "
        f"current = {selected.raw_objectives['current'] * 1e3:.2f} mA, "
        f"feasible = {selected.is_feasible}"
    )
    # Shape checks against the paper: lock times below ~1 us, currents above
    # the 10 mA peripheral floor, jitter of a few ps at most.
    lock_times = np.array([row["lock_time_us"] for row in rows])
    currents = np.array([row["current_ma"] for row in rows])
    assert np.median(lock_times[np.isfinite(lock_times)]) < 3.0
    assert np.all(currents > 10.0)
    # The selected solution must satisfy the specs like the paper's shaded row.
    assert selected.is_feasible
    assert selected.raw_objectives["lock_time"] <= PLL_SPECIFICATIONS["lock_time"].upper
    assert selected.raw_objectives["current"] <= PLL_SPECIFICATIONS["current"].upper


def test_table2_vectorised_backend_5x_with_identical_front(
    benchmark, combined_model, settings
):
    """The Table-2 system run on the lane-parallel backend: >= 5x, same front.

    Runs the full system-level NSGA-II once per backend at the benchmark's
    population/generation budget.  Both backends run the same lane engine:
    ``serial`` makes one one-candidate (three-lane) call per individual,
    and ``vectorised`` advances the whole population (all three variants)
    through one batched cycle loop.  The vectorised run must reproduce the
    serial Pareto front bit-for-bit while being at least five times faster.
    """

    def run(evaluator_name):
        stage = SystemLevelOptimisation(
            combined_model,
            config=NSGA2Config(
                population_size=settings["system_population"],
                generations=settings["system_generations"],
                seed=settings["seed"],
                evaluator=evaluator_name,
            ),
            simulation_time=3e-6,
        )
        return stage.run()

    def best_of(evaluator_name, repeats):
        best, result = float("inf"), None
        for _ in range(repeats):
            start = time.perf_counter()
            result = run(evaluator_name)
            best = min(best, time.perf_counter() - start)
        return result, best

    serial_result, serial_time = best_of("serial", repeats=2)
    vectorised_result, vectorised_time = best_of("vectorised", repeats=3)
    speedup = serial_time / vectorised_time
    print_header(
        "Table 2 system run: serial (one-candidate lane calls) vs vectorised "
        "(one population batch) "
        f"(pop={settings['system_population']}, gen={settings['system_generations']})"
    )
    print(f"{'backend':>12} {'time [s]':>10} {'front':>6}")
    print(f"{'serial':>12} {serial_time:10.3f} {len(serial_result.optimisation.front):6d}")
    print(
        f"{'vectorised':>12} {vectorised_time:10.3f} "
        f"{len(vectorised_result.optimisation.front):6d}"
    )
    print(f"speedup: {speedup:.2f}x")
    serial_front = serial_result.optimisation.front
    vectorised_front = vectorised_result.optimisation.front
    # Bit-identical Pareto fronts, parameters, Table-2 metrics and selection.
    assert np.array_equal(serial_front.objectives, vectorised_front.objectives)
    assert np.array_equal(
        parameters_matrix(list(serial_front)), parameters_matrix(list(vectorised_front))
    )
    for a, b in zip(serial_front, vectorised_front):
        assert a.metrics == b.metrics
    assert serial_result.selected_values == vectorised_result.selected_values
    assert serial_result.table2_records(10) == vectorised_result.table2_records(10)
    assert speedup >= 5.0, f"vectorised speedup {speedup:.2f}x is below the 5x target"
    benchmark.extra_info["speedup_system_vectorised_vs_serial"] = speedup
    benchmark(lambda: run("vectorised"))


def test_table2_benchmark_pll_evaluation_kernel(benchmark, combined_model):
    """Time one system-level candidate evaluation (nominal + min + max)."""
    problem = PllSystemProblem(combined_model, simulation_time=3e-6)
    point = combined_model.performance.point(0)
    values = {
        "kvco": point["kvco"],
        "ivco": point["current"],
        "c1": 3e-12,
        "c2": 0.6e-12,
        "r1": 2e3,
    }
    evaluation = benchmark(problem.evaluate, values)
    assert "jitter_max" in evaluation.metrics
