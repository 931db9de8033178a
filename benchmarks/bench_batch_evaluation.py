"""Batch-evaluation engine benchmark -- serial vs vectorised.

The paper's circuit-level stage spends its runtime in 3,000 VCO
evaluations (100 individuals x 30 generations, section 4.2) and the
per-Pareto-point Monte Carlo analyses (section 3.3).  This benchmark runs
the paper-scale NSGA-II sizing run on both batch-evaluation backends of
:mod:`repro.optim.evaluation` (the serial one evaluates each design as a
batch of one) and the Monte Carlo engine on both its per-sample and batch
path, checking two properties:

* **equivalence** -- both backends consume the same seeded RNG stream and
  every element of a kernel batch is computed independently, so both must
  produce the *identical* Pareto front / sample set, and
* **speed** -- the vectorised backend must be at least 3x faster than the
  serial backend on the full 100 x 30 run.

It also records, ungated, the NSGA-II survival sort of a 200-individual
merge (parents plus offspring at the paper's population size) and the
``table2`` scenario's circuit stage, the paper-scale run that sort serves.
"""

import time

import numpy as np

from benchmarks.conftest import print_header
from repro.circuits import RingVcoAnalyticalEvaluator, VcoDesign, vco_device_geometries
from repro.core.circuit_stage import VcoSizingProblem
from repro.core.flow import HierarchicalFlow
from repro.experiments.registry import get_scenario
from repro.optim import NSGA2, NSGA2Config
from repro.optim.evaluation import create_evaluator
from repro.optim.individual import parameters_matrix
from repro.optim.sorting import fast_non_dominated_sort
from repro.process import TECH_012UM
from repro.process.montecarlo import MonteCarloEngine

#: The paper's circuit-level budget (section 4.2).
PAPER_POPULATION = 100
PAPER_GENERATIONS = 30


def _paper_run(evaluator_name: str, seed: int = 2009, repeats: int = 1):
    """Paper-scale NSGA-II sizing runs on the named backend (best-of timing).

    Comparing the *minimum* of a few runs keeps the speedup assertion
    robust on noisy shared CI runners: a one-off stall inflates a single
    measurement but rarely all of them.
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        problem = VcoSizingProblem(RingVcoAnalyticalEvaluator(TECH_012UM))
        config = NSGA2Config(
            population_size=PAPER_POPULATION,
            generations=PAPER_GENERATIONS,
            seed=seed,
            evaluator=evaluator_name,
        )
        start = time.perf_counter()
        result = NSGA2(problem, config).run()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_vectorised_matches_serial_with_3x_speedup(benchmark):
    """The tentpole claim: identical fronts, >= 3x faster on the 100x30 run."""
    serial_result, serial_time = _paper_run("serial", repeats=2)
    vectorised_result, vectorised_time = _paper_run("vectorised", repeats=3)
    speedup = serial_time / vectorised_time
    print_header(
        f"Batch evaluation: paper-scale NSGA-II run "
        f"({PAPER_POPULATION} x {PAPER_GENERATIONS}, "
        f"{serial_result.evaluations} evaluations)"
    )
    print(f"{'backend':>12} {'time [s]':>10} {'front':>6}")
    print(f"{'serial':>12} {serial_time:10.3f} {len(serial_result.front):6d}")
    print(f"{'vectorised':>12} {vectorised_time:10.3f} {len(vectorised_result.front):6d}")
    print(f"speedup: {speedup:.2f}x")
    # Bit-identical Pareto fronts: same objectives AND same parameters.
    assert np.array_equal(
        serial_result.front.objectives, vectorised_result.front.objectives
    )
    assert np.array_equal(
        parameters_matrix(list(serial_result.front)),
        parameters_matrix(list(vectorised_result.front)),
    )
    assert serial_result.evaluations == vectorised_result.evaluations
    assert speedup >= 3.0, f"vectorised speedup {speedup:.2f}x is below the 3x target"
    # Record the vectorised run for the pytest-benchmark report; the ratio
    # feeds the CI regression gate in merge_benchmarks.py.
    benchmark.extra_info["speedup_circuit_vectorised_vs_serial"] = speedup
    benchmark(lambda: _paper_run("vectorised")[0])


def test_monte_carlo_batch_matches_serial(benchmark):
    """MC batch path: identical samples, evaluated as one array call."""
    evaluator = RingVcoAnalyticalEvaluator(TECH_012UM)
    design = VcoDesign()
    devices = vco_device_geometries(design)
    engine = MonteCarloEngine(TECH_012UM, n_samples=200, seed=2009)
    # Best-of timings: the recorded ratio feeds the hard CI gate, so a
    # one-off stall on a shared runner must not register as a regression.
    serial, serial_time = None, float("inf")
    for _ in range(2):
        start = time.perf_counter()
        serial = engine.run(evaluator.monte_carlo_evaluator(design), devices=devices)
        serial_time = min(serial_time, time.perf_counter() - start)
    batch, batch_time = None, float("inf")
    for _ in range(3):
        start = time.perf_counter()
        batch = engine.run_batch(
            evaluator.monte_carlo_batch_evaluator(design), devices=devices
        )
        batch_time = min(batch_time, time.perf_counter() - start)
    print_header("Batch evaluation: Monte Carlo engine (200 samples)")
    print(f"serial {serial_time:.3f}s  batch {batch_time:.3f}s  "
          f"speedup {serial_time / batch_time:.2f}x")
    assert serial.performances == batch.performances
    assert serial.nominal == batch.nominal
    benchmark.extra_info["speedup_mc_batch_vs_serial"] = serial_time / batch_time
    benchmark(
        lambda: engine.run_batch(
            evaluator.monte_carlo_batch_evaluator(design), devices=devices
        )
    )


def _best_of(function, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def test_nsga2_survival_sort_and_table2_circuit_stage(benchmark, evaluator):
    """Time the survival sort of a 2 x 100 merge and the table2 circuit stage."""
    problem = VcoSizingProblem(evaluator)
    rng = np.random.default_rng(2009)
    merged = create_evaluator("vectorised").evaluate(
        problem, [problem.sample(rng) for _ in range(2 * PAPER_POPULATION)]
    )
    sort_time = _best_of(lambda: fast_non_dominated_sort(merged), repeats=20)
    stage_time = _best_of(
        lambda: HierarchicalFlow.from_scenario(get_scenario("table2")).circuit_stage(),
        repeats=3,
    )
    print_header("NSGA-II survival bookkeeping (best-of timings)")
    print(f"fast_non_dominated_sort, n = {len(merged)}: {sort_time * 1e3:.2f} ms")
    print(f"table2 circuit stage ({PAPER_POPULATION} x {PAPER_GENERATIONS}): {stage_time:.3f} s")
    benchmark.extra_info["nsga2_sort_seconds_n200"] = sort_time
    benchmark.extra_info["table2_circuit_stage_seconds"] = stage_time
    benchmark(fast_non_dominated_sort, merged)


def test_vectorised_kernel_single_batch(benchmark, evaluator):
    """Time one vectorised batch of the paper's population size."""
    rng = np.random.default_rng(1)
    designs = [
        VcoDesign(
            nmos_width=rng.uniform(10e-6, 100e-6),
            pmos_width=rng.uniform(10e-6, 100e-6),
            tail_nmos_width=rng.uniform(10e-6, 100e-6),
            tail_pmos_width=rng.uniform(10e-6, 100e-6),
            nmos_length=rng.uniform(0.12e-6, 1e-6),
            pmos_length=rng.uniform(0.12e-6, 1e-6),
            tail_length=rng.uniform(0.12e-6, 1e-6),
        )
        for _ in range(PAPER_POPULATION)
    ]
    performances = benchmark(evaluator.evaluate_batch, designs)
    assert len(performances) == PAPER_POPULATION
    assert all(p.fmax > 0.0 for p in performances)
