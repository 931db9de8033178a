"""Tests for the optimisation stages, yield analysis, verification and flow.

All runs use reduced budgets so the whole file executes in tens of seconds,
but every stage of the paper's figure-4 flow is exercised end to end.
"""

import numpy as np
import pytest

from repro.core.circuit_stage import CircuitLevelOptimisation, VcoSizingProblem
from repro.core.flow import HierarchicalFlow
from repro.core.system_stage import PllSystemProblem, SystemLevelOptimisation
from repro.core.verification import BottomUpVerification
from repro.core.yield_analysis import YieldAnalysis
from repro.optim import NSGA2Config


# -- circuit-level problem / stage --------------------------------------------------------


def test_vco_sizing_problem_structure(analytical_evaluator):
    problem = VcoSizingProblem(analytical_evaluator)
    assert problem.n_parameters == 7
    assert problem.n_objectives == 5
    assert set(problem.objective_names) == {"jitter", "current", "kvco", "fmin", "fmax"}
    assert problem.constraint_names == ["range_fmin", "range_fmax"]


def test_vco_sizing_problem_evaluation(analytical_evaluator):
    problem = VcoSizingProblem(analytical_evaluator)
    values = {
        name: 0.5 * (p.lower + p.upper)
        for name, p in zip(problem.parameter_names, problem.parameters)
    }
    evaluation = problem.evaluate(values)
    assert evaluation.objectives["fmax"] > evaluation.objectives["fmin"]
    assert evaluation.objectives["current"] > 0.0
    assert set(evaluation.constraints) == {"range_fmin", "range_fmax"}


def test_circuit_stage_produces_model(circuit_stage_result):
    assert circuit_stage_result.front_size >= 3
    assert circuit_stage_result.evaluations > 0
    model = circuit_stage_result.model
    assert model.n_points >= 3
    assert model.n_points <= 10  # max_model_points honoured
    assert len(circuit_stage_result.designs) == circuit_stage_result.front_size


def test_circuit_stage_pareto_covers_paper_current_range(circuit_stage_result):
    """The Pareto front spans a few mA, like Table 1 (2.68 - 8.62 mA)."""
    ivco_lo, ivco_hi = circuit_stage_result.model.ivco_range()
    assert ivco_lo < 8e-3
    assert ivco_hi > ivco_lo


def test_circuit_stage_empty_front_raises(analytical_evaluator, technology):
    stage = CircuitLevelOptimisation(evaluator=analytical_evaluator, technology=technology)

    class FakeResult:
        front = type("F", (), {"non_dominated": lambda self: [], "__len__": lambda self: 0})()

    with pytest.raises((ValueError, AttributeError)):
        stage.build_model(FakeResult())


# -- system-level problem / stage ------------------------------------------------------------


def test_pll_system_problem_structure(combined_model):
    problem = PllSystemProblem(combined_model)
    assert problem.parameter_names == ["kvco", "ivco", "c1", "c2", "r1"]
    assert problem.objective_names == ["lock_time", "jitter", "current"]
    assert "spec_lock_time" in problem.constraint_names
    assert "realisable" in problem.constraint_names
    kvco_param = problem.parameters[0]
    assert kvco_param.lower == pytest.approx(combined_model.kvco_range()[0])


def test_pll_system_problem_evaluation_carries_variants(combined_model):
    problem = PllSystemProblem(combined_model, simulation_time=2e-6)
    point = combined_model.performance.point(0)
    values = {
        "kvco": point["kvco"],
        "ivco": point["current"],
        "c1": 3e-12,
        "c2": 0.6e-12,
        "r1": 2e3,
    }
    evaluation = problem.evaluate(values)
    assert evaluation.objectives["current"] > 10e-3  # includes the 10 mA peripherals
    assert "jitter_min" in evaluation.metrics
    assert "jitter_max" in evaluation.metrics
    assert evaluation.metrics["jitter_min"] <= evaluation.metrics["jitter_max"]
    assert "kvco_min" in evaluation.metrics
    # At a stored Pareto point the realisability constraint is satisfied.
    assert evaluation.constraints["realisable"] >= 0.0


def test_system_stage_selects_solution(combined_model):
    stage = SystemLevelOptimisation(
        combined_model,
        config=NSGA2Config(population_size=8, generations=3, seed=7),
        simulation_time=2e-6,
    )
    result = stage.run()
    assert result.front_size >= 1
    assert result.selected is not None
    assert set(result.selected_values) == {"kvco", "ivco", "c1", "c2", "r1"}
    rows = result.table2_records(max_rows=3)
    assert rows
    expected_columns = {
        "kv_mhz_per_v", "iv_ma", "c1_pf", "lock_time_us", "jitter_ps", "current_ma"
    }
    assert expected_columns <= set(rows[0])
    assert rows[0]["kv_min_mhz_per_v"] <= rows[0]["kv_mhz_per_v"] <= rows[0]["kv_max_mhz_per_v"]


# -- yield analysis ----------------------------------------------------------------------------


def test_yield_analysis_on_feasible_point(combined_model, analytical_evaluator):
    # Use a stored Pareto point with low current so the specs can be met.
    model = combined_model
    currents = model.performance.performance_column("current")
    index = int(np.argmin(currents))
    point = model.performance.point(index)
    selected = {
        "kvco": point["kvco"],
        "ivco": point["current"],
        "c1": 3e-12,
        "c2": 0.6e-12,
        "r1": 2e3,
    }
    analysis = YieldAnalysis(
        model, evaluator=analytical_evaluator, n_samples=25, seed=3, simulation_time=2e-6
    )
    report = analysis.run(selected)
    assert report.n_samples == 25
    assert 0.0 <= report.yield_fraction <= 1.0
    assert report.yield_percent == pytest.approx(100.0 * report.yield_fraction)
    assert len(report.system_samples) == 25
    assert isinstance(report.spread_summary(), dict)
    # Violations bookkeeping is consistent with the yield number.
    if report.yield_fraction == 1.0:
        assert not report.violations
    else:
        assert report.violations


def test_yield_analysis_validation(combined_model):
    with pytest.raises(ValueError):
        YieldAnalysis(combined_model, n_samples=0)


# -- bottom-up verification ----------------------------------------------------------------------


def test_bottom_up_verification_against_analytical_reference(combined_model, analytical_evaluator):
    # Using the same evaluator as reference, the model error is purely the
    # interpolation error and must be small at stored Pareto points.
    verifier = BottomUpVerification(combined_model, reference_evaluator=analytical_evaluator)
    report = verifier.verify_model_points(max_points=2)
    assert report.n_points == 2
    assert report.worst_error() < 0.35
    summary = report.summary()
    assert summary["n_points"] == 2.0
    assert 0.0 <= summary["mean_error_kvco"] < 0.35


def test_bottom_up_verification_single_point(combined_model, analytical_evaluator):
    point = combined_model.performance.point(0)
    verifier = BottomUpVerification(combined_model, reference_evaluator=analytical_evaluator)
    result = verifier.verify_point(point["kvco"], point["current"])
    errors = result.relative_errors()
    assert set(errors) == {"kvco", "jitter", "current", "fmin", "fmax"}
    assert errors["current"] < 0.3


def test_flow_spice_evaluator_carries_engine_knobs(technology):
    from repro.experiments.config import ScenarioConfig

    flow = HierarchicalFlow(technology=technology, spice_engine="lanes", n_workers=3)
    evaluator = flow.spice_evaluator()
    assert evaluator.engine == "lanes"
    assert evaluator.n_workers == 3
    assert evaluator.n_stages == flow.n_stages
    assert evaluator.technology is technology

    scenario = ScenarioConfig(name="engine-knob", spice_engine="lanes")
    assert HierarchicalFlow.from_scenario(scenario).spice_engine == "lanes"

    with pytest.raises(ValueError):
        HierarchicalFlow(spice_engine="spectre")


# -- full flow -------------------------------------------------------------------------------------


def test_hierarchical_flow_end_to_end(tmp_path, analytical_evaluator, technology):
    flow = HierarchicalFlow(
        technology=technology,
        evaluator=analytical_evaluator,
        circuit_config=NSGA2Config(population_size=16, generations=4, seed=21),
        system_config=NSGA2Config(population_size=8, generations=2, seed=21),
        mc_samples_per_point=8,
        yield_samples=20,
        max_model_points=8,
    )
    report = flow.run(output_directory=str(tmp_path), run_yield=True, run_verification=True)
    summary = report.summary()
    assert summary["circuit_front_size"] >= 1
    assert summary["system_front_size"] >= 1
    assert "yield_percent" in summary
    assert 0.0 <= summary["yield_percent"] <= 100.0
    assert report.verification is not None
    assert report.model_directory is not None
    assert "pareto.tbl" in report.generated_files
    assert any(name.endswith(".va") for name in report.generated_files)
    assert set(report.selected_values) == {"kvco", "ivco", "c1", "c2", "r1"}
