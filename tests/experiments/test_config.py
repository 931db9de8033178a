"""Scenario configuration: validation, serialisation and hash stability."""

import pickle

import pytest

from repro.core.specification import LOW_POWER_PLL_SPECIFICATIONS, specification_set
from repro.experiments.config import HASH_EXCLUDED_FIELDS, ScenarioConfig
from repro.experiments.registry import get_scenario, list_scenarios, scenario_names
from repro.process.technology import TECH_012UM


def make_scenario(**overrides):
    defaults = dict(name="unit", description="unit-test scenario")
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


# -- validation ---------------------------------------------------------------------------


def test_scenario_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        make_scenario(n_stages=4)  # even ring
    with pytest.raises(ValueError):
        make_scenario(n_stages=1)  # too short
    with pytest.raises(ValueError):
        make_scenario(circuit_population=0)
    with pytest.raises(ValueError):
        make_scenario(evaluation="warp-drive")
    with pytest.raises(ValueError):
        make_scenario(n_workers=0)
    with pytest.raises(ValueError):
        make_scenario(max_model_points=0)
    with pytest.raises(ValueError):
        make_scenario(spice_engine="spectre")
    with pytest.raises(ValueError):
        make_scenario(spice_engine="reference")
    with pytest.raises(ValueError):
        ScenarioConfig(name="")
    with pytest.raises(KeyError):
        make_scenario(technology="fantasy-node")
    with pytest.raises(KeyError):
        make_scenario(specifications="fantasy-specs")


def test_scenario_resolves_registry_keys():
    scenario = make_scenario(specifications="pll_low_power")
    assert scenario.resolve_technology() is TECH_012UM
    assert scenario.resolve_specifications() is LOW_POWER_PLL_SPECIFICATIONS
    assert specification_set("pll_low_power")["current"].upper == pytest.approx(12e-3)


def test_scenario_nsga2_configs_carry_seed_and_backend():
    scenario = make_scenario(seed=77, evaluation="vectorised", n_workers=3)
    circuit = scenario.circuit_nsga2_config()
    system = scenario.system_nsga2_config()
    assert circuit.seed == system.seed == 77
    assert circuit.evaluator == system.evaluator == "vectorised"
    assert circuit.population_size == scenario.circuit_population
    assert system.generations == scenario.system_generations


# -- serialisation ------------------------------------------------------------------------


def test_scenario_dict_round_trip():
    scenario = make_scenario(n_stages=7, seed=123, max_model_points=None)
    clone = ScenarioConfig.from_dict(scenario.as_dict())
    assert clone == scenario
    assert clone.config_hash() == scenario.config_hash()


def test_scenario_from_dict_rejects_unknown_fields():
    data = make_scenario().as_dict()
    data["spice_level"] = 3
    with pytest.raises(KeyError):
        ScenarioConfig.from_dict(data)


def test_with_overrides_revalidates():
    scenario = make_scenario()
    assert scenario.with_overrides(seed=1).seed == 1
    with pytest.raises(ValueError):
        scenario.with_overrides(n_stages=6)


# -- hashing ------------------------------------------------------------------------------


def test_config_hash_stable_across_pickling():
    scenario = make_scenario(n_stages=9, seed=31, circuit_population=24)
    restored = pickle.loads(pickle.dumps(scenario))
    assert restored == scenario
    assert restored.config_hash() == scenario.config_hash()


def test_config_hash_ignores_execution_details():
    base = make_scenario()
    assert base.config_hash() == base.with_overrides(evaluation="vectorised").config_hash()
    assert base.config_hash() == base.with_overrides(n_workers=4).config_hash()
    assert base.config_hash() == base.with_overrides(name="other").config_hash()
    assert base.config_hash() == base.with_overrides(run_verification=True).config_hash()
    for field_name in HASH_EXCLUDED_FIELDS:
        assert field_name not in base.hashed_fields()


def test_config_hash_tracks_result_determining_fields():
    base = make_scenario()
    changed = [
        base.with_overrides(seed=1),
        base.with_overrides(n_stages=7),
        base.with_overrides(circuit_population=42),
        base.with_overrides(system_generations=3),
        base.with_overrides(mc_samples_per_point=5),
        base.with_overrides(yield_samples=7),
        base.with_overrides(max_model_points=None),
        base.with_overrides(specifications="pll_low_power"),
    ]
    hashes = {scenario.config_hash() for scenario in changed}
    assert base.config_hash() not in hashes
    assert len(hashes) == len(changed)  # all distinct


# -- registry -----------------------------------------------------------------------------


def test_registry_ships_required_scenarios():
    names = scenario_names()
    assert "table2" in names
    assert "fast-smoke" in names
    assert "low-power" in names
    for n_stages in (3, 5, 7, 9):
        assert f"vco-sweep-{n_stages}" in names
    sweep = {get_scenario(f"vco-sweep-{n}").n_stages for n in (3, 5, 7, 9)}
    assert sweep == {3, 5, 7, 9}


def test_registry_table2_is_paper_scale():
    table2 = get_scenario("table2")
    assert (table2.circuit_population, table2.circuit_generations) == (100, 30)
    assert table2.mc_samples_per_point == 100
    assert table2.yield_samples == 500
    assert table2.seed == 2009


def test_registry_lookup_errors_list_names():
    with pytest.raises(KeyError, match="table2"):
        get_scenario("does-not-exist")
    assert all(scenario.name for scenario in list_scenarios())
