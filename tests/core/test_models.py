"""Tests for the performance, variation and combined models plus data files.

These tests use the session-scoped ``circuit_stage_result`` fixture (a
reduced but genuine circuit-level optimisation + Monte Carlo run) so they
exercise the real extraction path of the paper's flow.
"""

import os

import numpy as np
import pytest

from repro.behavioural.vco import BehaviouralVco
from repro.circuits.ring_vco import VcoDesign
from repro.core.codegen import generate_listing1, generate_listing2, write_verilog_a
from repro.core.datafile import read_model_directory, write_model_directory
from repro.core.performance_model import PerformanceModel
from repro.core.flow import HierarchicalFlow
from repro.core.variation_model import VariationModel, VariationModelError
from repro.experiments.registry import get_scenario
from repro.tablemodel.spline import InterpolationError


# -- performance model -------------------------------------------------------------------


def test_performance_model_built_from_front(combined_model):
    model = combined_model.performance
    assert model.n_points >= 3
    assert set(model.performance_names) == {"kvco", "jitter", "current", "fmin", "fmax"}
    assert len(model.parameter_names) == 7


def test_performance_model_ranges_are_physical(combined_model):
    kvco_lo, kvco_hi = combined_model.kvco_range()
    ivco_lo, ivco_hi = combined_model.ivco_range()
    assert 0.0 < kvco_lo <= kvco_hi
    assert 0.0 < ivco_lo <= ivco_hi


def test_performance_model_interpolation_at_stored_point(combined_model):
    model = combined_model.performance
    point = model.point(0)
    interpolated = model.interpolate(point["kvco"], point["current"])
    assert interpolated["jitter"] == pytest.approx(point["jitter"], rel=0.05)
    assert interpolated["fmax"] == pytest.approx(point["fmax"], rel=0.05)
    assert interpolated["jvco"] == interpolated["jitter"]


def test_performance_model_design_lookup_at_stored_point(combined_model):
    model = combined_model.performance
    point = model.point(0)
    design = model.design_parameters_for(point["kvco"], point["current"])
    assert isinstance(design, VcoDesign)
    assert design.nmos_width == pytest.approx(point["nmos_width"], rel=0.05)


def test_performance_model_consistency_distance(combined_model):
    model = combined_model.performance
    point = model.point(0)
    distance = model.consistency_distance(point["kvco"], point["current"])
    assert distance == pytest.approx(0.0, abs=1e-9)
    far = model.consistency_distance(point["kvco"] * 10.0, point["current"] * 10.0)
    assert far > 1.0


def test_performance_model_nearest_point_and_records(combined_model):
    model = combined_model.performance
    point = model.point(1)
    nearest = model.nearest_point(point["kvco"], point["current"])
    assert nearest["kvco"] == pytest.approx(point["kvco"])
    records = model.records()
    assert len(records) == model.n_points
    assert len(model.performance_records()) == model.n_points


def test_performance_model_validation():
    with pytest.raises(ValueError):
        PerformanceModel(np.zeros((0, 2)), np.zeros((0, 5)), ["a", "b"])
    with pytest.raises(ValueError):
        PerformanceModel(np.zeros((2, 2)), np.zeros((3, 5)), ["a", "b"])
    with pytest.raises(ValueError):
        PerformanceModel(np.zeros((2, 2)), np.zeros((2, 5)), ["a"])


# -- variation model ----------------------------------------------------------------------


def test_variation_model_spreads_are_positive(combined_model):
    variation = combined_model.variation
    for name in ("kvco", "jitter", "current", "fmin", "fmax"):
        column = variation.spread_column(name)
        assert np.all(column >= 0.0)
    assert variation.n_points == combined_model.performance.n_points


def test_variation_model_shape_matches_paper(combined_model):
    """Jitter spread dominates the current and gain spreads (Table 1)."""
    variation = combined_model.variation
    jitter_spread = np.median(variation.spread_column("jitter"))
    current_spread = np.median(variation.spread_column("current"))
    assert jitter_spread > current_spread


def test_variation_model_interpolated_spread_is_non_negative(combined_model):
    variation = combined_model.variation
    kvco_values = variation.nominal_column("kvco")
    grid = np.linspace(kvco_values.min(), kvco_values.max(), 17)
    for value in grid:
        assert variation.spread("kvco", float(value)) >= 0.0


def test_variation_model_alias_names(combined_model):
    variation = combined_model.variation
    value = float(variation.nominal_column("jitter")[0])
    assert variation.spread("jvco", value) == variation.spread("jitter", value)
    with pytest.raises(KeyError):
        variation.spread("unknown", 1.0)


def test_variation_model_records(combined_model):
    records = combined_model.variation.records()
    assert len(records) == combined_model.n_points
    assert "jitter_delta_pct" in records[0]


def test_variation_model_validation():
    with pytest.raises(ValueError):
        VariationModel(np.zeros((2, 5)), np.zeros((3, 5)))
    with pytest.raises(ValueError):
        VariationModel(np.zeros((0, 5)), np.zeros((0, 5)))
    with pytest.raises(ValueError):
        VariationModel(np.zeros((2, 5)), np.zeros((2, 5)), performance_names=["a"])


def test_variation_model_names_the_degenerate_performance_and_front_size():
    nominal = np.array([[2.0, 1.0, 3.0, 4.0, 5.0], [2.0, 2.0, 4.0, 5.0, 6.0]])
    with pytest.raises(VariationModelError, match=r"'kvco' spread over a Pareto front of 2 point"):
        VariationModel(nominal=nominal, spreads_percent=np.ones_like(nominal))
    assert issubclass(VariationModelError, InterpolationError)


@pytest.mark.parametrize("seed", [10169, 10393, 10589])
def test_degenerate_fast_smoke_fronts_raise_the_typed_model_build_error(seed):
    """These fast-smoke seeds end NSGA-II on a front whose points share one
    nominal KVCO; the model build says so instead of a bare spline error."""
    flow = HierarchicalFlow.from_scenario(get_scenario("fast-smoke").with_overrides(seed=seed))
    with pytest.raises(
        VariationModelError,
        match=r"cannot tabulate the '\w+' spread over a Pareto front of \d+ point",
    ):
        flow.circuit_stage()


def test_variation_model_as_variation_tables(combined_model):
    tables = combined_model.variation.as_variation_tables()
    kvco = float(combined_model.variation.nominal_column("kvco")[0])
    assert tables.kvco_delta(kvco) >= 0.0
    assert tables.jvco_delta(1e-13) >= 0.0


# -- combined model ------------------------------------------------------------------------


def test_combined_model_point_count_consistency(combined_model):
    assert combined_model.n_points == combined_model.performance.n_points
    summary = combined_model.describe()
    assert summary["n_points"] == combined_model.n_points


def test_combined_model_behavioural_vco_factory(combined_model):
    kvco_lo, kvco_hi = combined_model.kvco_range()
    ivco_lo, ivco_hi = combined_model.ivco_range()
    vco = combined_model.behavioural_vco(0.5 * (kvco_lo + kvco_hi), 0.5 * (ivco_lo + ivco_hi))
    assert isinstance(vco, BehaviouralVco)
    assert vco.fmax > vco.fmin
    assert vco.period_jitter("max") >= vco.period_jitter("min")


def test_combined_model_table1_records(combined_model):
    rows = combined_model.table1_records(max_rows=4)
    assert 0 < len(rows) <= 4
    first = rows[0]
    assert set(first) == {
        "design",
        "kvco_mhz_per_v",
        "kvco_delta_pct",
        "jvco_ps",
        "jvco_delta_pct",
        "ivco_ma",
        "ivco_delta_pct",
    }
    # Units follow the paper's Table 1 (MHz/V, ps, mA).
    assert first["kvco_mhz_per_v"] > 1.0
    assert first["ivco_ma"] < 100.0
    # Rows are sorted by ascending gain.
    gains = [row["kvco_mhz_per_v"] for row in rows]
    assert gains == sorted(gains)


def test_combined_model_mismatched_points_raise(combined_model):
    from repro.core.combined_model import CombinedPerformanceVariationModel

    variation = combined_model.variation
    truncated = VariationModel(
        variation.nominal[:-1], variation.spreads_percent[:-1], variation.performance_names
    )
    with pytest.raises(ValueError):
        CombinedPerformanceVariationModel(combined_model.performance, truncated)


# -- data files -----------------------------------------------------------------------------


def test_model_directory_round_trip(combined_model, tmp_path):
    directory = str(tmp_path / "vco_model")
    written = write_model_directory(combined_model, directory)
    assert "pareto.tbl" in written
    assert "spreads.tbl" in written
    assert "kvco_delta.tbl" in written
    assert "p7_data.tbl" in written
    assert os.path.exists(os.path.join(directory, "manifest.txt"))
    reloaded = read_model_directory(directory)
    assert reloaded.n_points == combined_model.n_points
    assert reloaded.kvco_range()[0] == pytest.approx(combined_model.kvco_range()[0], rel=1e-6)
    point = combined_model.performance.point(0)
    original = combined_model.interpolate(point["kvco"], point["current"])
    restored = reloaded.interpolate(point["kvco"], point["current"])
    assert restored["jitter"] == pytest.approx(original["jitter"], rel=1e-6)


def test_read_model_directory_requires_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_model_directory(str(tmp_path))


# -- Verilog-A code generation ----------------------------------------------------------------


def test_generate_listing1_contains_table_models(combined_model):
    code = generate_listing1(combined_model)
    assert "$table_model" in code
    assert "kvco_delta.tbl" in code
    assert '"3E"' in code
    assert "p7_data.tbl" in code
    assert "module" in code and "endmodule" in code
    assert "$fopen" in code  # params.dat write block of Listing 1


def test_generate_listing2_matches_paper_structure(combined_model):
    code = generate_listing2(combined_model, divide_ratio=24)
    assert "module vco(out, outmin, outmax, in);" in code
    assert "kvco_min = kvco - ((kvco_delta/100)*kvco);" in code
    assert "sqrt(2 * ratio)" in code
    assert "$rdist_normal" in code
    assert "transition(" in code


def test_write_verilog_a_files(combined_model, tmp_path):
    files = write_verilog_a(combined_model, str(tmp_path))
    assert len(files) == 2
    for name in files:
        path = tmp_path / name
        assert path.exists()
        assert path.read_text().startswith("//")
