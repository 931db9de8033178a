"""The analytical kernel's softplus equals the per-element libm loop bit for bit.

``_softplus_overdrive`` computes the ratio, the branch masks and the final
products in numpy and maps ``math.exp`` / ``math.log1p`` over the selected
elements.  :func:`softplus_loop` is the per-element loop it replaced, kept
here as the oracle: the same libm calls on the same doubles, one element at
a time, in plain float arithmetic.
"""

import math

import numpy as np
import pytest

from repro.circuits.evaluators import _softplus_overdrive


def softplus_loop(vov, n_vt):
    """The smoothed overdrive, one element at a time (the scalar MOSFET rule)."""
    vov_b, nvt_b = np.broadcast_arrays(np.asarray(vov, float), np.asarray(n_vt, float))
    out = np.empty(vov_b.shape, dtype=float)
    flat = out.ravel()
    for index, (v, nvt) in enumerate(zip(vov_b.ravel().tolist(), nvt_b.ravel().tolist())):
        ratio = v / nvt
        if ratio > 40.0:
            flat[index] = v
        elif ratio < -40.0:
            flat[index] = nvt * math.exp(ratio)
        else:
            flat[index] = nvt * math.log1p(math.exp(ratio))
    return out


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert actual.view(np.int64).tolist() == expected.view(np.int64).tolist()


def _around(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


#: Overdrives whose ratio to ``n_vt = 1`` sits on, or one ulp either side
#: of, each branch edge; zero of both signs; and the non-finite values.
EDGE_OVERDRIVES = np.array(
    _around(40.0)
    + _around(-40.0)
    + [0.0, -0.0, 1.0, -1.0, 39.5, -39.5, 1e-300, -1e-300, 745.0, -745.0]
    + [np.inf, -np.inf, np.nan]
)


@pytest.mark.parametrize("n_vt", [1.0, 0.5, 0.0336, 2.0, np.inf, np.nan])
def test_edge_ratios_match_the_loop(n_vt):
    vov = EDGE_OVERDRIVES * (1.0 if not np.isfinite(n_vt) else n_vt)
    assert_same_bits(_softplus_overdrive(vov, n_vt), softplus_loop(vov, n_vt))


def test_nan_and_inf_inputs_match_the_loop():
    vov = np.array([np.nan, np.inf, -np.inf, 0.1, np.nan, np.inf])
    n_vt = np.array([0.03, 0.03, 0.03, np.nan, np.inf, np.inf])
    out = _softplus_overdrive(vov, n_vt)
    assert_same_bits(out, softplus_loop(vov, n_vt))
    # inf / inf is a NaN ratio, which takes the middle branch: NaN, not inf.
    assert math.isnan(out[0]) and out[1] == np.inf and out[2] == 0.0
    assert math.isnan(out[5])


def test_random_broadcast_stacks_match_the_loop():
    """The kernel's shapes: (vctrl, stage, role, batch) overdrives against a
    per-sample n_vt column, over every branch."""
    rng = np.random.default_rng(31)
    n_vt = rng.uniform(0.02, 0.06, 16)
    vov = rng.uniform(-3.0, 3.0, (2, 5, 2, 16))
    assert_same_bits(_softplus_overdrive(vov, n_vt), softplus_loop(vov, n_vt))
    assert_same_bits(_softplus_overdrive(0.25, 0.03), softplus_loop(0.25, 0.03))
