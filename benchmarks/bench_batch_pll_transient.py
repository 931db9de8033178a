"""Lane-parallel PLL transient benchmark -- one call per design vs one batch.

The system stage of the paper's flow (section 4.5) evaluates the
behavioural charge-pump PLL thousands of times inside NSGA-II and the
yield verification.  The lane engine of :mod:`repro.behavioural.pll` is
the only cycle loop, and a single loop (``BehaviouralPll.evaluate``,
``simulate``) is a batch of one.  This benchmark pits one call per design
(``evaluate_all_variants``, a three-lane batch) against one batch of the
whole population and checks the two properties the ``vectorised``
backend relies on:

* **equivalence** -- every lane of the population batch is a bit-exact
  replica of the same loop run on its own (trajectories, lock times,
  jitter and current, with and without seeded jitter injection, including
  lanes that never lock), and
* **speed** -- the population batch is at least 5x faster than one call
  per design on a Table-2-sized population.

The recorded ``speedup_*`` ratios feed the CI regression gate in
``.github/scripts/merge_benchmarks.py``.
"""

import time

import numpy as np

from benchmarks.conftest import print_header
from repro.behavioural import BehaviouralPll, BehaviouralVco, PllDesign
from repro.behavioural.vco import VARIANTS

#: Lanes per batch: a Table-2-scale population (paper: 40 individuals,
#: each evaluated for the nominal, min and max variants -> 120 lanes).
N_LANES = 40
SIM_TIME = 3e-6


def build_population(n=N_LANES, seed=42, unlockable_every=8):
    """Random candidate lanes, a few of which can never reach lock."""
    rng = np.random.default_rng(seed)
    plls = []
    for index in range(n):
        design = PllDesign(
            c1=float(rng.uniform(1e-12, 6e-12)),
            c2=float(rng.uniform(0.2e-12, 3e-12)),
            r1=float(rng.uniform(0.5e3, 5e3)),
        )
        unlockable = unlockable_every and index % unlockable_every == 0
        vco = BehaviouralVco(
            kvco=float(rng.uniform(0.5e9, 2e9)),
            ivco=float(rng.uniform(1e-3, 6e-3)),
            jvco=float(rng.uniform(1e-12, 8e-12)),
            fmin=float(rng.uniform(0.6e9, 0.8e9)),
            fmax=0.9e9 if unlockable else float(rng.uniform(1.1e9, 1.4e9)),
        )
        plls.append(BehaviouralPll(vco, design))
    return plls


def _best_of(function, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_batch_transient_bit_identical_with_5x_speedup(benchmark):
    """Bit-exact lanes, >= 5x over one call per design."""
    plls = build_population()

    def serial():
        return [pll.evaluate_all_variants(max_time=SIM_TIME) for pll in plls]

    def batched():
        return BehaviouralPll.evaluate_all_variants_batch(plls, max_time=SIM_TIME)

    serial_result, serial_time = _best_of(serial, repeats=2)
    batch_result, batch_time = _best_of(batched, repeats=3)
    speedup = serial_time / batch_time
    print_header(
        f"Lane-parallel PLL transient: {N_LANES} designs x {len(VARIANTS)} variants "
        f"({N_LANES * len(VARIANTS)} lanes)"
    )
    # One evaluate_all_variants call per design is a 3-lane batch.
    serial_label = f"{N_LANES} x {len(VARIANTS)}"
    batch_label = f"1 x {N_LANES * len(VARIANTS)}"
    print(f"{'calls x lanes':>14} {'time [ms]':>10}")
    print(f"{serial_label:>14} {serial_time * 1e3:10.2f}")
    print(f"{batch_label:>14} {batch_time * 1e3:10.2f}")
    print(f"speedup: {speedup:.2f}x")
    locked = 0
    for scalar_map, batch_map in zip(serial_result, batch_result):
        for variant in VARIANTS:
            a, b = scalar_map[variant], batch_map[variant]
            assert (a.lock_time, a.jitter, a.current, a.locked, a.final_frequency) == (
                b.lock_time, b.jitter, b.current, b.locked, b.final_frequency
            )
        locked += int(batch_map["nominal"].locked)
    # The population genuinely mixes locking and never-locking lanes.
    assert 0 < locked < len(plls)
    assert speedup >= 5.0, f"lane-parallel speedup {speedup:.2f}x is below the 5x target"
    benchmark.extra_info["speedup_batch_transient_vs_scalar"] = speedup
    benchmark(batched)


def test_batch_transient_trajectories_bit_identical():
    """Full trajectory equality of each lane and its one-lane run, jitter-free
    and seeded."""
    plls = build_population(n=12)
    for seed in (None, 2009):
        for variant in VARIANTS:
            batch = BehaviouralPll.simulate_batch(
                plls, variant=variant, max_time=SIM_TIME, seed=seed
            )
            for index, pll in enumerate(plls):
                scalar = pll.simulate(variant=variant, max_time=SIM_TIME, seed=seed)
                assert np.array_equal(batch.time, scalar.time)
                assert np.array_equal(batch.control_voltage[index], scalar.control_voltage)
                assert np.array_equal(batch.frequency[index], scalar.frequency)
                assert np.array_equal(batch.phase_error[index], scalar.phase_error)


def test_seeded_jitter_consumes_identical_rng_stream(benchmark):
    """Every lane of a seeded batch consumes the same noise stream as its
    one-lane run."""
    plls = build_population(n=16, unlockable_every=0)

    def batched():
        return BehaviouralPll.evaluate_batch(plls, max_time=SIM_TIME, seed=2009)

    batch_result = batched()
    for pll, performance in zip(plls, batch_result):
        scalar = pll.evaluate(max_time=SIM_TIME, seed=2009)
        assert scalar.lock_time == performance.lock_time
        assert scalar.final_frequency == performance.final_frequency
    benchmark(batched)
