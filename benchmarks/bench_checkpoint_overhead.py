"""Generation-checkpoint overhead: the per-generation circuit partial
must cost < 5 % of a ``fast-smoke`` run.

Checkpointing buys generation-granular cancel/resume for the paper's
100x30 circuit run (its dominant compute); this benchmark keeps the
price honest.  The gated metric is composed from two independently
stable measurements -- the real cost of one generation-state store
(atomic pickle write through the cache entry, min over many rounds)
times the number of stores a run performs, over the run's wall clock --
because a direct wall-clock A/B diff of two ~200 ms runs is dominated
by scheduler noise on shared CI machines.

The min store time alone can hide a slow write path: a store that
escapes a filesystem flush is rare but wins the min.  So the A/B runs
carry a second, coarse gate -- the best checkpointed run may take at
most ``MAX_AB_RATIO`` times the best plain run -- and the median store
time is reported next to the min.

The two variants must also stay bit-identical: checkpointing persists
state, it never perturbs it.
"""

from __future__ import annotations

import statistics
import time

from benchmarks.conftest import print_header
from repro.experiments.cache import CacheEntry
from repro.experiments.registry import get_scenario
from repro.experiments.runner import ExperimentRunner, _StagePartial

from tests.experiments.test_runner import assert_bit_identical

#: Best-of rounds per timed quantity (min: robust against CI noise).
ROUNDS = 5

#: Hard gate on the relative cost of per-generation checkpointing.
MAX_OVERHEAD_PERCENT = 5.0

#: Hard gate on best checkpointed run / best plain run (wall clock).
MAX_AB_RATIO = 1.5


def _run(scenario, cache_dir, checkpointed: bool):
    runner = ExperimentRunner(
        scenario,
        cache_dir=cache_dir,
        circuit_checkpoint=checkpointed,
        yield_batch_size=64 if checkpointed else None,
    )
    started = time.perf_counter()
    result = runner.run()
    return time.perf_counter() - started, result


def test_generation_checkpoint_overhead(benchmark, tmp_path):
    scenario = get_scenario("fast-smoke")
    times = {True: [], False: []}
    results = {}
    for checkpointed in (False, True):  # warm caches untimed
        _run(scenario, tmp_path / f"warmup-{checkpointed}", checkpointed)
    for round_index in range(ROUNDS):
        # Alternate the order so drift (thermal, page cache) cancels out.
        for checkpointed in ((True, False) if round_index % 2 else (False, True)):
            cache_dir = tmp_path / f"{'ckpt' if checkpointed else 'plain'}-{round_index}"
            seconds, result = _run(scenario, cache_dir, checkpointed)
            times[checkpointed].append(seconds)
            results[checkpointed] = result

    # Checkpointing must not change a single bit of the results.
    assert_bit_identical(results[False], results[True])

    # The real per-store cost, measured against the *final* (largest)
    # generation state an actual run produces: full population plus the
    # complete history, through the real atomic cache-entry write.
    entry = CacheEntry(tmp_path / "micro")
    partial = _StagePartial(entry, "circuit")
    optimisation = results[True].report.circuit_stage.optimisation
    state = {
        "fingerprint": {"problem": "vco_sizing", "config": scenario.as_dict()},
        "generation": scenario.circuit_generations,
        "population": optimisation.population,
        "rng_state": {"bit_generator": "PCG64", "state": 0},
        "evaluations": optimisation.evaluations,
        "history": optimisation.history,
    }
    store_times = []
    for _ in range(40):
        started = time.perf_counter()
        partial.store(state)
        store_times.append(time.perf_counter() - started)

    best_plain = min(times[False])
    best_ckpt = min(times[True])
    stores_per_run = scenario.circuit_generations + 1  # initial pop + per generation
    store_seconds = min(store_times)
    median_store_seconds = statistics.median(store_times)
    overhead_percent = 100.0 * stores_per_run * store_seconds / best_plain
    ab_ratio = best_ckpt / best_plain
    ab_diff_percent = 100.0 * (ab_ratio - 1.0)

    print_header("Per-generation checkpoint overhead on fast-smoke")
    print(f"run without checkpoints : {best_plain * 1e3:9.2f} ms (best of {ROUNDS})")
    print(f"run with checkpoints    : {best_ckpt * 1e3:9.2f} ms (best of {ROUNDS})")
    print(f"one generation store    : {store_seconds * 1e3:9.3f} ms (largest state, min)")
    print(f"                          {median_store_seconds * 1e3:9.3f} ms (median)")
    print(
        f"overhead ({stores_per_run} stores/run) : {overhead_percent:9.2f} %  "
        f"(gate: < {MAX_OVERHEAD_PERCENT} %)"
    )
    print(f"raw A/B wall-clock diff : {ab_diff_percent:9.2f} %  (gate: <= {MAX_AB_RATIO}x)")

    assert overhead_percent < MAX_OVERHEAD_PERCENT, (
        f"generation checkpointing costs {overhead_percent:.2f} % on fast-smoke "
        f"(gate: {MAX_OVERHEAD_PERCENT} %)"
    )
    assert ab_ratio <= MAX_AB_RATIO, (
        f"fast-smoke with checkpoints takes {ab_ratio:.2f}x the plain run "
        f"(gate: {MAX_AB_RATIO}x)"
    )
    benchmark.extra_info["checkpoint_overhead_percent"] = overhead_percent
    benchmark.extra_info["checkpoint_store_ms"] = store_seconds * 1e3
    benchmark.extra_info["checkpoint_store_median_ms"] = median_store_seconds * 1e3
    benchmark.extra_info["checkpoint_ab_diff_percent"] = ab_diff_percent
    benchmark.extra_info["checkpoint_run_ms"] = best_ckpt * 1e3
    benchmark.extra_info["plain_run_ms"] = best_plain * 1e3

    # The timed body: one generation-state store+load round trip (the
    # write the runner pays once per NSGA-II generation plus the read a
    # resume pays once).
    def checkpoint_roundtrip():
        partial.store(state)
        return partial.load()

    benchmark.pedantic(checkpoint_roundtrip, rounds=20, iterations=1, warmup_rounds=2)
