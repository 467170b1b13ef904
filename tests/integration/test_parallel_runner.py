"""Determinism of the parallel repetition engine and the RNG plumbing.

The contract under test: ``run_scenario(..., workers=N)`` produces
*bit-for-bit* the same series as the serial run for the same seed, which
in turn requires the random-stream factory to derive identical streams
in any process (stable label hashing).
"""

from __future__ import annotations

import os
import subprocess
import sys


from repro.experiments import run_figure, run_scenario
from repro.experiments.runner import _score_block
from repro.generators import ScenarioConfig, scenarios
from repro.generators.scenarios import clear_instance_cache, sample_instance
from repro.simulation.rng import RandomStreamFactory
from repro.workers import run_traced


def _small_scenario(**overrides) -> ScenarioConfig:
    defaults = dict(
        name="parallel-test",
        num_machines=5,
        num_types=2,
        sweep="tasks",
        sweep_values=(6, 9),
        repetitions=4,
        heuristics=("H1", "H2", "H4w"),
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def _series_payload(result):
    return {
        label: (series.x_values, series.samples)
        for label, series in result.series.items()
    }


class TestParallelDeterminism:
    def test_parallel_scenario_is_bit_for_bit_identical_to_serial(self):
        scenario = _small_scenario()
        serial = run_scenario(scenario, seed=123)
        parallel = run_scenario(scenario, seed=123, workers=2)
        assert _series_payload(serial) == _series_payload(parallel)

    def test_parallel_run_figure_matches_serial(self):
        serial = run_figure(
            "fig6", seed=9, repetitions=2, max_points=2, include_milp=False
        )
        parallel = run_figure(
            "fig6", seed=9, repetitions=2, max_points=2, include_milp=False, workers=2
        )
        assert _series_payload(serial) == _series_payload(parallel)

    def test_workers_one_takes_the_serial_path(self):
        scenario = _small_scenario(repetitions=2)
        assert _series_payload(run_scenario(scenario, seed=7)) == _series_payload(
            run_scenario(scenario, seed=7, workers=1)
        )

    def test_randomized_heuristic_is_reproducible_across_modes(self):
        # H1 consumes an RNG stream per repetition; identical streams in
        # the workers are what keep its series reproducible.
        scenario = _small_scenario(heuristics=("H1",), repetitions=6)
        a = run_scenario(scenario, seed=31, workers=3)
        b = run_scenario(scenario, seed=31)
        assert _series_payload(a) == _series_payload(b)


class TestStableStreams:
    def test_stream_labels_hash_identically_in_a_fresh_interpreter(self):
        """Guards against PYTHONHASHSEED-dependent stream derivation."""
        code = (
            "from repro.simulation.rng import RandomStreamFactory;"
            "print(RandomStreamFactory(99).stream('fig5/n10', 3).random())"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        outputs = set()
        for hash_seed in ("1", "2"):
            env["PYTHONHASHSEED"] = hash_seed
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.add(proc.stdout.strip())
        assert len(outputs) == 1
        assert outputs == {str(RandomStreamFactory(99).stream("fig5/n10", 3).random())}

    def test_entropy_reconstructs_identical_factory(self):
        import numpy as np

        factory = RandomStreamFactory(None)
        clone = RandomStreamFactory(np.random.SeedSequence(factory.entropy))
        assert factory.stream("x", 5).random() == clone.stream("x", 5).random()


class TestMemoizedSampling:
    def test_memoized_instance_is_cached_and_identical(self):
        clear_instance_cache()
        scenario = _small_scenario()
        streams = RandomStreamFactory(4)
        first = sample_instance(scenario, 6, 0, streams, memoize=True)
        second = sample_instance(scenario, 6, 0, streams, memoize=True)
        assert first is second
        fresh = sample_instance(scenario, 6, 0, RandomStreamFactory(4))
        assert (fresh.processing_times == first.processing_times).all()
        assert (fresh.failure_rates == first.failure_rates).all()

    def test_memoization_distinguishes_seeds_and_cells(self):
        clear_instance_cache()
        scenario = _small_scenario()
        a = sample_instance(scenario, 6, 0, RandomStreamFactory(4), memoize=True)
        b = sample_instance(scenario, 6, 1, RandomStreamFactory(4), memoize=True)
        c = sample_instance(scenario, 6, 0, RandomStreamFactory(5), memoize=True)
        assert a is not b
        assert a is not c
        assert not (a.failure_rates == b.failure_rates).all()

    def test_worker_jobs_of_one_point_draw_each_instance_once(self, monkeypatch):
        # Two curves' block jobs at one sweep point, run in-process
        # through the worker entry point: the second job is served from
        # the process's instance cache.
        clear_instance_cache()
        draws = []
        original = scenarios.random_chain_application

        def counting(*args, **kwargs):
            draws.append(args[:2])
            return original(*args, **kwargs)

        monkeypatch.setattr(scenarios, "random_chain_application", counting)
        scenario = _small_scenario()
        entropy = RandomStreamFactory(4).entropy
        results = [
            run_traced(_score_block, (scenario, 6, label, entropy, 30.0), None, "dag.block_job")
            for label in ("H2", "H4w")
        ]
        assert len(draws) == scenario.repetitions
        serial = run_scenario(scenario, seed=4)
        for label, ((values, failures), spans) in zip(("H2", "H4w"), results):
            assert values == serial.series[label].samples[6]
            assert (failures, spans) == (0, [])

    def test_serial_run_does_not_memoize(self):
        # The serial path samples each chunk once for every curve; it
        # must not fill the cache (the figures' peak RSS rides on it).
        clear_instance_cache()
        run_scenario(_small_scenario(), seed=4)
        assert scenarios._INSTANCE_CACHE == {}
