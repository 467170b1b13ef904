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
from repro.experiments.runner import BlockRun, _point_job, _point_runs
from repro.generators import ScenarioConfig, scenarios
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


def _count_draws(monkeypatch, log) -> None:
    """Append the ``n`` of every chain ``sample_instance`` draws to ``log``.

    A file rather than a list, so the draws of forked pool workers
    (which inherit the patch) count too.
    """
    original = scenarios.random_chain_application

    def counting(n, p, rng):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{n}\n")
        return original(n, p, rng)

    monkeypatch.setattr(scenarios, "random_chain_application", counting)


def _draws(log) -> list[int]:
    return sorted(int(n) for n in log.read_text(encoding="utf-8").split())


def _each_point_once(scenario) -> list[int]:
    return sorted(n for n in scenario.sweep_values for _ in range(scenario.repetitions))


class TestPointJobs:
    def test_point_job_draws_each_instance_once(self, monkeypatch, tmp_path):
        # One sweep point's curves in one worker job, run in-process
        # through the worker entry point: every curve scores one sample.
        _count_draws(monkeypatch, tmp_path / "draws")
        scenario = _small_scenario()
        entropy = RandomStreamFactory(4).entropy
        labels = ("H1", "H2", "H4w")
        run = BlockRun("custom", 4, scenario, entropy, tuple((6, label) for label in labels))
        blocks, spans = run_traced(_point_job, (run, 30.0), None, "dag.block_job")
        assert _draws(tmp_path / "draws") == [6] * scenario.repetitions
        assert spans == []
        serial = run_scenario(scenario, seed=4)
        assert [(value, label) for value, label, _, _ in blocks] == list(run.blocks)
        for _, label, values, failures in blocks:
            assert values == serial.series[label].samples[6]
            assert failures == 0

    def test_point_runs_split_a_run_per_sweep_point(self):
        scenario = _small_scenario()
        blocks = ((6, "H1"), (9, "H1"), (6, "H4w"), (9, "H2"))
        run = BlockRun("custom", 4, scenario, 1, blocks)
        points = _point_runs(run)
        assert [point.blocks for point in points] == [
            ((6, "H1"), (6, "H4w")),
            ((9, "H1"), (9, "H2")),
        ]
        assert all(point.scenario is scenario and point.entropy == 1 for point in points)

    def test_parallel_run_samples_each_point_once(self, monkeypatch, tmp_path):
        _count_draws(monkeypatch, tmp_path / "draws")
        scenario = _small_scenario()
        run_scenario(scenario, seed=4, workers=2)
        assert _draws(tmp_path / "draws") == _each_point_once(scenario)

    def test_serial_run_keeps_no_instances(self, monkeypatch, tmp_path):
        # Nothing caches instances: a second identical run draws them all again.
        _count_draws(monkeypatch, tmp_path / "draws")
        scenario = _small_scenario()
        first = run_scenario(scenario, seed=4)
        assert _draws(tmp_path / "draws") == _each_point_once(scenario)
        assert run_scenario(scenario, seed=4).series == first.series
        assert _draws(tmp_path / "draws") == sorted(_each_point_once(scenario) * 2)
