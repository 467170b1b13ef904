"""Unit tests for the live replanning subsystem (timeline + replanner)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.exceptions import ExperimentError, ReproError
from repro.heuristics import get_heuristic
from repro.heuristics.base import solve_one
from repro.live import (
    EVENT_KINDS,
    LiveConfig,
    LiveEvent,
    Replanner,
    build_replanner,
    compare_reports,
    generate_timeline,
    run_timeline,
)

from tests.helpers import sub_instance

#: Deterministic heuristics the bit-for-bit contract is checked over.
DETERMINISTIC_HEURISTICS = ("H2", "H3", "H4", "H4w", "H4f", "H4ls")


def make_config(**overrides) -> LiveConfig:
    defaults = dict(
        tasks=10,
        types=3,
        machines=6,
        heuristic="H4ls",
        seed=0,
        duration=60.0,
        mtbf=25.0,
        mttr=8.0,
        arrival_rate=0.2,
    )
    defaults.update(overrides)
    return LiveConfig(**defaults)


class TestTimeline:
    def test_same_config_same_timeline(self):
        config = make_config()
        assert generate_timeline(config) == generate_timeline(config)

    def test_events_are_time_ordered_with_deterministic_ties(self):
        events = generate_timeline(make_config(seed=3))
        keys = [event.sort_key() for event in events[:-1]]
        assert keys == sorted(keys)

    def test_ends_with_a_probe_at_the_horizon(self):
        config = make_config()
        last = generate_timeline(config)[-1]
        assert last.kind == "request"
        assert last.time == config.duration
        assert last.machine is None

    def test_adding_machines_does_not_perturb_existing_streams(self):
        # Named per-machine streams: machine u's phases are identical
        # whether the platform has 6 or 7 machines.
        small = generate_timeline(make_config(machines=6))
        large = generate_timeline(make_config(machines=7))
        pick = lambda events, u: [e for e in events if e.machine == u]
        for machine in range(6):
            assert pick(small, machine) == pick(large, machine)

    def test_zero_arrival_rate_yields_only_platform_events(self):
        events = generate_timeline(make_config(arrival_rate=0.0))
        assert all(event.kind != "request" for event in events[:-1])

    def test_different_seeds_differ(self):
        assert generate_timeline(make_config(seed=0)) != generate_timeline(
            make_config(seed=1)
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(time=-1.0, kind="fail", machine=0),
            dict(time=0.0, kind="explode", machine=0),
            dict(time=0.0, kind="fail"),  # fail needs a machine
            dict(time=0.0, kind="request", machine=2),  # request takes none
        ],
    )
    def test_bad_events_are_rejected(self, kwargs):
        with pytest.raises(ExperimentError):
            LiveEvent(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(duration=0.0),
            dict(mtbf=0.0),
            dict(mttr=-1.0),
            dict(arrival_rate=-0.1),
        ],
    )
    def test_bad_configs_are_rejected(self, kwargs):
        with pytest.raises(ExperimentError):
            make_config(**kwargs)

    def test_event_kinds_constant_matches_priorities(self):
        assert EVENT_KINDS == ("fail", "recover", "request")


class TestReplannerTiers:
    def make(self, **overrides) -> Replanner:
        return build_replanner(make_config(**overrides))

    def test_initial_solve_matches_direct_heuristic(self):
        replanner = self.make()
        expected = solve_one(get_heuristic("H4ls"), replanner.instance)
        assert replanner.initial.via == "cold"
        assert replanner.initial.mapping == tuple(int(u) for u in expected)
        assert replanner.feasible

    def test_randomized_heuristics_are_rejected(self):
        replanner = self.make()
        with pytest.raises(ExperimentError, match="deterministic heuristic"):
            Replanner(replanner.instance, "H1")

    def test_failing_an_unassigned_machine_warm_starts(self):
        # Plenty of machines for few tasks, so some stay unassigned.
        replanner = self.make(tasks=6, types=2, machines=10)
        assigned = set(replanner.initial.mapping)
        spare = next(
            u for u in range(replanner.instance.num_machines) if u not in assigned
        )
        record = replanner.apply(1.0, "fail", spare)
        assert record.via == "warm"
        assert record.feasible

    def test_failing_an_assigned_machine_cold_solves_the_subplatform(self):
        replanner = self.make()
        victim = replanner.initial.mapping[0]
        record = replanner.apply(1.0, "fail", victim)
        assert record.via == "cold"
        sub, cols = sub_instance(replanner.instance, replanner.up)
        expected = cols[solve_one(get_heuristic("H4ls"), sub)]
        assert record.mapping == tuple(int(u) for u in expected)
        assert victim not in record.mapping

    def test_recovery_replays_the_pre_failure_plan_bit_for_bit(self):
        replanner = self.make()
        before = replanner.initial.mapping
        victim = before[0]
        replanner.apply(1.0, "fail", victim)
        record = replanner.apply(2.0, "recover", victim)
        assert record.via == "cache"
        assert record.mapping == before

    def test_too_few_up_machines_is_infeasible_then_recovers(self):
        config = make_config(tasks=6, types=3, machines=4, arrival_rate=0.0)
        replanner = build_replanner(config)
        replanner.apply(1.0, "fail", 0)  # 3 machines up: still feasible
        record = replanner.apply(2.0, "fail", 1)  # 2 up < 3 types
        assert record.via == "infeasible"
        assert not record.feasible
        assert record.mapping is None and record.period is None
        # Recovering back to the {1,2,3} up-set replays its cached plan.
        back = replanner.apply(5.0, "recover", 1)
        assert back.via == "cache"
        assert back.feasible

    def test_availability_integrates_event_time_only(self):
        config = make_config(tasks=6, types=3, machines=4, arrival_rate=0.0)
        replanner = build_replanner(config)
        replanner.apply(10.0, "fail", 0)  # 3 up: still feasible
        replanner.apply(20.0, "fail", 1)  # 2 up < 3 types: infeasible from t=20
        replanner.apply(50.0, "recover", 1)  # feasible again from t=50
        availability = replanner.finish(100.0)
        assert availability == pytest.approx(0.70)
        assert replanner.available_seconds == pytest.approx(70.0)
        assert replanner.unavailable_seconds == pytest.approx(30.0)

    def test_requests_observe_serve_and_miss(self):
        config = make_config(tasks=6, types=3, machines=3, arrival_rate=0.0)
        replanner = build_replanner(config)
        served = replanner.apply(1.0, "request")
        assert served.via == "serve"
        assert served.period == replanner.period
        replanner.apply(2.0, "fail", 0)
        replanner.apply(3.0, "fail", 1)
        missed = replanner.apply(4.0, "request")
        assert missed.via == "miss"
        assert missed.period is None
        assert replanner.counters.served == 1
        assert replanner.counters.missed == 1

    def test_events_are_counted_without_keeping_records(self):
        replanner = self.make()
        replanner.apply(0.5, "request")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for step in range(3000):
                replanner.apply(1.0 + step, "request")
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert replanner.events == 3002  # the initial solve is event 0
        # Keeping each ReplanRecord would retain ~300 bytes per event.
        assert retained < 64 * 1024

    def test_redundant_transitions_are_rejected(self):
        replanner = self.make()
        replanner.apply(1.0, "fail", 0)
        with pytest.raises(ExperimentError, match="already down"):
            replanner.apply(2.0, "fail", 0)
        with pytest.raises(ExperimentError, match="already up"):
            replanner.apply(2.0, "recover", 1)

    def test_time_must_not_regress(self):
        replanner = self.make()
        replanner.apply(5.0, "fail", 0)
        with pytest.raises(ExperimentError, match="non-decreasing"):
            replanner.apply(4.0, "recover", 0)

    @pytest.mark.parametrize(
        "kind,machine",
        [("explode", 0), ("fail", None), ("fail", 99), ("request", 0)],
    )
    def test_bad_events_are_rejected(self, kind, machine):
        with pytest.raises(ExperimentError):
            self.make().apply(1.0, kind, machine)

    def test_warm_tier_mapping_only_uses_up_machines(self):
        replanner = self.make()
        for record in self.run_all(replanner):
            if record.mapping is not None:
                assert all(replanner.instance.num_machines > u >= 0 for u in record.mapping)

    @staticmethod
    def run_all(replanner, config=None):
        config = config or make_config()
        return [
            replanner.apply(event.time, event.kind, event.machine)
            for event in generate_timeline(config)
        ]


class TestWarmColdEquivalence:
    @pytest.mark.parametrize("heuristic", DETERMINISTIC_HEURISTICS)
    @pytest.mark.parametrize(
        "shape",
        [
            dict(tasks=10, types=3, machines=6),
            dict(tasks=14, types=4, machines=8, mtbf=18.0, mttr=10.0),
        ],
    )
    def test_warm_equals_cold_re_solve_bit_for_bit(self, heuristic, shape):
        config = make_config(heuristic=heuristic, **shape)
        compare_reports(
            run_timeline(config, warm=False), run_timeline(config, warm=True)
        )

    def test_mapping_states_match_elementwise(self):
        # compare_reports is itself under test here: check the raw
        # mappings agree without going through it.
        config = make_config(seed=7)
        warm = run_timeline(config, warm=True)
        cold = run_timeline(config, warm=False)
        assert [r["mapping"] for r in warm.records] == [
            r["mapping"] for r in cold.records
        ]
        assert warm.availability == cold.availability

    def test_compare_reports_flags_divergence(self):
        config = make_config()
        warm = run_timeline(config, warm=True)
        cold = run_timeline(config, warm=False)
        cold.records[-1]["availability"] += 0.5
        with pytest.raises(ExperimentError, match="differs"):
            compare_reports(cold, warm)

    def test_reports_carry_counters_and_latency(self):
        report = run_timeline(make_config())
        assert report.counters["served"] + report.counters["missed"] > 0
        assert set(report.latency_ms) == {"warm", "cold", "cache"}
        payload = report.to_dict()
        assert payload["events"] == len(payload["records"])
        assert payload["mode"] == "warm"


class TestSubInstance:
    def test_columns_map_back_to_full_indices(self):
        replanner = build_replanner(make_config())
        up = np.ones(replanner.instance.num_machines, dtype=bool)
        up[1] = up[4] = False
        sub, cols = sub_instance(replanner.instance, up)
        assert list(cols) == [0, 2, 3, 5]
        assert sub.num_machines == 4
        np.testing.assert_array_equal(
            sub.processing_times, replanner.instance.processing_times[:, cols]
        )
        np.testing.assert_array_equal(
            sub.failure_rates, replanner.instance.failure_rates[:, cols]
        )

    def test_no_up_machines_is_an_error(self):
        replanner = build_replanner(make_config())
        with pytest.raises(ReproError, match="no up machines"):
            sub_instance(
                replanner.instance,
                np.zeros(replanner.instance.num_machines, dtype=bool),
            )


def test_live_runner_loads_no_service_or_experiment_engine():
    # A live timeline runs in process: importing its runner must not pull
    # in the HTTP server, client or worker pool, the experiment engine or
    # the MIP, which would only weigh on the live process's memory.
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    heavy = (
        "repro.service.server",
        "repro.service.client",
        "repro.workers",
        "repro.experiments.runner",
        "repro.exact.milp",
        "http.client",
    )
    code = (
        "import sys\n"
        "import repro.live.runner\n"
        f"print(sorted(m for m in {heavy!r} if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
