"""Unit tests for simulation support modules: metrics, trace, rng."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.metrics import SimulationMetrics
from repro.simulation.rng import RandomStreamFactory
from repro.simulation.trace import SimulationTrace, TraceEventType


def _metrics(
    finished: int = 10,
    makespan: float = 1000.0,
    executions=(20, 12),
    losses=(5, 2),
    busy=(800.0, 900.0),
) -> SimulationMetrics:
    executions = np.asarray(executions)
    losses = np.asarray(losses)
    return SimulationMetrics(
        finished_products=finished,
        makespan=makespan,
        raw_products_injected=np.asarray([20, 0]),
        executions=executions,
        successes=executions - losses,
        losses=losses,
        machine_busy_time=np.asarray(busy),
        machine_executions=np.asarray([20, 12]),
        output_times=np.linspace(100.0, makespan, finished),
    )


class TestSimulationMetrics:
    def test_empirical_failure_rates(self):
        m = _metrics()
        assert m.empirical_failure_rates[0] == pytest.approx(0.25)
        assert m.empirical_failure_rates[1] == pytest.approx(2 / 12)

    def test_failure_rate_nan_when_never_executed(self):
        m = _metrics(executions=(0, 12), losses=(0, 2))
        assert np.isnan(m.empirical_failure_rates[0])

    def test_products_per_output(self):
        m = _metrics()
        assert m.empirical_products_per_output[0] == pytest.approx(2.0)

    def test_products_per_output_nan_without_outputs(self):
        m = _metrics(finished=0)
        assert np.all(np.isnan(m.empirical_products_per_output))

    def test_machine_periods_and_period(self):
        m = _metrics()
        assert m.empirical_machine_periods[1] == pytest.approx(90.0)
        assert m.empirical_period == pytest.approx(90.0)

    def test_throughput(self):
        m = _metrics()
        assert m.empirical_throughput == pytest.approx(10 / 1000.0)
        assert np.isnan(_metrics(makespan=0.0).empirical_throughput)

    def test_steady_state_interval(self):
        m = _metrics(finished=10, makespan=1000.0)
        # Outputs are evenly spaced, so the steady-state interval equals the spacing.
        spacing = (1000.0 - 100.0) / 9
        assert m.steady_state_output_interval == pytest.approx(spacing)

    def test_steady_state_interval_needs_enough_outputs(self):
        m = _metrics(finished=2)
        assert np.isnan(m.steady_state_output_interval)

    def test_summary_keys(self):
        summary = _metrics().summary()
        assert {"finished_products", "empirical_period", "total_losses"} <= set(summary)


class TestTrace:
    def test_record_and_query(self):
        trace = SimulationTrace()
        trace.record(1.0, TraceEventType.RAW_INJECTED, task=0, product=1)
        trace.record(2.0, TraceEventType.PRODUCT_LOST, task=0, machine=1, product=1)
        assert len(trace) == 2
        assert trace[0].event is TraceEventType.RAW_INJECTED
        assert trace.count(TraceEventType.PRODUCT_LOST) == 1
        assert trace.filter(TraceEventType.PRODUCT_LOST)[0].machine == 1
        assert [r.time for r in trace] == [1.0, 2.0]

    def test_max_records_cap(self):
        trace = SimulationTrace(max_records=2)
        for i in range(5):
            trace.record(float(i), TraceEventType.RAW_INJECTED)
        assert len(trace) == 2


class TestRandomStreams:
    def test_stream_factory_deterministic_per_label(self):
        f1 = RandomStreamFactory(7)
        f2 = RandomStreamFactory(7)
        assert f1.stream("fig5", 3).random() == f2.stream("fig5", 3).random()
        # Order of requests does not matter.
        g_late = RandomStreamFactory(7)
        g_late.stream("other", 0)
        assert g_late.stream("fig5", 3).random() == f2.stream("fig5", 3).random()

    def test_stream_factory_distinct_labels(self):
        factory = RandomStreamFactory(7)
        assert factory.stream("a", 0).random() != factory.stream("b", 0).random()
        assert factory.stream("a", 0).random() != factory.stream("a", 1).random()

    def test_streams_iterator(self):
        factory = RandomStreamFactory(1)
        streams = list(factory.streams("x", 4))
        assert len(streams) == 4

    def test_root_entropy_exposed(self):
        assert RandomStreamFactory(123).root_entropy == 123
