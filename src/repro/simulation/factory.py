"""Discrete-event simulation of a mapped micro-factory production line.

The simulator plays the role of the C++ simulator used for the paper's
experiments: given a problem instance and a mapping, it runs the
production line with *stochastic* transient failures and measures the
empirical throughput, which must converge to the analytic period model of
Section 4.1 (this convergence is asserted by the integration tests).

Model
-----
* Every machine owns a FIFO queue of work items ``(task, product)`` and
  processes them one at a time; processing ``(i, _)`` on machine ``u``
  takes exactly ``w[i, u]`` time units.
* When an execution completes, it fails independently with probability
  ``f[i, u]``; a failure destroys the product (transient failure — the
  machine itself keeps working).
* A successful product moves to the input buffer of the successor task.
  Join tasks (in-tree nodes with several predecessors) start only when one
  product from *every* predecessor branch is available; the merged product
  then counts as a single unit.
* Source tasks draw from an unlimited supply of raw products.

Two feeding regimes are provided:

* :meth:`MicroFactorySimulation.run` — **closed-loop feed** (constant work
  in progress): a fixed number of products circulates in the line; every
  loss and every finished product triggers the injection of a fresh raw
  product at the sources that feed the affected branch.  This is the
  steady-state regime in which the paper's period is defined: the busy
  time of each machine per finished product converges to its analytic
  ``period(Mu)``, and with a large enough WIP the inter-output interval
  converges to the application period.
* :meth:`MicroFactorySimulation.run_batch` — **batch feed**: a fixed
  number of raw products is injected at time zero and the line runs until
  it drains.  In this regime the number of executions of each task per
  finished product converges to the analytic ``x_i``, which is what the
  expected-product validation tests assert.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..core.instance import ProblemInstance
from ..core.mapping import Mapping
from ..exceptions import SimulationError
from .events import EventKind, EventQueue
from .metrics import SimulationMetrics
from .trace import SimulationTrace, TraceEventType

__all__ = ["MicroFactorySimulation", "simulate_mapping"]


@dataclass(slots=True)
class _MachineState:
    """Mutable runtime state of one machine."""

    queue: deque
    busy: bool = False
    busy_time: float = 0.0
    executions: int = 0


class MicroFactorySimulation:
    """Simulate one mapped production line.

    Parameters
    ----------
    instance:
        The problem instance (application, platform, failure model).
    mapping:
        The allocation of tasks to machines being exercised.
    rng:
        Random generator used for failure sampling.
    trace:
        Optional :class:`~repro.simulation.trace.SimulationTrace` to record
        events into.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        mapping: Mapping,
        rng: np.random.Generator | None = None,
        *,
        trace: SimulationTrace | None = None,
    ) -> None:
        mapping.validate(instance)
        self.instance = instance
        self.mapping = mapping
        self.rng = rng if rng is not None else np.random.default_rng()
        self.trace = trace

        app = instance.application
        self._sources = sorted(app.sources())
        self._successor = app.successors
        self._predecessors = {i: app.predecessors(i) for i in range(instance.num_tasks)}
        # Sources feeding each task (transitive predecessors that are sources,
        # or the task itself for a source).  Used by the closed-loop feed to
        # replenish the right branch after a loss.
        self._feeding_sources: dict[int, tuple[int, ...]] = {}
        for task in app.topological_order():
            preds = self._predecessors[task]
            if not preds:
                self._feeding_sources[task] = (task,)
            else:
                feeding: set[int] = set()
                for pred in preds:
                    feeding.update(self._feeding_sources[pred])
                self._feeding_sources[task] = tuple(sorted(feeding))

    # -- public API ---------------------------------------------------------------
    def run(
        self,
        target_products: int,
        *,
        wip: int | None = None,
        max_events: int = 5_000_000,
        max_time: float | None = None,
    ) -> SimulationMetrics:
        """Closed-loop run until ``target_products`` products are output.

        Parameters
        ----------
        target_products:
            Number of finished products to produce (>= 1).
        wip:
            Work-in-progress level: number of products injected per source
            at time zero and kept circulating (every loss or output triggers
            a replenishment).  Defaults to ``4 * max(n, m)``, which is ample
            to keep the critical machine saturated.
        max_events:
            Safety cap on processed completion events; exceeding it raises
            :class:`~repro.exceptions.SimulationError`.
        max_time:
            Optional cap on simulated time; the run stops early (with fewer
            finished products) when it is exceeded.
        """
        if target_products < 1:
            raise SimulationError("target_products must be >= 1")
        if wip is None:
            wip = 4 * max(self.instance.num_tasks, self.instance.num_machines)
        if wip < 1:
            raise SimulationError("wip must be >= 1")
        return self._execute(
            target_products=target_products,
            closed_loop=True,
            batch_size=wip,
            max_events=max_events,
            max_time=max_time,
        )

    def run_batch(
        self,
        raw_products: int,
        *,
        max_events: int = 5_000_000,
        max_time: float | None = None,
    ) -> SimulationMetrics:
        """Batch-feed run: inject ``raw_products`` per source, drain the line.

        Parameters
        ----------
        raw_products:
            Number of raw products injected at time zero at *each* source
            task (>= 1).
        """
        if raw_products < 1:
            raise SimulationError("raw_products must be >= 1")
        return self._execute(
            target_products=None,
            closed_loop=False,
            batch_size=raw_products,
            max_events=max_events,
            max_time=max_time,
        )

    # -- core loop -------------------------------------------------------------------
    def _execute(
        self,
        *,
        target_products: int | None,
        closed_loop: bool,
        batch_size: int,
        max_events: int,
        max_time: float | None,
    ) -> SimulationMetrics:
        instance = self.instance
        n, m = instance.num_tasks, instance.num_machines
        w = instance.processing_times
        f = instance.failure_rates
        mapping = self.mapping

        machines = [_MachineState(queue=deque()) for _ in range(m)]
        # Input buffers: for every task, a count of available products per
        # predecessor (products are indistinguishable, counts are enough).
        buffers: dict[int, dict[int, int]] = {
            task: {pred: 0 for pred in self._predecessors[task]} for task in range(n)
        }

        raw_injected = np.zeros(n, dtype=np.int64)
        executions = np.zeros(n, dtype=np.int64)
        successes = np.zeros(n, dtype=np.int64)
        losses = np.zeros(n, dtype=np.int64)

        finished = 0
        output_times: list[float] = []
        product_counter = 0
        now = 0.0
        queue = EventQueue()

        def start_if_idle(machine_index: int, time: float) -> None:
            state = machines[machine_index]
            if state.busy or not state.queue:
                return
            task, product = state.queue.popleft()
            duration = float(w[task, machine_index])
            state.busy = True
            if self.trace is not None:
                self.trace.record(
                    time,
                    TraceEventType.EXECUTION_STARTED,
                    task=task,
                    machine=machine_index,
                    product=product,
                )
            queue.schedule(
                time + duration,
                EventKind.MACHINE_COMPLETION,
                payload=(machine_index, task, product),
            )

        def enqueue_work(task: int, product: int, time: float) -> None:
            machine_index = mapping.machine_of(task)
            machines[machine_index].queue.append((task, product))
            start_if_idle(machine_index, time)

        def inject_raw(task: int, time: float) -> None:
            nonlocal product_counter
            raw_injected[task] += 1
            product_counter += 1
            if self.trace is not None:
                self.trace.record(
                    time, TraceEventType.RAW_INJECTED, task=task, product=product_counter
                )
            enqueue_work(task, product_counter, time)

        def replenish(task: int, time: float) -> None:
            """Closed-loop feed: keep the WIP constant after a loss/output."""
            if not closed_loop:
                return
            for source in self._feeding_sources[task]:
                inject_raw(source, time)

        def deliver_to_successor(task: int, product: int, time: float) -> None:
            nonlocal finished, product_counter
            succ = self._successor[task]
            if succ is None:
                finished += 1
                output_times.append(time)
                if self.trace is not None:
                    self.trace.record(
                        time, TraceEventType.PRODUCT_OUTPUT, task=task, product=product
                    )
                replenish(task, time)
                return
            buffers[succ][task] += 1
            # A join starts only when every predecessor branch has a product.
            if all(count >= 1 for count in buffers[succ].values()):
                for pred in buffers[succ]:
                    buffers[succ][pred] -= 1
                product_counter += 1
                enqueue_work(succ, product_counter, time)

        # Prime the line: `batch_size` products per source (the WIP level in
        # closed-loop mode, the whole batch in batch mode).
        for source in self._sources:
            for _ in range(batch_size):
                inject_raw(source, 0.0)

        events_processed = 0
        while True:
            if target_products is not None and finished >= target_products:
                break
            if not queue:
                if closed_loop:
                    raise SimulationError(
                        "event queue drained before the production target was met "
                        "(this indicates an internal inconsistency)"
                    )
                break  # batch mode: the line has drained
            event = queue.pop()
            now = event.time
            if max_time is not None and now > max_time:
                break
            events_processed += 1
            if events_processed > max_events:
                raise SimulationError(
                    f"simulation exceeded the safety cap of {max_events} events"
                )
            if event.kind is not EventKind.MACHINE_COMPLETION:
                continue
            machine_index, task, product = event.payload
            state = machines[machine_index]
            state.busy = False
            # Account for the execution at completion time so that counters
            # never include work still in flight when the run stops.
            state.busy_time += float(w[task, machine_index])
            state.executions += 1
            executions[task] += 1
            failed = bool(self.rng.random() < f[task, machine_index])
            if failed:
                losses[task] += 1
                if self.trace is not None:
                    self.trace.record(
                        now,
                        TraceEventType.PRODUCT_LOST,
                        task=task,
                        machine=machine_index,
                        product=product,
                    )
                replenish(task, now)
            else:
                successes[task] += 1
                if self.trace is not None:
                    self.trace.record(
                        now,
                        TraceEventType.EXECUTION_SUCCEEDED,
                        task=task,
                        machine=machine_index,
                        product=product,
                    )
                deliver_to_successor(task, product, now)
            start_if_idle(machine_index, now)

        return SimulationMetrics(
            finished_products=finished,
            makespan=now,
            raw_products_injected=raw_injected,
            executions=executions,
            successes=successes,
            losses=losses,
            machine_busy_time=np.asarray([s.busy_time for s in machines]),
            machine_executions=np.asarray([s.executions for s in machines]),
            output_times=np.asarray(output_times, dtype=np.float64),
        )


def simulate_mapping(
    instance: ProblemInstance,
    mapping: Mapping,
    target_products: int,
    *,
    rng: np.random.Generator | None = None,
    trace: SimulationTrace | None = None,
    max_events: int = 5_000_000,
) -> SimulationMetrics:
    """One-call convenience wrapper around :class:`MicroFactorySimulation.run`."""
    sim = MicroFactorySimulation(instance, mapping, rng, trace=trace)
    return sim.run(target_products, max_events=max_events)
