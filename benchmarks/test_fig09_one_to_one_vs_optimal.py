"""Figure 9 — one-to-one comparison, m=100, n=100, f[i,u]=f[i], p=20..100.

Paper's conclusion: H4w is the closest heuristic to the optimal
one-to-one mapping (factor ~1.28 versus ~1.75 for H3 and ~1.84 for H2),
and all heuristics converge towards the optimum as p approaches m.
"""

from __future__ import annotations

import os
import subprocess
import sys

from repro.experiments.runner import OTO_LABEL

from .conftest import run_figure_benchmark


def test_fig09_one_to_one_vs_optimal(benchmark, results_dir):
    result = run_figure_benchmark(benchmark, results_dir, "fig9", seed=9)
    assert OTO_LABEL in result.series
    report = result.normalization_report(OTO_LABEL)
    factors = {name: report.factor(name) for name in ("H2", "H3", "H4w")}
    # Every heuristic sits above the optimum.  Our OtO baseline is a true
    # bottleneck-assignment optimum, which is stronger than the reference the
    # paper appears to plot, so the allowed band is wider than the paper's
    # 1.28-1.84 aggregate factors (fig9's ``expected_shape`` string).
    for factor in factors.values():
        assert 1.0 <= factor < 4.0
    # At the low end of the type sweep the heuristics are close to OtO (the
    # regime where the paper calls H4w "very close to the optimal").
    low_p = min(result.series[OTO_LABEL].x_values)
    oto_mean = result.series[OTO_LABEL].point(low_p).mean
    best = min(result.series[name].point(low_p).mean for name in ("H2", "H3", "H4w"))
    assert best <= 2.0 * oto_mean


def test_bench_fig9_cold_process(benchmark, tmp_path):
    """Key benchmark: a fresh ``python -m repro run fig9`` at one point.

    Mostly imports and the first OtO solve, so a module that a figure
    run pulls in again (``scipy.sparse`` for the bottleneck assignment,
    ``scipy.stats`` for a report) shows up here.
    """
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    command = [
        sys.executable, "-m", "repro", "run", "fig9",
        "--repetitions", "1", "--max-points", "1", "--no-milp",
    ]

    def run():
        return subprocess.run(
            command, env=env, cwd=tmp_path, capture_output=True, text=True, check=True
        )

    proc = benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
    assert OTO_LABEL in proc.stdout
