"""The bench gate's calibration: a fixed pure-Python kernel.

``benchmarks/compare_to_baseline.py`` divides every key bench's median
by this bench's median from the same run, so the speed of the host
cancels out of the comparison.  The kernel imports nothing from the
program, so a change to the program never moves it: a faster program
reads as faster key benches, never as a slower host.  It is a copy of
``perfbench/clock.py``'s kernel, the host-speed probe of the end-to-end
benchmark.
"""

from __future__ import annotations


def kernel() -> int:
    """A fixed mix of interpreter work: dict updates, tuples, sorting."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(300):
        key = (i * 7919) % 61
        table[key] = table.get(key, 0) + i
        acc += len(str(i))
    items = sorted(table.items(), key=lambda kv: kv[1])
    return acc + items[0][1]


def test_bench_calibration_kernel(benchmark):
    assert benchmark(kernel) == kernel()
