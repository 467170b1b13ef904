"""End-to-end benchmark of the microrepro system with per-layer attribution.

Run ``python3 perfbench/run.py`` from the repository root; see
``perfbench/README.md`` for the workloads, metrics and layer map.
"""
