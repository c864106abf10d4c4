"""Seeded end-to-end and per-layer benchmark for the ray-fulltext engine.

Run from the repository root::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 6 --trace 0

See ``perfbench/run.py`` for the workloads and the output format.
"""
