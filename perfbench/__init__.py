"""Benchmark of the superelliptic pipeline, driven from outside the package.

Run it from the repository root::

    python3 perfbench/run.py --workload forward_equations --seed 1 --seconds 20 --trace 0

See ``run.py`` for the metrics and ``workloads.py`` for the inputs.
"""
