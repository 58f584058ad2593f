"""The repository benchmark: seeded FL workloads timed end to end and per layer.

Run it from the repository root::

    python3 perfbench/run.py --workload table4_serial --seed 0 --seconds 60 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the checks.
"""
