"""Helpers of the repository benchmark (``perfbench/run.py``).

The benchmark drives ``repro`` only through its public functions; these
modules hold what it needs around those calls: the percentile rule, the
span recorder and profiler grouping used by traced runs, the open-loop
accounting, environment checks, and one module per workload family.
"""
