"""End-to-end and per-layer benchmark harness for convexdfo.

Run ``python3 perfbench/run.py --workload box --seed 0 --seconds 24 --trace 0``
from the repository root; see ``perfbench/README.md``.
"""
