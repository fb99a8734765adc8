"""Layered benchmark of record for ts_pymfe_ray (run with ``python3 perfbench/run.py``)."""
