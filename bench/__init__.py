"""Benchmark harness of maxbias; run it with ``python3 bench/run.py``."""
