"""Benchmark of the rrdlab command line; see run.py and README.md."""
