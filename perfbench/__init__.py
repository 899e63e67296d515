"""Benchmark harness for hexreg at the desk config; see README.md."""
