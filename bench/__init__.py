"""End-to-end and per-layer benchmark of the checkpoint stack (see README.md).

Self-contained: it drives ``repro`` only through public functions and is
declared to the driver by the root ``BENCHMARK.json``.
"""
