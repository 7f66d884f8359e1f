"""Benchmark of ivfkit: workloads, oracles and tracing; see README.md."""
