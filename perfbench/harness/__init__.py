"""Harness of the daha benchmark: workloads, timing and span tracing."""
