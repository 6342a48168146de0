"""Benchmark of trioverlay: workloads, output checks and a span recorder."""
