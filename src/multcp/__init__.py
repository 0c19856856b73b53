"""MulTCP: weighted TCP congestion control, simulated and analysed.

The package bundles a deterministic discrete-event simulator (engine,
aqm, tcp), the analytic sawtooth throughput model (model), fairness
checkers and allocators (fairness), receive-buffer sharing (allocator),
trace-based weight estimation and billing (policing), and the scenario
and experiment harness (harness).  The library API is imported from
these submodules, e.g. ``from multcp.harness import run_scenario``.
"""

__version__ = "0.1.0"
