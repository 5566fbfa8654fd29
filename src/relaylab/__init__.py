"""Throughput analysis for buffer-aided multi-antenna relay networks.

Monte Carlo estimators and closed-form expressions for an alternating
two-group distributed-beamforming scheme plus three selection/decode-forward
baselines, with per-protocol power budgets, power-split optimization, and a
deterministic experiment harness.
"""

__version__ = "0.1.0"
