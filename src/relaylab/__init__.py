"""Throughput analysis for buffer-aided multi-antenna relay networks.

Monte Carlo estimators and closed-form expressions for an alternating
two-group distributed-beamforming scheme plus three selection/decode-forward
baselines, with per-protocol power budgets, power-split optimization, and a
deterministic experiment harness.
"""

from .analytic import (
    adb_closed,
    c11_closed,
    c22_closed,
)
from .channel import (
    ChannelConfig,
    min_erlang_cdf,
    nakagami_sum_cdf,
    sample_gains,
)
from .experiments import (
    CSV_COLUMNS,
    EXPERIMENTS,
    ConfigError,
    ExperimentSpec,
    SweepResult,
    SweepRow,
    emit,
    load_spec,
    resolve_spec,
    run_experiment,
    write_csv,
    write_summary,
)
from .power import (
    OptimizationError,
    PowerBudget,
    PowerPoint,
    maximize_throughput,
    ratio_point,
)
from .simulate import (
    PROTOCOLS,
    SimConfig,
    ThroughputEstimate,
    estimate,
)
from .specfun import (
    exp_integral_e1,
    exp_scaled_e1,
    exp_scaled_en,
)

__version__ = "0.1.0"
