"""Core influence-maximization algorithms: bounds, the round driver and
the one assembly that runs IMM, DIIMM, SUBSIM, SSA and OPIM-C on it."""

from .bounds import (
    ImmParameters,
    alpha_term,
    beta_term,
    lambda_prime,
    lambda_star,
    log_binomial,
    opim_opt_upper_bound,
    opim_spread_lower_bound,
    solve_delta_prime,
)
from .checkpoint import CheckpointManager, DriverSnapshot
from .config import BACKENDS, RunConfig
from .diimm import (
    diimm,
    distributed_opimc,
    distributed_ssa,
    distributed_subsim,
    imm,
)
from .driver import (
    DriverRun,
    ImmScheduleRule,
    OpimStoppingRule,
    RoundDriver,
    RoundPlan,
    StareStoppingRule,
    StoppingRule,
)
from .result import IMResult

__all__ = [
    "ImmParameters",
    "log_binomial",
    "lambda_prime",
    "lambda_star",
    "alpha_term",
    "beta_term",
    "solve_delta_prime",
    "opim_spread_lower_bound",
    "opim_opt_upper_bound",
    "RoundDriver",
    "RoundPlan",
    "StoppingRule",
    "ImmScheduleRule",
    "StareStoppingRule",
    "OpimStoppingRule",
    "DriverRun",
    "CheckpointManager",
    "DriverSnapshot",
    "RunConfig",
    "BACKENDS",
    "imm",
    "diimm",
    "distributed_subsim",
    "distributed_opimc",
    "distributed_ssa",
    "IMResult",
]
