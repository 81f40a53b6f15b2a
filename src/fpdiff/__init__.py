"""Desk-scale diffusion engine with an implicit fixed-point denoising layer."""

from .budget import (BudgetPlan, CostModel, audit_cost, plan_adaptive,
                     plan_constant, plan_ramp)
from .config import ExperimentConfig, config_from_dict, load_config
from .data import DatasetSampler
from .errors import AuditError, DivergenceError, NumericError, UsageError
from .metrics import evaluate, mmd_rbf, sliced_wasserstein
from .nn import BaselineNet, DenoiseNet, NetworkConfig
from .params import ParamStore
from .sampling import SamplerConfig, generate
from .schedule import NoiseSchedule, build_schedule
from .solver import SjfbConfig, SolverConfig, sjfb_train_step, solve
from .tensor import (Parameter, Tape, Tensor, backward, no_recording,
                     recording, using_dtype)
# The train() entry point stays in fpdiff.train: re-exporting it here would
# shadow the submodule of the same name.
from .train import net_from_checkpoint

__all__ = [
    "AuditError", "DivergenceError", "NumericError", "UsageError",
    "ParamStore", "Parameter", "Tape", "Tensor",
    "backward", "no_recording", "recording", "using_dtype",
    "BudgetPlan", "CostModel", "audit_cost",
    "plan_adaptive", "plan_constant", "plan_ramp",
    "ExperimentConfig", "config_from_dict", "load_config",
    "DatasetSampler", "evaluate", "mmd_rbf", "sliced_wasserstein",
    "BaselineNet", "DenoiseNet", "NetworkConfig",
    "SamplerConfig", "generate",
    "NoiseSchedule", "build_schedule",
    "SjfbConfig", "SolverConfig", "sjfb_train_step", "solve",
    "net_from_checkpoint",
]
