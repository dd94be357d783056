"""High-order weak SDE schemes and dual martingale pricing for American puts.

The package layers a fixed-step order-5 Runge-Kutta flow integrator, four
weak-approximation step kernels (Euler, cubature, and two second-order flow
compositions), digitally shifted Sobol quasi-Monte Carlo driving noise, a
small reverse-mode MLP stack, and a dual (upper-bound) option pricer that
learns martingale increments by stochastic gradient descent.
"""

from .autodiff import Tensor
from .convergence import ConvergenceRow, run_convergence
from .dual import (
    BridgeParams,
    MartingaleNetConfig,
    TrainResult,
    bridge_sup,
    center,
    estimate_sigma,
    evaluate_loss,
    rogers_loss,
    train,
)
from .errors import (
    DomainError,
    InvalidParameterError,
    MartnetError,
    NumericError,
    ShapeError,
    UnknownSchemeError,
    UnsupportedDimensionError,
    UsageError,
    WriteError,
)
from .fields import (
    ModelSpec,
    Payoff,
    VectorField,
    make_bsm_model,
    make_heston_model,
    payoff_eval,
)
from .mlp import (
    AdamState,
    MlpParams,
    adam_update,
    init_adam,
    init_mlp,
    load_checkpoint,
    mlp_forward,
    save_checkpoint,
)
from .oracles import binomial_american_put, bs_european_call, bs_european_put
from .qmc import draws_for, inv_normal_cdf, sobol_points
from .rk5 import flow, rk5_step
from .schemes import (
    Partition,
    cub3_step,
    em_step,
    nn_step,
    nv_step,
    simulate,
    uniform_partition,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "BridgeParams",
    "ConvergenceRow",
    "DomainError",
    "InvalidParameterError",
    "MartingaleNetConfig",
    "MartnetError",
    "MlpParams",
    "ModelSpec",
    "NumericError",
    "Partition",
    "Payoff",
    "ShapeError",
    "Tensor",
    "TrainResult",
    "UnknownSchemeError",
    "UnsupportedDimensionError",
    "UsageError",
    "VectorField",
    "WriteError",
    "adam_update",
    "binomial_american_put",
    "bridge_sup",
    "bs_european_call",
    "bs_european_put",
    "center",
    "cub3_step",
    "draws_for",
    "em_step",
    "estimate_sigma",
    "evaluate_loss",
    "flow",
    "init_adam",
    "init_mlp",
    "inv_normal_cdf",
    "load_checkpoint",
    "make_bsm_model",
    "make_heston_model",
    "mlp_forward",
    "nn_step",
    "nv_step",
    "payoff_eval",
    "rk5_step",
    "rogers_loss",
    "run_convergence",
    "save_checkpoint",
    "simulate",
    "sobol_points",
    "train",
    "uniform_partition",
]
