"""Image-text matching with cross-attention similarity vectors and gated
graph reasoning, built on a self-contained float64 autodiff core."""

from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DimensionError,
    InputError,
    ItmatchError,
)
from .model import ModelConfig, init_params, score_grid, score_matrix
from .tensor import ParamStore, Tensor, backward, finite_diff_grad, no_grad

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContractError",
    "DataError",
    "DimensionError",
    "InputError",
    "ItmatchError",
    "ModelConfig",
    "ParamStore",
    "Tensor",
    "backward",
    "finite_diff_grad",
    "init_params",
    "no_grad",
    "score_grid",
    "score_matrix",
    "__version__",
]
