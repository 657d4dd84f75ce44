"""End-to-end gradient verification of the full model.

Builds a tiny synthetic batch, computes the ranking loss through the
tape with ``training.batch_loss`` (the forward pass every training step
takes), and compares every parameter gradient against the tape-free
central-difference oracle.  The loss has hinge kinks, so the harness
first checks that no hinge argument sits near zero (stepping the seed if
one does) before trusting the finite differences.  A batch whose score
grid is not finite raises the loss's DataError; no seed is stepped past it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import gen_synthetic
from .errors import ConfigError
from .evaluation import flatten_captions
from .model import ModelConfig, init_params
from .scoring import hardest_negatives
from .tensor import ParamStore, backward, finite_diff_grad, parameter
from .training import batch_loss

# below this, a gradient coordinate counts as zero for the relative error
ERROR_FLOOR = 1e-5
# hinge arguments must clear this margin before finite differences are valid
KINK_CLEARANCE = 1e-3
# jitter applied to every parameter before checking, see _generic_point
JITTER = 0.1


@dataclass(frozen=True)
class ParamCheck:
    name: str
    max_rel_err: float
    passed: bool


@dataclass(frozen=True)
class GradCheckReport:
    checks: list[ParamCheck]
    seed: int
    min_hinge_distance: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def max_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), ERROR_FLOOR)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def _hinge_distance(values: np.ndarray, margin: float) -> float:
    """Smallest |hinge argument| over both loss directions."""
    row_negs, col_negs = hardest_negatives(values)
    ks = np.arange(values.shape[0])
    negatives = np.concatenate([values[ks, row_negs], values[col_negs, ks]])
    return float(np.min(np.abs(margin - np.tile(values[ks, ks], 2) + negatives)))


def _generic_point(params: ParamStore, seed: int) -> ParamStore:
    """Jitter every parameter so no structured zero survives.

    The initializer plants exact zeros (biases, the residual output
    projections), and a path multiplied by an exact zero contributes
    nothing to the loss: analytic and numeric gradients would agree
    there no matter what the tape computes.  Checking at a jittered
    point keeps every path live.
    """
    rng = np.random.default_rng(seed + 7919)
    return params.copy_with({
        name: parameter(t.data + rng.uniform(-JITTER, JITTER, size=t.data.shape)) for name, t in params.items()
    })


def run_gradcheck(
    cfg: ModelConfig,
    k: int,
    caption_len: int,
    batch_size: int = 2,
    margin: float = 0.2,
    epsilon: float = 1e-5,
    tolerance: float = 1e-4,
    seed: int = 0,
) -> GradCheckReport:
    if batch_size < 2:
        raise ConfigError(f"gradcheck batch size must be >= 2, got {batch_size}")
    if not 0.0 < tolerance < np.inf:  # NaN fails both comparisons
        raise ConfigError(f"tolerance must be finite and positive, got {tolerance}")
    if not 0.0 <= margin < np.inf:
        raise ConfigError(f"margin must be finite and >= 0, got {margin}")

    chosen_seed = None
    params = None
    regions = tokens = None
    min_distance = 0.0
    for candidate in range(seed, seed + 10):
        bundles = gen_synthetic(
            n_pairs=batch_size,
            k=k,
            d_raw=cfg.d_raw,
            caption_len=caption_len,
            vocab_size=cfg.vocab_size,
            seed=candidate,
            signal_strength=0.5,
        )
        regions, tokens, _ = flatten_captions(bundles)
        params = _generic_point(init_params(cfg, seed=candidate), candidate)
        grid, loss = batch_loss(params, cfg, margin, regions, tokens)
        min_distance = _hinge_distance(grid.data, margin)
        if min_distance > KINK_CLEARANCE:
            chosen_seed = candidate
            break
    if chosen_seed is None:
        raise ConfigError("no seed found with hinge arguments clear of zero")

    autodiff = backward(loss, params)
    numeric = finite_diff_grad(
        lambda p: batch_loss(p, cfg, margin, regions, tokens)[1].item(), params, epsilon=epsilon
    )

    checks = []
    for name in params.names():
        err = max_relative_error(autodiff[name].data, numeric[name].data)
        checks.append(ParamCheck(name=name, max_rel_err=err, passed=err < tolerance))
    return GradCheckReport(checks=checks, seed=chosen_seed, min_hinge_distance=min_distance)
