"""Training loop, Adam, and checkpoint files.

Each step scores every image against every caption of its batch with no
tape (``backward`` tapes the pairs the loss reads), applies the hinge loss
against the hardest in-batch negatives (``batch_loss``, the one taped
forward pass of a batch, which gradcheck shares), and takes one Adam
step.  Adam's moments live in an ``AdamState`` that each step advances in
place, while every step writes its parameters into fresh arrays, so the
run can keep the parameter snapshot with the best validation rsum without
a copy.  Each step runs in its own call, so only one step's tape and
gradients are alive at a time.  Everything is driven by explicit seeds;
two identical runs produce bitwise-identical loss curves.

A checkpoint is a ``kvfile`` container (format ``itmatch-checkpoint``,
version 2): the manifest holds the dtype, every ``ModelConfig`` field as
``model.<name>`` and every parameter's shape as ``param.<name>``, and
``params.bin`` holds the parameters as little-endian float64 in name order.
The schema is derived, not restated: fields go in ``ModelConfig`` order,
each read back by its annotated type, and ``model.param_shapes`` of the
loaded configuration gives the parameters, their shapes and the blob size.
Version 2 holds each matrix as the forward pass applies it; a version-1
file is refused, since its square weights would load silently transposed.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .dataio import FeatureBundle
from .errors import ConfigError, ContractError, DataError
from .evaluation import RetrievalResult, evaluate, flatten_captions, rsum
from .kvfile import MANIFEST_FILE, Container, write_container
from .model import ModelConfig, init_params, param_shapes, score_grid
from .scoring import LossBatch, bidirectional_ranking_loss
from .tensor import ParamStore, Tensor, backward, run_jobs

CHECKPOINT_FORMAT = "itmatch-checkpoint"
CHECKPOINT_VERSION = 2

# elements per Adam run: the run's slices of the five arrays Adam walks and
# of the scratch buffer (128 KB each) stay in cache through its update
ADAM_BLOCK = 1 << 14

# Kingma & Ba's recommended moment decays and epsilon (arXiv:1412.6980)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# the lr multiplier from lr_decay_epoch on: SCAN's 10x step (arXiv:1803.08024)
LR_DECAY_FACTOR = 0.1

# dataset-profile defaults: (epochs, decay epoch)
PROFILES = {"mscoco": (20, 10), "flickr30k": (40, 30)}


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig
    epochs: int = 20
    lr: float = 2e-4
    lr_decay_epoch: int = 10
    batch_size: int = 128
    margin: float = 0.2
    seed: int = 0
    eval_every: int = 1

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if not 0.0 <= self.lr < math.inf:  # NaN fails both comparisons
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        if not 0 <= self.lr_decay_epoch <= self.epochs:
            raise ConfigError(
                f"lr_decay_epoch must lie in [0, epochs], got {self.lr_decay_epoch}"
            )
        if not 0.0 <= self.margin < math.inf:
            raise ConfigError(f"margin must be finite and >= 0, got {self.margin}")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class AdamState:
    """Adam's moments, owned by the state and advanced in place by each step."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def adam_init(params: ParamStore) -> AdamState:
    """Zero moments, C-contiguous, so that ``adam_step`` advances them through flat views."""
    return AdamState(
        m={name: np.zeros(t.data.shape) for name, t in params.items()},
        v={name: np.zeros(t.data.shape) for name, t in params.items()},
        step=0,
    )


def adam_step(
    params: ParamStore,
    grads: dict[str, Tensor],
    state: AdamState,
    lr: float,
    eps: float = ADAM_EPS,
) -> tuple[ParamStore, AdamState]:
    """One Adam update: a fresh store, and ``state`` advanced in place.

    The update takes Kingma & Ba's efficient order (arXiv:1412.6980, sec. 2):
    with alpha_t = lr * sqrt(1 - beta2^t) / (1 - beta1^t) and
    eps_hat = eps * sqrt(1 - beta2^t), theta <- theta - alpha_t * m /
    (sqrt(v) + eps_hat), which equals the bias-corrected textbook update.
    Each parameter, its gradient, both moments and the new parameter are
    walked as flat views, in runs of ADAM_BLOCK elements; a gradient or
    parameter that is not C-contiguous is copied once.  A first, read-only
    pass checks every run of the gradient and notes which are all +0;
    the second updates each run through a scratch buffer, advancing m and v
    in place (an all-+0 run adds no gradient terms) and writing the
    new parameter into one fresh frozen array, so ``params`` and any store
    kept from an earlier step stay as they were.  The second pass is two
    jobs of ``tensor.run_jobs``, each with its own scratch buffer: the
    parameters in name order, split at about half the elements.
    A missing or misshapen gradient raises ContractError, and one that is
    not finite raises DataError naming the step and the parameter; both
    come from the first pass, so the parameters, gradients and state are
    then exactly as they were.
    """
    t = state.step + 1
    flat = []  # per parameter: its name, the new parameter, the five flat views and which runs are live
    for name, param in params.items():
        if name not in grads:
            raise ContractError(f"gradient missing for parameter {name!r}")
        g = grads[name].data
        if g.shape != param.data.shape:
            raise ContractError(
                f"gradient shape {g.shape} does not match parameter {name!r} {param.data.shape}"
            )
        theta = np.empty(g.shape)
        views = [a.reshape(-1) for a in (g, state.m[name], state.v[name], param.data, theta)]
        live = []
        for lo in range(0, g.size, ADAM_BLOCK):
            g_b = views[0][lo:lo + ADAM_BLOCK]
            # the run's sum of g*g: NaN and inf survive it, and a finite g
            # whose square overflows (|g| > 1e154) is refused too, since v
            # would not be finite; one whose squares underflow, or all -0, is live
            sq = np.vdot(g_b, g_b)
            if not math.isfinite(sq):
                raise DataError(f"step {t}: the gradient of parameter {name!r} is not finite")
            live.append(sq != 0.0 or g_b.view(np.uint64).max() != 0)
        flat.append((name, theta, views, live))

    alpha = lr * math.sqrt(1.0 - ADAM_BETA2 ** t) / (1.0 - ADAM_BETA1 ** t)
    eps_hat = eps * math.sqrt(1.0 - ADAM_BETA2 ** t)

    def update(run):
        scratch = np.empty(ADAM_BLOCK)
        for _, _, views, live in run:
            for lo, live_b in zip(range(0, views[0].size, ADAM_BLOCK), live):
                g_b, m_b, v_b, theta_b, theta_out = (a[lo:lo + ADAM_BLOCK] for a in views)
                s = scratch[:g_b.size]
                v_b *= ADAM_BETA2
                m_b *= ADAM_BETA1
                # an all-+0 run's terms are +0: v >= 0 and m (never -0) keep their bits
                if live_b:
                    np.multiply(g_b, g_b, out=s)
                    s *= 1.0 - ADAM_BETA2
                    v_b += s                                # v = beta2 v + (1 - beta2) g^2
                    np.multiply(g_b, 1.0 - ADAM_BETA1, out=s)
                    m_b += s                                # m = beta1 m + (1 - beta1) g
                np.sqrt(v_b, out=s)
                s += eps_hat
                np.divide(m_b, s, out=s)
                s *= alpha
                np.subtract(theta_b, s, out=theta_out)

    # the first job ends at the parameter that takes it to half the elements
    sizes = list(itertools.accumulate(views[0].size for _, _, views, _ in flat)) or [0]
    cut = next(i + 1 for i, n in enumerate(sizes) if 2 * n >= sizes[-1])
    run_jobs(lambda: update(flat[:cut]), lambda: update(flat[cut:]), 8 * sizes[-1])
    state.step = t
    return ParamStore({name: Tensor(theta, requires_grad=True) for name, theta, _, _ in flat}), state


@dataclass
class TrainResult:
    params: ParamStore
    best_params: ParamStore
    best_rsum: float
    best_epoch: int
    loss_curve: list[tuple[int, float]] = field(default_factory=list)
    # (epoch, sentence recalls, image recalls) of every validation
    val_history: list[tuple[int, RetrievalResult, RetrievalResult]] = field(default_factory=list)


def batch_loss(
    params: ParamStore,
    cfg: ModelConfig,
    margin: float,
    regions: list[np.ndarray],
    tokens: list[list[int]],
) -> tuple[Tensor, Tensor]:
    """The taped forward pass of one batch: its (b, b) score grid and hinge loss."""
    grid = score_grid(params, cfg, regions, tokens)
    return grid, bidirectional_ranking_loss(LossBatch(scores=grid, margin=margin))


def _train_step(
    params: ParamStore,
    state: AdamState,
    config: TrainConfig,
    regions: list[np.ndarray],
    tokens: list[list[int]],
    lr: float,
) -> tuple[ParamStore, float]:
    """One step on one batch: the new store, with ``state`` advanced, and the loss.

    The step's score grid, tape and gradients live only in this call, so
    they are freed before the next step's forward pass and before
    validation.
    """
    try:
        _, loss = batch_loss(params, config.model, config.margin, regions, tokens)
    except DataError as err:  # a score of the batch is not finite
        raise DataError(f"step {state.step + 1}: {err}") from None
    # a finite grid can still overflow the sum of its hinge terms
    value = loss.item()
    if not math.isfinite(value):
        raise DataError(f"step {state.step + 1}: the loss is not finite ({value!r})")
    # a non-finite gradient raises here, before the store or state changes
    params, _ = adam_step(params, backward(loss, params), state, lr)
    return params, value


def train(
    bundles: list[FeatureBundle],
    config: TrainConfig,
    val_bundles: list[FeatureBundle] | None = None,
) -> TrainResult:
    """Train from a seeded initialisation; snapshot the best validation rsum.

    Without a validation set (None) the training set doubles as one, which
    is what small synthetic overfitting runs want.  A step whose loss, score
    grid or gradient is not finite raises DataError naming the step, and a
    validation score that is not finite one naming the epoch.
    """
    if not bundles:
        raise ConfigError("training needs a non-empty dataset")
    val = bundles if val_bundles is None else val_bundles
    regions, captions, owner = flatten_captions(bundles)
    n_pairs = len(captions)
    if n_pairs < 2:
        raise ConfigError("training needs at least two image-caption pairs")

    params = init_params(config.model, seed=config.seed)
    state = adam_init(params)
    shuffle_rng = np.random.default_rng(config.seed)

    loss_curve: list[tuple[int, float]] = []
    val_history: list[tuple[int, RetrievalResult, RetrievalResult]] = []
    best_params = params
    best_rsum = -1.0
    best_epoch = -1
    for epoch in range(config.epochs):
        lr = config.lr * (LR_DECAY_FACTOR if epoch >= config.lr_decay_epoch else 1.0)
        order = shuffle_rng.permutation(n_pairs)
        for start in range(0, n_pairs, config.batch_size):
            batch = order[start:start + config.batch_size]
            if batch.size < 2:
                continue  # a single leftover pair has no in-batch negative
            batch_regions = [regions[owner[i]] for i in batch]
            batch_tokens = [captions[i] for i in batch]
            params, loss = _train_step(params, state, config, batch_regions, batch_tokens, lr)
            loss_curve.append((state.step, loss))
        if (epoch + 1) % config.eval_every == 0 or epoch == config.epochs - 1:
            try:
                sentence, image = evaluate(params, config.model, val)
            except DataError as err:  # a validation score is not finite
                raise DataError(f"epoch {epoch} validation: {err}") from None
            score = rsum([sentence, image])
            val_history.append((epoch, sentence, image))
            if score > best_rsum:
                best_rsum = score
                best_epoch = epoch
                best_params = params
    return TrainResult(
        params=params,
        best_params=best_params,
        best_rsum=best_rsum,
        best_epoch=best_epoch,
        loss_curve=loss_curve,
        val_history=val_history,
    )


def _shape_text(shape: tuple[int, ...]) -> str:
    """A parameter shape as its checkpoint manifest writes it: ``3x4``, or ``scalar``."""
    return "x".join(str(s) for s in shape) if shape else "scalar"


def save_checkpoint(path: str | os.PathLike, params: ParamStore, cfg: ModelConfig) -> None:
    """Container with one float64 blob ``params.bin`` holding every parameter by
    name.  A parameter with a non-finite entry is refused before any file is written."""
    fields = [("dtype", "<f8")]
    fields += [(f"model.{f.name}", getattr(cfg, f.name)) for f in dataclasses.fields(ModelConfig)]
    fields += [(f"param.{name}", _shape_text(t.data.shape)) for name, t in params.items()]
    blob = b"".join(t.data.astype("<f8").tobytes(order="C") for _, t in params.items())
    if not np.isfinite(np.frombuffer(blob, dtype="<f8")).all():
        name = next(name for name, t in params.items() if not np.isfinite(t.data).all())
        raise DataError(f"{os.path.join(path, MANIFEST_FILE)}: parameter {name!r} is not finite")
    write_container(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, fields, {"params": blob})


def _get_bool(container: Container, key: str) -> bool:
    value = container.get_text(key)
    if value in ("True", "true", "1"):
        return True
    if value in ("False", "false", "0"):
        return False
    raise DataError(f"{container.manifest}: field {key!r} is not a boolean: {value!r}")


# how a ModelConfig field of each annotated type is read back from a manifest
_FIELD_READERS = {
    "int": Container.get_int,
    "float": Container.get_float,
    "str": Container.get_text,
    "bool": _get_bool,
}


def load_checkpoint(path: str | os.PathLike) -> tuple[ParamStore, ModelConfig]:
    container = Container(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION)
    if container.get_text("dtype") != "<f8":
        raise DataError(f"{container.manifest}: unsupported dtype {container.fields['dtype']!r}")
    kwargs = {
        f.name: _FIELD_READERS[f.type](container, f"model.{f.name}")
        for f in dataclasses.fields(ModelConfig)
    }
    try:
        cfg = ModelConfig(**kwargs)
    except ConfigError as err:
        raise DataError(f"{container.manifest}: model configuration invalid: {err}") from None

    shapes = param_shapes(cfg)
    stored = {key[len("param."):] for key in container.fields if key.startswith("param.")}
    for name in sorted(shapes.keys() | stored):
        if name not in stored:
            raise DataError(f"{container.manifest}: lacks parameter {name!r}, which its model configuration needs")
        if name not in shapes:
            raise DataError(f"{container.manifest}: parameter {name!r} is not part of its model configuration")
        value, expected = container.fields[f"param.{name}"], _shape_text(shapes[name])
        if value != expected:
            raise DataError(
                f"{container.manifest}: parameter {name!r} has shape {value!r}, "
                f"its model configuration gives {expected!r}"
            )

    total = sum(math.prod(shape) for shape in shapes.values())
    flat = np.frombuffer(container.blob("params", total * 8), dtype="<f8")
    entries = {}
    offset = 0
    for name in sorted(shapes):  # blob order matches store iteration order
        count = math.prod(shapes[name])
        entries[name] = Tensor(flat[offset:offset + count].reshape(shapes[name]), requires_grad=True)
        offset += count
    if not np.isfinite(flat).all():
        name = next(name for name, t in entries.items() if not np.isfinite(t.data).all())
        raise DataError(f"{container.manifest}: parameter {name!r} is not finite")
    return ParamStore(entries), cfg
