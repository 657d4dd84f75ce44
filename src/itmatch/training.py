"""Training loop, Adam, and checkpoint files.

Each step scores every image against every caption of its batch, applies
the bidirectional hinge loss against the hardest in-batch negatives, and
takes one Adam step.  The run keeps the parameter snapshot with the best
validation rsum.  Everything is driven by explicit seeds; two identical
runs produce bitwise-identical loss curves.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tt
from .dataio import FeatureBundle
from .errors import ConfigError, ContractError, DataError
from .evaluation import evaluate, flatten_captions, rsum
from .kvfile import read_kv, write_kv
from .model import ModelConfig, init_params, param_shapes, score_grid
from .scoring import LossBatch, bidirectional_ranking_loss
from .tensor import ParamStore, Tensor, backward

CHECKPOINT_FORMAT = "itmatch-checkpoint"
CHECKPOINT_VERSION = 1
CHECKPOINT_MANIFEST = "manifest"
CHECKPOINT_BLOB = "params.bin"

# elements per Adam block: the block's slices of the parameter, its
# gradient, both moments, their outputs and the scratch buffer (128 KB
# each) stay in cache through the whole update of the block
ADAM_BLOCK = 1 << 14

# dataset-profile defaults: (epochs, decay epoch)
PROFILES = {"mscoco": (20, 10), "flickr30k": (40, 30)}


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig
    epochs: int = 20
    lr: float = 2e-4
    lr_decay_epoch: int = 10
    lr_decay_factor: float = 0.1
    batch_size: int = 128
    margin: float = 0.2
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    eval_every: int = 1

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.lr < 0.0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")
        if not 0 <= self.lr_decay_epoch <= self.epochs:
            raise ConfigError(
                f"lr_decay_epoch must lie in [0, epochs], got {self.lr_decay_epoch}"
            )
        if self.margin < 0.0:
            raise ConfigError(f"margin must be >= 0, got {self.margin}")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {self.eval_every}")


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def adam_init(params: ParamStore) -> AdamState:
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
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[ParamStore, AdamState]:
    """One Adam update; returns a fresh store and state, inputs untouched.

    The update takes Kingma & Ba's efficient order (arXiv:1412.6980, sec. 2):
    with alpha_t = lr * sqrt(1 - beta2^t) / (1 - beta1^t) and
    eps_hat = eps * sqrt(1 - beta2^t), theta <- theta - alpha_t * m /
    (sqrt(v) + eps_hat), which equals the bias-corrected textbook update.
    Each parameter is walked in blocks of ADAM_BLOCK elements, one pass per
    block through a reused scratch buffer, straight into fresh outputs.
    A gradient that is not finite raises DataError, naming the step and
    the parameter, before anything is returned.
    """
    t = state.step + 1
    alpha = lr * math.sqrt(1.0 - beta2 ** t) / (1.0 - beta1 ** t)
    eps_hat = eps * math.sqrt(1.0 - beta2 ** t)
    scratch = np.empty(ADAM_BLOCK)
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    updates: dict[str, Tensor] = {}
    for name, param in params.items():
        if name not in grads:
            raise ContractError(f"gradient missing for parameter {name!r}")
        g = grads[name].data
        if g.shape != param.data.shape:
            raise ContractError(
                f"gradient shape {g.shape} does not match parameter {name!r} {param.data.shape}"
            )
        m, v, theta = np.empty(g.shape), np.empty(g.shape), np.empty(g.shape)
        arrays = (g, state.m[name], state.v[name], param.data, m, v, theta)
        if g.size <= ADAM_BLOCK:
            blocks = [arrays]  # one block, taken as it is: no flat views to build
        else:
            flat = [a.reshape(-1) for a in arrays]
            blocks = ([a[lo:lo + ADAM_BLOCK] for a in flat] for lo in range(0, g.size, ADAM_BLOCK))
        for g_b, m_b, v_b, theta_b, m_out, v_out, theta_out in blocks:
            # the block's sum of g*g: NaN and inf survive it, and a finite g
            # whose square overflows (|g| > 1e154) is refused too, since v
            # would not be finite
            if not math.isfinite(np.vdot(g_b, g_b)):
                raise DataError(f"step {t}: the gradient of parameter {name!r} is not finite")
            s = scratch[:g_b.size].reshape(g_b.shape)
            np.multiply(g_b, g_b, out=s)
            s *= 1.0 - beta2
            np.multiply(v_b, beta2, out=v_out)
            v_out += s                                  # v = beta2 v + (1 - beta2) g^2
            np.multiply(g_b, 1.0 - beta1, out=s)
            np.multiply(m_b, beta1, out=m_out)
            m_out += s                                  # m = beta1 m + (1 - beta1) g
            np.sqrt(v_out, out=s)
            s += eps_hat
            np.divide(m_out, s, out=s)
            s *= alpha
            np.subtract(theta_b, s, out=theta_out)
        m.flags.writeable = v.flags.writeable = False
        new_m[name], new_v[name] = m, v
        updates[name] = tt.adopt(theta, requires_grad=True)
    return params.copy_with(updates), AdamState(m=new_m, v=new_v, step=t)


@dataclass
class TrainResult:
    params: ParamStore
    best_params: ParamStore
    best_rsum: float
    best_epoch: int
    loss_curve: list[tuple[int, float]] = field(default_factory=list)
    val_history: list[tuple[int, float]] = field(default_factory=list)


def train(
    bundles: list[FeatureBundle],
    config: TrainConfig,
    val_bundles: list[FeatureBundle] | None = None,
) -> TrainResult:
    """Train from a seeded initialisation; snapshot the best validation rsum.

    Without a validation set the training set doubles as one, which is
    what small synthetic overfitting runs want.  A step whose loss or
    gradient is not finite raises DataError naming the step.
    """
    if not bundles:
        raise ConfigError("training needs a non-empty dataset")
    val = val_bundles if val_bundles else bundles
    regions, captions, owner = flatten_captions(bundles)
    n_pairs = len(captions)
    if n_pairs < 2:
        raise ConfigError("training needs at least two image-caption pairs")

    params = init_params(config.model, seed=config.seed)
    state = adam_init(params)
    shuffle_rng = np.random.default_rng(config.seed)

    loss_curve: list[tuple[int, float]] = []
    val_history: list[tuple[int, float]] = []
    best_params = params
    best_rsum = -1.0
    best_epoch = -1
    step = 0
    for epoch in range(config.epochs):
        lr = config.lr * (config.lr_decay_factor if epoch >= config.lr_decay_epoch else 1.0)
        order = shuffle_rng.permutation(n_pairs)
        for start in range(0, n_pairs, config.batch_size):
            batch = order[start:start + config.batch_size]
            if batch.size < 2:
                continue  # a single leftover pair has no in-batch negative
            batch_regions = [regions[owner[i]] for i in batch]
            batch_tokens = [captions[i] for i in batch]
            grid = score_grid(params, config.model, batch_regions, batch_tokens)
            loss = bidirectional_ranking_loss(LossBatch(scores=grid, margin=config.margin))
            if not math.isfinite(loss.item()):
                raise DataError(f"step {step + 1}: the loss is not finite ({loss.item()!r})")
            grads = backward(loss, params)
            # a non-finite gradient raises here, before params is replaced
            params, state = adam_step(
                params, grads, state, lr,
                beta1=config.beta1, beta2=config.beta2, eps=config.adam_eps,
            )
            step += 1
            loss_curve.append((step, loss.item()))
        if (epoch + 1) % config.eval_every == 0 or epoch == config.epochs - 1:
            sentence, image = evaluate(params, config.model, val)
            score = rsum([sentence, image])
            val_history.append((epoch, score))
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


def write_loss_csv(path: str | os.PathLike, curve: list[tuple[int, float]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,loss\n")
        for step, loss in curve:
            fh.write(f"{step},{loss!r}\n")


_MODEL_FIELDS = (
    "vocab_size", "d_raw", "embed_dim", "hidden_dim", "sim_dim", "n_layers",
    "temperature", "stream", "hierarchical", "row_softmax", "share_sim_w",
    "max_caption_len",
)


def save_checkpoint(path: str | os.PathLike, params: ParamStore, cfg: ModelConfig) -> None:
    """Manifest plus one float64 blob holding every parameter by name."""
    os.makedirs(path, exist_ok=True)
    blob = b"".join(t.data.astype("<f8").tobytes(order="C") for _, t in params.items())
    lines = [
        ("format", CHECKPOINT_FORMAT),
        ("version", CHECKPOINT_VERSION),
        ("dtype", "<f8"),
    ]
    for name in _MODEL_FIELDS:
        lines.append((f"model.{name}", getattr(cfg, name)))
    for name, t in params.items():
        shape = "x".join(str(s) for s in t.data.shape) if t.data.shape else "scalar"
        lines.append((f"param.{name}", shape))
    lines.append(("checksum_params", hashlib.sha256(blob).hexdigest()))
    with open(os.path.join(path, CHECKPOINT_BLOB), "wb") as fh:
        fh.write(blob)
    write_kv(os.path.join(path, CHECKPOINT_MANIFEST), lines)


def _parse_bool(value: str, key: str) -> bool:
    if value in ("True", "true", "1"):
        return True
    if value in ("False", "false", "0"):
        return False
    raise DataError(f"checkpoint field {key!r} is not a boolean: {value!r}")


def load_checkpoint(path: str | os.PathLike) -> tuple[ParamStore, ModelConfig]:
    manifest_path = os.path.join(path, CHECKPOINT_MANIFEST)
    if not os.path.exists(manifest_path):
        raise DataError(f"no checkpoint manifest at {manifest_path}")
    fields = read_kv(manifest_path)
    if fields.get("format") != CHECKPOINT_FORMAT:
        raise DataError(f"unexpected checkpoint format {fields.get('format')!r}")
    if fields.get("version") != str(CHECKPOINT_VERSION):
        raise DataError(f"unsupported checkpoint version {fields.get('version')!r}")
    if fields.get("dtype") != "<f8":
        raise DataError(f"unsupported checkpoint dtype {fields.get('dtype')!r}")

    kwargs = {}
    for name in _MODEL_FIELDS:
        key = f"model.{name}"
        if key not in fields:
            raise DataError(f"checkpoint is missing field {key!r}")
        raw = fields[key]
        if name in ("hierarchical", "row_softmax", "share_sim_w"):
            kwargs[name] = _parse_bool(raw, key)
        elif name == "temperature":
            kwargs[name] = float(raw)
        elif name == "stream":
            kwargs[name] = raw
        else:
            try:
                kwargs[name] = int(raw)
            except ValueError:
                raise DataError(f"checkpoint field {key!r} is not an integer: {raw!r}") from None
    try:
        cfg = ModelConfig(**kwargs)
    except ConfigError as err:
        raise DataError(f"checkpoint model configuration invalid: {err}") from None

    shapes: dict[str, tuple[int, ...]] = {}
    for key, value in fields.items():
        if not key.startswith("param."):
            continue
        name = key[len("param."):]
        if value == "scalar":
            shapes[name] = ()
        else:
            try:
                shapes[name] = tuple(int(s) for s in value.split("x"))
            except ValueError:
                raise DataError(f"checkpoint field {key!r} has a bad shape: {value!r}") from None
    expected = param_shapes(cfg)
    for name in sorted(expected.keys() | shapes.keys()):
        if name not in shapes:
            raise DataError(f"checkpoint lacks parameter {name!r}, which its model configuration needs")
        if name not in expected:
            raise DataError(f"checkpoint parameter {name!r} is not part of its model configuration")
        if shapes[name] != expected[name]:
            raise DataError(
                f"checkpoint parameter {name!r} has shape {shapes[name]}, "
                f"its model configuration gives {expected[name]}"
            )

    blob_path = os.path.join(path, CHECKPOINT_BLOB)
    if not os.path.exists(blob_path):
        raise DataError(f"checkpoint blob missing: {CHECKPOINT_BLOB}")
    with open(blob_path, "rb") as fh:
        blob = fh.read()
    total = sum(int(np.prod(s)) if s else 1 for s in shapes.values())
    if len(blob) != total * 8:
        raise DataError(f"params.bin: expected {total * 8} bytes, found {len(blob)}")
    if "checksum_params" not in fields:
        raise DataError("checkpoint is missing field 'checksum_params'")
    if hashlib.sha256(blob).hexdigest() != fields["checksum_params"]:
        raise DataError("checksum mismatch for checksum_params")

    flat = np.frombuffer(blob, dtype="<f8")
    store = ParamStore()
    offset = 0
    for name in sorted(shapes):  # blob order matches store iteration order
        shape = shapes[name]
        count = int(np.prod(shape)) if shape else 1
        values = flat[offset:offset + count].reshape(shape)
        store.add(name, tt.parameter(values))
        offset += count
    return store, cfg
