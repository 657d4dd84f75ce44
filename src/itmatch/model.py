"""Model configuration, parameter initialisation, and the tiled forward pass.

One scalar score per image-caption pair: encode both modalities, build
local similarity vectors through cross attention, run the image-to-text
node set through gated graph reasoning, mean-pool the text-to-image node
set, fuse the two stream vectors, and apply a linear head.

Every (image, caption) pairing of a tile is scored at once: images are
encoded one by one and stacked, all captions are encoded as one padded
batch, and the pair path runs on (images, captions, ...) arrays, so a
tile costs a fixed number of tape nodes whatever its size.  Captions are
zero-padded to one row past the longest one (the row that longest
caption's global reasoning node takes) and carry their lengths.
``score_matrix`` encodes every caption once, then walks a large
evaluation grid in tiles sized against ``TILE_ELEMENTS``, each trimmed to
one row past its own longest caption.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .attention import local_similarities
from .encoders import GruWeights, encode_texts, global_feature, project_image
from .errors import ConfigError, DataError, DimensionError
from .reasoning import ReasonLayerParams, build_node_set, reason
from .scoring import PairScore, fuse, pool_t2i, score
from .tensor import ParamStore, Tensor

STREAMS = ("both", "i2t_only", "t2i_only")

# entries allowed in the largest array of one score_matrix tile (0.5 MB of
# float64); tiles shrink as widths grow, so evaluation memory stays flat
TILE_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_raw: int = 2048
    embed_dim: int = 300
    hidden_dim: int = 1024
    sim_dim: int = 256
    n_layers: int = 3
    temperature: float = 9.0
    stream: str = "both"
    hierarchical: bool = True
    row_softmax: bool = False
    share_sim_w: bool = False
    max_caption_len: int = 128

    def __post_init__(self):
        for field in ("vocab_size", "d_raw", "embed_dim", "hidden_dim", "sim_dim", "max_caption_len"):
            if getattr(self, field) < 1:
                raise ConfigError(f"{field} must be >= 1, got {getattr(self, field)}")
        if self.n_layers < 0:
            raise ConfigError(f"n_layers must be >= 0, got {self.n_layers}")
        if self.temperature <= 0.0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if self.stream not in STREAMS:
            raise ConfigError(f"stream must be one of {STREAMS}, got {self.stream!r}")

    @property
    def uses_i2t(self) -> bool:
        return self.stream in ("both", "i2t_only")

    @property
    def uses_t2i(self) -> bool:
        return self.stream in ("both", "t2i_only")


@dataclass(frozen=True)
class EncodedImage:
    local: Tensor  # (k, d)
    glob: Tensor   # (d,)


@dataclass(frozen=True)
class EncodedCaptions:
    local: Tensor         # (C, rows, d), zero from row lengths[c] on; rows > max(lengths)
    lengths: np.ndarray   # (C,) word counts
    glob: Tensor          # (C, d), over each caption's words only


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter of cfg's model, in creation order.

    Streams that are switched off have no parameters.  Nothing is allocated
    or drawn, so a checkpoint can be checked against its config cheaply.
    """
    d, m = cfg.hidden_dim, cfg.sim_dim
    shapes: dict[str, tuple[int, ...]] = {"embed.table": (cfg.vocab_size, cfg.embed_dim)}
    for direction in ("fwd", "bwd"):
        for gate in ("reset", "update", "cand"):
            shapes[f"gru.{direction}.w_{gate}"] = (d, cfg.embed_dim)
            shapes[f"gru.{direction}.u_{gate}"] = (d, d)
            shapes[f"gru.{direction}.b_{gate}"] = (d,)
    shapes["img_proj.w"] = (cfg.d_raw, d)
    shapes["img_proj.b"] = (d,)
    if cfg.share_sim_w:
        shapes["sim.w_shared"] = (m, d)
    else:
        shapes["sim.w_glob"] = (m, d)
        if cfg.uses_i2t:
            shapes["sim.w_i2t"] = (m, d)
        if cfg.uses_t2i:
            shapes["sim.w_t2i"] = (m, d)
    if cfg.uses_i2t:
        for i in range(cfg.n_layers):
            for name in ("w_query", "w_key", "w_out", "w_mix"):
                shapes[f"reason.{i}.{name}"] = (m, m)
            shapes[f"reason.{i}.kernel"] = (3, 3)
            shapes[f"reason.{i}.bias"] = ()
    shapes["head.w"] = (m,)
    shapes["head.b"] = ()
    return shapes


def _init_bound(name: str, shape: tuple[int, ...]) -> float | None:
    """Half-width of a parameter's uniform start, or None to start at zero."""
    leaf = name.rsplit(".", 1)[1]
    if name == "embed.table":
        # word vectors start at unit scale; fan-in scaling would starve the
        # GRU, whose inputs these are, of signal at the start of training
        return 1.0
    if leaf in ("b", "bias", "w_out") or leaf.startswith("b_"):
        # biases start at zero, and so does each reasoning layer's residual
        # output projection: every layer is then a no-op at first and a deep
        # model scores exactly like its depth-0 counterpart; with a random
        # start the residual updates drown the global node and training
        # stalls for thousands of steps
        return None
    if name == "img_proj.w":
        fan_in = shape[0]  # applied as regions @ w
    elif leaf == "kernel":
        fan_in = 9
    else:
        fan_in = shape[-1]
    return math.sqrt(3.0 / fan_in)


def init_params(cfg: ModelConfig, seed: int = 0) -> ParamStore:
    """Seeded LeCun-uniform weights (variance 1/fan_in), zero biases.

    Two deliberate exceptions: the embedding table starts at unit scale, and
    each reasoning layer's output projection starts at zero (see
    ``_init_bound``).  Parameters are drawn in ``param_shapes`` order, so
    one seed always yields the same store.
    """
    rng = np.random.default_rng(seed)
    store = ParamStore()
    for name, shape in param_shapes(cfg).items():
        bound = _init_bound(name, shape)
        values = np.zeros(shape) if bound is None else rng.uniform(-bound, bound, size=shape)
        store.add(name, tt.parameter(values))
    return store


def _gru_weights(params: ParamStore, direction: str) -> GruWeights:
    return GruWeights(
        w_reset=params[f"gru.{direction}.w_reset"],
        w_update=params[f"gru.{direction}.w_update"],
        w_cand=params[f"gru.{direction}.w_cand"],
        u_reset=params[f"gru.{direction}.u_reset"],
        u_update=params[f"gru.{direction}.u_update"],
        u_cand=params[f"gru.{direction}.u_cand"],
        b_reset=params[f"gru.{direction}.b_reset"],
        b_update=params[f"gru.{direction}.b_update"],
        b_cand=params[f"gru.{direction}.b_cand"],
    )


def layer_params(params: ParamStore, index: int) -> ReasonLayerParams:
    return ReasonLayerParams(
        w_query=params[f"reason.{index}.w_query"],
        w_key=params[f"reason.{index}.w_key"],
        w_out=params[f"reason.{index}.w_out"],
        w_mix=params[f"reason.{index}.w_mix"],
        kernel=params[f"reason.{index}.kernel"],
        bias=params[f"reason.{index}.bias"],
    )


def _sim_weights(params: ParamStore, cfg: ModelConfig) -> tuple[Tensor, Tensor | None, Tensor | None]:
    if cfg.share_sim_w:
        shared = params["sim.w_shared"]
        return (
            shared,
            shared if cfg.uses_i2t else None,
            shared if cfg.uses_t2i else None,
        )
    return (
        params["sim.w_glob"],
        params["sim.w_i2t"] if cfg.uses_i2t else None,
        params["sim.w_t2i"] if cfg.uses_t2i else None,
    )


def encode_image(params: ParamStore, cfg: ModelConfig, regions) -> EncodedImage:
    regions = np.asarray(regions, dtype=np.float64)
    if regions.ndim != 2 or regions.shape[1] != cfg.d_raw:
        raise DimensionError(
            f"region features must be (k, {cfg.d_raw}), got {regions.shape}"
        )
    local = project_image(regions, params["img_proj.w"], params["img_proj.b"])
    return EncodedImage(local=local, glob=global_feature(local))


def encode_caption(params: ParamStore, cfg: ModelConfig, token_lists) -> EncodedCaptions:
    """Encode a batch of captions together, padded to one row past the longest."""
    local, lengths = encode_texts(
        token_lists,
        params["embed.table"],
        _gru_weights(params, "fwd"),
        _gru_weights(params, "bwd"),
        max_len=cfg.max_caption_len,
    )
    return EncodedCaptions(local=local, lengths=lengths, glob=global_feature(local, lengths))


def score_tile(
    params: ParamStore,
    cfg: ModelConfig,
    images: Sequence[EncodedImage],
    captions: EncodedCaptions,
) -> tuple[Tensor, Tensor]:
    """Scores (I, C) and fused vectors (I, C, m) of every image x caption pairing."""
    if not images:
        raise DimensionError("a tile needs at least one image and one caption")
    regions = {img.local.shape for img in images}
    if len(regions) != 1:
        raise DimensionError(f"images in one tile must share one region shape, got {sorted(regions)}")
    lengths = captions.lengths
    # the rows past each caption's last word are zero; the first of them
    # holds its global reasoning node
    word_mask = np.arange(captions.local.shape[1]) < lengths[:, None]
    w_glob, w_i2t, w_t2i = _sim_weights(params, cfg)
    local = local_similarities(
        tt.stack([img.local for img in images]),
        captions.local,
        cfg.temperature,
        w_glob,
        # with no reasoning layer the i2t stream is its global node alone
        w_i2t=w_i2t if cfg.n_layers else None,
        w_t2i=w_t2i,
        v_glob=tt.stack([img.glob for img in images]),
        t_glob=captions.glob,
        word_mask=word_mask,
    )
    s_i2t = None
    if cfg.uses_i2t:
        if cfg.n_layers == 0:
            s_i2t = local.s_glob
        else:
            nodes = build_node_set(local.s_i2t, local.s_glob, lengths)
            layers = [layer_params(params, i) for i in range(cfg.n_layers)]
            s_i2t = reason(
                nodes, layers, hierarchical=cfg.hierarchical, row_softmax=cfg.row_softmax,
                global_rows=lengths,
            )
    s_t2i = None
    if cfg.uses_t2i:
        s_t2i = pool_t2i(tt.vstack([local.s_t2i, local.s_glob]))
    fused = fuse(s_i2t, s_t2i, cfg.stream)
    return score(fused, params["head.w"], params["head.b"]), fused


def pair_score(params: ParamStore, cfg: ModelConfig, regions, tokens) -> PairScore:
    """Score of one pair: a 1 x 1 tile."""
    scores, fused = score_tile(
        params, cfg, [encode_image(params, cfg, regions)], encode_caption(params, cfg, [tokens])
    )
    return PairScore(score=tt.reshape(scores, ()), fused=tt.reshape(fused, fused.shape[-1:]))


def score_grid(params: ParamStore, cfg: ModelConfig, region_list, token_lists) -> Tensor:
    """(b, b) score grid; row = image index, column = caption index.

    Each item is encoded once; the grid is a single tile.
    """
    if len(region_list) != len(token_lists):
        raise DimensionError(
            f"grid needs matched lists, got {len(region_list)} images"
            f" and {len(token_lists)} captions"
        )
    images = [encode_image(params, cfg, r) for r in region_list]
    return score_tile(params, cfg, images, encode_caption(params, cfg, token_lists))[0]


def _tile_shape(cfg: ModelConfig, k: int, rows: int, n_captions: int) -> tuple[int, int]:
    """(images, captions) per tile so that the largest per-pair array,
    max(k, rows) x max(d, m, k, rows), fits TILE_ELEMENTS."""
    per_pair = max(k, rows) * max(cfg.hidden_dim, cfg.sim_dim, k, rows)
    pairs = max(1, TILE_ELEMENTS // per_pair)
    captions = min(n_captions, pairs)
    return max(1, pairs // captions), captions


def _caption_slice(captions: EncodedCaptions, start: int, stop: int) -> EncodedCaptions:
    """Gradient-free captions start..stop-1, trimmed to one row past their longest."""
    lengths = captions.lengths[start:stop]
    rows = int(lengths.max()) + 1
    return EncodedCaptions(
        local=tt.constant(captions.local.data[start:stop, :rows]),
        lengths=lengths,
        glob=tt.constant(captions.glob.data[start:stop]),
    )


def score_matrix(params: ParamStore, cfg: ModelConfig, region_list, token_lists) -> np.ndarray:
    """Dense evaluation scores (n_images, n_captions), gradient-free.

    Raises DataError naming the first pair whose score is not finite.
    """
    with tt.no_grad():
        images = [encode_image(params, cfg, r) for r in region_list]
        out = np.empty((len(images), len(token_lists)))
        if images and len(token_lists):
            captions = encode_caption(params, cfg, token_lists)
            n_captions, rows = captions.local.shape[:2]
            tile_images, tile_captions = _tile_shape(cfg, images[0].local.shape[0], rows, n_captions)
            for j in range(0, n_captions, tile_captions):
                tile = _caption_slice(captions, j, j + tile_captions)
                for i in range(0, len(images), tile_images):
                    scores, _ = score_tile(params, cfg, images[i:i + tile_images], tile)
                    out[i:i + tile_images, j:j + tile_captions] = scores.data
    bad = np.argwhere(~np.isfinite(out))
    if bad.size:
        i, j = (int(x) for x in bad[0])
        raise DataError(f"score of image {i} and caption {j} is not finite ({out[i, j]!r})")
    return out
