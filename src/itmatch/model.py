"""Model configuration, parameter initialisation, and the tiled forward pass.

One scalar score per image-caption pair: encode both modalities, build
local similarity vectors through cross attention, run the image-to-text
node set through gated graph reasoning, mean-pool the text-to-image node
set, fuse the two stream vectors, and apply a linear head.

Every (image, caption) pairing of a tile is scored at once: a tile's
images are encoded as one batch in one projection, its captions as one
padded batch, and the pair path runs on (images, captions, ...) arrays,
so a tile costs a fixed number of tape nodes whatever its size.
Captions are zero-padded to one row past the longest one (the row that
longest caption's global reasoning node takes) and carry their lengths.
``score_matrix`` encodes every caption once, then walks a large
evaluation grid in tiles sized against ``TILE_ELEMENTS``: it encodes each
tile of images once and scores it against caption slices, each trimmed to
one row past its own longest caption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .attention import local_similarities
from .encoders import encode_texts, global_feature, project_image
from .errors import ConfigError, DataError, DimensionError
from .reasoning import ReasonLayerParams, build_node_set, reason
from .scoring import fuse, pool_t2i, score
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
        if not 0.0 < self.temperature < math.inf:  # NaN fails both comparisons
            raise ConfigError(f"temperature must be finite and positive, got {self.temperature}")
        if self.stream not in STREAMS:
            raise ConfigError(f"stream must be one of {STREAMS}, got {self.stream!r}")

    @property
    def uses_i2t(self) -> bool:
        return self.stream in ("both", "i2t_only")

    @property
    def uses_t2i(self) -> bool:
        return self.stream in ("both", "t2i_only")


@dataclass(frozen=True)
class EncodedImages:
    local: Tensor  # (I, k, d)
    glob: Tensor   # (I, d)


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


def _gru_weights(params: ParamStore, direction: str) -> tuple[Tensor, ...]:
    """One direction's nine GRU tensors in ``tensor.gru_sequence`` order."""
    return tuple(
        params[f"gru.{direction}.{kind}_{gate}"]
        for kind in ("w", "u", "b")
        for gate in ("reset", "update", "cand")
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


def encode_image(params: ParamStore, cfg: ModelConfig, region_list) -> EncodedImages:
    """Encode a batch of (k, d_raw) region matrices together, in one projection."""
    regions = [np.asarray(r, dtype=np.float64) for r in region_list]
    shapes = sorted({r.shape for r in regions})
    if len(shapes) != 1 or len(shapes[0]) != 2 or shapes[0][1] != cfg.d_raw:
        raise DimensionError(
            f"images of one batch must share one (k, {cfg.d_raw}) region shape, got {shapes}"
        )
    local = project_image(np.stack(regions), params["img_proj.w"], params["img_proj.b"])
    return EncodedImages(local=local, glob=global_feature(local))


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
    images: EncodedImages,
    captions: EncodedCaptions,
) -> Tensor:
    """Scores (I, C) of every image x caption pairing."""
    lengths = captions.lengths
    # the rows past each caption's last word are zero; the first of them
    # holds its global reasoning node
    word_mask = np.arange(captions.local.shape[1]) < lengths[:, None]
    w_glob, w_i2t, w_t2i = _sim_weights(params, cfg)
    local = local_similarities(
        images.local, captions.local, images.glob, captions.glob, word_mask,
        cfg.temperature, w_glob,
        # with no reasoning layer the i2t stream is its global node alone
        w_i2t=w_i2t if cfg.n_layers else None,
        w_t2i=w_t2i,
    )
    s_i2t = None
    if cfg.uses_i2t:
        if cfg.n_layers == 0:
            s_i2t = local.s_glob
        else:
            nodes = build_node_set(local.s_i2t, local.s_glob, lengths)
            layers = [layer_params(params, i) for i in range(cfg.n_layers)]
            s_i2t = reason(
                nodes, layers, lengths, hierarchical=cfg.hierarchical, row_softmax=cfg.row_softmax,
            )
    s_t2i = None
    if cfg.uses_t2i:
        s_t2i = pool_t2i(tt.vstack([local.s_t2i, local.s_glob]))
    return score(fuse(s_i2t, s_t2i), params["head.w"], params["head.b"])


def score_grid(params: ParamStore, cfg: ModelConfig, region_list, token_lists) -> Tensor:
    """(b, b) score grid; row = image index, column = caption index.

    The grid is a single tile: all images are encoded in one batch, all
    captions in another.
    """
    if len(region_list) != len(token_lists):
        raise DimensionError(
            f"grid needs matched lists, got {len(region_list)} images"
            f" and {len(token_lists)} captions"
        )
    images = encode_image(params, cfg, region_list)
    return score_tile(params, cfg, images, encode_caption(params, cfg, token_lists))


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
        out = np.empty((len(region_list), len(token_lists)))
        if len(region_list) and len(token_lists):
            captions = encode_caption(params, cfg, token_lists)
            n_captions, rows = captions.local.shape[:2]
            # encode_image rejects a region matrix that is not 2-D
            k = np.shape(region_list[0])[0] if np.ndim(region_list[0]) == 2 else 1
            tile_images, tile_captions = _tile_shape(cfg, k, rows, n_captions)
            for i in range(0, len(region_list), tile_images):
                images = encode_image(params, cfg, region_list[i:i + tile_images])
                for j in range(0, n_captions, tile_captions):
                    tile = _caption_slice(captions, j, j + tile_captions)
                    out[i:i + tile_images, j:j + tile_captions] = score_tile(params, cfg, images, tile).data
    bad = np.argwhere(~np.isfinite(out))
    if bad.size:
        i, j = (int(x) for x in bad[0])
        raise DataError(f"score of image {i} and caption {j} is not finite ({out[i, j]!r})")
    return out
