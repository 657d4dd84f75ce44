"""Model configuration, parameter initialisation, and the tiled forward pass.

One scalar score per image-caption pair: encode both modalities, build
local similarity vectors through cross attention (the text-to-image
stream's already mean-pooled), run the image-to-text node set through
gated graph reasoning, sum the stream vectors that ran, and apply a
linear head.  The store holds exactly the parameters this pass reads,
each stored as it is applied (``x @ W``; ``W x`` inside the GRU node).

Every (image, caption) pairing of a tile is scored at once: a tile's
images are encoded as one batch in one projection, its captions as one
padded batch, and the pair path runs on (images, captions, ...) arrays,
so a tile costs a fixed number of tape nodes whatever its size.
Captions are zero-padded to one row past the longest one (the row that
longest caption's global reasoning node takes) and carry their lengths.
``score_matrix`` encodes every caption once and sorts the captions by
length, then walks a large evaluation grid in tiles sized against
``TILE_ELEMENTS`` at each tile's own rows: it encodes each tile of images
once and scores it against caption tiles of neighbouring lengths, each
gathered and trimmed to one row past its own longest caption, and puts
the scores back in the captions' columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .attention import local_similarities
from .encoders import encode_texts, global_feature, project_image
from .errors import ConfigError, DimensionError
from .reasoning import ReasonLayerParams, reason
from .scoring import check_finite, score
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
    local: Tensor  # (I, 1, k, d): the length-1 axis broadcasts against a tile's captions
    glob: Tensor   # (I, 1, d)


@dataclass(frozen=True)
class EncodedCaptions:
    local: Tensor         # (C, rows, d), zero from row lengths[c] on; rows > max(lengths)
    lengths: np.ndarray   # (C,) word counts
    glob: Tensor          # (C, d), over each caption's words only; P gathered pairs: (P, 1, ...)


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter of cfg's model, in creation order.

    Only what the forward pass reads: nothing for a stream switched off,
    no i2t weight at depth 0, no gate when ungated.  Each matrix but the
    GRU's is (in, out), as ``x @ W`` applies it.  Nothing is allocated or
    drawn, so a checkpoint can be checked against its config cheaply.
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
        shapes["sim.w_shared"] = (d, m)
    else:
        shapes["sim.w_glob"] = (d, m)
        if cfg.uses_i2t and cfg.n_layers:
            shapes["sim.w_i2t"] = (d, m)
        if cfg.uses_t2i:
            shapes["sim.w_t2i"] = (d, m)
    if cfg.uses_i2t:
        for i in range(cfg.n_layers):
            for name in ("w_query", "w_key", "w_out", "w_mix"):
                shapes[f"reason.{i}.{name}"] = (m, m)
            if cfg.hierarchical:
                shapes[f"reason.{i}.kernel"] = (3, 3)
                shapes[f"reason.{i}.bias"] = ()
    shapes["head.w"] = (m,)
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
    if leaf == "kernel":
        fan_in = 9
    elif name.startswith("gru."):
        fan_in = shape[-1]  # applied as W x inside tensor.gru_sequence
    else:
        fan_in = shape[0]  # applied as x @ W
    return math.sqrt(3.0 / fan_in)


def init_params(cfg: ModelConfig, seed: int = 0) -> ParamStore:
    """Seeded LeCun-uniform weights (variance 1/fan_in), zero biases.

    Two deliberate exceptions: the embedding table starts at unit scale, and
    each reasoning layer's output projection starts at zero (see
    ``_init_bound``).  Parameters are drawn in ``param_shapes`` order, so
    one seed always yields the same store.  Similarity, query and key
    weights are drawn (out, in), as format 1 stored them, then transposed.
    """
    rng = np.random.default_rng(seed)
    entries = {}
    for name, shape in param_shapes(cfg).items():
        bound = _init_bound(name, shape)
        if bound is None:
            values = np.zeros(shape)
        elif name.startswith("sim.") or name.endswith(("w_query", "w_key")):
            values = np.ascontiguousarray(rng.uniform(-bound, bound, size=shape[::-1]).T)
        else:
            values = rng.uniform(-bound, bound, size=shape)
        entries[name] = tt.Tensor(values, requires_grad=True)
    return ParamStore(entries)


def _gru_weights(params: ParamStore, direction: str) -> tuple[Tensor, ...]:
    """One direction's nine GRU tensors in ``tensor.gru_sequence`` order."""
    return tuple(
        params[f"gru.{direction}.{kind}_{gate}"]
        for kind in ("w", "u", "b")
        for gate in ("reset", "update", "cand")
    )


def layer_params(params: ParamStore, cfg: ModelConfig, index: int) -> ReasonLayerParams:
    """Reasoning layer ``index``, with its gate only under ``cfg.hierarchical``."""
    names = ("w_query", "w_key", "w_out", "w_mix") + (("kernel", "bias") if cfg.hierarchical else ())
    return ReasonLayerParams(**{name: params[f"reason.{index}.{name}"] for name in names})


def encode_image(params: ParamStore, cfg: ModelConfig, region_list) -> EncodedImages:
    """Encode a batch of (k, d_raw) region matrices together, in one projection,
    stacked (I, 1, k, d_raw) so every image carries its caption axis."""
    regions = [np.asarray(r, dtype=np.float64) for r in region_list]
    shapes = sorted({r.shape for r in regions})
    if len(shapes) != 1 or len(shapes[0]) != 2 or shapes[0][1] != cfg.d_raw:
        raise DimensionError(
            f"images of one batch must share one (k, {cfg.d_raw}) region shape, got {shapes}"
        )
    local = project_image(np.stack(regions)[:, None], params["img_proj.w"], params["img_proj.b"])
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


def _score_pairs(weights, cfg: ModelConfig, images: EncodedImages, captions: EncodedCaptions) -> Tensor:
    """Scores (I, C) of (I, 1, ...) images against (C, ...) captions, or (P, 1) of P aligned pairs."""
    lengths = captions.lengths
    # the rows past each caption's last word are zero; the first of them
    # holds its global reasoning node
    word_mask = np.arange(captions.local.shape[-2]) < lengths[..., None]

    def sim_w(name: str) -> Tensor:
        return weights["sim.w_shared" if cfg.share_sim_w else f"sim.{name}"]

    local = local_similarities(
        images.local, captions.local, images.glob, captions.glob, word_mask,
        cfg.temperature, sim_w("w_glob"),
        # with no reasoning layer the i2t stream is its global node alone
        w_i2t=sim_w("w_i2t") if cfg.uses_i2t and cfg.n_layers else None,
        w_t2i=sim_w("w_t2i") if cfg.uses_t2i else None,
    )
    streams = []
    if cfg.uses_i2t:
        if cfg.n_layers == 0:
            streams.append(local.s_glob)
        else:
            layers = [layer_params(weights, cfg, i) for i in range(cfg.n_layers)]
            streams.append(reason(local.s_i2t, local.s_glob, lengths, layers, row_softmax=cfg.row_softmax))
    if cfg.uses_t2i:
        streams.append(local.s_t2i)
    fused = tt.add(*streams) if len(streams) == 2 else streams[0]
    return score(fused, weights["head.w"])


def score_tile(params: ParamStore, cfg: ModelConfig, images: EncodedImages, captions: EncodedCaptions) -> Tensor:
    """Scores (I, C) of every image x caption pairing, one ``tensor.recompute``
    node whose backward pass scores again, on a tape, only the pairs whose
    gradient is nonzero, gathered (P, 1, ...) from the encoded tile."""
    names = [name for name in params.names() if name.startswith(("sim.", "reason.")) or name == "head.w"]

    def entries(leaves: list[Tensor], coords) -> Tensor:
        (v, v_glob, t, t_glob), lengths = leaves[:4], captions.lengths
        if coords is not None:
            i, j = coords[0], coords[1][:, None]
            v, v_glob, t, t_glob = (tt.take_rows(x, at) for x, at in zip(leaves[:4], (i, i, j, j)))
            lengths = lengths[j]
        weights = dict(zip(names, leaves[4:]))
        return _score_pairs(weights, cfg, EncodedImages(v, v_glob), EncodedCaptions(t, lengths, t_glob))

    tile = [images.local, images.glob, captions.local, captions.glob]
    return tt.recompute(tile + [params[name] for name in names], entries)


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


def _pair_elements(cfg: ModelConfig, k: int, rows: int) -> int:
    """Entries of the largest per-pair array, max(k, rows) x max(d, m, k, rows)."""
    return max(k, rows) * max(cfg.hidden_dim, cfg.sim_dim, k, rows)


def _caption_tiles(cfg: ModelConfig, k: int, lengths: np.ndarray, n_images: int) -> list[np.ndarray]:
    """Caption indices of each tile in ascending length, each tile fitting
    TILE_ELEMENTS against n_images at one row past its own longest caption:
    a run of one length joins the previous tile if both fit at the run's
    rows, and otherwise starts new tiles."""
    order = np.argsort(lengths, kind="stable")
    tiles: list[np.ndarray] = []
    for run in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        fit = max(1, TILE_ELEMENTS // (n_images * _pair_elements(cfg, k, int(lengths[run[0]]) + 1)))
        if tiles and len(tiles[-1]) + len(run) <= fit:
            tiles[-1] = np.concatenate([tiles[-1], run])
        else:
            tiles += [run[j:j + fit] for j in range(0, len(run), fit)]
    return tiles


def score_matrix(params: ParamStore, cfg: ModelConfig, region_list, token_lists) -> np.ndarray:
    """Dense evaluation scores (n_images, n_captions), gradient-free.

    Raises DataError naming the first pair whose score is not finite.
    """
    with tt.no_grad():
        out = np.empty((len(region_list), len(token_lists)))
        if len(region_list) and len(token_lists):
            captions = encode_caption(params, cfg, token_lists)
            lengths = captions.lengths
            # encode_image rejects a region matrix that is not 2-D
            k = np.shape(region_list[0])[0] if np.ndim(region_list[0]) == 2 else 1
            # as many images as fit against one caption at the longest length
            longest = _pair_elements(cfg, k, captions.local.shape[1])
            tile_images = min(len(region_list), max(1, TILE_ELEMENTS // longest))
            tiles = _caption_tiles(cfg, k, lengths, tile_images)
            for i in range(0, len(region_list), tile_images):
                images = encode_image(params, cfg, region_list[i:i + tile_images])
                for cols in tiles:
                    tile = EncodedCaptions(
                        local=tt.Tensor(captions.local.data[cols, :lengths[cols[-1]] + 1]),
                        lengths=lengths[cols],
                        glob=tt.Tensor(captions.glob.data[cols]),
                    )
                    out[i:i + tile_images, cols] = score_tile(params, cfg, images, tile).data
    check_finite(out)
    return out
