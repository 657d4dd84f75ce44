"""Dataset serialisation and synthetic data generation.

A dataset is a ``kvfile`` container (format ``itmatch-dataset``, version
1): the manifest holds the counts and widths of ``DatasetManifest`` and
one ``image_id.<i>`` per image, and three checksummed blobs hold

* ``regions.bin``  little-endian float32, row-major, (n_images, k, d_raw)
* ``tokens.bin``   little-endian uint32, every caption concatenated
* ``offsets.bin``  little-endian uint32: n_images+1 cumulative caption
  counts, then n_captions+1 cumulative token offsets

Features are widened to float64 in memory; bundles whose region values
lie on the float32 grid (everything ``gen_synthetic`` produces) round-trip
bitwise.  Loading checks each blob's length and checksum before building
its array, then bounds-checks token ids and offsets and rejects
non-finite region features, so a truncated or corrupted directory fails
loudly instead of yielding garbage.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .kvfile import Container, reads_back, write_container

FORMAT_NAME = "itmatch-dataset"
FORMAT_VERSION = 1
SPLITS = ("train", "val", "test")
F32_MAX = float(np.finfo(np.float32).max)


@dataclass
class FeatureBundle:
    """One image: region features (k, d_raw) float64 plus >= 1 captions."""

    image_id: str
    regions: np.ndarray
    captions: list[list[int]]


@dataclass
class DatasetManifest:
    name: str
    split: str
    n_images: int
    n_captions: int
    n_tokens: int
    k: int
    d_raw: int
    vocab_size: int
    max_caption_len: int
    checksums: dict[str, str]


COUNTS = ("n_images", "n_captions", "n_tokens", "k", "d_raw", "vocab_size", "max_caption_len")


def _validate_bundles(bundles, vocab_size: int):
    """The (k, d_raw) region shape every bundle shares, (0, 0) for no bundle."""
    k = d_raw = None
    if vocab_size < 1:
        raise DataError(f"vocab_size must be >= 1, got {vocab_size}")
    for b in bundles:
        regions = np.asarray(b.regions)
        if regions.ndim != 2:
            raise DataError(f"bundle {b.image_id!r}: regions must be 2-D, got {regions.shape}")
        if k is None:
            k, d_raw = regions.shape
        elif regions.shape != (k, d_raw):
            raise DataError(
                f"bundle {b.image_id!r}: regions {regions.shape} differ from ({k}, {d_raw})"
            )
        if not b.captions:
            raise DataError(f"bundle {b.image_id!r}: needs at least one caption")
        for caption in b.captions:
            if len(caption) == 0:
                raise DataError(f"bundle {b.image_id!r}: empty caption")
            for t in caption:
                if not 0 <= int(t) < vocab_size:
                    raise DataError(
                        f"bundle {b.image_id!r}: token id {t} outside vocabulary {vocab_size}"
                    )
    return k or 0, d_raw or 0


def write_dataset(
    bundles: list[FeatureBundle],
    path: str | os.PathLike,
    vocab_size: int,
    name: str = "synthetic",
    split: str = "train",
) -> DatasetManifest:
    if not reads_back(name):
        raise ConfigError(f"name must have no line break and no whitespace at either end, got {name!r}")
    if split not in SPLITS:
        raise ConfigError(f"split must be one of {SPLITS}, got {split!r}")
    k, d_raw = _validate_bundles(bundles, vocab_size)

    regions = np.concatenate(
        [np.asarray(b.regions, dtype=np.float64).reshape(1, k, d_raw) for b in bundles]
    ) if bundles else np.zeros((0, k, d_raw))
    # NaN fails the comparison; values past the float32 range would be
    # written as infinities
    bad = np.flatnonzero(~(np.abs(regions) <= F32_MAX).all(axis=(1, 2)))
    if bad.size:
        raise DataError(f"bundle {bundles[bad[0]].image_id!r}: region features must be finite float32 values")
    tokens: list[int] = []
    caption_counts = [0]
    token_offsets = [0]
    max_len = 0
    for b in bundles:
        caption_counts.append(caption_counts[-1] + len(b.captions))
        for caption in b.captions:
            tokens.extend(int(t) for t in caption)
            token_offsets.append(len(tokens))
            max_len = max(max_len, len(caption))

    counts = dict(
        n_images=len(bundles),
        n_captions=caption_counts[-1],
        n_tokens=len(tokens),
        k=k,
        d_raw=d_raw,
        vocab_size=vocab_size,
        max_caption_len=max_len,
    )
    checksums = write_container(
        path,
        FORMAT_NAME,
        FORMAT_VERSION,
        [("name", name), ("split", split), *counts.items()]
        + [(f"image_id.{i}", b.image_id) for i, b in enumerate(bundles)],
        {
            "regions": regions.astype("<f4").tobytes(order="C"),
            "tokens": np.asarray(tokens, dtype="<u4").tobytes(),
            "offsets": np.asarray(caption_counts + token_offsets, dtype="<u4").tobytes(),
        },
    )
    return DatasetManifest(name=name, split=split, **counts, checksums=checksums)


def read_dataset(path: str | os.PathLike) -> tuple[list[FeatureBundle], DatasetManifest]:
    container = Container(path, FORMAT_NAME, FORMAT_VERSION)
    split = container.get_text("split")
    if split not in SPLITS:
        raise DataError(f"{container.manifest}: field 'split' must be one of {SPLITS}, got {split!r}")
    manifest = DatasetManifest(
        name=container.fields.get("name", ""),
        split=split,
        **{key: container.get_int(key, 1 if key == "vocab_size" else 0) for key in COUNTS},
        checksums={stem: container.get_text(f"checksum_{stem}") for stem in ("regions", "tokens", "offsets")},
    )
    n_images, n_captions, n_tokens = manifest.n_images, manifest.n_captions, manifest.n_tokens
    k, d_raw = manifest.k, manifest.d_raw
    if n_images > 0 and (k < 1 or d_raw < 1):
        raise DataError(f"{container.manifest}: fields 'k' and 'd_raw' must be >= 1 for a non-empty dataset")

    regions_blob = container.blob("regions", n_images * k * d_raw * 4)
    token_ids = np.frombuffer(container.blob("tokens", n_tokens * 4), dtype="<u4")
    offsets_blob = container.blob("offsets", (n_images + n_captions + 2) * 4)

    regions = np.frombuffer(regions_blob, dtype="<f4").astype(np.float64)
    regions = regions.reshape(n_images, k, d_raw) if n_images else regions.reshape(0, k or 1, d_raw or 1)
    bad = np.flatnonzero(~np.isfinite(regions).all(axis=(1, 2)))
    if bad.size:
        i = int(bad[0])
        raise DataError(f"image {container.fields.get(f'image_id.{i}')!r} (index {i}): region features are not finite")
    if token_ids.size and int(token_ids.max()) >= manifest.vocab_size:
        raise DataError(f"token id {int(token_ids.max())} outside vocabulary {manifest.vocab_size}")
    offsets = np.frombuffer(offsets_blob, dtype="<u4").astype(np.int64)
    caption_counts = offsets[: n_images + 1]
    token_offsets = offsets[n_images + 1:]
    if caption_counts[0] != 0 or caption_counts[-1] != n_captions:
        raise DataError("offsets.bin: caption counts do not span n_captions")
    if np.any(np.diff(caption_counts) < 1):
        raise DataError("offsets.bin: every image needs at least one caption")
    if token_offsets[0] != 0 or token_offsets[-1] != n_tokens:
        raise DataError("offsets.bin: token offsets do not span n_tokens")
    lengths = np.diff(token_offsets)
    if np.any(lengths < 1):
        raise DataError("offsets.bin: empty caption")
    if lengths.size and int(lengths.max()) > manifest.max_caption_len:
        raise DataError(
            f"offsets.bin: caption length {int(lengths.max())} exceeds manifest maximum {manifest.max_caption_len}"
        )

    bundles: list[FeatureBundle] = []
    for i in range(n_images):
        captions = []
        for c in range(int(caption_counts[i]), int(caption_counts[i + 1])):
            lo, hi = int(token_offsets[c]), int(token_offsets[c + 1])
            captions.append([int(t) for t in token_ids[lo:hi]])
        image_id = container.get_text(f"image_id.{i}")
        bundles.append(FeatureBundle(image_id=image_id, regions=regions[i], captions=captions))
    return bundles, manifest


LATENT_DIM = 8


def gen_synthetic(
    n_pairs: int,
    k: int,
    d_raw: int,
    caption_len: int,
    vocab_size: int,
    seed: int,
    signal_strength: float,
    captions_per_image: int = 1,
) -> list[FeatureBundle]:
    """Image-caption pairs that share a latent code to a tunable degree.

    Each pair draws a latent vector; ``signal_strength`` mixes it into the
    region features (against gaussian noise) and sets the probability that
    a caption position encodes a latent coordinate (against a uniformly
    random token).  At 0 the modalities are independent; at 1 both are
    deterministic functions of the latent code.  Region values are
    produced on the float32 grid so written datasets read back bitwise.
    """
    if n_pairs < 1:
        raise ConfigError(f"n_pairs must be >= 1, got {n_pairs}")
    if k < 1 or d_raw < 1 or caption_len < 1 or captions_per_image < 1:
        raise ConfigError("k, d_raw, caption_len and captions_per_image must be >= 1")
    if vocab_size < 2:
        raise ConfigError(f"vocab_size must be >= 2, got {vocab_size}")
    if not 0.0 <= signal_strength <= 1.0:
        raise ConfigError(f"signal_strength must lie in [0, 1], got {signal_strength}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")

    rng = np.random.default_rng(seed)
    mixing = rng.normal(size=(k, d_raw, LATENT_DIM)) / np.sqrt(LATENT_DIM)
    n_bins = max(2, (vocab_size) // LATENT_DIM)

    def encode_token(code: np.ndarray, position: int) -> int:
        coord = position % LATENT_DIM
        level = int(min(max((code[coord] + 3.0) / 6.0 * n_bins, 0), n_bins - 1))
        return (coord * n_bins + level) % vocab_size

    bundles: list[FeatureBundle] = []
    for p in range(n_pairs):
        code = rng.normal(size=LATENT_DIM)
        noise = rng.normal(size=(k, d_raw))
        regions = (1.0 - signal_strength) * noise + signal_strength * (mixing @ code)
        regions = regions.astype("<f4").astype(np.float64)
        captions = []
        for _ in range(captions_per_image):
            caption = []
            for j in range(caption_len):
                if rng.random() < signal_strength:
                    caption.append(encode_token(code, j))
                else:
                    caption.append(int(rng.integers(0, vocab_size)))
            captions.append(caption)
        bundles.append(
            FeatureBundle(image_id=f"syn-{seed}-{p}", regions=regions, captions=captions)
        )
    return bundles
