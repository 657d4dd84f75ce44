"""Retrieval evaluation: R@K in both directions, optional fold averaging.

Sentence retrieval ranks every caption for each image query and counts a
hit when any ground-truth caption of that image lands in the top K.
Image retrieval ranks every image for each caption query.  Ranking ties
break toward the lower candidate index, so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import FeatureBundle
from .errors import ConfigError, DataError, DimensionError
from .model import ModelConfig, score_matrix
from .tensor import ParamStore

RANKS = (1, 5, 10)


@dataclass(frozen=True)
class RetrievalResult:
    direction: str  # "sentence" | "image"
    r_at: dict[int, float]


def rsum(results) -> float:
    return float(np.sum([v for r in results for v in r.r_at.values()]))


def recalls_from_matrix(
    scores: np.ndarray, caption_owner, ks=RANKS
) -> tuple[RetrievalResult, RetrievalResult]:
    """Both-direction recalls from a dense (n_images, n_captions) score matrix.

    Each direction is one stable argsort of the negated scores, so every
    query ranks its candidates best first with ties toward the lower index.
    """
    scores = np.asarray(scores, dtype=np.float64)
    owner = np.asarray(list(caption_owner), dtype=np.int64)
    if scores.ndim != 2:
        raise DimensionError(f"score matrix must be 2-D, got {scores.shape}")
    n_images, n_captions = scores.shape
    if owner.shape != (n_captions,):
        raise DimensionError(
            f"caption owners {owner.shape} do not match {n_captions} captions"
        )
    if n_images < 1 or n_captions < 1:
        raise ConfigError("evaluation needs at least one image and one caption")
    if np.any(owner < 0) or np.any(owner >= n_images):
        raise ConfigError("caption owner index outside the image range")
    lonely = np.flatnonzero(np.bincount(owner, minlength=n_images) == 0)
    if lonely.size:
        raise ConfigError(f"image {lonely[0]} has no captions")

    # rank of each image's best-placed caption, and of each caption's image
    by_image = owner[np.argsort(-scores, axis=1, kind="stable")]
    sentence_ranks = np.argmax(by_image == np.arange(n_images)[:, None], axis=1)
    by_caption = np.argsort(-scores.T, axis=1, kind="stable")
    image_ranks = np.argmax(by_caption == owner[:, None], axis=1)

    sentence = RetrievalResult(
        "sentence",
        {k: 100.0 * float(np.mean(sentence_ranks < k)) for k in ks},
    )
    image = RetrievalResult(
        "image",
        {k: 100.0 * float(np.mean(image_ranks < k)) for k in ks},
    )
    return sentence, image


def flatten_captions(bundles: list[FeatureBundle]) -> tuple[list, list, list[int]]:
    """Region arrays, caption token lists, and each caption's image index."""
    regions = [b.regions for b in bundles]
    captions = []
    owner = []
    for i, b in enumerate(bundles):
        for caption in b.captions:
            captions.append(caption)
            owner.append(i)
    return regions, captions, owner


def evaluate(
    params: ParamStore,
    cfg: ModelConfig,
    bundles: list[FeatureBundle],
    folds: int = 1,
) -> tuple[RetrievalResult, RetrievalResult]:
    """Fold-averaged recalls; folds=1 scores the whole set at once."""
    if folds < 1:
        raise ConfigError(f"folds must be >= 1, got {folds}")
    n_images = len(bundles)
    if n_images < 1:
        raise ConfigError("evaluation needs a non-empty dataset")
    if n_images % folds != 0:
        raise ConfigError(f"{folds} folds do not divide {n_images} images evenly")

    regions, captions, owner = flatten_captions(bundles)
    owner = np.asarray(owner)
    # a fold's captions are contiguous, since flatten_captions groups them by image
    first_caption = np.searchsorted(owner, np.arange(n_images + 1))
    fold_size = n_images // folds
    sentence_acc = {k: 0.0 for k in RANKS}
    image_acc = {k: 0.0 for k in RANKS}
    for f in range(folds):
        img_lo, img_hi = f * fold_size, (f + 1) * fold_size
        cap_lo, cap_hi = first_caption[img_lo], first_caption[img_hi]
        try:
            scores = score_matrix(params, cfg, regions[img_lo:img_hi], captions[cap_lo:cap_hi])
        except DataError as err:
            raise DataError(
                f"fold {f} (its image i is image {img_lo} + i, its caption j is caption {cap_lo} + j): {err}"
            ) from None
        sentence, image = recalls_from_matrix(scores, owner[cap_lo:cap_hi] - img_lo)
        for k in RANKS:
            sentence_acc[k] += sentence.r_at[k]
            image_acc[k] += image.r_at[k]
    sentence = RetrievalResult("sentence", {k: sentence_acc[k] / folds for k in RANKS})
    image = RetrievalResult("image", {k: image_acc[k] / folds for k in RANKS})
    return sentence, image
