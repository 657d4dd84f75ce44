"""Retrieval metrics against hand-enumerated rankings."""

import numpy as np
import pytest

from itmatch import evaluation
from itmatch import tensor as tt
from itmatch.dataio import gen_synthetic
from itmatch.errors import ConfigError, DataError, DimensionError
from itmatch.evaluation import (
    evaluate,
    flatten_captions,
    recalls_from_matrix,
    rsum,
)
from itmatch.model import ModelConfig, init_params, score_matrix

# one caption per image; ranks worked out by hand:
#   sentence: image 0 -> rank 0, image 1 -> rank 1, image 2 -> rank 1
#   image:    every caption ranks its own image first
TOY_3X3 = np.array([
    [0.9, 0.2, 0.1],
    [0.8, 0.7, 0.3],
    [0.1, 0.6, 0.5],
])

# two images, captions 0-2 belong to image 0 and 3-4 to image 1:
#   sentence: image 0 best truth at rank 0, image 1 at rank 3
#   image:    only caption 1 puts its own image first
TOY_2X5 = np.array([
    [0.1, 0.9, 0.2, 0.8, 0.3],
    [0.8, 0.7, 0.6, 0.5, 0.05],
])


def test_three_by_three_recalls():
    sentence, image = recalls_from_matrix(TOY_3X3, [0, 1, 2])
    assert sentence.r_at[1] == pytest.approx(100.0 / 3.0)
    assert sentence.r_at[5] == 100.0
    assert sentence.r_at[10] == 100.0
    assert image.r_at == {1: 100.0, 5: 100.0, 10: 100.0}


def test_multi_caption_recalls():
    sentence, image = recalls_from_matrix(TOY_2X5, [0, 0, 0, 1, 1])
    assert sentence.r_at == {1: 50.0, 5: 100.0, 10: 100.0}
    assert image.r_at == {1: 20.0, 5: 100.0, 10: 100.0}
    assert rsum([sentence, image]) == 470.0


def test_r_at_k_counts_any_ground_truth():
    # image 0's truths land at ranks 1, 2, 3; one inside the top 2 suffices
    scores = np.array([
        [0.5, 0.4, 0.9, 0.3, 0.1],
        [0.1, 0.1, 0.9, 0.1, 0.8],
    ])
    sentence, _ = recalls_from_matrix(scores, [0, 0, 1, 0, 1], ks=(1, 2))
    assert sentence.r_at == {1: 50.0, 2: 100.0}


def test_ties_break_toward_lower_index():
    scores = np.full((2, 2), 0.5)
    sentence, image = recalls_from_matrix(scores, [0, 1])
    assert sentence.r_at[1] == 50.0
    assert image.r_at[1] == 50.0


def test_recalls_invariant_under_affine_rescale():
    base_s, base_i = recalls_from_matrix(TOY_2X5, [0, 0, 0, 1, 1])
    moved_s, moved_i = recalls_from_matrix(2.0 * TOY_2X5 + 1.0, [0, 0, 0, 1, 1])
    assert moved_s.r_at == base_s.r_at
    assert moved_i.r_at == base_i.r_at


def test_custom_ks():
    sentence, image = recalls_from_matrix(TOY_3X3, [0, 1, 2], ks=(1, 2))
    assert set(sentence.r_at) == {1, 2}
    assert sentence.r_at[2] == 100.0
    assert image.r_at[2] == 100.0


@pytest.mark.parametrize(
    "scores, owner, err",
    [
        (np.zeros((2, 2, 2)), [0, 1], DimensionError),
        (TOY_3X3, [0, 1], DimensionError),
        (TOY_3X3, [0, 1, 5], ConfigError),
        (TOY_3X3, [0, 0, 1], ConfigError),  # image 2 has no caption
    ],
)
def test_recalls_validation(scores, owner, err):
    with pytest.raises(err):
        recalls_from_matrix(scores, owner)


def test_flatten_captions_orders_and_owners():
    bundles = gen_synthetic(
        n_pairs=3, k=2, d_raw=4, caption_len=2, vocab_size=16,
        seed=0, signal_strength=0.5, captions_per_image=2,
    )
    regions, captions, owner = flatten_captions(bundles)
    assert len(regions) == 3
    assert len(captions) == 6
    assert owner == [0, 0, 1, 1, 2, 2]
    assert captions[2] == bundles[1].captions[0]


# -------------------------------------------------------- evaluate()

def _setup(n_pairs=4, captions_per_image=1):
    cfg = ModelConfig(
        vocab_size=32, d_raw=6, embed_dim=5, hidden_dim=4, sim_dim=3,
        n_layers=1, temperature=9.0,
    )
    params = init_params(cfg, seed=2)
    bundles = gen_synthetic(
        n_pairs=n_pairs, k=2, d_raw=6, caption_len=2, vocab_size=32,
        seed=5, signal_strength=0.7, captions_per_image=captions_per_image,
    )
    return params, cfg, bundles


def test_score_matrix_names_the_first_non_finite_score():
    # features are checked when a dataset is read, so a non-finite score
    # comes from the parameters: here a NaN embedding row poisons caption 1
    params, cfg, bundles = _setup()
    regions, captions, _ = flatten_captions(bundles)
    poison = captions[1][0]
    # then with mixed lengths: the long caption 1 and the short caption 3
    # both hold the poisoned word, and tiling sorts caption 3 first
    free = [t for t in range(cfg.vocab_size) if t != poison]
    mixed = [free[0:2], [poison] + free[2:6], free[6:8], [poison]]
    table = params["embed.table"].data.copy()
    table[poison] = np.nan
    params = params.copy_with({"embed.table": tt.parameter(table)})
    for token_lists in (captions, mixed):
        with pytest.raises(DataError, match=r"^score of image 0 and caption 1 is not finite \(nan\)$"):
            score_matrix(params, cfg, regions, token_lists)


def test_single_fold_equals_unpartitioned():
    params, cfg, bundles = _setup(captions_per_image=2)
    regions, captions, owner = flatten_captions(bundles)
    scores = score_matrix(params, cfg, regions, captions)
    direct_s, direct_i = recalls_from_matrix(scores, owner)
    fold_s, fold_i = evaluate(params, cfg, bundles, folds=1)
    assert fold_s.r_at == direct_s.r_at
    assert fold_i.r_at == direct_i.r_at


def test_two_folds_average_the_halves():
    params, cfg, bundles = _setup(n_pairs=4)
    regions, captions, owner = flatten_captions(bundles)
    scores = score_matrix(params, cfg, regions, captions)
    owner = np.asarray(owner)
    halves = []
    for lo, hi in ((0, 2), (2, 4)):
        idx = np.nonzero((owner >= lo) & (owner < hi))[0]
        halves.append(recalls_from_matrix(scores[lo:hi][:, idx], owner[idx] - lo))
    sentence, image = evaluate(params, cfg, bundles, folds=2)
    for k in (1, 5, 10):
        assert sentence.r_at[k] == (halves[0][0].r_at[k] + halves[1][0].r_at[k]) / 2
        assert image.r_at[k] == (halves[0][1].r_at[k] + halves[1][1].r_at[k]) / 2


def test_evaluate_validation():
    params, cfg, bundles = _setup(n_pairs=4)
    with pytest.raises(ConfigError):
        evaluate(params, cfg, bundles, folds=0)
    with pytest.raises(ConfigError):
        evaluate(params, cfg, bundles, folds=3)  # 3 does not divide 4
    with pytest.raises(ConfigError):
        evaluate(params, cfg, [])


def test_rsum_adds_all_six_numbers():
    sentence, image = recalls_from_matrix(TOY_3X3, [0, 1, 2])
    total = sum(sentence.r_at.values()) + sum(image.r_at.values())
    assert rsum([sentence, image]) == pytest.approx(total)


def _plain_ranks(scores, owner):
    """Rank of each image's best caption and of each caption's image, counted
    one candidate at a time: higher scores first, ties to the lower index."""
    n_images, n_captions = len(scores), len(owner)

    def rank(values, truth):
        return sum(1 for c, v in enumerate(values) if v > values[truth] or (v == values[truth] and c < truth))

    sentence = [
        min(rank(scores[i], c) for c in range(n_captions) if owner[c] == i) for i in range(n_images)
    ]
    image = [rank([scores[i][c] for i in range(n_images)], owner[c]) for c in range(n_captions)]
    return sentence, image


def test_recalls_match_a_plain_rank_count_on_tie_heavy_matrices():
    rng = np.random.default_rng(31)
    ks = (1, 2, 3, 5)
    for _ in range(300):
        n_images = int(rng.integers(1, 7))
        # every image owns at least one caption
        extra = rng.integers(0, n_images, size=int(rng.integers(0, 8)))
        owner = rng.permutation(np.concatenate([np.arange(n_images), extra]))
        # three score levels: most comparisons are ties
        scores = rng.integers(0, 3, size=(n_images, owner.size)).astype(float)
        sentence, image = recalls_from_matrix(scores, owner, ks)
        sentence_ranks, image_ranks = _plain_ranks(scores.tolist(), owner.tolist())
        for k in ks:
            assert sentence.r_at[k] == 100.0 * (sum(r < k for r in sentence_ranks) / n_images)
            assert image.r_at[k] == 100.0 * (sum(r < k for r in image_ranks) / owner.size)
    with pytest.raises(ConfigError, match="image 2 has no captions"):
        recalls_from_matrix(np.zeros((4, 3)), [0, 1, 3])


@pytest.mark.parametrize("folds", [2, 4])
def test_each_fold_scores_only_its_own_block(monkeypatch, folds):
    params, cfg, bundles = _setup(n_pairs=4, captions_per_image=2)
    regions, captions, owner = flatten_captions(bundles)
    scores = score_matrix(params, cfg, regions, captions)
    owner = np.asarray(owner)
    sentence_sum = {k: 0.0 for k in (1, 5, 10)}
    image_sum = {k: 0.0 for k in (1, 5, 10)}
    size = 4 // folds
    for lo in range(0, 4, size):
        idx = np.nonzero((owner >= lo) & (owner < lo + size))[0]
        sentence, image = recalls_from_matrix(scores[lo:lo + size][:, idx], owner[idx] - lo)
        for k in sentence_sum:
            sentence_sum[k] += sentence.r_at[k]
            image_sum[k] += image.r_at[k]

    scored = []

    def counting_score_matrix(params, cfg, region_list, token_lists):
        scored.append(len(region_list) * len(token_lists))
        return score_matrix(params, cfg, region_list, token_lists)

    monkeypatch.setattr(evaluation, "score_matrix", counting_score_matrix)
    sentence, image = evaluate(params, cfg, bundles, folds=folds)
    assert scored == [scores.size // folds ** 2] * folds
    assert sentence.r_at == {k: v / folds for k, v in sentence_sum.items()}
    assert image.r_at == {k: v / folds for k, v in image_sum.items()}


def test_a_non_finite_score_in_a_later_fold_names_a_locatable_pair():
    params, cfg, bundles = _setup(n_pairs=4, captions_per_image=2)
    bundles[3].regions = np.full_like(bundles[3].regions, np.nan)
    # image 3 is image 1 of fold 1, which starts at image 2 and caption 4
    with pytest.raises(
        DataError,
        match=r"fold 1 \(its image i is image 2 \+ i, its caption j is caption 4 \+ j\): "
        r"score of image 1 and caption 0 is not finite \(nan\)$",
    ):
        evaluate(params, cfg, bundles, folds=2)
