"""The scalar head, the finiteness rule for scores, and the hardest-negative ranking loss."""

import numpy as np
import pytest

from itmatch import tensor as tt
from itmatch.errors import ConfigError, ContractError, DataError, DimensionError
from itmatch.gradcheck import _hinge_distance
from itmatch.scoring import (
    LossBatch,
    bidirectional_ranking_loss,
    hardest_negatives,
    score,
)


def _grid(values):
    return LossBatch(tt.constant(np.asarray(values, dtype=np.float64)), margin=0.2)


# --- loss -----------------------------------------------------------------------


def test_two_by_two_hand_example_is_exact():
    loss = bidirectional_ranking_loss(_grid([[0.5, 0.6], [0.4, 0.5]]))
    assert loss.item() == 0.8


def test_loss_zero_when_margins_satisfied():
    values = np.zeros((3, 3))
    np.fill_diagonal(values, 1.0)
    assert bidirectional_ranking_loss(_grid(values)).item() == 0.0


def test_loss_invariant_to_constant_shift():
    rng = np.random.default_rng(0)
    values = rng.normal(size=(4, 4))
    base = bidirectional_ranking_loss(_grid(values)).item()
    shifted = bidirectional_ranking_loss(_grid(values + 2.0)).item()
    assert abs(base - shifted) < 1e-12


def test_loss_counts_both_directions():
    # a single high off-diagonal entry is image 0's hardest caption AND
    # caption 1's hardest image, so it must be charged twice
    values = np.array([[1.0, 1.1], [-1.0, 1.0]])
    loss = bidirectional_ranking_loss(_grid(values)).item()
    assert loss == pytest.approx(0.6, abs=1e-12)


def test_loss_uses_only_the_hardest_negative():
    values = np.array([
        [1.0, 0.5, 0.8],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ])
    base = bidirectional_ranking_loss(_grid(values)).item()
    softer = values.copy()
    softer[0, 1] = 0.1  # still below the hardest negative 0.8
    assert bidirectional_ranking_loss(_grid(softer)).item() == base


def test_loss_monotone_in_violating_score():
    values = np.full((3, 3), 0.0)
    np.fill_diagonal(values, 0.5)
    values[0, 1] = 0.45
    low = bidirectional_ranking_loss(_grid(values)).item()
    values[0, 1] = 0.55
    high = bidirectional_ranking_loss(_grid(values)).item()
    assert high > low


def test_loss_batch_validation():
    with pytest.raises(ContractError):
        LossBatch(tt.constant(np.zeros((2, 3))), margin=0.2)
    with pytest.raises(ContractError):
        LossBatch(tt.constant(np.zeros((1, 1))), margin=0.2)
    with pytest.raises(ConfigError):
        LossBatch(tt.constant(np.zeros((2, 2))), margin=-0.1)


def _planted_4x4(entry, value):
    values = np.random.default_rng(5).normal(size=(4, 4))
    values[entry] = value
    return values


@pytest.mark.parametrize("values, message", [
    # the grid whose loss read 0.2: row 0's only negative is -inf
    ([[0.5, -np.inf], [0.1, 0.5]], r"image 0 and caption 1 is not finite \(-inf\)"),
    ([[np.inf, 0.1], [0.1, 0.5]], r"image 0 and caption 0 is not finite \(inf\)"),
    ([[0.5, 0.1], [np.nan, 0.5]], r"image 1 and caption 0 is not finite \(nan\)"),
    (_planted_4x4((2, 3), -np.inf), r"image 2 and caption 3 is not finite \(-inf\)"),
    (_planted_4x4((1, 1), np.inf), r"image 1 and caption 1 is not finite \(inf\)"),
    (_planted_4x4((3, 0), np.nan), r"image 3 and caption 0 is not finite \(nan\)"),
    # the first bad entry in row order is named
    ([[0.0, 0.0, 0.0], [0.0, 0.0, np.inf], [np.nan, 0.0, 0.0]], r"image 1 and caption 2 is not finite \(inf\)"),
], ids=["2x2-off-diag-neg-inf", "2x2-diag-inf", "2x2-nan", "4x4-off-diag-neg-inf", "4x4-diag-inf", "4x4-nan",
        "3x3-two-bad-entries"])
def test_loss_batch_refuses_a_non_finite_score(values, message):
    with pytest.raises(DataError, match=rf"^score of {message}$"):
        _grid(values)


def test_signed_zeros_are_finite_scores():
    values = np.array([[0.0, -0.0], [-0.0, 0.0]])
    assert bidirectional_ranking_loss(_grid(values)).item() == 0.8


def test_loss_gradient_matches_finite_differences_away_from_kinks():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(4, 4))
    # verify no hinge sits within finite-difference reach of its kink
    margin = 0.2
    for k in range(4):
        matched = values[k, k]
        for j in range(4):
            if j != k:
                assert abs(margin - matched + values[k, j]) > 1e-3
                assert abs(margin - matched + values[j, k]) > 1e-3
    store = tt.ParamStore({"s": tt.parameter(values)})

    def f(p):
        return bidirectional_ranking_loss(LossBatch(p["s"], margin=margin))

    auto = tt.backward(f(store), store)["s"].data
    fd = tt.finite_diff_grad(lambda p: f(p).item(), store)["s"].data
    np.testing.assert_allclose(auto, fd, atol=1e-8)


def test_loss_tie_gradient_goes_to_first_index():
    # only pair 0's caption term is violated; its two negatives tie at 0.5
    # and the documented rule sends the gradient to the lower index
    values = np.array([
        [0.4, 0.5, 0.5],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ])
    store = tt.ParamStore({"s": tt.parameter(values)})
    g = tt.backward(
        bidirectional_ranking_loss(LossBatch(store["s"], margin=0.2)), store
    )["s"].data
    assert g[0, 0] == -1.0
    assert g[0, 1] == 1.0
    assert g[0, 2] == 0.0


# --- head -----------------------------------------------------------------------


def test_score_is_linear_in_the_fused_vector():
    w = tt.constant(np.array([1.0, -2.0, 0.5]))
    fused = tt.constant(np.array([[2.0, 1.0, 4.0]]))
    assert score(fused, w).data.tolist() == [2.0 - 2.0 + 2.0]
    with pytest.raises(DimensionError):
        score(tt.constant(np.array([2.0, 1.0, 4.0])), w)  # a stack of vectors only
    grid = score(tt.constant(np.array([[[2.0, 1.0, 4.0], [0.0, 0.0, 0.0]]])), w).data
    assert grid.tolist() == [[2.0 - 2.0 + 2.0, 0.0]]


def test_a_constant_score_shift_leaves_the_loss_unchanged():
    # why the head has no bias: every hinge term reads a difference of scores
    values = np.array([[0.5, 0.25, -1.0], [0.75, 0.0, 0.5], [-0.25, 1.0, 0.125]])
    losses = [
        bidirectional_ranking_loss(LossBatch(tt.constant(values + shift), margin=0.5)).item()
        for shift in (0.0, 0.25, -3.0)
    ]
    assert losses == [losses[0]] * 3


def _per_pair_loop(values, margin=0.2):
    """Loss and score-grid gradient by a loop over pairs; ties take the lowest index."""
    b = values.shape[0]
    grad = np.zeros((b, b))
    caption_terms, image_terms = [], []
    for k in range(b):
        row = [j for j in range(b) if j != k]
        hardest_caption = row[int(np.argmax(values[k, row]))]
        hardest_image = row[int(np.argmax(values[row, k]))]
        caption_terms.append(max(margin - values[k, k] + values[k, hardest_caption], 0.0))
        image_terms.append(max(margin - values[k, k] + values[hardest_image, k], 0.0))
        if caption_terms[-1] > 0.0:
            grad[k, k] -= 1.0
            grad[k, hardest_caption] += 1.0
        if image_terms[-1] > 0.0:
            grad[k, k] -= 1.0
            grad[hardest_image, k] += 1.0
    return sum(caption_terms) + sum(image_terms), grad


def _loss_and_gradient(values):
    store = tt.ParamStore({"s": tt.parameter(values)})
    loss = bidirectional_ranking_loss(LossBatch(store["s"], margin=0.2))
    return loss.item(), tt.backward(loss, store)["s"].data


def test_loss_matches_a_per_pair_loop_and_its_gradient():
    values = np.random.default_rng(4).normal(size=(6, 6))
    loss, g = _loss_and_gradient(values)
    expected_loss, expected = _per_pair_loop(values)
    assert loss == pytest.approx(expected_loss, abs=1e-12)
    np.testing.assert_array_equal(g, expected)


def _planted_ties(transpose):
    # every row's two largest off-diagonal entries tie at 0.5, and
    # (transposed) every column's; each of their hinges is active
    values = np.round(np.random.default_rng(6).uniform(-1.0, 0.4, size=(5, 5)), 1)
    np.fill_diagonal(values, 0.0)
    for k in range(5):
        first, second = [j for j in range(5) if j != k][k % 3:k % 3 + 2]
        values[k, first] = values[k, second] = 0.5
    return values.T.copy() if transpose else values


EDGE_GRIDS = {
    "b2": np.array([[0.3, 0.4], [0.1, 0.2]]),
    "all_inactive": np.eye(4) * 2.0 + 0.01 * np.random.default_rng(7).normal(size=(4, 4)),
    "ties_in_rows": _planted_ties(transpose=False),
    "ties_in_columns": _planted_ties(transpose=True),
}


@pytest.mark.parametrize("name", sorted(EDGE_GRIDS))
def test_loss_matches_a_per_pair_loop_on_edge_grids(name):
    values = EDGE_GRIDS[name]
    loss, g = _loss_and_gradient(values)
    expected_loss, expected = _per_pair_loop(values)
    assert loss == pytest.approx(expected_loss, abs=1e-12)
    np.testing.assert_array_equal(g, expected)
    if name == "all_inactive":
        assert loss == 0.0 and not g.any()


# --- hardest negatives ------------------------------------------------------------


def test_hardest_negatives_never_choose_the_diagonal():
    values = np.array([
        [9.0, 0.1, 0.3],
        [0.3, 9.0, 0.3],
        [0.2, 0.7, 9.0],
    ])
    row_negs, col_negs = hardest_negatives(values)
    # row 1 and column 2 tie at 0.3, and take the lower index
    assert row_negs.tolist() == [2, 0, 1]
    assert col_negs.tolist() == [1, 2, 0]
    assert np.all(np.diag(values) == 9.0)  # the input is not written to


@pytest.mark.parametrize("grid", ["random", "tied"])
def test_hinge_distance_matches_a_loop(grid):
    rng = np.random.default_rng(8)
    values = rng.normal(size=(6, 6))
    if grid == "tied":
        values = np.round(values, 0)
    worst = np.inf
    for k in range(6):
        others = [j for j in range(6) if j != k]
        for neg in (max(values[k, j] for j in others), max(values[j, k] for j in others)):
            worst = min(worst, abs(0.2 - values[k, k] + neg))
    assert _hinge_distance(values, 0.2) == worst
