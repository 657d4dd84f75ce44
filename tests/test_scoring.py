"""Fusion, the scalar head, and the hardest-negative ranking loss."""

import numpy as np
import pytest

from itmatch import tensor as tt
from itmatch.errors import ConfigError, ContractError, DimensionError
from itmatch.scoring import (
    LossBatch,
    bidirectional_ranking_loss,
    fuse,
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
    store = tt.ParamStore.from_dict({"s": tt.parameter(values)})

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
    store = tt.ParamStore.from_dict({"s": tt.parameter(values)})
    g = tt.backward(
        bidirectional_ranking_loss(LossBatch(store["s"], margin=0.2)), store
    )["s"].data
    assert g[0, 0] == -1.0
    assert g[0, 1] == 1.0
    assert g[0, 2] == 0.0


# --- fusion and head ------------------------------------------------------------


def test_fuse_adds_elementwise_and_commutes():
    a = tt.constant(np.array([1.0, 2.0]))
    b = tt.constant(np.array([10.0, 20.0]))
    out = fuse(a, b)
    assert out.data.tolist() == [11.0, 22.0]
    np.testing.assert_array_equal(out.data, fuse(b, a).data)


def test_fuse_single_stream_modes():
    a = tt.constant(np.array([1.0, 2.0]))
    b = tt.constant(np.array([10.0, 20.0]))
    assert fuse(a, None) is a
    assert fuse(None, b) is b


def test_fuse_validation():
    a = tt.constant(np.array([1.0, 2.0]))
    with pytest.raises(ContractError):
        fuse(None, None)
    with pytest.raises(DimensionError):
        fuse(a, tt.constant(np.ones(3)))


def test_score_is_affine_in_the_fused_vector():
    w = tt.constant(np.array([1.0, -2.0, 0.5]))
    b = tt.constant(np.asarray(0.25))
    fused = tt.constant(np.array([2.0, 1.0, 4.0]))
    assert score(fused, w, b).item() == 2.0 - 2.0 + 2.0 + 0.25
    grid = score(tt.constant(np.array([[[2.0, 1.0, 4.0], [0.0, 0.0, 0.0]]])), w, b).data
    assert grid.tolist() == [[2.0 - 2.0 + 2.0 + 0.25, 0.25]]


def test_loss_matches_a_per_pair_loop_and_its_gradient():
    rng = np.random.default_rng(4)
    values = rng.normal(size=(6, 6))
    store = tt.ParamStore.from_dict({"s": tt.parameter(values)})
    g = tt.backward(bidirectional_ranking_loss(LossBatch(store["s"], margin=0.2)), store)["s"].data
    expected = np.zeros((6, 6))
    for k in range(6):
        row = [j for j in range(6) if j != k]
        hardest_caption = row[int(np.argmax(values[k, row]))]
        hardest_image = row[int(np.argmax(values[row, k]))]
        if 0.2 - values[k, k] + values[k, hardest_caption] > 0.0:
            expected[k, k] -= 1.0
            expected[k, hardest_caption] += 1.0
        if 0.2 - values[k, k] + values[hardest_image, k] > 0.0:
            expected[k, k] -= 1.0
            expected[hardest_image, k] += 1.0
    np.testing.assert_array_equal(g, expected)
