"""How pairs are grouped into tiles never changes a score.

A seeded numpy loop draws model configurations, caption lengths (short
ones and one long outlier) and tile budgets.  Under each budget the
evaluation scores must equal the training grid's, each pair's 1 x 1 grid,
and the scores of permuted or extended image and caption lists, within
1e-12 relative.  The scalar reference (tests/test_reference.py) is the
oracle of values; this suite is the oracle of grouping.
"""

import numpy as np
import pytest

from itmatch import model
from itmatch import tensor as tt
from itmatch.model import STREAMS, ModelConfig, init_params, score_grid, score_matrix

DRAWS = 24
# one pair per tile; a few pairs per tile, so caption slices trim apart
# and image tiles split; and the default, one tile here
BUDGETS = (1, 1000, None)


def _draw(seed):
    rng = np.random.default_rng([seed, 11])
    cfg = ModelConfig(
        vocab_size=30, d_raw=7, embed_dim=5, hidden_dim=6, sim_dim=4,
        n_layers=int(rng.integers(0, 4)),
        temperature=float(rng.choice([9.0, 4.0])),
        stream=STREAMS[seed % 3],
        hierarchical=bool(rng.integers(2)),
        row_softmax=bool(rng.integers(2)),
        share_sim_w=bool(rng.integers(2)),
    )
    # the initializer's zero biases and output projections would hide whole branches
    params = tt.ParamStore({
        name: tt.parameter(t.data + rng.uniform(-0.2, 0.2, size=t.data.shape))
        for name, t in init_params(cfg, seed=seed).items()
    })
    b, k = int(rng.integers(3, 6)), int(rng.integers(1, 4))
    lengths = rng.integers(1, 4, size=b + 1)
    lengths[rng.integers(b + 1)] = rng.integers(10, 20)

    def tokens(n):
        return [int(t) for t in rng.integers(0, cfg.vocab_size, size=n)]

    raws = [rng.normal(size=(k, cfg.d_raw)) for _ in range(b + 1)]
    captions = [tokens(n) for n in lengths]
    # the last image and caption are the unrelated extras
    return cfg, params, raws[:b], captions[:b], raws[b], captions[b], rng


def _assert_close(actual, expected):
    scale = np.max(np.abs(expected))
    np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("seed", range(DRAWS))
def test_scores_do_not_depend_on_grouping(seed, monkeypatch):
    cfg, params, raws, captions, extra_raw, extra_caption, rng = _draw(seed)
    b = len(raws)
    with tt.no_grad():
        grid = score_grid(params, cfg, raws, captions).data
        alone = np.array([
            [score_grid(params, cfg, [raw], [caption]).data[0, 0] for caption in captions]
            for raw in raws
        ])
    _assert_close(grid, alone)
    image_perm, caption_perm = rng.permutation(b), rng.permutation(b)
    for budget in BUDGETS:
        if budget is not None:
            monkeypatch.setattr(model, "TILE_ELEMENTS", budget)
        scores = score_matrix(params, cfg, raws, captions)
        _assert_close(scores, grid)
        permuted = score_matrix(
            params, cfg, [raws[i] for i in image_perm], [captions[j] for j in caption_perm]
        )
        _assert_close(permuted, grid[image_perm][:, caption_perm])
        extended = score_matrix(params, cfg, raws + [extra_raw], captions + [extra_caption])
        _assert_close(extended[:b, :b], grid)
        monkeypatch.undo()
