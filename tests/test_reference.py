"""Production forward pass against the scalar nested-loop reference."""

import numpy as np
import pytest

from itmatch import model
from itmatch import tensor as tt
from itmatch.errors import ConfigError, DimensionError
from itmatch.model import ModelConfig, init_params, score_grid, score_matrix
from itmatch.scoring import LossBatch, bidirectional_ranking_loss
from scalar_reference import ref_pair_score, ref_ranking_loss, weights_as_lists

STREAMS = ("both", "i2t_only", "t2i_only")


def _jitter(params, rng, scale=0.2):
    # the initializer plants exact zeros (biases, residual output
    # projections); leaving them would multiply whole branches of the
    # computation by zero and the comparison would no longer cover them
    out = tt.ParamStore()
    for name in params.names():
        base = params[name].data
        out.add(name, tt.parameter(base + rng.uniform(-scale, scale, size=base.shape)))
    return out


def _instance(i):
    cfg = ModelConfig(
        vocab_size=30,
        d_raw=7,
        embed_dim=5,
        hidden_dim=6,
        sim_dim=4,
        n_layers=i % 3,
        temperature=(9.0, 4.0)[i % 2],
        stream=STREAMS[(i // 3) % 3],
        hierarchical=(i % 2 == 0),
        row_softmax=(i % 5 == 0),
        share_sim_w=(i % 4 == 0),
    )
    rng = np.random.default_rng(2000 + i)
    params = _jitter(init_params(cfg, seed=1000 + i), rng)
    raw = rng.normal(size=(2 + i % 3, cfg.d_raw))
    tokens = [int(t) for t in rng.integers(0, cfg.vocab_size, size=2 + (i // 2) % 3)]
    return cfg, params, raw, tokens


def test_hundred_random_instances_agree():
    worst = 0.0
    for i in range(100):
        cfg, params, raw, tokens = _instance(i)
        produced = score_grid(params, cfg, [raw], [tokens]).data[0, 0]  # a 1 x 1 grid
        expected = ref_pair_score(weights_as_lists(params), cfg, raw.tolist(), tokens)
        worst = max(worst, abs(produced - expected))
    assert worst < 1e-8, f"worst absolute disagreement {worst}"


def test_score_grid_matches_reference_pairs():
    cfg, params, _, _ = _instance(0)
    rng = np.random.default_rng(7)
    raws = [rng.normal(size=(3, cfg.d_raw)) for _ in range(3)]
    token_lists = [[int(t) for t in rng.integers(0, cfg.vocab_size, size=3)] for _ in range(3)]
    grid = score_grid(params, cfg, raws, token_lists).data
    weights = weights_as_lists(params)
    for i in range(3):
        for j in range(3):
            expected = ref_pair_score(weights, cfg, raws[i].tolist(), token_lists[j])
            assert abs(grid[i, j] - expected) < 1e-8


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ranking_loss_matches_reference(seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(5, 5))
    produced = bidirectional_ranking_loss(LossBatch(tt.constant(values), margin=0.2)).item()
    expected = ref_ranking_loss(values.tolist(), 0.2)
    assert abs(produced - expected) < 1e-12


# --- tiles of mixed caption lengths ---------------------------------------------

# one caption of every length from 1 to 4 (and a repeat), so every tile
# pads some captions and the global reasoning node sits in a different
# row for each length
MIXED_LENGTHS = (1, 4, 2, 3, 1, 4)

MIXED_CONFIGS = {
    "both": dict(),
    "i2t_only": dict(stream="i2t_only"),
    "t2i_only": dict(stream="t2i_only"),
    "no_layers": dict(n_layers=0),
    "ungated": dict(hierarchical=False),
    "row_softmax": dict(row_softmax=True),
    "row_softmax_ungated": dict(row_softmax=True, hierarchical=False, share_sim_w=True),
}


def _mixed_instance(name, seed=0):
    cfg = ModelConfig(
        vocab_size=30, d_raw=7, embed_dim=5, hidden_dim=6, sim_dim=4,
        **{"n_layers": 2, **MIXED_CONFIGS[name]},
    )
    rng = np.random.default_rng(3000 + seed)
    params = _jitter(init_params(cfg, seed=seed), rng)
    raws = [rng.normal(size=(3, cfg.d_raw)) for _ in range(5)]
    token_lists = [[int(t) for t in rng.integers(0, cfg.vocab_size, size=n)] for n in MIXED_LENGTHS]
    return cfg, params, raws, token_lists


@pytest.mark.parametrize("name", sorted(MIXED_CONFIGS))
def test_score_grid_with_mixed_lengths_matches_reference(name):
    cfg, params, raws, token_lists = _mixed_instance(name)
    weights = weights_as_lists(params)
    grid = score_grid(params, cfg, raws, token_lists[:5]).data
    for i in range(5):
        for j in range(5):
            expected = ref_pair_score(weights, cfg, raws[i].tolist(), token_lists[j])
            assert abs(grid[i, j] - expected) < 1e-8, (i, j)


def _counted(monkeypatch, name):
    """Replace model.<name> by a wrapper that counts its calls."""
    calls = []
    original = getattr(model, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(model, name, counted)
    return calls


# the largest per-pair array here is 5 rows x 6 = 30 entries: 120 entries
# make tiles of 1 image x 4 captions (5 image tiles x 2 caption tiles),
# 360 entries tiles of 2 images x 6 (3 x 1), and the default one tile
TILE_COUNTS = {120: (5, 2), 360: (3, 1), None: (1, 1)}


@pytest.mark.parametrize("budget", [120, 360, None])
@pytest.mark.parametrize("name", sorted(MIXED_CONFIGS))
def test_score_matrix_tiles_match_reference(name, budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(model, "TILE_ELEMENTS", budget)
    cfg, params, raws, token_lists = _mixed_instance(name, seed=1)
    weights = weights_as_lists(params)
    encodes, tiles = _counted(monkeypatch, "encode_image"), _counted(monkeypatch, "score_tile")
    scores = score_matrix(params, cfg, raws, token_lists)
    image_tiles, caption_tiles = TILE_COUNTS[budget]
    # each image tile is encoded once and scored against every caption tile
    assert (len(encodes), len(tiles)) == (image_tiles, image_tiles * caption_tiles)
    assert scores.shape == (5, 6)
    for i in range(5):
        for j in range(6):
            expected = ref_pair_score(weights, cfg, raws[i].tolist(), token_lists[j])
            assert abs(scores[i, j] - expected) < 1e-8, (i, j)


def test_gradients_on_a_mixed_length_batch_match_finite_differences():
    cfg = ModelConfig(
        vocab_size=12, d_raw=4, embed_dim=3, hidden_dim=4, sim_dim=3, n_layers=2, row_softmax=True,
    )
    rng = np.random.default_rng(5)
    params = _jitter(init_params(cfg, seed=2), rng, scale=0.3)
    raws = [rng.normal(size=(2, cfg.d_raw)) for _ in range(3)]
    token_lists = [[3], [1, 7, 2], [5, 0]]

    def loss(p):
        return bidirectional_ranking_loss(LossBatch(score_grid(p, cfg, raws, token_lists), 0.2))

    with tt.no_grad():
        values = score_grid(params, cfg, raws, token_lists).data
    off = values.copy()
    np.fill_diagonal(off, -np.inf)
    hinges = 0.2 - np.diag(values)[:, None] + np.stack([off.max(axis=1), off.max(axis=0)], axis=1)
    assert np.min(np.abs(hinges)) > 1e-3  # no kink within finite-difference reach
    auto = tt.backward(loss(params), params)
    numeric = tt.finite_diff_grad(lambda p: loss(p).item(), params)
    for name in params.names():
        a, b = auto[name].data, numeric[name].data
        err = np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-5))
        assert err < 1e-4, f"{name}: rel err {err}"


def _reachable(roots):
    seen = {id(r): r for r in roots}
    work = list(roots)
    while work:
        for parent in work.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                work.append(parent)
    return seen


@pytest.mark.parametrize("name", ["both", "row_softmax"])
def test_tile_tape_nodes_do_not_grow_with_the_batch(name):
    cfg, params, raws, token_lists = _mixed_instance(name)
    tile_counts, tape_counts = [], []
    for b in (2, 8):
        region_list = [raws[i % 5] for i in range(b)]
        token_batch = [token_lists[j % 6] for j in range(b)]
        images = model.encode_image(params, cfg, region_list)
        captions = model.encode_caption(params, cfg, token_batch)
        encoded = _reachable([images.local, images.glob, captions.local, captions.glob])
        scores = model.score_tile(params, cfg, images, captions)
        tile_counts.append(len(set(_reachable([scores])) - set(encoded)))
        # the whole training tape: both encoders, the tile and the loss
        grid = score_grid(params, cfg, region_list, token_batch)
        tape_counts.append(len(_reachable([bidirectional_ranking_loss(LossBatch(grid, 0.2))])))
    assert tile_counts[0] == tile_counts[1]
    assert tape_counts[0] == tape_counts[1]


def test_score_grid_encodes_each_modality_once(monkeypatch):
    cfg, params, raws, token_lists = _mixed_instance("both")
    images = _counted(monkeypatch, "encode_image")
    captions = _counted(monkeypatch, "encode_caption")
    score_grid(params, cfg, raws, token_lists[:5])
    assert (len(images), len(captions)) == (1, 1)


def test_batch_image_encoding_equals_each_image_alone():
    cfg, params, raws, _ = _mixed_instance("both")
    batch = model.encode_image(params, cfg, raws)
    assert batch.local.shape == (5, 3, cfg.hidden_dim) and batch.glob.shape == (5, cfg.hidden_dim)
    for i, raw in enumerate(raws):
        alone = model.encode_image(params, cfg, [raw])
        np.testing.assert_allclose(batch.local.data[i], alone.local.data[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch.glob.data[i], alone.glob.data[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "shapes", [[(3, 7), (4, 7)], [(3, 6)], [(3, 7), (3, 8)], [(7,)], []],
    ids=["mixed-k", "short-d_raw", "mixed-d_raw", "not-a-matrix", "no-image"],
)
def test_image_batches_of_bad_shapes_are_rejected(shapes):
    cfg, params, _, _ = _mixed_instance("both")  # d_raw = 7
    with pytest.raises(DimensionError):
        model.encode_image(params, cfg, [np.zeros(shape) for shape in shapes])


@pytest.mark.parametrize("temperature", [0.0, np.nan, np.inf])
def test_model_config_rejects_a_temperature_that_is_not_finite_and_positive(temperature):
    # ModelConfig is the one place the attention temperature is checked
    with pytest.raises(ConfigError, match="temperature must be finite and positive"):
        ModelConfig(vocab_size=30, temperature=temperature)
