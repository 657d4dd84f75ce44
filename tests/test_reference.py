"""Production forward pass against the scalar nested-loop reference."""

import numpy as np
import pytest

from itmatch import model
from itmatch import tensor as tt
from itmatch.errors import ConfigError, DimensionError
from itmatch.gradcheck import run_gradcheck
from itmatch.model import ModelConfig, init_params, score_grid, score_matrix
from itmatch.scoring import LossBatch, bidirectional_ranking_loss
from scalar_reference import ref_pair_score, ref_ranking_loss, weights_as_lists

STREAMS = ("both", "i2t_only", "t2i_only")


def _jitter(params, rng, scale=0.2):
    # the initializer plants exact zeros (biases, residual output
    # projections); leaving them would multiply whole branches of the
    # computation by zero and the comparison would no longer cover them
    return tt.ParamStore({
        name: tt.parameter(t.data + rng.uniform(-scale, scale, size=t.data.shape)) for name, t in params.items()
    })


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
    """Replace model.<name> by a wrapper that records the arguments of each call."""
    calls = []
    original = getattr(model, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(model, name, counted)
    return calls


def _assert_trimmed(tile_calls):
    # every score_tile call gets captions padded to one row past its own longest
    for _, _, _, captions in tile_calls:
        assert captions.local.shape[1] == captions.lengths.max() + 1


# the largest per-pair array is max(3, rows) x max(6, rows) entries: 30 at
# the longest caption (4 words, 5 rows), then 24, 18 and 18 for 3, 2 and
# 1 words.  An image tile holds budget // 30 images (at most 5); a run of
# one length joins the previous caption tile if both fit the budget at
# the run's rows against that many images, and otherwise starts tiles of
# budget // (images x entries) captions.
# - 120: 4 images, then 1 (2 image tiles).  Every length fits 1 caption
#   (120 // 72, 120 // 96, 120 // 120), so 6 caption tiles.
# - 360: 5 images (1 image tile).  1 and 2 words fit 4 captions
#   (360 // 90) and share a tile of 3; 3 words fit 3 (360 // 120), so the
#   one 3-word caption starts a tile; 4 words fit 2 (360 // 150), so both
#   start a third.
# - the default budget: one tile.
TILE_COUNTS = {120: (2, 6), 360: (1, 3), None: (1, 1)}


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
    _assert_trimmed(tiles)
    assert scores.shape == (5, 6)
    for i in range(5):
        for j in range(6):
            expected = ref_pair_score(weights, cfg, raws[i].tolist(), token_lists[j])
            assert abs(scores[i, j] - expected) < 1e-8, (i, j)


def test_score_matrix_tiles_an_evaluation_fold_by_caption_length(monkeypatch):
    # 16 images x 80 captions, 16 of each length 2-6, at the README widths
    # (k=4, d=32): the largest per-pair array is 4 x 32 = 128 entries at 3
    # and 4 rows, 160 at 5, 192 at 6 and 224 at 7.  All 16 images fit one
    # tile (2^16 // 224).  Against 16 images a tile fits 32 captions at 4
    # rows, so the 2- and 3-word captions share one; 4 words fit 25
    # (2^16 // 2560), 5 words 21 and 6 words 18, so each of those runs
    # starts a tile of its own: 4 tiles in all, not 6 of 3 x 80 at 7 rows.
    cfg = ModelConfig(vocab_size=256, d_raw=32, embed_dim=32, hidden_dim=32, sim_dim=16, n_layers=3)
    rng = np.random.default_rng(18)
    params = _jitter(init_params(cfg, seed=18), rng)
    raws = [rng.normal(size=(4, cfg.d_raw)) for _ in range(16)]
    lengths = rng.permutation(np.repeat(np.arange(2, 7), 16))
    token_lists = [[int(t) for t in rng.integers(0, cfg.vocab_size, size=n)] for n in lengths]
    encodes, tiles = _counted(monkeypatch, "encode_image"), _counted(monkeypatch, "score_tile")
    scores = score_matrix(params, cfg, raws, token_lists)
    assert (len(encodes), len(tiles)) == (1, 4)
    _assert_trimmed(tiles)
    assert [sorted(set(captions.lengths)) for *_, captions in tiles] == [[2, 3], [4], [5], [6]]
    weights = weights_as_lists(params)
    for i, j in zip(rng.integers(0, 16, size=4), rng.integers(0, 80, size=4)):
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


@pytest.mark.parametrize("stream", ["both", "t2i_only"])
def test_shared_similarity_weight_passes_the_gradient_oracle(stream):
    # sim.w_shared reaches the loss through the pooled t2i sum and s_glob at once
    cfg = ModelConfig(
        vocab_size=12, d_raw=4, embed_dim=3, hidden_dim=4, sim_dim=3, n_layers=1,
        stream=stream, share_sim_w=True,
    )
    report = run_gradcheck(cfg, k=3, caption_len=3, batch_size=2)
    assert report.passed, [(c.name, c.max_rel_err) for c in report.checks if not c.passed]
    assert "sim.w_shared" in [c.name for c in report.checks]


def _reachable(roots):
    seen = {id(r): r for r in roots}
    work = list(roots)
    while work:
        for parent in work.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                work.append(parent)
    return seen


# tape nodes of one whole training step (both encoders, the tile and the
# loss) at the README widths with 3 layers, at any batch size; README.md
# quotes the "both" count
STEP_TAPE_NODES = {"both": 146, "row_softmax": 152}


@pytest.mark.parametrize("name", sorted(STEP_TAPE_NODES))
def test_tile_tape_nodes_do_not_grow_with_the_batch(name):
    cfg = ModelConfig(
        vocab_size=256, d_raw=32, embed_dim=32, hidden_dim=32, sim_dim=16, n_layers=3,
        **MIXED_CONFIGS[name],
    )
    rng = np.random.default_rng(3000)
    params = _jitter(init_params(cfg, seed=0), rng)
    raws = [rng.normal(size=(4, cfg.d_raw)) for _ in range(5)]
    token_lists = [[int(t) for t in rng.integers(0, cfg.vocab_size, size=n)] for n in MIXED_LENGTHS]
    tile_counts, tape_counts = [], []
    for b in (2, 16):
        region_list = [raws[i % 5] for i in range(b)]
        token_batch = [token_lists[j % 6] for j in range(b)]
        images = model.encode_image(params, cfg, region_list)
        captions = model.encode_caption(params, cfg, token_batch)
        encoded = _reachable([images.local, images.glob, captions.local, captions.glob])
        scores = model.score_tile(params, cfg, images, captions)
        tile_counts.append(len(set(_reachable([scores])) - set(encoded)))
        grid = score_grid(params, cfg, region_list, token_batch)
        tape_counts.append(len(_reachable([bidirectional_ranking_loss(LossBatch(grid, 0.2))])))
    assert tile_counts[0] == tile_counts[1]
    assert tape_counts == [STEP_TAPE_NODES[name]] * 2


# every stream x depth 0/1/3 x shared weight x row softmax x gate
PARAMETER_GRID = [
    dict(stream=stream, n_layers=depth, share_sim_w=shared, row_softmax=softmax, hierarchical=gated)
    for stream in STREAMS for depth in (0, 1, 3) for shared in (False, True)
    for softmax in (False, True) for gated in (False, True)
]


def test_every_parameter_is_live_and_stored_as_applied():
    # a margin this large keeps every hinge term active, so a parameter
    # whose gradient is exactly zero is one the loss never reads; a weight
    # transposed on the tape gets its gradient back as a swapped-axes view
    rng = np.random.default_rng(4000)
    raws = [rng.normal(size=(3, 4)) for _ in range(5)]
    token_lists = [[int(t) for t in rng.integers(0, 12, size=n)] for n in (1, 4, 2, 6, 3)]
    dead, strided = [], []
    for i, flags in enumerate(PARAMETER_GRID):
        cfg = ModelConfig(vocab_size=12, d_raw=4, embed_dim=3, hidden_dim=5, sim_dim=3, **flags)
        params = _jitter(init_params(cfg, seed=i), rng)
        grid = score_grid(params, cfg, raws, token_lists)
        grads = tt.backward(bidirectional_ranking_loss(LossBatch(grid, 1e3)), params)
        dead += [(i, name) for name, g in grads.items() if not np.any(g.data)]
        strided += [(i, name) for name, g in grads.items() if not g.data.flags.c_contiguous]
    assert dead == [] and strided == []


def test_parameters_are_stored_as_the_forward_pass_applies_them():
    cfg = ModelConfig(vocab_size=12, d_raw=4, embed_dim=3, hidden_dim=5, sim_dim=3, n_layers=2)
    shapes = model.param_shapes(cfg)
    for name in ("sim.w_glob", "sim.w_i2t", "sim.w_t2i"):
        assert shapes[name] == (cfg.hidden_dim, cfg.sim_dim), name
    assert model.param_shapes(ModelConfig(**{**vars(cfg), "share_sim_w": True}))["sim.w_shared"] == (5, 3)
    assert all(p.data.flags.c_contiguous for _, p in init_params(cfg, seed=0).items())
    # no parameter the forward pass never reads
    assert "head.b" not in shapes
    assert "sim.w_i2t" not in model.param_shapes(ModelConfig(**{**vars(cfg), "n_layers": 0}))
    ungated = model.param_shapes(ModelConfig(**{**vars(cfg), "hierarchical": False}))
    assert not [name for name in ungated if name.endswith((".kernel", ".bias"))]


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
