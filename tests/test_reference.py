"""Production forward pass against the scalar nested-loop reference."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from itmatch import model, training
from itmatch import tensor as tt
from itmatch.attention import local_similarities
from itmatch.errors import ConfigError, DimensionError
from itmatch.gradcheck import run_gradcheck
from itmatch.model import ModelConfig, init_params, score_grid, score_matrix
from itmatch.reasoning import reason
from itmatch.scoring import LossBatch, bidirectional_ranking_loss, score
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


def _trace_targets():
    """perfbench's TRACE_TARGETS as (layer, module name, attribute), read with
    ast: importing perfbench/run.py would rewrite the BLAS environment."""
    source = (Path(__file__).resolve().parent.parent / "perfbench" / "run.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACE_TARGETS"]:
            return [(layer.value, module.id, attr.value) for layer, module, attr in (e.elts for e in node.value.elts)]
    raise AssertionError("perfbench/run.py defines no TRACE_TARGETS")


def test_every_traced_name_exists():
    # a renamed or bypassed target would drop out of perfbench's layers silently
    targets = _trace_targets()
    assert len(targets) == 13
    for layer, module, attr in targets:
        assert callable(getattr(importlib.import_module(f"itmatch.{module}"), attr, None)), layer


@pytest.mark.parametrize("entry", ["score_grid", "score_matrix"])
def test_the_pair_path_reaches_every_traced_model_name(monkeypatch, entry):
    cfg, params, raws, token_lists = _mixed_instance("both")
    names = [attr for _, module, attr in _trace_targets() if module == "model"]
    assert sorted(names) == ["encode_caption", "encode_image", "local_similarities", "reason", "score"]
    calls = {name: _counted(monkeypatch, name) for name in names}
    getattr(model, entry)(params, cfg, raws, token_lists[:5])
    assert {name: bool(c) for name, c in calls.items()} == dict.fromkeys(names, True)


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


# tape nodes of one whole training step at the README widths with 3
# layers, at any batch size: the outer step tape (both encoders, the
# tile's one recompute node and the loss) and the recompute tape its
# backward pass builds for the pairs the loss reads (their gathers, the
# pair path and its leaves).  README.md quotes the "both" counts.  When
# the step taped every pair of the tile, it was one tape of 140 and 146
# nodes.
STEP_TAPE_NODES = {"both": (62, 106), "row_softmax": (62, 112)}
# the "both" step's op nodes by op, per tape; the recompute tape's one
# reshape gives each pair's global vector the row axis it is placed along,
# and its five gathers are the four encoded inputs' and the reasoning
# readout
STEP_CENSUS = (
    {
        "add": 2, "gru_sequence": 1, "matmul": 1, "mul": 2, "recompute": 1, "relu": 1,
        "square": 2, "sub": 1, "sum": 4, "take_rows": 3,
    },
    {
        "add": 6, "conv2d_3x3": 3, "inv_norm": 7, "matmul": 25, "mul": 15, "relu": 1, "reshape": 1,
        "sigmoid": 3, "softmax_rows": 2, "square": 3, "sub": 3, "sum": 1, "take_rows": 5, "transpose": 5,
    },
)


def _step_inputs(name):
    """Config, parameters, five region matrices and six captions at the README widths."""
    cfg = ModelConfig(
        vocab_size=256, d_raw=32, embed_dim=32, hidden_dim=32, sim_dim=16, n_layers=3,
        **MIXED_CONFIGS[name],
    )
    rng = np.random.default_rng(3000)
    params = _jitter(init_params(cfg, seed=0), rng)
    raws = [rng.normal(size=(4, cfg.d_raw)) for _ in range(5)]
    token_lists = [[int(t) for t in rng.integers(0, cfg.vocab_size, size=n)] for n in MIXED_LENGTHS]
    return cfg, params, raws, token_lists


def _step_tapes(cfg, params, region_list, token_batch):
    """The nodes of each tape one training step walks: the outer step tape,
    then the recompute tape built inside its backward pass."""
    walked, walk = [], tt._walk

    def recording(root, seed):
        walked.append(list(_reachable([root]).values()))
        return walk(root, seed)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tt, "_walk", recording)
        grid = score_grid(params, cfg, region_list, token_batch)
        tt.backward(bidirectional_ranking_loss(LossBatch(grid, 0.2)), params)
    return walked


@pytest.mark.parametrize("name", sorted(STEP_TAPE_NODES))
def test_tile_tape_nodes_do_not_grow_with_the_batch(name):
    cfg, params, raws, token_lists = _step_inputs(name)
    tile_counts, tape_counts = [], []
    for b in (2, 16):
        region_list = [raws[i % 5] for i in range(b)]
        token_batch = [token_lists[j % 6] for j in range(b)]
        images = model.encode_image(params, cfg, region_list)
        captions = model.encode_caption(params, cfg, token_batch)
        encoded = _reachable([images.local, images.glob, captions.local, captions.glob])
        scores = model.score_tile(params, cfg, images, captions)
        tile_counts.append(len(set(_reachable([scores])) - set(encoded)))
        tape_counts.append(tuple(len(nodes) for nodes in _step_tapes(cfg, params, region_list, token_batch)))
    assert tile_counts[0] == tile_counts[1]
    assert tape_counts == [STEP_TAPE_NODES[name]] * 2


def test_step_census_by_op():
    cfg, params, raws, token_lists = _step_inputs("both")
    tapes = _step_tapes(cfg, params, [raws[i % 5] for i in range(16)], [token_lists[j % 6] for j in range(16)])
    ops = [Counter(node._backward.__qualname__.split(".")[0] for node in nodes if node._backward) for nodes in tapes]
    assert tuple(dict(census) for census in ops) == STEP_CENSUS


def test_readme_quotes_the_pinned_step_count():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    outer, recompute = STEP_TAPE_NODES["both"]
    assert re.findall(r"is (\d+) tape\s+nodes", readme) == [str(outer)]
    assert re.findall(r"recompute\s+tape\s+of\s+(\d+)\s+nodes", readme) == [str(recompute)]


def test_one_training_step_calls_backward_once(monkeypatch):
    # the recompute node walks its own tape without the module's backward,
    # which a tracer wraps: a nested call would count that walk twice
    cfg, params, raws, token_lists = _step_inputs("both")
    config = training.TrainConfig(model=cfg, batch_size=6)
    calls, backward = [], tt.backward

    def counted(*args):
        calls.append(args)
        return backward(*args)

    monkeypatch.setattr(tt, "backward", counted)
    monkeypatch.setattr(training, "backward", counted)
    training._train_step(params, training.adam_init(params), config, [raws[i % 5] for i in range(6)], token_lists, 2e-4)
    assert len(calls) == 1


# --- the recompute node against one full tape over every pair -------------------


def _full_tape_grid(params, cfg, region_list, token_lists):
    """The (b, b) grid as one tape over every pair: the public functions
    ``score_tile`` composes, on the grid layout, with no recompute node."""
    images = model.encode_image(params, cfg, region_list)
    captions = model.encode_caption(params, cfg, token_lists)

    def sim_w(name):
        return params["sim.w_shared" if cfg.share_sim_w else f"sim.{name}"]

    local = local_similarities(
        images.local, captions.local, images.glob, captions.glob,
        np.arange(captions.local.shape[1]) < captions.lengths[:, None], cfg.temperature, sim_w("w_glob"),
        w_i2t=sim_w("w_i2t") if cfg.uses_i2t and cfg.n_layers else None,
        w_t2i=sim_w("w_t2i") if cfg.uses_t2i else None,
    )
    streams = []
    if cfg.uses_i2t:
        layers = [model.layer_params(params, cfg, i) for i in range(cfg.n_layers)]
        streams.append(
            reason(local.s_i2t, local.s_glob, captions.lengths, layers, row_softmax=cfg.row_softmax)
            if layers else local.s_glob
        )
    if cfg.uses_t2i:
        streams.append(local.s_t2i)
    return score(tt.add(*streams) if len(streams) == 2 else streams[0], params["head.w"])


def _hinge_loss(grid):
    return bidirectional_ranking_loss(LossBatch(grid, 0.2))


def _assert_gradients_match_the_full_tape(cfg, params, raws, token_lists, loss=_hinge_loss):
    grid = score_grid(params, cfg, raws, token_lists)
    full = _full_tape_grid(params, cfg, raws, token_lists)
    assert np.array_equal(grid.data, full.data)  # the values are the full tape's, bit for bit
    produced, expected = tt.backward(loss(grid), params), tt.backward(loss(full), params)
    for name in params.names():
        a, b = produced[name].data, expected[name].data
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name


def _readme_batch(seed, b, k=4, lengths=(2, 6), scale=0.05, **widths):
    cfg = ModelConfig(**{
        "vocab_size": 256, "d_raw": 32, "embed_dim": 32, "hidden_dim": 32, "sim_dim": 16, "n_layers": 3, **widths,
    })
    rng = np.random.default_rng(5000 + seed)
    params = _jitter(init_params(cfg, seed=seed), rng, scale=scale)
    raws = [rng.normal(size=(k, cfg.d_raw)) for _ in range(b)]
    sizes = rng.integers(lengths[0], lengths[1] + 1, size=b)
    token_lists = [[int(t) for t in rng.integers(0, cfg.vocab_size, size=n)] for n in sizes]
    return cfg, params, raws, token_lists


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_recomputed_gradients_match_the_full_tape_at_readme_widths(seed):
    _assert_gradients_match_the_full_tape(*_readme_batch(seed, b=16))


def test_recomputed_gradients_match_the_full_tape_at_paper_shape_ratios():
    # k = 36 regions and 11-14 words, at toy widths
    batch = _readme_batch(3, b=4, k=36, lengths=(11, 14), d_raw=8, embed_dim=6, hidden_dim=8, sim_dim=6, scale=0.2)
    _assert_gradients_match_the_full_tape(*batch)


@pytest.mark.parametrize("name", sorted(MIXED_CONFIGS))
def test_recomputed_gradients_match_the_full_tape_in_every_stream_layout(name):
    cfg, params, raws, token_lists = _mixed_instance(name, seed=4)
    _assert_gradients_match_the_full_tape(cfg, params, raws, token_lists[:5])


def test_recomputed_gradients_match_the_full_tape_with_planted_ties():
    # a repeated image and a repeated caption give rows and columns of
    # equal scores, so hardest negatives tie and take the lowest index
    cfg, params, raws, token_lists = _mixed_instance("both", seed=5)
    raws = [raws[0], raws[1], raws[0], raws[2]]
    token_lists = [token_lists[1], token_lists[2], token_lists[3], token_lists[2]]
    with tt.no_grad():
        grid = score_grid(params, cfg, raws, token_lists).data
    assert np.array_equal(grid[0], grid[2]) and np.array_equal(grid[:, 1], grid[:, 3])
    _assert_gradients_match_the_full_tape(cfg, params, raws, token_lists)


def test_recomputed_gradients_match_the_full_tape_at_two_pairs():
    _assert_gradients_match_the_full_tape(*_readme_batch(6, b=2))


def test_recomputed_gradients_match_the_full_tape_for_a_loss_reading_every_entry():
    _assert_gradients_match_the_full_tape(*_readme_batch(7, b=5), loss=tt.sum)


def test_all_hinges_inactive_give_zero_gradients_and_no_recompute(monkeypatch):
    # each matched pair outscores both of its negatives (a seed chosen so),
    # so at margin 0 every hinge is inactive and no entry gets a gradient
    cfg, params, raws, token_lists = _readme_batch(17, b=2)
    scored = _counted(monkeypatch, "_score_pairs")
    grid = score_grid(params, cfg, raws, token_lists)
    assert min(np.diag(grid.data)) > max(grid.data[0, 1], grid.data[1, 0])
    grads = tt.backward(bidirectional_ranking_loss(LossBatch(grid, 0.0)), params)
    assert len(scored) == 1  # the forward pass only
    assert all(not np.any(g.data) for g in grads.values())


def _gru_backward_calls(monkeypatch):
    """Make every GRU direction's backward closure record its calls."""
    calls, direction = [], tt._gru_direction

    def counted(*args):
        states, back = direction(*args)
        if back is None:
            return states, None

        def recorded(g):
            calls.append(g)
            return back(g)
        return states, recorded

    monkeypatch.setattr(tt, "_gru_direction", counted)
    return calls


@pytest.mark.parametrize("margin, gru_calls", [(0.0, 0), (0.2, 2)], ids=["inactive", "active"])
def test_an_inactive_batch_runs_no_backward_upstream_of_the_recompute_node(monkeypatch, margin, gru_calls):
    # with no active hinge the recompute node gives its inputs no gradient,
    # so only the loss's nodes and the recompute node itself run backward;
    # with one, both GRU directions run theirs once
    cfg, params, raws, token_lists = _readme_batch(17, b=2)
    gru = _gru_backward_calls(monkeypatch)
    grid = score_grid(params, cfg, raws, token_lists)
    loss = bidirectional_ranking_loss(LossBatch(grid, margin))
    assert (loss.item() > 0.0) == (margin > 0.0)
    ran, ops = set(), {key: node for key, node in _reachable([loss]).items() if node._backward}
    for key, node in ops.items():
        def recorded(g, key=key, fn=node._backward):
            ran.add(key)
            return fn(g)
        node._backward = recorded
    grads = tt.backward(loss, params)
    assert len(gru) == gru_calls
    assert ran == (set(ops) - set(_reachable(grid._parents)) if margin == 0.0 else set(ops))
    assert id(grid) in ran
    if margin == 0.0:
        assert all(g.data.tobytes() == bytes(g.data.nbytes) for g in grads.values())  # +0.0 everywhere


def test_no_grad_and_untracked_inputs_make_no_recompute_node():
    cfg, params, raws, token_lists = _readme_batch(9, b=3)
    with tt.no_grad():
        grid = score_grid(params, cfg, raws, token_lists)
        images = model.encode_image(params, cfg, raws)
    assert not grid.requires_grad and grid._parents == ()
    untracked = tt.recompute([images.local, images.glob], lambda leaves, coords: tt.sum(leaves[0], axis=-1))
    assert not untracked.requires_grad and untracked._parents == ()


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
    assert batch.local.shape == (5, 1, 3, cfg.hidden_dim) and batch.glob.shape == (5, 1, cfg.hidden_dim)
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
