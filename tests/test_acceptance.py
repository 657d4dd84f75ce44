"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

`pytest tests/test_acceptance.py -v` shows a line per criterion through
the test names; add -s for the printed detail lines. The overfit and
ablation criteria train real models and dominate the runtime.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from itmatch import tensor as tt
from itmatch.attention import cosines, i2t_weights, sim_vec_rows, t2i_weights
from itmatch.cli import main
from itmatch.dataio import gen_synthetic, read_dataset, write_dataset
from itmatch.evaluation import evaluate, recalls_from_matrix, rsum
from itmatch.gradcheck import run_gradcheck
from itmatch.model import (
    ModelConfig,
    init_params,
    score_grid,
    score_matrix,
)
from itmatch.reasoning import (
    ReasonLayerParams,
    gate_relations,
    reason,
    reason_step,
    relation_matrix,
)
from itmatch.scoring import LossBatch, bidirectional_ranking_loss
from itmatch.training import TrainConfig, train

from scalar_reference import ref_pair_score, weights_as_lists
from test_reference import _instance


def _line(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {label}: {status}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


# 1 ------------------------------------------------------------------

def test_criterion_01_gradient_oracle():
    cfg = ModelConfig(
        vocab_size=50, d_raw=16, embed_dim=12, hidden_dim=8, sim_dim=6,
        n_layers=2, temperature=9.0,
    )
    start = time.time()
    report = run_gradcheck(
        cfg, k=4, caption_len=5, batch_size=2, margin=0.2,
        epsilon=1e-5, tolerance=1e-4, seed=0,
    )
    elapsed = time.time() - start
    worst = max(c.max_rel_err for c in report.checks)
    _line(
        1, "gradient oracle, tiny config, every parameter < 1e-4",
        report.passed and elapsed < 120.0,
        f"worst rel err {worst:.2e} over {len(report.checks)} tensors, {elapsed:.0f}s",
    )


# 2 ------------------------------------------------------------------

def test_criterion_02_scalar_reference_agreement():
    worst = 0.0
    for i in range(100):
        cfg, params, raw, tokens = _instance(i)
        produced = score_grid(params, cfg, [raw], [tokens]).data[0, 0]  # a 1 x 1 grid
        expected = ref_pair_score(weights_as_lists(params), cfg, raw.tolist(), tokens)
        worst = max(worst, abs(produced - expected))
    _line(
        2, "scalar nested-loop reference within 1e-8 on 100 instances",
        worst < 1e-8, f"worst abs disagreement {worst:.2e}",
    )


# 3 ------------------------------------------------------------------

def test_criterion_03_attention_invariants():
    rng = np.random.default_rng(5)
    v_arr = np.abs(rng.normal(size=(4, 6))) + 0.1
    t_arr = np.abs(rng.normal(size=(3, 6))) + 0.1
    v, t = tt.constant(v_arr[None]), tt.constant(t_arr[None])

    def weights(v, t, temperature, direction):
        # one image-caption pair is a 1 x 1 tile, every word of it real
        if direction == "i2t":
            return i2t_weights(cosines(v, t), temperature).data[0, 0].T  # word-major
        words = np.ones(t.shape[:2], dtype=bool)
        return t2i_weights(cosines(v, t), temperature, words).data[0, 0]

    i2t = weights(v, t, 9.0, "i2t")
    t2i = weights(v, t, 9.0, "t2i")
    norm_ok = (
        np.max(np.abs(i2t.sum(axis=0) - 1.0)) < 1e-6
        and np.max(np.abs(t2i.sum(axis=1) - 1.0)) < 1e-6
    )

    v_scaled = v_arr.copy()
    v_scaled[1] *= 37.5
    t_scaled = t_arr.copy()
    t_scaled[2] *= 0.003
    scale_ok = (
        np.max(np.abs(weights(tt.constant(v_scaled[None]), t, 9.0, "i2t") - i2t)) < 1e-10
        and np.max(np.abs(weights(v, tt.constant(t_scaled[None]), 9.0, "t2i") - t2i)) < 1e-10
    )

    # independent recomputation of the pre-softmax matrix for the argmax
    vu = v_arr / np.linalg.norm(v_arr, axis=1, keepdims=True)
    tu = t_arr / np.linalg.norm(t_arr, axis=1, keepdims=True)
    cos = np.maximum(vu @ tu.T, 0.0)
    normed = cos / np.linalg.norm(cos, axis=1, keepdims=True)
    gaps = np.sort(normed, axis=0)
    assert np.min(gaps[-1] - gaps[-2]) > 0.02  # argmax is unambiguous
    onehot = np.zeros_like(normed)
    onehot[np.argmax(normed, axis=0), np.arange(normed.shape[1])] = 1.0
    hard = weights(v, t, 1000.0, "i2t")
    onehot_ok = np.max(np.abs(hard - onehot)) < 1e-6

    _line(
        3, "attention normalisation 1e-6, rescale invariance 1e-10, hard one-hot",
        norm_ok and scale_ok and onehot_ok,
    )


# 4 ------------------------------------------------------------------

def test_criterion_04_similarity_vector_properties():
    rng = np.random.default_rng(9)
    w = tt.constant(rng.normal(size=(3, 4)))

    def sim_vec(x, y, w):
        # the similarity vector of one pair of rows
        return sim_vec_rows(tt.reshape(x, (1, 4)), tt.reshape(y, (1, 4)), w).data[0]

    x = tt.constant(rng.normal(size=4))
    y = tt.constant(rng.normal(size=4))

    symmetric = np.array_equal(sim_vec(x, y, w), sim_vec(y, x, w))
    homogeneous = all(
        np.max(np.abs(
            sim_vec(tt.constant(a * x.data), tt.constant(a * y.data), w)
            - a * sim_vec(x, y, w)
        )) < 1e-10
        for a in (0.25, 3.0, 117.0)
    )
    guarded = np.array_equal(sim_vec(x, x, w), np.zeros(3))
    _line(
        4, "similarity vector symmetry, degree-1 homogeneity, zero guard",
        symmetric and homogeneous and guarded,
    )


# 5 ------------------------------------------------------------------

def _np_conv3x3(mat: np.ndarray, kernel: np.ndarray, bias: float) -> np.ndarray:
    padded = np.pad(mat, 1)
    out = np.zeros_like(mat)
    for i in range(mat.shape[0]):
        for j in range(mat.shape[1]):
            out[i, j] = np.sum(padded[i:i + 3, j:j + 3] * kernel) + bias
    return out


def test_criterion_05_reasoning_structure():
    rng = np.random.default_rng(11)
    m = 4
    # three local nodes, then the global one
    nodes = tt.vstack([tt.constant(rng.normal(size=(3, m))), tt.constant(rng.normal(size=m))])
    wq = tt.constant(rng.normal(size=(m, m)))
    wk = tt.constant(rng.normal(size=(m, m)))
    rel = relation_matrix(nodes, wq, wk)

    gated = gate_relations(rel, tt.constant(np.zeros((3, 3))), tt.constant(np.asarray(0.0)))
    halved = np.array_equal(gated.data, 0.5 * rel.data)

    layer_zero_out = ReasonLayerParams(
        w_query=wq, w_key=wk,
        w_out=tt.constant(np.zeros((m, m))),
        w_mix=tt.constant(rng.normal(size=(m, m))),
        kernel=tt.constant(rng.normal(size=(3, 3))),
        bias=tt.constant(np.asarray(0.3)),
    )
    # an unpadded node set: its global node is its last row, every row is real
    readout = reason(nodes, [layer_zero_out], 3, hierarchical=True)
    identity = np.array_equal(readout.data, nodes.data[-1])

    layer = ReasonLayerParams(
        w_query=wq, w_key=wk,
        w_out=tt.constant(rng.normal(size=(m, m))),
        w_mix=tt.constant(rng.normal(size=(m, m))),
        kernel=tt.constant(rng.normal(size=(3, 3))),
        bias=tt.constant(np.asarray(-0.2)),
    )
    real = np.ones(4, dtype=bool)
    on = reason_step(nodes, layer, real, hierarchical=True).data
    off = reason_step(nodes, layer, real, hierarchical=False).data
    r = rel.data
    gate = 1.0 / (1.0 + np.exp(-_np_conv3x3(r, layer.kernel.data, float(layer.bias.data))))
    s = nodes.data
    expected_on = (r * gate) @ s @ layer.w_mix.data @ layer.w_out.data.T + s
    expected_off = r @ s @ layer.w_mix.data @ layer.w_out.data.T + s
    gate_only = (
        np.max(np.abs(on - expected_on)) < 1e-12
        and np.max(np.abs(off - expected_off)) < 1e-12
    )
    _line(
        5, "zero-kernel gate halves, zero update weight reads out the input, gate-only diff",
        halved and identity and gate_only,
    )


# 6 ------------------------------------------------------------------

def test_criterion_06_loss_hand_values():
    grid = np.array([[0.5, 0.6], [0.4, 0.5]])
    loss = bidirectional_ranking_loss(LossBatch(tt.constant(grid), margin=0.2)).item()
    exact = loss == 0.8

    shifted = bidirectional_ranking_loss(LossBatch(tt.constant(grid + 2.0), margin=0.2)).item()
    shift_ok = abs(shifted - loss) < 1e-12

    satisfied = np.array([[1.0, 0.0, 0.1], [0.0, 1.0, 0.2], [0.1, 0.0, 1.0]])
    zero = bidirectional_ranking_loss(LossBatch(tt.constant(satisfied), margin=0.2)).item()
    _line(
        6, "2x2 grid gives exactly 0.8, shift invariance, zero when satisfied",
        exact and shift_ok and zero == 0.0,
        f"loss {loss!r}",
    )


# 7 ------------------------------------------------------------------

def test_criterion_07_overfit_retrieval():
    data = gen_synthetic(
        n_pairs=16, k=2, d_raw=64, caption_len=2, vocab_size=400,
        seed=1, signal_strength=1.0,
    )
    cfg = ModelConfig(
        vocab_size=400, d_raw=64, embed_dim=64, hidden_dim=32, sim_dim=16,
        n_layers=3, temperature=9.0,
    )
    tc = TrainConfig(
        model=cfg, epochs=250, lr=2e-4, lr_decay_epoch=250, batch_size=8,
        margin=0.2, seed=0, eval_every=250,
    )
    start = time.time()
    result = train(data, tc)
    elapsed = time.time() - start
    sentence, image = evaluate(result.params, cfg, data)
    steps = len(result.loss_curve)
    final_loss = result.loss_curve[-1][1]
    _line(
        7, "16-pair overfit: loss < 0.01 and R@1 = 100 both ways within 500 steps",
        steps <= 500 and final_loss < 0.01
        and sentence.r_at[1] == 100.0 and image.r_at[1] == 100.0
        and elapsed < 300.0,
        f"{steps} steps, final loss {final_loss:.6f}, "
        f"R@1 {sentence.r_at[1]:.0f}/{image.r_at[1]:.0f}, {elapsed:.0f}s",
    )


# 8 ------------------------------------------------------------------

# frozen after a sweep; see the decisions ledger
ABLATION_DATA = dict(n_pairs=200, k=3, d_raw=24, caption_len=3, vocab_size=96,
                     seed=0, signal_strength=0.8)
ABLATION_MODEL = dict(vocab_size=96, d_raw=24, embed_dim=24, hidden_dim=24,
                      sim_dim=8, temperature=9.0)
ABLATION_EPOCHS = 8
ABLATION_LR = 1e-3
ABLATION_BATCH = 8
ABLATION_SEED = 0


def _ablation_rsum(data, cfg):
    tc = TrainConfig(
        model=cfg, epochs=ABLATION_EPOCHS, lr=ABLATION_LR,
        lr_decay_epoch=ABLATION_EPOCHS, batch_size=ABLATION_BATCH,
        margin=0.2, seed=ABLATION_SEED, eval_every=ABLATION_EPOCHS,
    )
    result = train(data, tc)
    sentence, image = evaluate(result.params, cfg, data)
    return rsum([sentence, image])


def test_criterion_08_ablation_direction():
    data = gen_synthetic(**ABLATION_DATA)
    base = ModelConfig(n_layers=3, **ABLATION_MODEL)
    deep = _ablation_rsum(data, base)
    shallow = _ablation_rsum(data, replace(base, n_layers=0))
    ungated = _ablation_rsum(data, replace(base, hierarchical=False))
    _line(
        8, "rsum(M=3) >= rsum(M=0) and gated >= ungated - 1.0",
        deep >= shallow and deep >= ungated - 1.0,
        f"M3 {deep:.1f}, M0 {shallow:.1f}, ungated {ungated:.1f}",
    )


# 9 ------------------------------------------------------------------

def test_criterion_09_determinism(tmp_path):
    data_dir = str(tmp_path / "data")
    gen_flags = [
        "gen-data", "--out", data_dir, "--pairs", "6", "--k", "2", "--draw", "6",
        "--caption-len", "2", "--vocab", "32", "--seed", "4",
    ]
    assert main(gen_flags) == 0
    curves = []
    for run in ("a", "b"):
        out = str(tmp_path / run)
        rc = main([
            "train", "--data", data_dir, "--out", out, "--epochs", "3",
            "--batch-size", "3", "--d", "8", "--m", "4", "--embed-dim", "8",
            "--layers", "1",
        ])
        assert rc == 0
        with open(os.path.join(out, "loss.csv"), "rb") as fh:
            curves.append(fh.read())
    runs_identical = curves[0] == curves[1]

    bundles, manifest = read_dataset(data_dir)
    second = str(tmp_path / "data2")
    write_dataset(bundles, second, vocab_size=manifest.vocab_size,
                  name=manifest.name, split=manifest.split)
    files_identical = True
    for name in sorted(os.listdir(data_dir)):
        with open(os.path.join(data_dir, name), "rb") as fa:
            a = fa.read()
        with open(os.path.join(second, name), "rb") as fb:
            b = fb.read()
        files_identical = files_identical and a == b
    _line(
        9, "identical train runs match bitwise, dataset round-trip bitwise",
        runs_identical and files_identical,
    )


# 10 -----------------------------------------------------------------

def test_criterion_10_evaluation_protocol():
    # 3 images, one caption each: sentence ranks 0/1/1, image ranks 0/0/0
    three = np.array([
        [0.9, 0.2, 0.1],
        [0.8, 0.7, 0.3],
        [0.1, 0.6, 0.5],
    ])
    s3, i3 = recalls_from_matrix(three, [0, 1, 2])
    three_ok = (
        s3.r_at[1] == pytest.approx(100.0 / 3.0)
        and s3.r_at[5] == 100.0 and s3.r_at[10] == 100.0
        and i3.r_at == {1: 100.0, 5: 100.0, 10: 100.0}
    )

    # 2 images, 5 captions: sentence first-truth ranks 0 and 3,
    # image ranks 1, 0, 1, 1, 1
    five = np.array([
        [0.1, 0.9, 0.2, 0.8, 0.3],
        [0.8, 0.7, 0.6, 0.5, 0.05],
    ])
    s5, i5 = recalls_from_matrix(five, [0, 0, 0, 1, 1])
    five_ok = (
        s5.r_at == {1: 50.0, 5: 100.0, 10: 100.0}
        and i5.r_at == {1: 20.0, 5: 100.0, 10: 100.0}
    )

    cfg = ModelConfig(
        vocab_size=32, d_raw=6, embed_dim=5, hidden_dim=4, sim_dim=3,
        n_layers=1, temperature=9.0,
    )
    params = init_params(cfg, seed=2)
    bundles = gen_synthetic(
        n_pairs=4, k=2, d_raw=6, caption_len=2, vocab_size=32,
        seed=5, signal_strength=0.7, captions_per_image=2,
    )
    regions = [b.regions for b in bundles]
    captions = [c for b in bundles for c in b.captions]
    owner = [i for i, b in enumerate(bundles) for _ in b.captions]
    direct = recalls_from_matrix(score_matrix(params, cfg, regions, captions), owner)
    folded = evaluate(params, cfg, bundles, folds=1)
    folds_ok = (
        folded[0].r_at == direct[0].r_at and folded[1].r_at == direct[1].r_at
    )
    _line(
        10, "hand-enumerated R@K matrices exact, folds=1 equals unpartitioned",
        three_ok and five_ok and folds_ok,
    )
