"""Planted errors: each output check of the benchmark must catch its own.

Run with ``python3 -m pytest perfbench``.  The shapes are tiny except in
``test_planted_error_fails_the_command``, which runs the eval-fold
workload for one round with a planted fault and expects the command to
fail.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from itmatch import evaluation, model, tensor

TINY = dict(k=2, d_raw=5, embed_dim=4, hidden_dim=6, sim_dim=4, n_layers=2, vocab=30, caption_len=(2, 4), scalar_pairs=2)
TINY_TRAIN = run.Workload("train", images=4, batch=2, **TINY)
TINY_EVAL = run.Workload("eval", images=4, batch=4, captions_per_image=2, **TINY)


def _tiny_step(tmp_path, seed=0):
    setup = run.set_up(TINY_TRAIN, seed, tmp_path)
    batch = run.TrainRun(TINY_TRAIN, seed, setup).batches[0]
    first = run.train_step(setup.cfg, setup.params, setup.adam, batch)
    return setup, batch, first


def test_perturbed_score_is_caught(tmp_path):
    setup = run.set_up(TINY_EVAL, 0, tmp_path)
    regions, captions, _ = evaluation.flatten_captions(setup.bundles)
    scores = model.score_matrix(setup.params, setup.cfg, regions, captions)
    args = (setup.cfg, setup.params, regions, captions)
    assert run.scalar_reference_failures(*args, scores, 64, 0) == []
    planted = scores.copy()
    planted[1, 2] += 1e-6
    expected = {(1, 2): float(scores[1, 2])}
    assert checks.check_pair_scores(scores, expected) == []
    assert checks.check_pair_scores(planted, expected)


def test_perturbed_score_breaks_the_hinge_check(tmp_path):
    setup, _, first = _tiny_step(tmp_path)
    assert checks.check_loss(first.loss, first.scores, run.MARGIN) == []
    planted = first.scores.copy()
    planted[0, 0] -= 1e-6  # a matched score feeds two hinge terms
    assert checks.check_loss(first.loss, planted, run.MARGIN)


def test_swapped_recall_is_caught():
    scores = np.random.default_rng(0).normal(size=(12, 24))
    owner = [c // 2 for c in range(24)]
    sentence, image = evaluation.recalls_from_matrix(scores, owner)
    assert checks.check_recalls(sentence.r_at, image.r_at, scores, owner) == []
    swapped = dict(image.r_at)
    swapped[1], swapped[10] = swapped[10], swapped[1]
    assert swapped != image.r_at
    assert checks.check_recalls(sentence.r_at, swapped, scores, owner)


def test_wrong_gradient_coordinate_is_caught(tmp_path):
    setup, batch, first = _tiny_step(tmp_path)
    second = run.train_step(setup.cfg, first.params, first.adam, batch)
    args = (setup.cfg, first.params, batch)
    assert run.directional_failures(*args, second.grads, second.scores, 0) == []
    name = "sim.w_glob"
    wrong = second.grads[name].data.copy()
    wrong[0, 0] += 1e-2
    grads = {**second.grads, name: tensor.constant(wrong)}
    assert run.directional_failures(*args, grads, second.scores, 0)


def test_wrong_first_adam_step_is_caught(tmp_path):
    setup, _, first = _tiny_step(tmp_path)
    before = {n: t.data for n, t in setup.params.items()}
    after = {n: t.data for n, t in first.params.items()}
    grads = {n: g.data for n, g in first.grads.items()}
    assert checks.check_adam_first_step(before, after, grads, run.LR, run.ADAM_EPS) == []
    wrong = after["head.w"].copy()
    wrong[0] += 1e-7
    assert checks.check_adam_first_step(before, {**after, "head.w": wrong}, grads, run.LR, run.ADAM_EPS)


def test_changed_loss_between_repeats_is_caught():
    assert checks.check_identical("losses", [[1.0, 2.0], [1.0, 2.0]]) == []
    assert checks.check_identical("losses", [[1.0, 2.0], [1.0, np.nextafter(2.0, 3.0)]])


@pytest.mark.parametrize("workload", [TINY_TRAIN, TINY_EVAL], ids=["train", "eval"])
@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
def test_tiny_runs_pass_and_report_every_metric(workload, trace):
    result, details = run.run_workload("tiny", 3, 0.0, trace, workload)
    assert result["correct"], details["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert details["absent"] == []


def test_planted_error_fails_the_command(monkeypatch, capsys):
    honest = evaluation.recalls_from_matrix

    def swapped(*args, **kwargs):
        sentence, image = honest(*args, **kwargs)
        image.r_at[1], image.r_at[10] = image.r_at[10], image.r_at[1]
        return sentence, image

    monkeypatch.setattr(evaluation, "recalls_from_matrix", swapped)
    assert run.main(["--workload", "eval-fold", "--seed", "0", "--seconds", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False


def test_vanished_layer_is_reported_absent_and_the_run_goes_on(monkeypatch):
    targets = [t for t in run.TRACE_TARGETS if t[0] != "reasoning"] + [("reasoning", model, "gone")]
    monkeypatch.setattr(run, "TRACE_TARGETS", tuple(targets))
    result, details = run.run_workload("tiny", 3, 0.0, True, TINY_TRAIN)
    assert result["correct"], details["failures"]
    assert details["absent"] == ["reasoning_ms", "reasoning.calls"]
    assert result["metrics"]["reasoning_ms"]["value"] == 0
    assert result["metrics"]["attention_ms"]["value"] > 0
