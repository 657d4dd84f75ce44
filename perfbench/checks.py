"""Output checks for the benchmark, each made apart from the program.

Every check takes plain numbers and arrays and returns a list of failure
messages, empty when the check passes, so a planted error can be fed to
any of them directly.  None of them calls into ``itmatch``: the hinge
loss, the recalls and the Adam closed form are recomputed here with
numpy, and pair scores are compared against ``tests/scalar_reference.py``
by the caller.
"""

from __future__ import annotations

import math

import numpy as np

PAIR_TOL = 1e-8        # scalar reference agreement, as in tests/test_reference.py
LOSS_RTOL = 1e-12      # numpy hinge recomputation: only the summation order differs
DIRECTIONAL_RTOL = 1e-5   # measured agreement: 1e-9 to 3e-6
DIRECTIONAL_ATOL = 1e-8   # rounding of the loss (~1e-15 relative) over a 1e-6 step
ADAM_RTOL = 1e-9       # relative to lr; the update is read back as after - before


def hinge_terms(scores: np.ndarray, margin: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Hardest-negative indices (row, column) and hinge values per matched pair."""
    scores = np.asarray(scores, dtype=np.float64)
    off = scores.copy()
    np.fill_diagonal(off, -np.inf)
    row_arg = np.argmax(off, axis=1)  # ties take the lowest index
    col_arg = np.argmax(off, axis=0)
    diag = np.diag(scores)
    n = np.arange(scores.shape[0])
    caption = margin - diag + off[n, row_arg]
    image = margin - diag + off[col_arg, n]
    return row_arg, col_arg, caption, image


def hinge_loss(scores: np.ndarray, margin: float) -> float:
    _, _, caption, image = hinge_terms(scores, margin)
    return float(np.sum(np.maximum(caption, 0.0)) + np.sum(np.maximum(image, 0.0)))


def hinge_pattern(scores: np.ndarray, margin: float) -> tuple:
    """Which negatives are hardest and which terms are active: the loss is
    smooth between two score grids with the same pattern."""
    row_arg, col_arg, caption, image = hinge_terms(scores, margin)
    return (tuple(row_arg), tuple(col_arg), tuple(caption > 0.0), tuple(image > 0.0))


def check_loss(loss: float, scores: np.ndarray, margin: float) -> list[str]:
    if not math.isfinite(loss):
        return [f"loss is not finite: {loss!r}"]
    failures = []
    if loss < 0.0:
        failures.append(f"loss is negative: {loss!r}")
    expected = hinge_loss(scores, margin)
    if abs(loss - expected) > LOSS_RTOL * max(1.0, abs(expected)):
        failures.append(f"loss {loss!r} differs from the numpy hinge {expected!r}")
    return failures


def check_pair_scores(scores: np.ndarray, expected: dict[tuple[int, int], float]) -> list[str]:
    """Sampled entries of a score grid against independently computed scores."""
    failures = []
    for (i, j), want in expected.items():
        got = float(scores[i, j])
        if not abs(got - want) <= PAIR_TOL:
            failures.append(f"score[{i},{j}] = {got!r}, scalar reference {want!r}")
    return failures


def _rank(column: np.ndarray, truth: int) -> int:
    # 0-based rank of candidate `truth`: strictly better candidates, then
    # equal ones at a lower index
    value = column[truth]
    return int(np.count_nonzero(column > value) + np.count_nonzero(column[:truth] == value))


def brute_force_recalls(scores: np.ndarray, owner, ks=(1, 5, 10)) -> tuple[dict, dict]:
    """R@K both ways by counting, one candidate at a time."""
    scores = np.asarray(scores, dtype=np.float64)
    owner = [int(o) for o in owner]
    n_images, n_captions = scores.shape
    sentence_ranks = [
        min(_rank(scores[i], c) for c in range(n_captions) if owner[c] == i)
        for i in range(n_images)
    ]
    image_ranks = [_rank(scores[:, c], owner[c]) for c in range(n_captions)]

    def recall(ranks, k):
        hits = sum(1 for r in ranks if r < k)
        return 100.0 * (hits / len(ranks))

    return (
        {k: recall(sentence_ranks, k) for k in ks},
        {k: recall(image_ranks, k) for k in ks},
    )


def check_recalls(sentence: dict, image: dict, scores: np.ndarray, owner) -> list[str]:
    failures = []
    for name, got in (("sentence", sentence), ("image", image)):
        values = [got[k] for k in sorted(got)]
        if not all(0.0 <= a <= b for a, b in zip(values, values[1:])) or values[-1] > 100.0:
            failures.append(f"{name} recalls are not 0 <= R@1 <= R@5 <= R@10 <= 100: {got}")
    want_sentence, want_image = brute_force_recalls(scores, owner, tuple(sorted(sentence)))
    if sentence != want_sentence:
        failures.append(f"sentence recalls {sentence} differ from brute force {want_sentence}")
    if image != want_image:
        failures.append(f"image recalls {image} differ from brute force {want_image}")
    return failures


def check_directional(analytic: float, numeric: float) -> list[str]:
    """Gradient . direction from backward against a central difference."""
    if abs(analytic - numeric) <= DIRECTIONAL_ATOL + DIRECTIONAL_RTOL * max(abs(analytic), abs(numeric)):
        return []
    return [f"directional derivative: backward gives {analytic!r}, central difference {numeric!r}"]


def check_adam_first_step(
    before: dict[str, np.ndarray],
    after: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    lr: float,
    eps: float,
) -> list[str]:
    """The first Adam step moves each parameter by exactly -lr * g / (|g| + eps)."""
    failures = []
    for name in sorted(before):
        g = grads[name]
        want = -lr * g / (np.abs(g) + eps)
        got = after[name] - before[name]
        worst = float(np.max(np.abs(got - want), initial=0.0))
        if not worst <= ADAM_RTOL * lr:
            failures.append(f"first Adam step of {name!r} is off the closed form by {worst!r}")
    return failures


def check_identical(label: str, values: list) -> list[str]:
    """Repeats of one computation must agree bitwise."""
    if all(v == values[0] for v in values[1:]):
        return []
    return [f"{label} differ between repeats: {values}"]
