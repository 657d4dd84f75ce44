"""Benchmark for itmatch: seeded workloads, end-to-end metrics, output checks.

    python3 perfbench/run.py --workload train-grid --seed 1 --seconds 25 --trace 0

Runs one workload in this process and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
program's layers are wrapped on every other round of ops and the metrics
are the per-layer ones.  Every input is generated from ``--seed``.  The
exit code is 1 when an output check fails.  See README.md in this
directory for the workloads and the layer-to-metric map.
"""

from __future__ import annotations

import os

# one BLAS thread, whatever the caller's environment says: the reference
# machine has two cores, and a second thread makes the paper-width
# matmuls contend with the interpreter and with whatever else runs there
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from itmatch import dataio, evaluation, model, scoring, tensor, training  # noqa: E402
from itmatch.errors import ItmatchError  # noqa: E402
from scalar_reference import ref_pair_score, weights_as_lists  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer, tape_size  # noqa: E402

SETUP_REPS = 5        # set-ups per window: at least this many, and at least SETUP_SECONDS of them;
SETUP_SECONDS = 0.5   # a 6 ms set-up repeated 5 times spreads by 40% between runs
SIGNAL = 0.9          # gen_synthetic signal strength, as in the README demo
JITTER = 0.05         # eval parameters: init plus uniform noise, so every branch is live;
                      # at 0.2 the three reasoning layers blow some scores up to 1e9
LR = 2e-4             # TrainConfig defaults
MARGIN = 0.2
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class Workload:
    """Shapes and sizes of one workload; the defaults are the README-demo widths."""

    kind: str                      # "train" or "eval"
    images: int                    # images in the generated dataset
    batch: int                     # pairs per training step; images in the eval tape count
    captions_per_image: int = 1
    k: int = 4
    d_raw: int = 32
    embed_dim: int = 32
    hidden_dim: int = 32
    sim_dim: int = 16
    n_layers: int = 3
    vocab: int = 256
    caption_len: tuple[int, int] = (2, 6)  # inclusive range of caption lengths
    scalar_pairs: int = 4          # pairs checked against the scalar reference

    def config(self) -> model.ModelConfig:
        return model.ModelConfig(
            vocab_size=self.vocab, d_raw=self.d_raw, embed_dim=self.embed_dim,
            hidden_dim=self.hidden_dim, sim_dim=self.sim_dim, n_layers=self.n_layers,
        )


WORKLOADS = {
    # the per-pair path and its tape dominate
    "train-grid": Workload("train", images=32, batch=16),
    # paper widths: GRU weight gradients, Adam and memory dominate; the
    # pure-Python reference would take minutes here, so no pair is checked
    "train-paper": Workload(
        "train", images=4, batch=2, k=36, d_raw=2048, embed_dim=300, hidden_dim=1024,
        sim_dim=256, vocab=1000, caption_len=(11, 14), scalar_pairs=0,
    ),
    # gradient-free retrieval over 16 images x 5 captions
    "eval-fold": Workload("eval", images=16, batch=16, captions_per_image=5),
}

TRACE_TARGETS = (
    ("attention", model, "local_similarities"),
    ("reasoning", model, "reason"),
    ("scoring.head", model, "score"),
    ("encoders.text", model, "encode_caption"),
    ("encoders.image", model, "encode_image"),
    ("scoring.loss", scoring, "bidirectional_ranking_loss"),
    ("tensor.backward", tensor, "backward"),
    ("training.adam", training, "adam_step"),
    ("evaluation.recall", evaluation, "recalls_from_matrix"),
    ("dataio.write", dataio, "write_dataset"),
    ("dataio.read", dataio, "read_dataset"),
    ("checkpoint.save", training, "save_checkpoint"),
    ("checkpoint.load", training, "load_checkpoint"),
)
SETUP_LAYERS = ("dataio.write", "dataio.read", "checkpoint.save", "checkpoint.load")
COUNTED_LAYERS = ("attention", "reasoning")


# --- inputs -------------------------------------------------------------------


def make_bundles(w: Workload, seed: int) -> list[dataio.FeatureBundle]:
    """Synthetic pairs with mixed caption lengths.

    Every block of `w.batch` images gets the same spread of lengths over
    w.caption_len, in a seeded order, so each seed and each training batch
    carries the same amount of work; only the values differ.
    """
    lo, hi = w.caption_len
    bundles = dataio.gen_synthetic(
        w.images, w.k, w.d_raw, hi, w.vocab, seed, SIGNAL, w.captions_per_image
    )
    block = w.batch * w.captions_per_image
    spread = lo + (np.arange(block) * (hi - lo + 1)) // block
    rng = np.random.default_rng([seed, 1])
    lengths = iter(np.concatenate([rng.permutation(spread) for _ in range(w.images // w.batch)]))
    for b in bundles:
        b.captions = [c[: int(next(lengths))] for c in b.captions]
    return bundles


def jitter(params: tensor.ParamStore, seed: int) -> tensor.ParamStore:
    rng = np.random.default_rng([seed, 2])
    return params.copy_with({
        name: tensor.parameter(t.data + rng.uniform(-JITTER, JITTER, size=t.data.shape))
        for name, t in params.items()
    })


@dataclass
class Setup:
    cfg: model.ModelConfig
    bundles: list
    params: tensor.ParamStore
    adam: training.AdamState | None


def set_up(w: Workload, seed: int, workdir: Path) -> Setup:
    """What a user pays before the first op: write and read the dataset,
    then initialise (train) or save and load (eval) the parameters."""
    data_dir = workdir / "data"
    dataio.write_dataset(make_bundles(w, seed), data_dir, w.vocab)
    bundles, _ = dataio.read_dataset(data_dir)
    cfg = w.config()
    params = model.init_params(cfg, seed=seed)
    if w.kind == "train":
        return Setup(cfg, bundles, params, training.adam_init(params))
    ckpt_dir = workdir / "checkpoint"
    training.save_checkpoint(ckpt_dir, jitter(params, seed), cfg)
    params, cfg = training.load_checkpoint(ckpt_dir)
    return Setup(cfg, bundles, params, None)


def scalar_reference_failures(cfg, params, regions, tokens, scores, n_pairs, seed) -> list[str]:
    rng = np.random.default_rng([seed, 3])
    weights = weights_as_lists(params)
    picks = {(int(rng.integers(scores.shape[0])), int(rng.integers(scores.shape[1]))) for _ in range(n_pairs)}
    expected = {
        (i, j): ref_pair_score(weights, cfg, np.asarray(regions[i]).tolist(), list(tokens[j]))
        for i, j in sorted(picks)
    }
    return checks.check_pair_scores(scores, expected)


# --- train workloads ----------------------------------------------------------


@dataclass
class Step:
    loss: float
    scores: np.ndarray
    grads: dict
    params: tensor.ParamStore
    adam: training.AdamState


def forward(cfg, params, batch):
    """Score grid and hinge loss of one batch."""
    regions, tokens = batch
    grid = model.score_grid(params, cfg, regions, tokens)
    return grid, scoring.bidirectional_ranking_loss(scoring.LossBatch(scores=grid, margin=MARGIN))


def train_step(cfg, params, adam, batch) -> Step:
    grid, loss = forward(cfg, params, batch)
    grads = tensor.backward(loss, params)
    new_params, new_adam = training.adam_step(params, grads, adam, LR, eps=ADAM_EPS)
    return Step(loss.item(), grid.data, grads, new_params, new_adam)


def directional_failures(cfg, params, batch, grads, scores, seed) -> list[str]:
    """Central difference of the batch loss along a random unit direction,
    shrinking the step until no hinge term or hardest negative changes
    inside it (the loss has kinks there)."""
    rng = np.random.default_rng([seed, 4])
    names = params.names()
    n = sum(params[name].data.size for name in names)
    direction = {name: rng.choice([-1.0, 1.0], size=params[name].data.shape) / math.sqrt(n) for name in names}
    analytic = math.fsum(float(np.sum(grads[name].data * direction[name])) for name in names)
    pattern = checks.hinge_pattern(scores, MARGIN)
    for eps in (1e-6, 1e-7, 1e-8):
        shifted = []
        for sign in (1.0, -1.0):
            moved = params.copy_with({
                name: tensor.parameter(params[name].data + sign * eps * direction[name]) for name in names
            })
            with tensor.no_grad():
                grid, loss = forward(cfg, moved, batch)
            shifted.append((loss.item(), grid.data))
        if all(checks.hinge_pattern(s, MARGIN) == pattern for _, s in shifted):
            return checks.check_directional(analytic, (shifted[0][0] - shifted[1][0]) / (2.0 * eps))
    return ["directional derivative: a hinge kink lies within every step tried"]


class TrainRun:
    def __init__(self, w: Workload, seed: int, setup: Setup):
        self.w, self.seed = w, seed
        self.cfg, self.params, self.adam = setup.cfg, setup.params, setup.adam
        bundles = setup.bundles
        self.batches = [
            ([b.regions for b in bundles[i:i + w.batch]], [b.captions[0] for b in bundles[i:i + w.batch]])
            for i in range(0, len(bundles), w.batch)
        ]
        self.round_ops = len(self.batches)
        self.pairs_per_op = w.batch * w.batch
        self.losses: list[float] = []
        self.failures: list[str] = []

    def op(self, i: int) -> float:
        start = time.perf_counter()
        step = train_step(self.cfg, self.params, self.adam, self.batches[i])
        elapsed = time.perf_counter() - start
        self.params, self.adam = step.params, step.adam
        self.losses.append(step.loss)
        self.failures += checks.check_loss(step.loss, step.scores, MARGIN)
        return elapsed

    def post_checks(self, fresh: Setup) -> list[str]:
        """Replay the first two steps from a fresh set-up."""
        batch = self.batches[1 % self.round_ops]
        first = train_step(fresh.cfg, fresh.params, fresh.adam, self.batches[0])
        second = train_step(fresh.cfg, first.params, first.adam, batch)
        failures = checks.check_identical(
            "losses of the first two steps", [self.losses[:2], [first.loss, second.loss]]
        )
        failures += checks.check_adam_first_step(
            {name: t.data for name, t in fresh.params.items()},
            {name: t.data for name, t in first.params.items()},
            {name: g.data for name, g in first.grads.items()},
            LR, ADAM_EPS,
        )
        failures += directional_failures(fresh.cfg, first.params, batch, second.grads, second.scores, self.seed)
        if self.w.scalar_pairs:
            failures += scalar_reference_failures(
                fresh.cfg, first.params, batch[0], batch[1], second.scores, self.w.scalar_pairs, self.seed
            )
        return failures

    def tape_nodes_per_pair(self) -> float:
        _, loss = forward(self.cfg, self.params, self.batches[0])
        return tape_size(loss) / self.pairs_per_op


# --- eval workload ------------------------------------------------------------


class EvalRun:
    def __init__(self, w: Workload, seed: int, setup: Setup):
        self.w, self.seed = w, seed
        self.cfg, self.params, self.bundles = setup.cfg, setup.params, setup.bundles
        self.regions, self.captions, self.owner = evaluation.flatten_captions(setup.bundles)
        self.round_ops = 1
        self.pairs_per_op = len(self.regions) * len(self.captions)
        self.recalls: list[tuple[dict, dict]] = []
        self.failures: list[str] = []

    def op(self, i: int) -> float:
        start = time.perf_counter()
        sentence, image = evaluation.evaluate(self.params, self.cfg, self.bundles)
        elapsed = time.perf_counter() - start
        self.recalls.append((sentence.r_at, image.r_at))
        return elapsed

    def post_checks(self, fresh: Setup) -> list[str]:
        """Score the set again from a fresh set-up and recount the recalls."""
        scores = model.score_matrix(fresh.params, fresh.cfg, self.regions, self.captions)
        failures = checks.check_identical("recalls", self.recalls)
        failures += checks.check_recalls(*self.recalls[0], scores, self.owner)
        failures += scalar_reference_failures(
            fresh.cfg, fresh.params, self.regions, self.captions, scores, self.w.scalar_pairs, self.seed
        )
        return failures

    def tape_nodes_per_pair(self) -> float:
        n = self.w.batch
        grid = model.score_grid(
            self.params, self.cfg, self.regions[:n], [b.captions[0] for b in self.bundles[:n]]
        )
        return tape_size(grid) / (n * n)


# --- measurement --------------------------------------------------------------


def measure(run, seconds: float, tracer: Tracer | None):
    """A warm-up round, then whole rounds until `seconds` have passed.

    With a tracer every other round is traced, so traced and plain ops
    cover the same batches.  Returns (plain, traced) lists of
    (op id, seconds) and the number of ops that raised.
    """
    for i in range(run.round_ops):
        run.op(i)
    plain, traced, failed = [], [], 0
    min_rounds = 2 if tracer else 1
    rounds = 0
    start = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        traced_round = tracer is not None and rounds % 2 == 1
        for i in range(run.round_ops):
            op_id = len(plain) + len(traced) + failed
            gc.collect()  # every op starts from the same collector state
            if traced_round:
                tracer.install(op_id)
            try:
                elapsed = run.op(i)
            except ItmatchError as err:
                print(f"op {op_id} failed: {err}", file=sys.stderr)
                failed += 1
                continue
            finally:
                if traced_round:
                    tracer.remove()
            (traced if traced_round else plain).append((op_id, elapsed))
        rounds += 1
    return plain, traced, failed


def end_to_end_metrics(run, plain, setup_times, peak_rss_mb) -> dict:
    times = [t for _, t in plain]
    return {
        "pairs_per_s": (run.pairs_per_op * len(times) / sum(times), "1/s"),
        "op_ms.p50": (1e3 * statistics.median(times), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def per_layer_metrics(run, tracer: Tracer, plain, traced, setup_ids) -> tuple[dict, list[str]]:
    absent = [f"{name}_ms" for name in tracer.absent]
    absent += [f"{name}.calls" for name in tracer.absent if name in COUNTED_LAYERS]
    ops = [i for i, _ in traced]
    metrics = {}
    for name in [target[0] for target in tracer.targets] + ["tensor.gc"]:
        ms, calls = tracer.per_op(name, setup_ids if name in SETUP_LAYERS else ops)
        metrics[f"{name}_ms"] = (ms, "ms")
        if name in COUNTED_LAYERS:
            metrics[f"{name}.calls"] = (calls, "count")
    try:
        nodes = run.tape_nodes_per_pair()
    except AttributeError:  # the tape no longer links parents this way
        nodes = 0.0
        absent.append("tensor.nodes_per_pair")
    metrics["tensor.nodes_per_pair"] = (nodes, "count")
    overhead = statistics.median(t for _, t in traced) - statistics.median(t for _, t in plain)
    metrics["trace.overhead_ms"] = (1e3 * overhead, "ms")
    return metrics, absent


def timed_set_ups(w: Workload, seed: int, workdir: Path, tracer: Tracer | None, times: list, ids: list) -> Setup:
    """Set up at least SETUP_REPS times and for SETUP_SECONDS; returns the last."""
    first = len(times)
    setup = None
    while len(times) - first < SETUP_REPS or sum(times[first:]) < SETUP_SECONDS:
        setup = None  # drop the previous copy before building the next
        ids.append(-1 - len(times))
        if tracer:
            tracer.install(ids[-1])
        start = time.perf_counter()
        setup = set_up(w, seed, workdir)
        times.append(time.perf_counter() - start)
        if tracer:
            tracer.remove()
    return setup


def run_workload(name: str, seed: int, seconds: float, trace: bool, workload: Workload | None = None):
    """Set up, measure and check one workload; returns (result, details).

    Set-up is timed in two windows, before the ops and after them, since
    the machine's speed drifts over seconds; the second window's last
    set-up feeds the checks.
    """
    w = workload or WORKLOADS[name]
    workdir = OUT / f"work-{os.getpid()}"
    tracer = Tracer(TRACE_TARGETS) if trace else None
    setup_times, setup_ids = [], []
    try:
        run = (TrainRun if w.kind == "train" else EvalRun)(
            w, seed, timed_set_ups(w, seed, workdir, tracer, setup_times, setup_ids)
        )
        plain, traced, failed = measure(run, seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        fresh = timed_set_ups(w, seed, workdir, tracer, setup_times, setup_ids)
        failures = run.failures + run.post_checks(fresh)
        absent: list[str] = []
        if tracer:
            metrics, absent = per_layer_metrics(run, tracer, plain, traced, setup_ids)
        else:
            metrics = end_to_end_metrics(run, plain, setup_times, peak_rss_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not failures,
        "attempted": len(plain) + len(traced) + failed,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "failures": failures, "absent": absent,
        "setup_s": setup_times, "op_s": plain, "traced_op_s": traced,
        "spans": tracer.spans if tracer else [],
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it seeds numpy generators)")

    result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({"result": result, **details}) + "\n")
    for line in details["failures"]:
        print(f"check failed: {line}", file=sys.stderr)
    if details["absent"]:
        print(f"absent (reported as 0): {', '.join(details['absent'])}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
