"""Command-line interface.

Subcommands: gen-data, train, eval, gradcheck, ablate.  A plain-text
``key: value`` file can seed any subcommand through ``--config``, spelled
in full; flags given on the command line win.  Exit codes: 0 success,
2 configuration or usage error, 3 io/data error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .dataio import SPLITS, gen_synthetic, read_dataset, write_dataset
from .errors import ConfigError, DataError, InputError, ItmatchError
from .evaluation import RANKS, evaluate, rsum
from .gradcheck import run_gradcheck
from .kvfile import read_kv, refuse_directory, refuse_other_format, replacing
from .model import STREAMS, ModelConfig, param_shapes
from .training import (
    CHECKPOINT_FORMAT,
    PROFILES,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VERIFY = 4


def _on_off(value: str) -> bool:
    if value == "on":
        return True
    if value == "off":
        return False
    raise argparse.ArgumentTypeError(f"expected 'on' or 'off', got {value!r}")


def _int_list(value: str) -> list[int]:
    try:
        return [int(part) for part in value.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {value!r}")


def _str_list(value: str) -> list[str]:
    return [part.strip() for part in value.split(",") if part.strip() != ""]


def _add_model_flags(p: argparse.ArgumentParser, d: int, m: int, embed: int, layers: int | None) -> None:
    """Width and ablation flags; depth, stream and gate too unless `layers`
    is None (ablate takes those three from its grid lists)."""
    p.add_argument("--d", type=int, default=d, help="joint embedding width")
    p.add_argument("--m", type=int, default=m, help="similarity vector width")
    p.add_argument("--embed-dim", type=int, default=embed, help="word embedding width")
    if layers is not None:
        p.add_argument("--layers", type=int, default=layers, help="reasoning layers (0 bypasses)")
        p.add_argument("--stream", choices=STREAMS, default="both")
        p.add_argument("--hierarchical", type=_on_off, default=True, metavar="on|off",
                       help="gate the relation matrix through the conv gate")
    p.add_argument("--lambda", dest="temperature", type=float, default=9.0,
                   help="attention temperature")
    p.add_argument("--row-softmax", type=_on_off, default=False, metavar="on|off",
                   help="row-normalise relations before the update (ablation)")
    p.add_argument("--share-sim-w", type=_on_off, default=False, metavar="on|off",
                   help="share one similarity projection across all three uses")


def _add_train_flags(p: argparse.ArgumentParser, batch: int, epochs: int | None) -> None:
    p.add_argument("--epochs", type=int, default=epochs)
    p.add_argument("--lr", type=float, default=2e-4)
    p.add_argument("--lr-decay-epoch", type=int, default=None,
                   help="first epoch using the decayed rate (profile default)")
    p.add_argument("--batch-size", type=int, default=batch)
    p.add_argument("--margin", type=float, default=0.2)
    p.add_argument("--profile", choices=sorted(PROFILES), default="mscoco",
                   help="epoch/decay defaults when not given explicitly")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itmatch",
        description="image-text matching with similarity-graph reasoning; after the"
        " subcommand, --config FILE (spelled in full) seeds its flags from a key: value file,"
        " and flags given on the command line win",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset directory")
    p.add_argument("--out", default="dataset")
    p.add_argument("--pairs", type=int, default=16)
    p.add_argument("--k", type=int, default=36, help="regions per image")
    p.add_argument("--draw", type=int, default=2048, help="raw region feature width")
    p.add_argument("--caption-len", type=int, default=12)
    p.add_argument("--vocab", type=int, default=1000)
    p.add_argument("--signal", type=float, default=1.0,
                   help="latent-code strength in [0, 1]; 0 decouples the modalities")
    p.add_argument("--captions-per-image", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default="synthetic")
    p.add_argument("--split", choices=SPLITS, default="train")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train and save the best checkpoint")
    p.add_argument("--data", required=True, help="training dataset directory")
    p.add_argument("--val", default=None, help="validation dataset (training set if omitted)")
    p.add_argument("--out", default="checkpoint", help="checkpoint directory")
    p.add_argument("--loss-csv", default=None, help="loss curve path (<out>/loss.csv)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eval-every", type=int, default=1,
                   help="validate every N epochs (the final epoch always validates)")
    _add_model_flags(p, d=1024, m=256, embed=300, layers=3)
    _add_train_flags(p, batch=128, epochs=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--folds", type=int, default=1)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--caption-len", type=int, default=5)
    p.add_argument("--draw", type=int, default=16)
    p.add_argument("--vocab", type=int, default=50)
    p.add_argument("--batch", type=int, default=2)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--margin", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-params", type=int, default=20000,
                   help="refuse configurations beyond this parameter count")
    _add_model_flags(p, d=8, m=6, embed=12, layers=2)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="train/evaluate a grid of configurations")
    p.add_argument("--data", required=True)
    p.add_argument("--val", default=None)
    p.add_argument("--out-csv", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m-list", type=_int_list, default=[0, 1, 2, 3],
                   help="reasoning depths, comma separated")
    p.add_argument("--hier-list", type=_str_list, default=["on"],
                   help="gate settings, e.g. on,off")
    p.add_argument("--stream-list", type=_str_list, default=["both"])
    _add_model_flags(p, d=32, m=16, embed=32, layers=None)
    _add_train_flags(p, batch=16, epochs=4)
    p.set_defaults(func=cmd_ablate)
    return parser


def _expand_config(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Splice the --config file's entries in front of the other arguments,
    so explicit flags win.  Only the full spelling is read here: any other
    (``--conf``) reaches the subcommand, which has no such flag and exits 2,
    as does a file key that is not exactly one of its flags, named."""
    if not argv or argv[0].startswith("-"):
        return argv
    pre = argparse.ArgumentParser(prog="itmatch", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv[1:])
    if known.config is None:
        return argv
    try:
        fields = read_kv(known.config)
    except DataError as err:
        raise ConfigError(f"bad config file: {err}") from None
    sub = next(a.choices for a in parser._actions if isinstance(a.choices, dict)).get(argv[0])
    entries = [f"--{key.replace('_', '-')}={value}" for key, value in fields.items()]
    for key, entry in zip(fields, entries):  # parse_args refuses an unknown subcommand (sub None)
        if sub and entry.split("=", 1)[0] not in sub._option_string_actions:
            sub.error(f"unrecognized arguments: {entry} (config file key {key!r} is none of its flags)")
    return [argv[0]] + entries + rest


def _echo_config(args: argparse.Namespace) -> None:
    print("effective config:")
    for dest in sorted(vars(args)):
        if dest == "func":
            continue
        print(f"  {dest.replace('_', '-')} = {getattr(args, dest)}")


def _print_recall_table(sentence, image) -> None:
    header = "".join(f"{'R@' + str(k):>9}" for k in RANKS)
    print(f"{'':>10}{header}")
    for result in (sentence, image):
        cells = "".join(f"{result.r_at[k]:>9.1f}" for k in RANKS)
        print(f"{result.direction:>10}{cells}")
    print(f"rsum {rsum([sentence, image]):.1f}")


def _write_csv(path: str, header, rows) -> None:
    """`header` and then each row, comma-joined, written through ``replacing``."""
    with replacing(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(value) for value in row) + "\n")


def cmd_gen_data(args) -> int:
    bundles = gen_synthetic(
        n_pairs=args.pairs,
        k=args.k,
        d_raw=args.draw,
        caption_len=args.caption_len,
        vocab_size=args.vocab,
        seed=args.seed,
        signal_strength=args.signal,
        captions_per_image=args.captions_per_image,
    )
    manifest = write_dataset(
        bundles, args.out, vocab_size=args.vocab, name=args.name, split=args.split
    )
    print(f"wrote {manifest.n_images} images / {manifest.n_captions} captions to {args.out}")
    for field in sorted(manifest.checksums):
        print(f"checksum {field}: {manifest.checksums[field]}")
    return EXIT_OK


def _train_config(args, model: ModelConfig) -> TrainConfig:
    """The run the shared training flags describe.  A subcommand without
    --eval-every validates once, after the last epoch."""
    epochs, decay = PROFILES[args.profile]
    if args.epochs is not None:
        epochs = args.epochs
        if args.lr_decay_epoch is None:
            decay = epochs  # explicit epochs without a decay point: never decay
    if args.lr_decay_epoch is not None:
        decay = args.lr_decay_epoch
    return TrainConfig(
        model=model,
        epochs=epochs,
        lr=args.lr,
        lr_decay_epoch=decay,
        batch_size=args.batch_size,
        margin=args.margin,
        seed=args.seed,
        eval_every=getattr(args, "eval_every", epochs),
    )


def _model_config(args, vocab_size: int, d_raw: int, depth: int, stream: str, gated: bool,
                  **overrides) -> ModelConfig:
    """The model the shared model flags describe, at the caller's depth,
    stream and gate, with any further fields in `overrides`."""
    return ModelConfig(
        vocab_size=vocab_size, d_raw=d_raw, embed_dim=args.embed_dim, hidden_dim=args.d,
        sim_dim=args.m, n_layers=depth, temperature=args.temperature, stream=stream,
        hierarchical=gated, row_softmax=args.row_softmax, share_sim_w=args.share_sim_w, **overrides,
    )


def _read_train_and_val(args):
    """The --data set, the --val set (None without one), the training
    manifest and the longest caption of both sets (at least 1)."""
    bundles, manifest = read_dataset(args.data)
    val_bundles = None
    max_len = manifest.max_caption_len
    if args.val is not None:
        val_bundles, val_manifest = read_dataset(args.val)
        if val_manifest.d_raw != manifest.d_raw or val_manifest.vocab_size != manifest.vocab_size:
            raise DataError("validation dataset disagrees with training dataset dimensions")
        max_len = max(max_len, val_manifest.max_caption_len)
    return bundles, val_bundles, manifest, max(max_len, 1)


def cmd_train(args) -> int:
    refuse_other_format(args.out, CHECKPOINT_FORMAT)  # before training, not after it
    loss_csv = args.loss_csv or os.path.join(args.out, "loss.csv")
    refuse_directory(loss_csv)
    bundles, val_bundles, manifest, max_len = _read_train_and_val(args)
    cfg = _model_config(args, manifest.vocab_size, manifest.d_raw, args.layers, args.stream,
                        args.hierarchical, max_caption_len=max_len)
    config = _train_config(args, cfg)
    result = train(bundles, config, val_bundles=val_bundles)
    save_checkpoint(args.out, result.best_params, config.model)
    _write_csv(loss_csv, ("step", "loss"), result.loss_curve)
    final_loss = result.loss_curve[-1][1] if result.loss_curve else float("nan")
    print(f"trained {len(result.loss_curve)} steps; final loss {final_loss:.6f}")
    print(f"best validation rsum {result.best_rsum:.1f} at epoch {result.best_epoch}")
    print(f"checkpoint written to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.out_csv:
        refuse_directory(args.out_csv)  # before the set is scored, not after
    params, cfg = load_checkpoint(args.checkpoint)
    bundles, manifest = read_dataset(args.data)
    if manifest.d_raw != cfg.d_raw:
        raise DataError(
            f"dataset d_raw {manifest.d_raw} does not match checkpoint {cfg.d_raw}"
        )
    if manifest.vocab_size > cfg.vocab_size:
        raise DataError(
            f"dataset vocabulary {manifest.vocab_size} exceeds checkpoint {cfg.vocab_size}"
        )
    if manifest.max_caption_len > cfg.max_caption_len:
        raise DataError(
            f"dataset caption length {manifest.max_caption_len} exceeds "
            f"checkpoint maximum {cfg.max_caption_len}"
        )
    sentence, image = evaluate(params, cfg, bundles, folds=args.folds)
    _print_recall_table(sentence, image)
    if args.out_csv:
        rows = [[result.direction, *(result.r_at[k] for k in RANKS)] for result in (sentence, image)]
        rows.append(["rsum", rsum([sentence, image]), "", ""])
        _write_csv(args.out_csv, ["direction", *(f"r{k}" for k in RANKS)], rows)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = _model_config(args, args.vocab, args.draw, args.layers, args.stream, args.hierarchical)
    total = sum(math.prod(shape) for shape in param_shapes(cfg).values())
    if total > args.max_params:
        raise ConfigError(
            f"{total} parameters exceed the gradcheck budget of {args.max_params};"
            " shrink the model flags"
        )
    report = run_gradcheck(
        cfg,
        k=args.k,
        caption_len=args.caption_len,
        batch_size=args.batch,
        margin=args.margin,
        epsilon=args.epsilon,
        tolerance=args.tol,
        seed=args.seed,
    )
    print(
        f"gradient check: {total} parameters, seed {report.seed}, "
        f"min hinge distance {report.min_hinge_distance:.3g}"
    )
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"  {check.name:<24} max rel err {check.max_rel_err:.3e}  {status}")
    if report.passed:
        print("all gradients within tolerance")
        return EXIT_OK
    print("gradient verification FAILED", file=sys.stderr)
    return EXIT_VERIFY


def cmd_ablate(args) -> int:
    if args.out_csv:
        refuse_directory(args.out_csv)  # before the first cell trains, not after the last
    bundles, val_bundles, manifest, max_len = _read_train_and_val(args)
    for flag, values in (("--m-list", args.m_list), ("--hier-list", args.hier_list),
                         ("--stream-list", args.stream_list)):
        if not values:
            raise ConfigError(f"{flag} needs at least one entry")
        repeats = [value for i, value in enumerate(values) if value in values[:i]]
        if repeats:
            raise ConfigError(f"{flag} repeats the entry {repeats[0]!r}")
    for value in args.hier_list:
        if value not in ("on", "off"):
            raise ConfigError(f"--hier-list entries must be on/off, got {value!r}")
    # every cell's config before the first trains: ModelConfig refuses a bad depth or stream
    grid = [
        ({"layers": depth, "hierarchical": hier, "stream": stream}, _train_config(args, _model_config(
            args, manifest.vocab_size, manifest.d_raw, depth, stream, hier == "on", max_caption_len=max_len
        )))
        for depth in sorted(args.m_list) for hier in args.hier_list for stream in args.stream_list
    ]
    for row, config in grid:
        # the one validation, after the last epoch, scores the final parameters
        _, sentence, image = train(bundles, config, val_bundles=val_bundles).val_history[-1]
        row.update({f"s_r{k}": sentence.r_at[k] for k in RANKS})
        row.update({f"i_r{k}": image.r_at[k] for k in RANKS})
        row["rsum"] = rsum([sentence, image])
    rows = [row for row, _ in grid]

    header = f"{'layers':>6} {'gate':>5} {'stream':>9}" + "".join(
        f"{c:>8}" for c in ("sR@1", "sR@5", "sR@10", "iR@1", "iR@5", "iR@10", "rsum")
    )
    print(header)
    for row in rows:
        cells = "".join(
            f"{row[c]:>8.1f}"
            for c in ("s_r1", "s_r5", "s_r10", "i_r1", "i_r5", "i_r10", "rsum")
        )
        print(f"{row['layers']:>6} {row['hierarchical']:>5} {row['stream']:>9}{cells}")
    if args.out_csv:
        _write_csv(args.out_csv, list(rows[0]), [row.values() for row in rows])
    return EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _expand_config(argv, parser)
        args = parser.parse_args(argv)
        _echo_config(args)
        return args.func(args)
    except (ConfigError, InputError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except ItmatchError as err:  # contract/dimension: internal misuse
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
