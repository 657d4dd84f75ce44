"""End-to-end command-line behaviour through main(argv)."""

import hashlib
import os

import numpy as np
import pytest

from itmatch import cli, gradcheck, model
from itmatch.cli import main
from itmatch.dataio import MANIFEST_FILE, REGIONS_FILE, read_dataset

GEN_TINY = [
    "gen-data", "--pairs", "4", "--k", "2", "--draw", "6",
    "--caption-len", "2", "--vocab", "32", "--seed", "3",
]
MODEL_TINY = ["--d", "8", "--m", "4", "--embed-dim", "8", "--layers", "1"]
GRADCHECK_TINY = [
    "gradcheck", "--d", "6", "--m", "4", "--embed-dim", "8", "--layers", "1",
    "--k", "3", "--caption-len", "3", "--draw", "8", "--vocab", "20",
]


def _gen(tmp_path, name="data", extra=()):
    out = str(tmp_path / name)
    assert main(GEN_TINY + ["--out", out, *extra]) == 0
    return out


# ------------------------------------------------------------- gen-data

def test_gen_data_writes_readable_dataset(tmp_path, capsys):
    out = _gen(tmp_path)
    stdout = capsys.readouterr().out
    assert f"wrote 4 images / 4 captions to {out}" in stdout
    assert stdout.count("checksum ") == 3
    bundles, manifest = read_dataset(out)
    assert len(bundles) == 4
    assert manifest.vocab_size == 32


def test_gen_data_is_deterministic(tmp_path, capsys):
    a = _gen(tmp_path, "a")
    capsys.readouterr()
    b = _gen(tmp_path, "b")
    assert sorted(os.listdir(a)) == sorted(os.listdir(b))
    for name in os.listdir(a):
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_gen_data_rejects_zero_pairs(tmp_path, capsys):
    assert main(["gen-data", "--out", str(tmp_path / "x"), "--pairs", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_echo_config_lists_flags(tmp_path, capsys):
    _gen(tmp_path)
    stdout = capsys.readouterr().out
    assert "effective config:" in stdout
    assert "  seed = 3" in stdout
    assert "  caption-len = 2" in stdout


# ----------------------------------------------------------- train/eval

def test_train_then_eval_cycle(tmp_path, capsys):
    data = _gen(tmp_path)
    ckpt = str(tmp_path / "ckpt")
    rc = main([
        "train", "--data", data, "--out", ckpt, "--epochs", "2",
        "--batch-size", "4", *MODEL_TINY,
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "trained 2 steps; final loss" in stdout
    assert f"checkpoint written to {ckpt}" in stdout
    assert os.path.exists(os.path.join(ckpt, "loss.csv"))

    rc = main(["eval", "--data", data, "--checkpoint", ckpt])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "sentence" in stdout and "image" in stdout
    assert "rsum" in stdout


def test_train_custom_loss_csv(tmp_path, capsys):
    data = _gen(tmp_path)
    csv = str(tmp_path / "curve.csv")
    rc = main([
        "train", "--data", data, "--out", str(tmp_path / "ckpt"),
        "--epochs", "1", "--batch-size", "4", "--loss-csv", csv, *MODEL_TINY,
    ])
    assert rc == 0
    with open(csv) as fh:
        assert fh.readline() == "step,loss\n"


def test_eval_csv_output(tmp_path, capsys):
    data = _gen(tmp_path)
    ckpt = str(tmp_path / "ckpt")
    main(["train", "--data", data, "--out", ckpt, "--epochs", "1",
          "--batch-size", "4", *MODEL_TINY])
    csv = str(tmp_path / "recalls.csv")
    assert main(["eval", "--data", data, "--checkpoint", ckpt, "--out-csv", csv]) == 0
    with open(csv) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "direction,r1,r5,r10"
    assert len(lines) == 4  # header, sentence, image, rsum


def test_eval_rejects_mismatched_features(tmp_path, capsys):
    data = _gen(tmp_path)
    wide = str(tmp_path / "wide")
    main(["gen-data", "--out", wide, "--pairs", "4", "--k", "2", "--draw", "8",
          "--caption-len", "2", "--vocab", "32"])
    ckpt = str(tmp_path / "ckpt")
    main(["train", "--data", data, "--out", ckpt, "--epochs", "1",
          "--batch-size", "4", *MODEL_TINY])
    capsys.readouterr()
    assert main(["eval", "--data", wide, "--checkpoint", ckpt]) == 3
    assert "d_raw" in capsys.readouterr().err


def test_eval_missing_dataset(tmp_path, capsys):
    ckpt = str(tmp_path / "ckpt")
    data = _gen(tmp_path)
    main(["train", "--data", data, "--out", ckpt, "--epochs", "1",
          "--batch-size", "4", *MODEL_TINY])
    assert main(["eval", "--data", str(tmp_path / "nope"), "--checkpoint", ckpt]) == 3


def test_eval_rejects_a_non_finite_score(tmp_path, capsys):
    data = _gen(tmp_path)
    ckpt = str(tmp_path / "ckpt")
    main(["train", "--data", data, "--out", ckpt, "--epochs", "1",
          "--batch-size", "4", *MODEL_TINY])
    # a NaN region planted in the blob, with the checksum updated to match,
    # is rejected when the dataset is read
    regions_path = os.path.join(data, REGIONS_FILE)
    with open(regions_path, "rb") as fh:
        regions = np.frombuffer(fh.read(), dtype="<f4").copy()
    regions[2 * 6 + 2] = np.nan  # image 1 of (4, k=2, d_raw=6)
    blob = regions.tobytes()
    with open(regions_path, "wb") as fh:
        fh.write(blob)
    manifest_path = os.path.join(data, MANIFEST_FILE)
    with open(manifest_path, encoding="utf-8") as fh:
        lines = [
            f"checksum_regions: {hashlib.sha256(blob).hexdigest()}\n"
            if line.startswith("checksum_regions:") else line
            for line in fh
        ]
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    capsys.readouterr()
    assert main(["eval", "--data", data, "--checkpoint", ckpt]) == 3
    err = capsys.readouterr().err
    assert "(index 1): region features are not finite" in err


def test_train_rejects_mismatched_val_set(tmp_path, capsys):
    data = _gen(tmp_path)
    wide = str(tmp_path / "wide")
    main(["gen-data", "--out", wide, "--pairs", "4", "--k", "2", "--draw", "8",
          "--caption-len", "2", "--vocab", "32"])
    capsys.readouterr()
    rc = main(["train", "--data", data, "--val", wide,
               "--out", str(tmp_path / "ckpt"), "--epochs", "1",
               "--batch-size", "4", *MODEL_TINY])
    assert rc == 3


def test_train_stops_on_non_finite_features_and_writes_no_checkpoint(tmp_path, capsys, monkeypatch):
    # a dataset cannot hold 1e200 (its features are float32), so the reader
    # hands the scaled features to train directly
    data = _gen(tmp_path)
    ckpt = tmp_path / "ckpt"

    def read_scaled(path):
        bundles, manifest = read_dataset(path)
        for bundle in bundles:
            bundle.regions = bundle.regions * 1e200
        return bundles, manifest

    monkeypatch.setattr(cli, "read_dataset", read_scaled)
    capsys.readouterr()
    with np.errstate(all="ignore"):
        rc = main(["train", "--data", data, "--out", str(ckpt), "--epochs", "2",
                   "--batch-size", "4", *MODEL_TINY])
    assert rc == 3
    assert "step 1: the loss is not finite" in capsys.readouterr().err
    assert not ckpt.exists()


def test_ablate_rejects_mismatched_val_set(tmp_path, capsys):
    data = _gen(tmp_path)
    wide = str(tmp_path / "wide")
    main(["gen-data", "--out", wide, "--pairs", "4", "--k", "2", "--draw", "8",
          "--caption-len", "2", "--vocab", "32"])
    capsys.readouterr()
    rc = main(["ablate", "--data", data, "--val", wide, "--m-list", "0",
               "--epochs", "1", "--batch-size", "4", *MODEL_TINY])
    assert rc == 3
    assert "validation dataset disagrees" in capsys.readouterr().err


# ------------------------------------------------------------ gradcheck

def test_gradcheck_passes_and_reports_every_param(tmp_path, capsys):
    assert main(GRADCHECK_TINY) == 0
    stdout = capsys.readouterr().out
    assert "all gradients within tolerance" in stdout
    for name in ("embed.table", "img_proj.w", "sim.w_glob", "reason.0.kernel",
                 "head.w", "head.b"):
        assert stdout.count(f"  {name} ") == 1
    assert "FAIL" not in stdout


def test_gradcheck_detects_corrupted_gradient(tmp_path, capsys):
    rc = main(GRADCHECK_TINY + ["--corrupt-param", "head.w"])
    assert rc == 4
    captured = capsys.readouterr()
    assert "gradient verification FAILED" in captured.err
    assert "FAIL" in captured.out


def test_gradcheck_enforces_param_budget(tmp_path, capsys):
    rc = main(GRADCHECK_TINY + ["--max-params", "10"])
    assert rc == 2
    assert "budget" in capsys.readouterr().err


def test_gradcheck_budget_counts_parameters_without_drawing_them(capsys, monkeypatch):
    # about 10^8 parameters at these widths: drawing them would take 800 MB
    def no_draw(*args, **kwargs):
        raise AssertionError("the budget check drew a parameter store")

    monkeypatch.setattr(gradcheck, "init_params", no_draw)
    monkeypatch.setattr(model, "init_params", no_draw)
    rc = main(["gradcheck", "--d", "4096", "--m", "64", "--embed-dim", "12", "--layers", "1",
               "--draw", "8", "--vocab", "20"])
    assert rc == 2
    cfg = model.ModelConfig(vocab_size=20, d_raw=8, embed_dim=12, hidden_dim=4096,
                            sim_dim=64, n_layers=1, temperature=9.0)
    total = sum(int(np.prod(shape)) for shape in model.param_shapes(cfg).values())
    assert f"{total} parameters exceed the gradcheck budget" in capsys.readouterr().err


def test_gradcheck_lambda_flag_sets_temperature(tmp_path, capsys):
    assert main(GRADCHECK_TINY + ["--lambda", "5.0"]) == 0
    assert "  temperature = 5.0" in capsys.readouterr().out


# --------------------------------------------------------------- ablate

def test_ablate_grid_rows_and_csv(tmp_path, capsys):
    data = _gen(tmp_path)
    csv = str(tmp_path / "grid.csv")
    rc = main([
        "ablate", "--data", data, "--m-list", "1,0", "--hier-list", "on",
        "--stream-list", "both", "--epochs", "1", "--batch-size", "4",
        "--out-csv", csv, *MODEL_TINY,
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    table = [line for line in stdout.splitlines() if line.strip().startswith(("0", "1"))]
    assert len(table) == 2
    assert table[0].strip().startswith("0")  # depths run in ascending order
    with open(csv) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("layers,hierarchical,stream")


def test_ablate_rejects_bad_gate_entry(tmp_path, capsys):
    data = _gen(tmp_path)
    rc = main(["ablate", "--data", data, "--hier-list", "maybe", *MODEL_TINY])
    assert rc == 2


# --------------------------------------------------------------- config

def test_config_file_seeds_defaults(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("pairs: 6\ncaption_len: 3\n")
    out = str(tmp_path / "d")
    rc = main(["gen-data", "--config", str(cfg), "--out", out, "--k", "2",
               "--draw", "6", "--vocab", "32"])
    assert rc == 0
    assert "wrote 6 images" in capsys.readouterr().out


def test_explicit_flag_beats_config_file(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("pairs: 6\n")
    out = str(tmp_path / "d")
    rc = main(["gen-data", "--config", str(cfg), "--pairs", "3", "--out", out,
               "--k", "2", "--draw", "6", "--vocab", "32"])
    assert rc == 0
    assert "wrote 3 images" in capsys.readouterr().out


def test_config_unknown_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("bogus: 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")])
    assert exc.value.code == 2


def test_config_missing_file_is_io_error(tmp_path, capsys):
    rc = main(["gen-data", "--config", str(tmp_path / "nope.cfg"),
               "--out", str(tmp_path / "d")])
    assert rc == 3


def test_config_malformed_file_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("no separator here\n")
    rc = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")])
    assert rc == 2
    assert "bad config file" in capsys.readouterr().err
