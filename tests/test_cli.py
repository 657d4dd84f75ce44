"""End-to-end command-line behaviour through main(argv)."""

import hashlib
import os

import numpy as np
import pytest

from itmatch import cli, evaluation, gradcheck, model, training
from itmatch import tensor as tt
from itmatch.cli import main
from itmatch.dataio import read_dataset

GEN_TINY = [
    "gen-data", "--pairs", "4", "--k", "2", "--draw", "6",
    "--caption-len", "2", "--vocab", "32", "--seed", "3",
]
# ablate takes depth, stream and gate from its grid lists only
MODEL_WIDTHS = ["--d", "8", "--m", "4", "--embed-dim", "8"]
MODEL_TINY = MODEL_WIDTHS + ["--layers", "1"]
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


@pytest.mark.parametrize("name", [" lead", "trail\t", "two\nlines", "a\u2028b"])
def test_gen_data_refuses_a_name_that_would_not_read_back_as_a_bad_flag(tmp_path, capsys, name):
    # the name is the caller's choice, not data: a ConfigError, before any
    # file is opened
    out = tmp_path / "x"
    assert main(GEN_TINY + ["--out", str(out), "--name", name]) == 2
    assert f"error: name must have no line break and no whitespace at either end, got {name!r}" in (
        capsys.readouterr().err)
    assert not out.exists()


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


def test_train_writes_its_loss_csv_into_a_new_directory(tmp_path, capsys):
    # the directory is made as --out's is, not refused after the whole run
    data = _gen(tmp_path)
    csv = tmp_path / "new" / "loss.csv"
    rc = main([
        "train", "--data", data, "--out", str(tmp_path / "ckpt"),
        "--epochs", "1", "--batch-size", "4", "--loss-csv", str(csv), *MODEL_TINY,
    ])
    assert rc == 0
    assert csv.read_text().startswith("step,loss\n")
    assert not (tmp_path / "new" / "loss.csv.tmp").exists()


@pytest.mark.parametrize("csv_flag", ["--loss-csv", None], ids=["loss-csv", "default"])
def test_train_refuses_a_loss_csv_path_that_is_a_directory_before_training(
        tmp_path, capsys, monkeypatch, csv_flag):
    data = _gen(tmp_path)
    ckpt = tmp_path / "ckpt"
    csv = tmp_path / "existing_dir" if csv_flag else ckpt / "loss.csv"
    csv.mkdir(parents=True)
    monkeypatch.setattr(cli, "train", lambda *args, **kwargs: pytest.fail("train trained"))
    rc = main(["train", "--data", data, "--out", str(ckpt), "--epochs", "1", "--batch-size", "4",
               *(["--loss-csv", str(csv)] if csv_flag else []), *MODEL_TINY])
    assert rc == 3
    assert f"error: {csv}: is a directory" in capsys.readouterr().err
    assert not (ckpt / "manifest").exists()
    assert os.listdir(csv) == []


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


def test_eval_refuses_an_out_csv_path_that_is_a_directory_before_scoring(tmp_path, capsys, monkeypatch):
    data = _gen(tmp_path)
    csv = tmp_path / "existing_dir"
    csv.mkdir()
    monkeypatch.setattr(cli, "load_checkpoint", lambda *args: pytest.fail("eval loaded the checkpoint"))
    rc = main(["eval", "--data", data, "--checkpoint", str(tmp_path / "ckpt"), "--out-csv", str(csv)])
    assert rc == 3
    out, err = capsys.readouterr()
    assert f"error: {csv}: is a directory" in err
    assert "rsum" not in out
    assert os.listdir(csv) == []


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
    regions_path = os.path.join(data, "regions.bin")
    with open(regions_path, "rb") as fh:
        regions = np.frombuffer(fh.read(), dtype="<f4").copy()
    regions[2 * 6 + 2] = np.nan  # image 1 of (4, k=2, d_raw=6)
    blob = regions.tobytes()
    with open(regions_path, "wb") as fh:
        fh.write(blob)
    manifest_path = os.path.join(data, "manifest")
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


def test_eval_rejects_a_checkpoint_with_a_non_finite_parameter(tmp_path, capsys):
    data = _gen(tmp_path)
    ckpt = str(tmp_path / "ckpt")
    cfg = model.ModelConfig(vocab_size=32, d_raw=6, embed_dim=8, hidden_dim=8, sim_dim=4, n_layers=1)
    training.save_checkpoint(ckpt, model.init_params(cfg), cfg)
    # head.w's first entry planted as inf in the blob (parameters in name order), checksum updated
    blob_path = os.path.join(ckpt, "params.bin")
    with open(blob_path, "rb") as fh:
        flat = np.frombuffer(fh.read(), dtype="<f8").copy()
    shapes = model.param_shapes(cfg)
    flat[sum(int(np.prod(shapes[name])) for name in sorted(shapes) if name < "head.w")] = np.inf
    blob = flat.tobytes()
    with open(blob_path, "wb") as fh:
        fh.write(blob)
    manifest = os.path.join(ckpt, "manifest")
    with open(manifest, encoding="utf-8") as fh:
        lines = [
            f"checksum_params: {hashlib.sha256(blob).hexdigest()}\n"
            if line.startswith("checksum_params:") else line
            for line in fh
        ]
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    capsys.readouterr()
    assert main(["eval", "--data", data, "--checkpoint", ckpt]) == 3
    assert f"{manifest}: parameter 'head.w' is not finite" in capsys.readouterr().err


def test_eval_refuses_a_version_1_checkpoint(tmp_path, capsys):
    data = _gen(tmp_path)
    ckpt = str(tmp_path / "ckpt")
    cfg = model.ModelConfig(vocab_size=32, d_raw=6, embed_dim=8, hidden_dim=8, sim_dim=4, n_layers=1)
    training.save_checkpoint(ckpt, model.init_params(cfg), cfg)
    manifest = os.path.join(ckpt, "manifest")
    with open(manifest, encoding="utf-8") as fh:
        text = fh.read()
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write(text.replace(f"\nversion: {training.CHECKPOINT_VERSION}\n", "\nversion: 1\n"))
    capsys.readouterr()
    assert main(["eval", "--data", data, "--checkpoint", ckpt]) == 3
    assert f"{manifest}: unsupported version 1, expected 2" in capsys.readouterr().err


def test_train_refuses_to_write_its_checkpoint_over_a_dataset(tmp_path, capsys, monkeypatch):
    data = _gen(tmp_path)
    before = {name: open(os.path.join(data, name), "rb").read() for name in os.listdir(data)}
    steps = []
    monkeypatch.setattr(training, "_train_step", lambda *args: steps.append(args))
    capsys.readouterr()
    rc = main(["train", "--data", data, "--out", data, "--epochs", "1",
               "--batch-size", "4", *MODEL_TINY])
    assert rc == 3 and steps == []
    err = capsys.readouterr().err
    assert f"{os.path.join(data, 'manifest')}: holds format 'itmatch-dataset'" in err
    assert {name: open(os.path.join(data, name), "rb").read() for name in os.listdir(data)} == before


def test_gen_data_refuses_to_write_over_a_checkpoint(tmp_path, capsys):
    data = _gen(tmp_path)
    ckpt = str(tmp_path / "ckpt")
    assert main(["train", "--data", data, "--out", ckpt, "--epochs", "1",
                 "--batch-size", "4", *MODEL_TINY]) == 0
    params, _ = training.load_checkpoint(ckpt)
    capsys.readouterr()
    assert main(GEN_TINY + ["--out", ckpt]) == 3
    assert "holds format 'itmatch-checkpoint'" in capsys.readouterr().err
    again, _ = training.load_checkpoint(ckpt)
    for name in params.names():
        assert again[name].data.tobytes() == params[name].data.tobytes()


def test_train_rejects_a_manifest_that_is_not_utf8(tmp_path, capsys):
    data = _gen(tmp_path)
    manifest = os.path.join(data, "manifest")
    offset = os.path.getsize(manifest) + len(b"note: caf")
    with open(manifest, "ab") as fh:
        fh.write(b"note: caf\xe9\n")  # latin-1, not UTF-8
    capsys.readouterr()
    rc = main(["train", "--data", data, "--out", str(tmp_path / "ckpt"), "--epochs", "1",
               "--batch-size", "4", *MODEL_TINY])
    assert rc == 3
    assert f"{manifest}: not UTF-8 text (byte offset {offset})" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "nan", "inf"])
def test_eval_rejects_a_checkpoint_temperature_that_is_not_a_finite_number(tmp_path, capsys, value):
    data = _gen(tmp_path)
    ckpt = str(tmp_path / "ckpt")
    cfg = model.ModelConfig(vocab_size=32, d_raw=6, embed_dim=8, hidden_dim=8, sim_dim=4, n_layers=1)
    training.save_checkpoint(ckpt, model.init_params(cfg), cfg)
    manifest = os.path.join(ckpt, "manifest")
    with open(manifest, encoding="utf-8") as fh:
        text = fh.read()
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write(text.replace("model.temperature: 9.0\n", f"model.temperature: {value}\n"))
    capsys.readouterr()
    assert main(["eval", "--data", data, "--checkpoint", ckpt]) == 3
    err = capsys.readouterr().err
    assert f"{manifest}: " in err and "temperature" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_rejects_a_lambda_that_is_not_finite(tmp_path, capsys, value):
    data = _gen(tmp_path)
    capsys.readouterr()
    rc = main(["train", "--data", data, "--out", str(tmp_path / "ckpt"), "--epochs", "1",
               "--batch-size", "4", "--lambda", value, *MODEL_TINY])
    assert rc == 2
    assert "temperature must be finite and positive" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "ckpt")


@pytest.mark.parametrize("flag,value", [(f, v) for f in ("--lr", "--margin") for v in ("nan", "inf")])
def test_train_rejects_a_rate_or_margin_that_is_not_finite(tmp_path, capsys, flag, value):
    data = _gen(tmp_path)
    capsys.readouterr()
    rc = main(["train", "--data", data, "--out", str(tmp_path / "ckpt"), "--epochs", "1",
               "--batch-size", "4", flag, value, *MODEL_TINY])
    assert rc == 2
    assert f"{flag[2:]} must be finite" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "ckpt")


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
    assert "step 1: score of image 0 and caption 0 is not finite (nan)" in capsys.readouterr().err
    assert not ckpt.exists()


def test_ablate_rejects_mismatched_val_set(tmp_path, capsys):
    data = _gen(tmp_path)
    wide = str(tmp_path / "wide")
    main(["gen-data", "--out", wide, "--pairs", "4", "--k", "2", "--draw", "8",
          "--caption-len", "2", "--vocab", "32"])
    capsys.readouterr()
    rc = main(["ablate", "--data", data, "--val", wide, "--m-list", "0",
               "--epochs", "1", "--batch-size", "4", *MODEL_WIDTHS])
    assert rc == 3
    assert "validation dataset disagrees" in capsys.readouterr().err


# ------------------------------------------------------------ gradcheck

def test_gradcheck_passes_and_reports_every_param(tmp_path, capsys):
    assert main(GRADCHECK_TINY) == 0
    stdout = capsys.readouterr().out
    assert "all gradients within tolerance" in stdout
    for name in ("embed.table", "img_proj.w", "sim.w_glob", "reason.0.kernel", "head.w"):
        assert stdout.count(f"  {name} ") == 1
    assert "FAIL" not in stdout


def test_gradcheck_detects_corrupted_gradient(capsys, monkeypatch):
    def corrupted(loss, params):
        grads = tt.backward(loss, params)
        bad = grads["head.w"].data.copy()
        bad[0] += 1e-2
        return {**grads, "head.w": tt.constant(bad)}

    monkeypatch.setattr(gradcheck, "backward", corrupted)
    rc = main(GRADCHECK_TINY)
    assert rc == 4
    captured = capsys.readouterr()
    assert "gradient verification FAILED" in captured.err
    assert [line.split()[0] for line in captured.out.splitlines() if line.endswith("FAIL")] == ["head.w"]


def test_gradcheck_exits_3_on_a_non_finite_grid(capsys, monkeypatch):
    real = training.score_grid

    def planted(params, cfg, regions, tokens):
        plant = np.zeros((len(regions), len(regions)))
        plant[0, 1] = -np.inf
        return tt.add(real(params, cfg, regions, tokens), tt.constant(plant))

    monkeypatch.setattr(training, "score_grid", planted)
    assert main(GRADCHECK_TINY) == 3
    assert "error: score of image 0 and caption 1 is not finite (-inf)" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "flag,value", [(f, v) for f in ("--tol", "--epsilon", "--margin") for v in ("nan", "inf")]
)
def test_gradcheck_rejects_a_setting_that_is_not_finite(capsys, flag, value):
    assert main(GRADCHECK_TINY + [flag, value]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_gradcheck_lambda_flag_sets_temperature(tmp_path, capsys):
    assert main(GRADCHECK_TINY + ["--lambda", "5.0"]) == 0
    assert "  temperature = 5.0" in capsys.readouterr().out


# --------------------------------------------------------------- ablate

@pytest.mark.parametrize("command", ["gen-data", "train", "gradcheck", "ablate"])
def test_a_negative_seed_exits_2(tmp_path, capsys, command):
    data = _gen(tmp_path)
    capsys.readouterr()
    argv = {
        "gen-data": GEN_TINY + ["--out", str(tmp_path / "other")],
        "train": ["train", "--data", data, "--out", str(tmp_path / "ckpt"), "--epochs", "1",
                  "--batch-size", "4", *MODEL_TINY],
        "gradcheck": GRADCHECK_TINY,
        "ablate": ["ablate", "--data", data, "--m-list", "1", "--epochs", "1", "--batch-size", "4",
                   *MODEL_WIDTHS],
    }[command]
    assert main(argv + ["--seed", "-1"]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "other") and not os.path.exists(tmp_path / "ckpt")


def test_ablate_grid_rows_and_csv(tmp_path, capsys):
    data = _gen(tmp_path)
    csv = str(tmp_path / "grid.csv")
    rc = main([
        "ablate", "--data", data, "--m-list", "1,0", "--hier-list", "on",
        "--stream-list", "both", "--epochs", "1", "--batch-size", "4",
        "--out-csv", csv, *MODEL_WIDTHS,
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


@pytest.mark.parametrize("with_csv", [False, True], ids=["table", "csv"])
@pytest.mark.parametrize("flag,value", [("--m-list", ""), ("--hier-list", ","), ("--stream-list", ",")])
def test_ablate_rejects_an_empty_grid_list(tmp_path, capsys, flag, value, with_csv):
    data = _gen(tmp_path)
    csv = tmp_path / "grid.csv"
    extra = ["--out-csv", str(csv)] if with_csv else []
    rc = main(["ablate", "--data", data, flag, value, "--epochs", "1", "--batch-size", "4",
               *extra, *MODEL_WIDTHS])
    assert rc == 2
    assert f"error: {flag} needs at least one entry" in capsys.readouterr().err
    assert not csv.exists()


@pytest.mark.parametrize("with_csv", [False, True], ids=["table", "csv"])
@pytest.mark.parametrize("flag,value,repeated", [
    ("--m-list", "1,0,1", "1"), ("--hier-list", "on,on", "'on'"),
    ("--stream-list", "both,t2i_only,both", "'both'"),
], ids=["m-list", "hier-list", "stream-list"])
def test_ablate_rejects_a_repeated_grid_entry(tmp_path, capsys, monkeypatch, flag, value, repeated,
                                              with_csv):
    data = _gen(tmp_path)
    monkeypatch.setattr(cli, "train", lambda *args, **kwargs: pytest.fail("ablate trained"))
    csv = tmp_path / "grid.csv"
    extra = ["--out-csv", str(csv)] if with_csv else []
    rc = main(["ablate", "--data", data, flag, value, "--epochs", "1", "--batch-size", "4",
               *extra, *MODEL_WIDTHS])
    assert rc == 2
    assert f"error: {flag} repeats the entry {repeated}" in capsys.readouterr().err
    assert not csv.exists()


def test_ablate_refuses_an_out_csv_path_that_is_a_directory_before_any_cell_trains(
        tmp_path, capsys, monkeypatch):
    data = _gen(tmp_path)
    csv = tmp_path / "existing_dir"
    csv.mkdir()
    monkeypatch.setattr(cli, "train", lambda *args, **kwargs: pytest.fail("ablate trained"))
    rc = main(["ablate", "--data", data, "--m-list", "0", "--epochs", "1", "--batch-size", "4",
               "--out-csv", str(csv), *MODEL_WIDTHS])
    assert rc == 3
    assert f"error: {csv}: is a directory" in capsys.readouterr().err
    assert os.listdir(csv) == []


class _Unprintable:
    def __str__(self):
        raise RuntimeError("planted failure")


def test_recall_csv_failure_leaves_the_old_file(tmp_path):
    path = tmp_path / "recall.csv"
    cli._write_csv(str(path), ["direction", "r1"], [["rsum", 1.5]])
    old = path.read_bytes()
    # the header and the first row are written before the second row fails
    with pytest.raises(RuntimeError, match="planted failure"):
        cli._write_csv(str(path), ["direction", "r1"], [["a", 2.0], ["b", _Unprintable()]])
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["recall.csv"]


@pytest.mark.parametrize("with_val", [False, True], ids=["train-set", "val-set"])
def test_ablate_scores_each_configuration_once(tmp_path, capsys, monkeypatch, with_val):
    data = _gen(tmp_path)
    eval_data = _gen(tmp_path, "val", extra=["--seed", "5", "--split", "val"]) if with_val else data
    calls = []
    score_matrix = evaluation.score_matrix
    monkeypatch.setattr(evaluation, "score_matrix", lambda *args: calls.append(args) or score_matrix(*args))
    csv = tmp_path / "grid.csv"
    rc = main(["ablate", "--data", data, *(["--val", eval_data] if with_val else []),
               "--m-list", "0,1", "--stream-list", "both,t2i_only", "--epochs", "2",
               "--batch-size", "4", "--out-csv", str(csv), *MODEL_WIDTHS])
    assert rc == 0
    assert len(calls) == 4
    monkeypatch.undo()
    # each row holds the recalls of the final parameters on the evaluation set
    bundles, manifest = read_dataset(data)
    eval_bundles, eval_manifest = read_dataset(eval_data)
    max_len = max(manifest.max_caption_len, eval_manifest.max_caption_len)
    lines = csv.read_text().splitlines()
    assert lines[0] == "layers,hierarchical,stream,s_r1,s_r5,s_r10,i_r1,i_r5,i_r10,rsum"
    for line in lines[1:]:
        depth, hier, stream, *values = line.split(",")
        cfg = model.ModelConfig(
            vocab_size=32, d_raw=6, embed_dim=8, hidden_dim=8, sim_dim=4, n_layers=int(depth),
            stream=stream, hierarchical=hier == "on", max_caption_len=max_len,
        )
        config = training.TrainConfig(model=cfg, epochs=2, lr_decay_epoch=2, batch_size=4, eval_every=2)
        sentence, image = evaluation.evaluate(training.train(bundles, config).params, cfg, eval_bundles)
        expected = [sentence.r_at[k] for k in (1, 5, 10)] + [image.r_at[k] for k in (1, 5, 10)]
        assert [float(v) for v in values] == expected + [evaluation.rsum([sentence, image])]


def test_ablate_rejects_bad_gate_entry(tmp_path, capsys):
    data = _gen(tmp_path)
    rc = main(["ablate", "--data", data, "--hier-list", "maybe", *MODEL_WIDTHS])
    assert rc == 2


@pytest.mark.parametrize("flag,value,message", [
    ("--m-list", "1,-1", "n_layers must be >= 0, got -1"),
    ("--stream-list", "both,sideways", "stream must be one of"),
], ids=["m-list", "stream-list"])
def test_ablate_refuses_a_bad_cell_before_any_cell_trains(tmp_path, capsys, monkeypatch, flag, value,
                                                          message):
    data = _gen(tmp_path)
    monkeypatch.setattr(cli, "train", lambda *args, **kwargs: pytest.fail("ablate trained"))
    rc = main(["ablate", "--data", data, flag, value, "--epochs", "1", "--batch-size", "4",
               *MODEL_WIDTHS])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--layers", "2"), ("--hierarchical", "off")])
def test_ablate_has_no_depth_or_gate_flag(tmp_path, capsys, flag, value):
    # a flag the grid lists would override is refused, not ignored
    data = _gen(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["ablate", "--data", data, "--m-list", "1", "--epochs", "1", "--batch-size", "4",
              flag, value, *MODEL_WIDTHS])
    assert exc.value.code == 2


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


def test_config_file_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_bytes(b"pairs: 6\nname: \xff\n")
    rc = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")])
    assert rc == 2
    assert f"bad config file: {cfg}: not UTF-8 text (byte offset 15)" in capsys.readouterr().err


def test_config_malformed_file_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("no separator here\n")
    rc = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")])
    assert rc == 2
    assert "bad config file" in capsys.readouterr().err


def test_explicit_flag_before_the_config_file_wins(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("pairs: 6\n")
    rc = main(["gen-data", "--pairs", "3", "--config", str(cfg), "--out", str(tmp_path / "d"),
               "--k", "2", "--draw", "6", "--vocab", "32"])
    assert rc == 0
    assert "wrote 3 images" in capsys.readouterr().out


def test_config_abbreviated_is_refused_not_ignored(tmp_path, capsys):
    # --config must be spelled in full; a prefix is an unknown flag, so the
    # file is never silently dropped
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("pairs: 3\n")
    out = tmp_path / "d"
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--conf", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --conf" in capsys.readouterr().err
    assert not out.exists()


def test_config_key_inside_a_config_file_is_refused(tmp_path, capsys):
    (tmp_path / "other.cfg").write_text("pairs: 3\n")
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"config: {tmp_path / 'other.cfg'}\n")
    out = tmp_path / "d"
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config=" in capsys.readouterr().err
    assert not out.exists()


def test_config_without_a_path_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "d"
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--out", str(out), "--config"])
    assert exc.value.code == 2
    assert "--config: expected one argument" in capsys.readouterr().err
    assert not out.exists()


def test_config_key_must_name_a_flag_exactly(tmp_path, capsys):
    # argparse would take --pair for --pairs; a file key is matched exactly
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("pair: 3\n")
    out = tmp_path / "d"
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--config", str(cfg), "--out", str(out), "--k", "2", "--draw", "6", "--vocab", "32"])
    assert exc.value.code == 2
    assert "config file key 'pair'" in capsys.readouterr().err
    assert not out.exists()
    cfg.write_text("pairs: 3\n")
    assert main(["gen-data", "--config", str(cfg), "--out", str(out), "--k", "2", "--draw", "6", "--vocab", "32"]) == 0
    assert "wrote 3 images" in capsys.readouterr().out


def test_typed_flags_keep_their_abbreviations_beside_a_config_file(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("pairs: 6\n")
    rc = main(["gen-data", "--config", str(cfg), "--pai", "4", "--out", str(tmp_path / "d"),
               "--k", "2", "--draw", "6", "--vocab", "32"])
    assert rc == 0
    assert "wrote 4 images" in capsys.readouterr().out
