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


@pytest.mark.parametrize("with_csv", [False, True], ids=["table", "csv"])
@pytest.mark.parametrize("flag,value", [("--m-list", ""), ("--hier-list", ","), ("--stream-list", ",")])
def test_ablate_rejects_an_empty_grid_list(tmp_path, capsys, flag, value, with_csv):
    data = _gen(tmp_path)
    csv = tmp_path / "grid.csv"
    extra = ["--out-csv", str(csv)] if with_csv else []
    rc = main(["ablate", "--data", data, flag, value, "--epochs", "1", "--batch-size", "4",
               *extra, *MODEL_TINY])
    assert rc == 2
    assert f"error: {flag} needs at least one entry" in capsys.readouterr().err
    assert not csv.exists()


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
               "--batch-size", "4", "--out-csv", str(csv), *MODEL_TINY])
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
