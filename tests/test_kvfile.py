"""The manifest-and-blob container: its dialect, typed fields, checked
blobs, the pinned format version 1 of datasets and version 2 of
checkpoints, and a corruption fuzz over both."""

import hashlib
import os
import re

import numpy as np
import pytest

from itmatch import kvfile
from itmatch import tensor as tt
from itmatch.dataio import FeatureBundle, read_dataset, write_dataset
from itmatch.errors import DataError
from itmatch.kvfile import Container, format_kv, parse_kv_text, read_kv, write_container
from itmatch.model import ModelConfig, param_shapes
from itmatch.training import load_checkpoint, save_checkpoint

# A fixed tiny dataset and checkpoint, with the sha256 of every blob and
# the parsed manifest (in file order) that dataset format version 1 and
# checkpoint format version 2 give them.
PINNED_BUNDLES = [
    FeatureBundle("a", regions=np.arange(6.0).reshape(2, 3) / 4 - 0.5, captions=[[1, 2, 3], [4]]),
    FeatureBundle("b", regions=-np.arange(6.0).reshape(2, 3) / 8, captions=[[0, 5]]),
]
PINNED_CONFIG = ModelConfig(
    vocab_size=3, d_raw=2, embed_dim=2, hidden_dim=2, sim_dim=2, n_layers=1,
    temperature=4.5, max_caption_len=4,
)
DATASET_BLOBS = {
    "regions.bin": "8b0b17dff378f8a41c9df2298bab84c9ccd5ba63a7ffb78492773c6d91e17f2d",
    "tokens.bin": "f04014935f4f9a664558d648c21e4e522ecfa5565fc5e89dc8379354ed705b32",
    "offsets.bin": "3584dbe87e549ee7ee79f552d03ccbd629b2d04bac892f1d360b3b2003d2988b",
}
DATASET_MANIFEST = {
    "format": "itmatch-dataset",
    "version": "1",
    "name": "pin",
    "split": "val",
    "n_images": "2",
    "n_captions": "3",
    "n_tokens": "6",
    "k": "2",
    "d_raw": "3",
    "vocab_size": "6",
    "max_caption_len": "3",
    "checksum_regions": DATASET_BLOBS["regions.bin"],
    "checksum_tokens": DATASET_BLOBS["tokens.bin"],
    "checksum_offsets": DATASET_BLOBS["offsets.bin"],
    "image_id.0": "a",
    "image_id.1": "b",
}
CHECKPOINT_BLOBS = {
    "params.bin": "46c246a2e2e38c3d9bd59a7557663b9b3067e7dd7aa2f96b55845fb4d43d3b15",
}
CHECKPOINT_MANIFEST = {
    "format": "itmatch-checkpoint",
    "version": "2",
    "dtype": "<f8",
    "model.vocab_size": "3",
    "model.d_raw": "2",
    "model.embed_dim": "2",
    "model.hidden_dim": "2",
    "model.sim_dim": "2",
    "model.n_layers": "1",
    "model.temperature": "4.5",
    "model.stream": "both",
    "model.hierarchical": "True",
    "model.row_softmax": "False",
    "model.share_sim_w": "False",
    "model.max_caption_len": "4",
    "param.embed.table": "3x2",
    "param.gru.bwd.b_cand": "2",
    "param.gru.bwd.b_reset": "2",
    "param.gru.bwd.b_update": "2",
    "param.gru.bwd.u_cand": "2x2",
    "param.gru.bwd.u_reset": "2x2",
    "param.gru.bwd.u_update": "2x2",
    "param.gru.bwd.w_cand": "2x2",
    "param.gru.bwd.w_reset": "2x2",
    "param.gru.bwd.w_update": "2x2",
    "param.gru.fwd.b_cand": "2",
    "param.gru.fwd.b_reset": "2",
    "param.gru.fwd.b_update": "2",
    "param.gru.fwd.u_cand": "2x2",
    "param.gru.fwd.u_reset": "2x2",
    "param.gru.fwd.u_update": "2x2",
    "param.gru.fwd.w_cand": "2x2",
    "param.gru.fwd.w_reset": "2x2",
    "param.gru.fwd.w_update": "2x2",
    "param.head.w": "2",
    "param.img_proj.b": "2",
    "param.img_proj.w": "2x2",
    "param.reason.0.bias": "scalar",
    "param.reason.0.kernel": "3x3",
    "param.reason.0.w_key": "2x2",
    "param.reason.0.w_mix": "2x2",
    "param.reason.0.w_out": "2x2",
    "param.reason.0.w_query": "2x2",
    "param.sim.w_glob": "2x2",
    "param.sim.w_i2t": "2x2",
    "param.sim.w_t2i": "2x2",
    "checksum_params": CHECKPOINT_BLOBS["params.bin"],
}


def _pinned_params():
    entries = {}
    offset = 0
    for name, shape in param_shapes(PINNED_CONFIG).items():
        count = int(np.prod(shape)) if shape else 1
        entries[name] = tt.parameter((np.arange(count) + offset).reshape(shape) / 16 - 1)
        offset += count
    return tt.ParamStore(entries)


def _write_pinned(tmp_path):
    dataset, checkpoint = tmp_path / "ds", tmp_path / "ckpt"
    write_dataset(PINNED_BUNDLES, dataset, vocab_size=6, name="pin", split="val")
    save_checkpoint(checkpoint, _pinned_params(), PINNED_CONFIG)
    return dataset, checkpoint


def _assert_bundles_equal(a, b):
    assert [(x.image_id, x.captions) for x in a] == [(y.image_id, y.captions) for y in b]
    for x, y in zip(a, b):
        assert x.regions.tobytes() == y.regions.tobytes()


def _assert_checkpoint_is_pinned(checkpoint):
    params, cfg = load_checkpoint(checkpoint)
    assert cfg == PINNED_CONFIG
    expected = _pinned_params()
    assert params.names() == expected.names()
    for name in params.names():
        assert params[name].data.tobytes() == expected[name].data.tobytes(), name


# ------------------------------------------------------------- dialect

def test_read_kv_names_the_file_and_byte_offset_of_bad_utf8(tmp_path):
    path = tmp_path / "cfg"
    path.write_bytes(b"a: 1\nb: caf\xe9\n")
    with pytest.raises(DataError, match=f"{path}: not UTF-8 text \\(byte offset 11\\)"):
        read_kv(path)


# ----------------------------------------------------------- container

def test_container_fields_and_blobs_are_checked_and_errors_name_the_file(tmp_path):
    path = tmp_path / "c"
    checksums = write_container(path, "toy", 3, [("n", -1), ("x", "abc"), ("f", 2.5)], {"b": b"abc"})
    assert checksums == {"b": hashlib.sha256(b"abc").hexdigest()}
    assert list(read_kv(path / "manifest")) == ["format", "version", "n", "x", "f", "checksum_b"]
    container = Container(path, "toy", 3)
    assert container.get_text("x") == "abc"
    assert container.get_int("n", minimum=-1) == -1
    assert container.get_float("f") == 2.5
    assert container.blob("b", 3) == b"abc"
    manifest = str(path / "manifest")
    for call, message in [
        (lambda: container.get_int("n"), "field 'n' must be >= 0, got -1"),
        (lambda: container.get_int("x"), "field 'x' is not an integer: 'abc'"),
        (lambda: container.get_float("x"), "field 'x' is not a number: 'abc'"),
        (lambda: container.get_text("y"), "missing field 'y'"),
        (lambda: container.blob("z", 0), "missing field 'checksum_z'"),
        (lambda: Container(path, "other", 3), "unexpected format 'toy'"),
        (lambda: Container(path, "toy", 4), "unsupported version 3"),
    ]:
        with pytest.raises(DataError) as err:
            call()
        assert str(err.value).startswith(f"{manifest}: "), str(err.value)
        assert message in str(err.value)
    with pytest.raises(DataError, match="b.bin: expected 4 bytes from the manifest, found 3"):
        container.blob("b", 4)
    (path / "b.bin").write_bytes(b"abd")
    with pytest.raises(DataError, match="b.bin: checksum mismatch"):
        container.blob("b", 3)
    os.remove(path / "b.bin")
    with pytest.raises(DataError, match="blob missing"):
        container.blob("b", 3)


def test_a_failed_overwrite_leaves_the_old_dataset_readable(tmp_path):
    dataset, _ = _write_pinned(tmp_path)
    before = {name: (dataset / name).read_bytes() for name in os.listdir(dataset)}
    bad = [FeatureBundle("x\ny", regions=np.ones((2, 3)), captions=[[1]])]
    with pytest.raises(DataError, match="newline"):
        write_dataset(bad, dataset, vocab_size=6)
    assert {name: (dataset / name).read_bytes() for name in os.listdir(dataset)} == before
    back, _ = read_dataset(dataset)
    _assert_bundles_equal(back, PINNED_BUNDLES)


def test_a_write_refuses_to_replace_a_container_of_another_format(tmp_path):
    dataset, checkpoint = _write_pinned(tmp_path)
    for directory, write in (
        (dataset, lambda: save_checkpoint(dataset, _pinned_params(), PINNED_CONFIG)),
        (checkpoint, lambda: write_dataset(NEW_BUNDLES, checkpoint, vocab_size=6)),
    ):
        before = {name: (directory / name).read_bytes() for name in os.listdir(directory)}
        with pytest.raises(DataError) as err:
            write()
        message = str(err.value)
        assert message.startswith(f"{directory / 'manifest'}: ")
        assert "'itmatch-dataset'" in message and "'itmatch-checkpoint'" in message
        assert {name: (directory / name).read_bytes() for name in os.listdir(directory)} == before
    _assert_bundles_equal(read_dataset(dataset)[0], PINNED_BUNDLES)
    _assert_checkpoint_is_pinned(checkpoint)


def test_a_container_of_the_same_format_or_a_damaged_manifest_is_rewritten(tmp_path):
    dataset, checkpoint = _write_pinned(tmp_path)
    write_dataset(NEW_BUNDLES, dataset, vocab_size=6)
    _assert_bundles_equal(read_dataset(dataset)[0], NEW_BUNDLES)
    save_checkpoint(checkpoint, _pinned_params(), PINNED_CONFIG)
    _assert_checkpoint_is_pinned(checkpoint)
    # a manifest that does not parse names no format, so it may be overwritten
    for damaged in (b"format itmatch-checkpoint\n", b"format: caf\xe9\n"):
        (dataset / "manifest").write_bytes(damaged)
        write_dataset(PINNED_BUNDLES, dataset, vocab_size=6, name="pin", split="val")
        _assert_bundles_equal(read_dataset(dataset)[0], PINNED_BUNDLES)


class _Injected(Exception):
    pass


# the same shapes as PINNED_BUNDLES, with every blob's bytes changed
NEW_BUNDLES = [
    FeatureBundle("c", regions=np.full((2, 3), 0.25), captions=[[5, 5], [3]]),
    FeatureBundle("d", regions=np.full((2, 3), -2.0), captions=[[1, 2, 0]]),
]


@pytest.mark.parametrize("call", ["open", "replace"])
def test_an_overwrite_failing_at_any_write_or_rename_leaves_the_old_dataset_or_none(
    tmp_path, monkeypatch, call
):
    """Either the old dataset reads back or there is no manifest; never a
    manifest over blobs it does not describe.  Files the container does
    not own are left alone, and no temporary file is left behind."""
    real = {"open": open, "replace": os.replace}[call]
    failures = 0
    while True:
        dataset, _ = _write_pinned(tmp_path)
        (dataset / "loss.csv").write_text("step,loss\n", encoding="utf-8")
        calls = 0

        def failing(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == failures + 1:
                raise _Injected(f"{call} {args[0]}")
            return real(*args, **kwargs)

        with monkeypatch.context() as patch:
            if call == "open":
                patch.setattr(kvfile, "open", failing, raising=False)
            else:
                patch.setattr(os, "replace", failing)
            try:
                write_dataset(NEW_BUNDLES, dataset, vocab_size=6, name="pin", split="val")
            except _Injected:
                pass
            else:
                break
        try:
            back, _ = read_dataset(dataset)
        except DataError as err:
            assert "no manifest" in str(err), f"failure {failures}: {err}"
        else:
            _assert_bundles_equal(back, PINNED_BUNDLES)
        assert set(os.listdir(dataset)) <= {*DATASET_BLOBS, "manifest", "loss.csv"}
        assert (dataset / "loss.csv").read_text(encoding="utf-8") == "step,loss\n"
        failures += 1
    assert failures == len(DATASET_BLOBS) + 1  # one per blob and one for the manifest
    back, _ = read_dataset(dataset)
    _assert_bundles_equal(back, NEW_BUNDLES)
    assert sorted(os.listdir(dataset)) == sorted([*DATASET_BLOBS, "manifest", "loss.csv"])


@pytest.mark.parametrize("image_id", ["a\rb", "a\u2028b", "a\x85b", " padded ", "tail\t"])
def test_an_image_id_that_would_not_read_back_unchanged_is_refused(tmp_path, image_id):
    bundles = [FeatureBundle(image_id, regions=np.ones((2, 3)), captions=[[1]])]
    with pytest.raises(DataError, match="image_id.0"):
        write_dataset(bundles, tmp_path / "ds", vocab_size=6)
    assert not (tmp_path / "ds").exists()


def test_replacing_refuses_a_directory(tmp_path):
    target = tmp_path / "out.csv"
    target.mkdir()
    with pytest.raises(DataError, match=rf"^{re.escape(str(target))}: is a directory"):
        with kvfile.replacing(target) as fh:
            fh.write("never")
    assert target.is_dir() and os.listdir(target) == []
    assert os.listdir(tmp_path) == ["out.csv"]


def test_format_kv_refuses_keys_that_would_not_read_back_unchanged():
    for key in ("", "a:b", "#a", " a", "a\x0bb", "a\u2029"):
        with pytest.raises(DataError, match="invalid key"):
            format_kv([(key, "v")])
    assert parse_kv_text(format_kv([("a b", "x: y #z")])) == {"a b": "x: y #z"}


# ------------------------------------- dataset version 1, checkpoint version 2

def test_format_version_1_is_pinned(tmp_path):
    dataset, checkpoint = _write_pinned(tmp_path)
    assert (checkpoint / "manifest").read_text(encoding="utf-8") == format_kv(CHECKPOINT_MANIFEST.items())
    for directory, blobs, manifest in (
        (dataset, DATASET_BLOBS, DATASET_MANIFEST),
        (checkpoint, CHECKPOINT_BLOBS, CHECKPOINT_MANIFEST),
    ):
        assert sorted(os.listdir(directory)) == sorted([*blobs, "manifest"])
        for name, digest in blobs.items():
            assert hashlib.sha256((directory / name).read_bytes()).hexdigest() == digest, name
        assert read_kv(directory / "manifest") == manifest
        # the same fields in the order older writers put them read back alike
        (directory / "manifest").write_text(format_kv(manifest.items()), encoding="utf-8")
    back, _ = read_dataset(dataset)
    _assert_bundles_equal(back, PINNED_BUNDLES)
    _assert_checkpoint_is_pinned(checkpoint)


# ---------------------------------------------------------------- fuzz

def test_corrupted_files_raise_data_error_and_nothing_else(tmp_path):
    """Byte flips and truncations of every file of a dataset and a checkpoint.

    A changed blob must be rejected; a changed manifest must be rejected
    or load (an image id or a looser maximum may change); no exception
    but DataError may escape.
    """
    rng = np.random.default_rng(20240611)
    dataset, checkpoint = _write_pinned(tmp_path)
    loaded = 0
    for directory, load in ((dataset, read_dataset), (checkpoint, load_checkpoint)):
        for name in sorted(os.listdir(directory)):
            path = directory / name
            original = path.read_bytes()
            for _ in range(300):
                data = bytearray(original)
                if rng.random() < 0.25:
                    cut = int(rng.integers(len(data)))
                    mutation = f"truncated to {cut} bytes"
                    del data[cut:]
                else:
                    at, mask = int(rng.integers(len(data))), int(rng.integers(1, 256))
                    mutation = f"byte {at} ^= {mask:#04x}"
                    data[at] ^= mask
                path.write_bytes(bytes(data))
                try:
                    load(directory)
                except DataError:
                    continue
                except Exception as err:  # anything but DataError fails: name the mutation
                    pytest.fail(f"{path} {mutation}: {type(err).__name__}: {err}")
                assert name == "manifest", f"{path} {mutation} loaded"
                loaded += 1
            path.write_bytes(original)
    assert 0 < loaded < 300
    back, _ = read_dataset(dataset)
    _assert_bundles_equal(back, PINNED_BUNDLES)
    _assert_checkpoint_is_pinned(checkpoint)
