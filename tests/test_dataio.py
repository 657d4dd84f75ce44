"""Dataset writing, reading, validation, and synthetic generation."""

import hashlib
import os

import numpy as np
import pytest

from itmatch.dataio import (
    FeatureBundle,
    gen_synthetic,
    read_dataset,
    write_dataset,
)
from itmatch.errors import ConfigError, DataError


def _random_bundles(rng, n, k=3, d_raw=5, vocab=20, max_caps=3, max_len=6):
    bundles = []
    for i in range(n):
        captions = [
            [int(t) for t in rng.integers(0, vocab, size=rng.integers(1, max_len + 1))]
            for _ in range(rng.integers(1, max_caps + 1))
        ]
        regions = rng.normal(size=(k, d_raw)).astype("<f4").astype(np.float64)
        bundles.append(FeatureBundle(image_id=f"img-{i}", regions=regions, captions=captions))
    return bundles


def _assert_bundles_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.image_id == y.image_id
        np.testing.assert_array_equal(x.regions, y.regions)
        assert x.captions == y.captions


def test_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    bundles = _random_bundles(rng, 20)
    out = tmp_path / "ds"
    written = write_dataset(bundles, out, vocab_size=20, name="toy", split="train")
    back, manifest = read_dataset(out)
    _assert_bundles_equal(bundles, back)
    assert manifest.checksums == written.checksums
    assert manifest.n_images == 20
    assert manifest.vocab_size == 20
    assert manifest.split == "train"


def test_round_trip_synthetic(tmp_path):
    bundles = gen_synthetic(8, k=4, d_raw=16, caption_len=5, vocab_size=50,
                            seed=3, signal_strength=0.7, captions_per_image=2)
    out = tmp_path / "ds"
    write_dataset(bundles, out, vocab_size=50, name="syn", split="val")
    back, manifest = read_dataset(out)
    _assert_bundles_equal(bundles, back)
    assert manifest.n_captions == 16
    assert manifest.max_caption_len == 5


def test_empty_dataset_round_trips(tmp_path):
    out = tmp_path / "empty"
    write_dataset([], out, vocab_size=10, name="none", split="test")
    back, manifest = read_dataset(out)
    assert back == []
    assert manifest.n_images == 0
    assert manifest.k == 0
    assert manifest.d_raw == 0


def test_write_is_deterministic(tmp_path):
    bundles = gen_synthetic(5, k=2, d_raw=4, caption_len=3, vocab_size=16,
                            seed=9, signal_strength=0.5)
    a, b = tmp_path / "a", tmp_path / "b"
    write_dataset(bundles, a, vocab_size=16, name="d", split="train")
    write_dataset(bundles, b, vocab_size=16, name="d", split="train")
    for name in os.listdir(a):
        with open(a / name, "rb") as fa, open(b / name, "rb") as fb:
            assert fa.read() == fb.read(), name


def test_gen_synthetic_same_seed_same_data():
    a = gen_synthetic(4, 2, 4, 3, 16, seed=1, signal_strength=0.5)
    b = gen_synthetic(4, 2, 4, 3, 16, seed=1, signal_strength=0.5)
    _assert_bundles_equal(a, b)
    c = gen_synthetic(4, 2, 4, 3, 16, seed=2, signal_strength=0.5)
    assert any(
        not np.array_equal(x.regions, y.regions) for x, y in zip(a, c)
    )


def test_gen_synthetic_regions_live_on_float32_grid():
    bundles = gen_synthetic(3, 2, 4, 3, 16, seed=5, signal_strength=0.3)
    for b in bundles:
        np.testing.assert_array_equal(
            b.regions, b.regions.astype("<f4").astype(np.float64)
        )


def test_gen_synthetic_validation():
    with pytest.raises(ConfigError):
        gen_synthetic(0, 2, 4, 3, 16, seed=0, signal_strength=0.5)
    with pytest.raises(ConfigError):
        gen_synthetic(2, 0, 4, 3, 16, seed=0, signal_strength=0.5)
    with pytest.raises(ConfigError):
        gen_synthetic(2, 2, 4, 3, 1, seed=0, signal_strength=0.5)
    with pytest.raises(ConfigError):
        gen_synthetic(2, 2, 4, 3, 16, seed=0, signal_strength=1.5)


def test_signal_zero_decouples_the_modalities():
    bundles = gen_synthetic(1000, 2, 8, 4, 64, seed=12, signal_strength=0.0)
    region_means = np.array([b.regions.mean() for b in bundles])
    token_means = np.array([np.mean(b.captions[0]) for b in bundles])
    assert abs(np.corrcoef(region_means, token_means)[0, 1]) < 0.05


def test_signal_one_makes_captions_deterministic():
    bundles = gen_synthetic(3, 2, 8, 4, 64, seed=0, signal_strength=1.0,
                            captions_per_image=3)
    for b in bundles:
        assert b.captions[0] == b.captions[1] == b.captions[2]


def test_token_ids_respect_vocab():
    bundles = gen_synthetic(50, 2, 4, 6, 7, seed=4, signal_strength=0.5)
    for b in bundles:
        for caption in b.captions:
            assert all(0 <= t < 7 for t in caption)


# --- corruption and validation ----------------------------------------------------


def _write_sample(tmp_path):
    bundles = gen_synthetic(4, 2, 4, 3, 16, seed=7, signal_strength=0.5)
    out = tmp_path / "ds"
    write_dataset(bundles, out, vocab_size=16, name="c", split="train")
    return out


def test_corrupt_regions_blob_fails_checksum(tmp_path):
    out = _write_sample(tmp_path)
    path = out / "regions.bin"
    blob = bytearray(path.read_bytes())
    blob[3] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="checksum"):
        read_dataset(out)


def test_truncated_tokens_blob_is_rejected(tmp_path):
    out = _write_sample(tmp_path)
    path = out / "tokens.bin"
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(DataError):
        read_dataset(out)


def test_missing_manifest_is_a_data_error(tmp_path):
    out = _write_sample(tmp_path)
    os.remove(out / "manifest")
    with pytest.raises((DataError, OSError)):
        read_dataset(out)


def _edit_manifest(out, transform):
    path = os.path.join(out, "manifest")
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(transform(lines))


def test_wrong_format_version_is_rejected(tmp_path):
    out = _write_sample(tmp_path)
    _edit_manifest(
        out,
        lambda lines: [
            "version: 999\n" if line.startswith("version:") else line for line in lines
        ],
    )
    with pytest.raises(DataError, match="version"):
        read_dataset(out)


def test_bad_split_is_rejected(tmp_path):
    out = _write_sample(tmp_path)
    _edit_manifest(
        out,
        lambda lines: [
            "split: production\n" if line.startswith("split:") else line for line in lines
        ],
    )
    with pytest.raises(DataError):
        read_dataset(out)


def test_missing_field_is_rejected(tmp_path):
    out = _write_sample(tmp_path)
    _edit_manifest(
        out, lambda lines: [line for line in lines if not line.startswith("n_captions:")]
    )
    with pytest.raises(DataError):
        read_dataset(out)


def test_out_of_vocab_token_on_disk_is_rejected(tmp_path):
    out = _write_sample(tmp_path)
    path = out / "tokens.bin"
    tokens = np.frombuffer(path.read_bytes(), dtype="<u4").copy()
    tokens[0] = 60000
    blob = tokens.tobytes()
    path.write_bytes(blob)
    digest = hashlib.sha256(blob).hexdigest()
    _edit_manifest(
        out,
        lambda lines: [
            f"checksum_tokens: {digest}\n" if line.startswith("checksum_tokens:") else line
            for line in lines
        ],
    )
    with pytest.raises(DataError, match="token"):
        read_dataset(out)


def test_write_rejects_out_of_vocab_bundles(tmp_path):
    bundles = [FeatureBundle(image_id="a", regions=np.zeros((2, 3)), captions=[[5]])]
    with pytest.raises(DataError):
        write_dataset(bundles, tmp_path / "bad", vocab_size=5, name="x", split="train")


def test_write_rejects_ragged_regions(tmp_path):
    bundles = [
        FeatureBundle(image_id="a", regions=np.zeros((2, 3)), captions=[[0]]),
        FeatureBundle(image_id="b", regions=np.zeros((3, 3)), captions=[[0]]),
    ]
    with pytest.raises(DataError):
        write_dataset(bundles, tmp_path / "bad", vocab_size=5, name="x", split="train")


def test_write_rejects_captionless_images(tmp_path):
    bundles = [FeatureBundle(image_id="a", regions=np.zeros((2, 3)), captions=[])]
    with pytest.raises(DataError):
        write_dataset(bundles, tmp_path / "bad", vocab_size=5, name="x", split="train")


def test_write_rejects_non_finite_regions(tmp_path):
    for value in (float("nan"), float("inf"), 1e200):  # 1e200 would be written as inf
        regions = np.zeros((2, 3))
        regions[1, 2] = value
        bundles = [
            FeatureBundle(image_id="a", regions=np.zeros((2, 3)), captions=[[0]]),
            FeatureBundle(image_id="b", regions=regions, captions=[[0]]),
        ]
        with pytest.raises(DataError, match="'b'"):
            write_dataset(bundles, tmp_path / "bad", vocab_size=5, name="x", split="train")


def test_nan_region_on_disk_is_rejected(tmp_path):
    out = _write_sample(tmp_path)
    path = out / "regions.bin"
    regions = np.frombuffer(path.read_bytes(), dtype="<f4").copy()
    regions[2 * 2 * 4 + 5] = np.nan  # image 2 of (4, k=2, d_raw=4)
    blob = regions.tobytes()
    path.write_bytes(blob)
    digest = hashlib.sha256(blob).hexdigest()
    _edit_manifest(
        out,
        lambda lines: [
            f"checksum_regions: {digest}\n" if line.startswith("checksum_regions:") else line
            for line in lines
        ],
    )
    with pytest.raises(DataError, match="'syn-7-2' \\(index 2\\): region features are not finite"):
        read_dataset(out)
