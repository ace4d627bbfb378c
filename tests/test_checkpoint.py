"""Checkpoint format: roundtrip fidelity, corruption detection, hashing,
and ensemble manifests."""

from pathlib import Path

import numpy as np
import pytest

from tncse.checkpoint import (checkpoint_hash, load_encoder,
                              load_ensemble_manifest, save_encoder,
                              save_ensemble_manifest)
from tncse.errors import CheckpointError


def test_roundtrip_preserves_everything(small_encoder, tmp_path):
    prefix = str(tmp_path / "enc")
    save_encoder(small_encoder, prefix)
    loaded = load_encoder(prefix)
    assert loaded.config == small_encoder.config
    assert loaded.seed == small_encoder.seed
    assert loaded.name == small_encoder.name
    assert loaded.vocab_hash == small_encoder.vocab_hash
    assert set(loaded.params) == set(small_encoder.params)
    for k in small_encoder.params:
        np.testing.assert_array_equal(loaded.params[k].data,
                                      small_encoder.params[k].data)


def test_manifest_is_text_with_magic_header(small_encoder, tmp_path):
    prefix = str(tmp_path / "enc")
    save_encoder(small_encoder, prefix)
    lines = Path(prefix + ".manifest").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "TNCSE1"
    assert any(line.startswith("format-version ") for line in lines)
    assert any(line.startswith("tensor ") for line in lines)


def test_blob_is_little_endian_float32(small_encoder, tmp_path):
    prefix = str(tmp_path / "enc")
    save_encoder(small_encoder, prefix)
    n_params = sum(p.data.size for p in small_encoder.parameters())
    blob = np.fromfile(prefix + ".bin", dtype="<f4")
    assert blob.size == n_params


def test_load_rejects_missing_manifest(tmp_path):
    with pytest.raises(CheckpointError, match="no manifest"):
        load_encoder(str(tmp_path / "nowhere"))


def test_load_rejects_bad_magic(small_encoder, tmp_path):
    prefix = str(tmp_path / "enc")
    save_encoder(small_encoder, prefix)
    manifest = Path(prefix + ".manifest")
    text = manifest.read_text(encoding="utf-8")
    manifest.write_text("NOTME" + text[6:], encoding="utf-8")
    with pytest.raises(CheckpointError, match="magic"):
        load_encoder(prefix)


def test_load_rejects_unsupported_version(small_encoder, tmp_path):
    prefix = str(tmp_path / "enc")
    save_encoder(small_encoder, prefix)
    manifest = Path(prefix + ".manifest")
    text = manifest.read_text(encoding="utf-8")
    manifest.write_text(text.replace("format-version 1", "format-version 99"),
                        encoding="utf-8")
    with pytest.raises(CheckpointError, match="format-version"):
        load_encoder(prefix)


def test_load_rejects_truncated_blob(small_encoder, tmp_path):
    prefix = str(tmp_path / "enc")
    save_encoder(small_encoder, prefix)
    blob = Path(prefix + ".bin")
    blob.write_bytes(blob.read_bytes()[: blob.stat().st_size // 2])
    with pytest.raises(CheckpointError, match="overruns"):
        load_encoder(prefix)


def test_load_rejects_missing_blob(small_encoder, tmp_path):
    prefix = str(tmp_path / "enc")
    save_encoder(small_encoder, prefix)
    (tmp_path / "enc.bin").unlink()
    with pytest.raises(CheckpointError, match="blob"):
        load_encoder(prefix)


def test_checkpoint_hash_is_stable_and_tamper_sensitive(small_encoder, tmp_path):
    prefix = str(tmp_path / "enc")
    save_encoder(small_encoder, prefix)
    h1 = checkpoint_hash(prefix)
    assert h1 == checkpoint_hash(prefix)
    blob = bytearray(Path(prefix + ".bin").read_bytes())
    blob[0] ^= 0xFF
    Path(prefix + ".bin").write_bytes(bytes(blob))
    assert checkpoint_hash(prefix) != h1


def test_save_is_deterministic(small_encoder, tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    save_encoder(small_encoder, a)
    save_encoder(small_encoder, b)
    assert Path(a + ".bin").read_bytes() == Path(b + ".bin").read_bytes()
    assert Path(a + ".manifest").read_text() == Path(b + ".manifest").read_text()


def test_ensemble_manifest_roundtrip_resolves_relative_members(tmp_path):
    path = str(tmp_path / "ens.manifest")
    save_ensemble_manifest(["encoder_I", "encoder_II"], path)
    members = load_ensemble_manifest(path)
    assert members == [str(tmp_path / "encoder_I"), str(tmp_path / "encoder_II")]


def test_ensemble_manifest_keeps_absolute_members(tmp_path):
    path = str(tmp_path / "ens.manifest")
    save_ensemble_manifest(["/abs/enc"], path)
    assert load_ensemble_manifest(path) == ["/abs/enc"]


def test_ensemble_manifest_rejects_empty_and_bad_magic(tmp_path):
    path = tmp_path / "bad.manifest"
    path.write_text("TNCSE1\nkind ensemble\n")
    with pytest.raises(CheckpointError, match="no members"):
        load_ensemble_manifest(str(path))
    path.write_text("WRONG\nmember x\n")
    with pytest.raises(CheckpointError, match="magic"):
        load_ensemble_manifest(str(path))
    with pytest.raises(CheckpointError, match="no ensemble manifest"):
        load_ensemble_manifest(str(tmp_path / "missing.manifest"))
