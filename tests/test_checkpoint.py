"""Checkpoint format: roundtrip fidelity, corruption detection, hashing,
and ensemble manifests."""

import hashlib
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tncse.checkpoint import (FORMAT_VERSION, checkpoint_hash, load_encoder,
                              model_members, save_encoder, save_ensemble_manifest)
from tncse.encoder import Encoder, EncoderConfig
from tncse.errors import CheckpointError, ConfigError


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


@pytest.mark.parametrize("name", ["my enc", "", "a\u2028b"])
def test_a_name_the_manifest_cannot_hold_is_refused_before_writing(small_config, name,
                                                                   tmp_path):
    """The manifest's name line holds one whitespace-free word; any other
    name would save a checkpoint that does not load."""
    enc = Encoder(small_config, 1, name=name)
    with pytest.raises(CheckpointError, match="not one word") as exc:
        save_encoder(enc, str(tmp_path / "sub" / "enc"))
    assert "\n" not in str(exc.value)
    assert list(tmp_path.iterdir()) == []


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
    path = re.escape(str(tmp_path / "nowhere.manifest"))
    with pytest.raises(CheckpointError, match=f"^cannot read {path}: No such file"):
        load_encoder(str(tmp_path / "nowhere"))


def test_load_rejects_bad_magic(small_encoder, tmp_path):
    prefix = str(tmp_path / "enc")
    save_encoder(small_encoder, prefix)
    manifest = Path(prefix + ".manifest")
    text = manifest.read_text(encoding="utf-8")
    manifest.write_text("NOTME" + text[6:], encoding="utf-8")
    with pytest.raises(CheckpointError, match="magic"):
        load_encoder(prefix)


@pytest.mark.parametrize("version", ["1", "99"])
def test_load_rejects_unsupported_version(small_encoder, tmp_path, version):
    prefix = str(tmp_path / "enc")
    save_encoder(small_encoder, prefix)
    manifest = Path(prefix + ".manifest")
    text = manifest.read_text(encoding="utf-8")
    manifest.write_text(text.replace(f"format-version {FORMAT_VERSION}",
                                     f"format-version {version}"),
                        encoding="utf-8")
    with pytest.raises(CheckpointError, match="format-version"):
        load_encoder(prefix)


def as_format_version_2(prefix):
    """Rewrite a saved manifest as format-version 2 wrote it: that version
    also carried the strip count, as ``config layernorms_stripped 0`` after
    ``config dropout_p``, over the same blob."""
    manifest = Path(prefix + ".manifest")
    lines = manifest.read_text(encoding="utf-8").splitlines()
    lines[1] = "format-version 2"
    at = next(i for i, line in enumerate(lines) if line.startswith("config dropout_p "))
    lines.insert(at + 1, "config layernorms_stripped 0")
    manifest.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


def test_load_rejects_a_format_version_2_manifest(small_encoder, tmp_path):
    prefix = str(tmp_path / "enc")
    save_encoder(small_encoder, prefix)
    as_format_version_2(prefix)
    with pytest.raises(CheckpointError) as err:
        load_encoder(prefix)
    assert str(err.value) == f"{prefix}.manifest: unsupported format-version '2'"


def test_load_rejects_truncated_blob(small_encoder, tmp_path):
    prefix = str(tmp_path / "enc")
    save_encoder(small_encoder, prefix)
    blob = Path(prefix + ".bin")
    blob.write_bytes(blob.read_bytes()[: blob.stat().st_size // 2])
    with pytest.raises(CheckpointError, match="overruns"):
        load_encoder(prefix)


def test_load_rejects_trailing_blob_bytes(small_encoder, tmp_path):
    prefix = str(tmp_path / "enc")
    save_encoder(small_encoder, prefix)
    blob = Path(prefix + ".bin")
    blob.write_bytes(blob.read_bytes() + bytes(4))
    with pytest.raises(CheckpointError, match="4 bytes after the last tensor"):
        load_encoder(prefix)


TINY = EncoderConfig(vocab_size=12, max_seq_len=6, hidden_dim=8, num_layers=1,
                     num_heads=2, ffn_dim=12)
# magic, 5 header lines, 7 config lines and 20 tensor lines
TINY_MANIFEST_LINES = 33
MUTATIONS = {
    "delete": lambda line: None,
    "halve": lambda line: line[: len(line) // 2],
    "drop-last-field": lambda line: line.rpartition(" ")[0],
    "last-field-not-a-number": lambda line: line.rpartition(" ")[0] + " x",
}


@pytest.mark.parametrize("lineno", range(TINY_MANIFEST_LINES))
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_single_line_manifest_mutation_fails_cleanly_or_loads(tmp_path, mutation,
                                                             lineno):
    """Every one-line change to a manifest is a CheckpointError, or else the
    checkpoint loads into an encoder that runs."""
    enc = Encoder(TINY, seed=3, name="I", vocab_hash="0badcafe")
    prefix = str(tmp_path / "enc")
    save_encoder(enc, prefix)
    manifest = Path(prefix + ".manifest")
    lines = manifest.read_text(encoding="utf-8").splitlines()
    assert len(lines) == TINY_MANIFEST_LINES
    new = MUTATIONS[mutation](lines[lineno])
    lines[lineno:lineno + 1] = [] if new is None else [new]
    manifest.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    try:
        loaded = load_encoder(prefix)
    except CheckpointError:
        return
    assert set(loaded.params) == set(enc.params)
    loaded.encode(np.array([[1, 5, 7, 2, 0, 0]]))


@pytest.mark.parametrize("line, bad, match", [
    ("config num_layers 1", "config num_layers 0", "num_layers"),
    # LayerNorm needs two features
    ("config hidden_dim 8", "config hidden_dim 1", "need hidden_dim >= 2"),
    # no token fits between [CLS] and [SEP]
    ("config max_seq_len 6", "config max_seq_len 2", "max_seq_len must be >= 3"),
])
def test_manifest_with_a_bad_config_value_is_a_checkpoint_error(tmp_path, line, bad,
                                                                match):
    prefix = str(tmp_path / "enc")
    save_encoder(Encoder(TINY, seed=3, name="I"), prefix)
    manifest = Path(prefix + ".manifest")
    text = manifest.read_text(encoding="utf-8")
    assert line + "\n" in text
    manifest.write_text(text.replace(line + "\n", bad + "\n"), encoding="utf-8")
    with pytest.raises(CheckpointError, match=f"bad config: {match}"):
        load_encoder(prefix)


def test_load_rejects_missing_blob(small_encoder, tmp_path):
    prefix = str(tmp_path / "enc")
    save_encoder(small_encoder, prefix)
    (tmp_path / "enc.bin").unlink()
    with pytest.raises(CheckpointError, match="blob"):
        load_encoder(prefix)


def test_stale_blob_of_the_right_length_is_rejected(tmp_path):
    """A save killed after the manifest but before the blob leaves a new
    manifest beside an old blob of the same length."""
    prefix = str(tmp_path / "enc")
    save_encoder(Encoder(TINY, seed=3, name="I"), prefix)
    old_blob = Path(prefix + ".bin").read_bytes()
    save_encoder(Encoder(TINY, seed=4, name="I"), prefix)
    Path(prefix + ".bin").write_bytes(old_blob)
    with pytest.raises(CheckpointError, match=r"enc\.bin.*blob-sha256"):
        load_encoder(prefix)


def test_interrupted_save_never_loads_stale_weights(tmp_path, monkeypatch):
    """The blob is replaced before the manifest; a save that dies between
    the two leaves a pair that fails to load."""
    prefix = str(tmp_path / "enc")
    save_encoder(Encoder(TINY, seed=3, name="I"), prefix)
    replaced = []

    def replace_then_die(src, dst):
        if replaced:
            raise OSError("killed")
        replaced.append(dst)
        os.rename(src, dst)

    monkeypatch.setattr(os, "replace", replace_then_die)
    with pytest.raises(ConfigError, match="killed"):
        save_encoder(Encoder(TINY, seed=4, name="I"), prefix)
    monkeypatch.undo()
    assert replaced == [prefix + ".bin"]
    assert not list(tmp_path.glob("*.tmp"))
    with pytest.raises(CheckpointError, match="blob-sha256"):
        load_encoder(prefix)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    prefix = str(tmp_path_factory.mktemp("tiny") / "enc")
    save_encoder(Encoder(TINY, seed=3, name="I"), prefix)
    return prefix, Path(prefix + ".bin").read_bytes()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_any_flipped_blob_byte_is_a_checkpoint_error(tiny_checkpoint, data):
    prefix, blob = tiny_checkpoint
    flips = data.draw(st.dictionaries(st.integers(0, len(blob) - 1),
                                      st.integers(1, 255), min_size=1, max_size=8))
    mutated = bytearray(blob)
    for pos, mask in flips.items():
        mutated[pos] ^= mask
    Path(prefix + ".bin").write_bytes(bytes(mutated))
    try:
        with pytest.raises(CheckpointError, match="blob-sha256"):
            load_encoder(prefix)
    finally:
        Path(prefix + ".bin").write_bytes(blob)


def test_checkpoint_hash_is_stable_and_tamper_sensitive(small_encoder, tmp_path):
    prefix = str(tmp_path / "enc")
    save_encoder(small_encoder, prefix)
    h1 = checkpoint_hash(prefix)
    assert h1 == checkpoint_hash(prefix)
    blob = bytearray(Path(prefix + ".bin").read_bytes())
    blob[0] ^= 0xFF
    Path(prefix + ".bin").write_bytes(bytes(blob))
    assert checkpoint_hash(prefix) != h1


def test_checkpoint_hash_takes_a_prefix_or_a_manifest_path(small_encoder, tmp_path):
    prefix = str(tmp_path / "enc")
    save_encoder(small_encoder, prefix)
    expected = hashlib.sha256(Path(prefix + ".manifest").read_bytes()
                              + Path(prefix + ".bin").read_bytes()).hexdigest()
    assert checkpoint_hash(prefix) == expected
    assert checkpoint_hash(prefix + ".manifest") == expected


@pytest.mark.parametrize("name", ["enc", "enc.manifest"])
@pytest.mark.parametrize("missing", [".bin", ".manifest"])
def test_checkpoint_hash_names_a_missing_file(small_encoder, tmp_path, name, missing):
    save_encoder(small_encoder, str(tmp_path / "enc"))
    (tmp_path / ("enc" + missing)).unlink()
    path = re.escape(str(tmp_path / ("enc" + missing)))
    with pytest.raises(CheckpointError,
                       match=f"^cannot read {path}: No such file or directory$"):
        checkpoint_hash(str(tmp_path / name))


def test_save_is_deterministic(small_encoder, tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    save_encoder(small_encoder, a)
    save_encoder(small_encoder, b)
    assert Path(a + ".bin").read_bytes() == Path(b + ".bin").read_bytes()
    assert Path(a + ".manifest").read_text() == Path(b + ".manifest").read_text()


def test_ensemble_manifest_roundtrip_resolves_relative_members(tmp_path):
    path = str(tmp_path / "ens.manifest")
    save_ensemble_manifest(["encoder_I", "encoder_II"], path)
    assert Path(path).read_bytes() == (b"TNCSE1\nkind ensemble\n"
                                       b"member encoder_I\nmember encoder_II\n")
    members = model_members(path)
    assert members == [str(tmp_path / "encoder_I"), str(tmp_path / "encoder_II")]


def test_interrupted_ensemble_manifest_save_keeps_the_old_one(tmp_path, monkeypatch):
    path = str(tmp_path / "ens.manifest")
    save_ensemble_manifest(["encoder_I", "encoder_II"], path)
    before = Path(path).read_bytes()

    def die(src, dst):
        raise OSError("killed")

    monkeypatch.setattr(os, "replace", die)
    with pytest.raises(ConfigError, match="killed"):
        save_ensemble_manifest(["other_I", "other_II", "other_III"], path)
    monkeypatch.undo()
    assert Path(path).read_bytes() == before
    assert model_members(path) == [str(tmp_path / "encoder_I"),
                                            str(tmp_path / "encoder_II")]


def test_ensemble_manifest_keeps_absolute_members(tmp_path):
    path = str(tmp_path / "ens.manifest")
    save_ensemble_manifest(["/abs/enc"], path)
    assert model_members(path) == ["/abs/enc"]


def test_ensemble_manifest_rejects_empty_and_bad_magic(tmp_path):
    path = tmp_path / "bad.manifest"
    path.write_text("TNCSE1\nkind ensemble\n")
    with pytest.raises(CheckpointError, match="no members"):
        model_members(str(path))
    path.write_text("TNCSE1\nkind ensemble\nmember\n")
    with pytest.raises(CheckpointError, match=":3:"):
        model_members(str(path))
    path.write_text("WRONG\nmember x\n")
    with pytest.raises(CheckpointError, match="magic"):
        model_members(str(path))
    missing = re.escape(str(tmp_path / "missing.manifest"))
    with pytest.raises(CheckpointError,
                       match=f"^cannot read {missing}: No such file or directory$"):
        model_members(str(tmp_path / "missing.manifest"))


def test_a_checkpoint_is_named_by_its_prefix_or_its_manifest_path(small_encoder,
                                                                  tmp_path):
    prefix = str(tmp_path / "enc")
    save_encoder(small_encoder, prefix)
    for spelling in (prefix, prefix + ".manifest"):
        assert model_members(spelling) == [prefix]
        loaded = load_encoder(spelling)
        for k in small_encoder.params:
            np.testing.assert_array_equal(loaded.params[k].data,
                                          small_encoder.params[k].data)
    ensemble = str(tmp_path / "ens")
    save_ensemble_manifest(["enc"], ensemble + ".manifest")
    for spelling in (ensemble, ensemble + ".manifest"):
        assert model_members(spelling) == [prefix]


def test_load_encoder_refuses_an_ensemble_manifest(tmp_path):
    path = str(tmp_path / "ens.manifest")
    save_ensemble_manifest(["encoder_I", "encoder_II"], path)
    for spelling in (path, path.removesuffix(".manifest")):
        with pytest.raises(CheckpointError) as info:
            load_encoder(spelling)
        assert str(info.value) == f"{path}: an ensemble manifest, not one encoder"
