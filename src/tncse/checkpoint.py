"""Checkpoint serialization.

An encoder checkpoint is a text manifest (``<prefix>.manifest``) leading
with the magic string "TNCSE1", followed by format-version, the blob's
SHA-256, config fields, and a tensor directory (name, shape, byte offset),
plus a binary blob (``<prefix>.bin``) of little-endian float32 values,
row-major, in manifest order.  Saving writes the blob first and the manifest
last, each through ``data.write_file``, so the manifest commits the
checkpoint.  Ensemble manifests list member checkpoint prefixes.  Either
kind is named by its prefix or by ``<prefix>.manifest``.  Loading reads
through ``data.read_file`` and checks every line, the tensor set and shapes
against the config, the exact blob length and the blob's SHA-256; an
unreadable file or any mismatch is a CheckpointError.
"""

from __future__ import annotations

import hashlib
import math
import os
import typing

import numpy as np

from .autodiff import Tensor
from .data import read_file, write_file
from .encoder import Encoder, EncoderConfig, _param_shapes
from .errors import CheckpointError

MAGIC = "TNCSE1"
ENSEMBLE_KIND = "kind ensemble"
FORMAT_VERSION = 3

# field -> type in EncoderConfig's declaration order, which the manifest keeps
_CONFIG_FIELDS = typing.get_type_hints(EncoderConfig)
_HEADER_FIELDS = {"format-version": str, "seed": int, "name": str, "vocab-hash": str,
                  "blob-sha256": str}


def save_encoder(enc: Encoder, prefix: str):
    """Write ``<prefix>.bin``, then ``<prefix>.manifest``."""
    if enc.name.split() != [enc.name]:  # the manifest's name line holds one word
        raise CheckpointError(f"encoder name {enc.name!r} is not one word without whitespace")
    tensor_lines, blobs, offset = [], [], 0
    for name in sorted(enc.params):
        arr = np.ascontiguousarray(enc.params[name].data, dtype="<f4")
        shape = " ".join(str(s) for s in arr.shape)
        tensor_lines.append(f"tensor {name} {len(arr.shape)} {shape} {offset}")
        blobs.append(arr.tobytes())
        offset += arr.nbytes
    blob = b"".join(blobs)
    lines = [MAGIC, f"format-version {FORMAT_VERSION}", f"seed {enc.seed}",
             f"name {enc.name}", f"vocab-hash {enc.vocab_hash or '-'}",
             f"blob-sha256 {hashlib.sha256(blob).hexdigest()}"]
    lines += [f"config {field} {getattr(enc.config, field)}" for field in _CONFIG_FIELDS]
    write_file(prefix + ".bin", blob)
    write_file(prefix + ".manifest", "\n".join(lines + tensor_lines) + "\n")


def _read_manifest(name):
    """``(prefix, path, lines)`` of the manifest a prefix or ``.manifest`` path names."""
    prefix = name.removesuffix(".manifest")
    path = prefix + ".manifest"
    lines = read_file(path, CheckpointError).splitlines()
    if not lines or lines[0] != MAGIC:
        raise CheckpointError(f"{path}: bad magic "
                              f"(expected {MAGIC!r}, got {lines[0] if lines else ''!r})")
    return prefix, path, lines


def _parse_manifest_line(line, header, config_kv, tensors):
    """File one manifest line; ValueError if it does not parse."""
    parts = line.split()
    if not parts:
        return
    kind = parts[0]
    if kind == "config" and len(parts) == 3 and parts[1] in _CONFIG_FIELDS:
        config_kv[parts[1]] = _CONFIG_FIELDS[parts[1]](parts[2])
    elif kind == "tensor" and len(parts) >= 4 and len(parts) == 4 + int(parts[2]):
        tensors[parts[1]] = (tuple(int(s) for s in parts[3:-1]), int(parts[-1]))
    elif kind in _HEADER_FIELDS and len(parts) == 2:
        header[kind] = _HEADER_FIELDS[kind](parts[1])
    else:
        raise ValueError("unknown line")


def load_encoder(path: str) -> Encoder:
    """The encoder checkpoint named by its prefix or its ``.manifest`` path."""
    prefix, manifest_path, lines = _read_manifest(path)
    if lines[1:2] == [ENSEMBLE_KIND]:
        raise CheckpointError(f"{manifest_path}: an ensemble manifest, not one encoder")
    header, config_kv, tensors = {}, {}, {}
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            _parse_manifest_line(line, header, config_kv, tensors)
        except ValueError as exc:
            raise CheckpointError(f"{manifest_path}:{lineno}: cannot parse "
                                  f"{line!r} ({exc})") from None
        # checked once read, so an older manifest's other lines cannot mask it
        if header.get("format-version", str(FORMAT_VERSION)) != str(FORMAT_VERSION):
            raise CheckpointError(f"{manifest_path}: unsupported format-version "
                                  f"{header['format-version']!r}")
    missing = [k for k in _HEADER_FIELDS if k not in header]
    missing += [f"config {k}" for k in _CONFIG_FIELDS if k not in config_kv]
    if missing:
        raise CheckpointError(f"{manifest_path}: no {missing[0]} line")
    if header["seed"] < 0:  # would load, then fail once training draws dropout masks
        raise CheckpointError(f"{manifest_path}: seed {header['seed']} must be >= 0")
    try:
        config = EncoderConfig(**config_kv)
    except ValueError as exc:
        raise CheckpointError(f"{manifest_path}: bad config: {exc}") from None
    expected = _param_shapes(config)
    bad = sorted(name for name in expected.keys() | tensors.keys()
                 if name not in tensors or tensors[name][0] != expected.get(name))
    if bad:
        raise CheckpointError(f"{manifest_path}: tensor {bad[0]} does not match the config")

    blob_path = prefix + ".bin"
    raw = read_file(blob_path, CheckpointError, binary=True)
    blob = np.frombuffer(raw, dtype="<f4", count=len(raw) // 4)
    params, start = {}, 0
    for name, (shape, offset) in tensors.items():
        n = math.prod(shape)
        if offset != 4 * start:
            raise CheckpointError(f"{manifest_path}: tensor {name} at byte {offset}, "
                                  f"expected {4 * start}")
        if start + n > blob.size:
            raise CheckpointError(f"{blob_path}: tensor {name} overruns blob")
        params[name] = Tensor(blob[start:start + n].reshape(shape).astype(np.float32),
                              requires_grad=True)
        start += n
    trailing = len(raw) - 4 * start
    if trailing:
        raise CheckpointError(f"{blob_path}: {trailing} bytes after the last tensor")
    if hashlib.sha256(raw).hexdigest() != header["blob-sha256"]:
        raise CheckpointError(f"{blob_path}: contents do not match the blob-sha256 "
                              f"of {manifest_path}")
    vocab_hash = header["vocab-hash"]
    return Encoder(config, header["seed"], header["name"],
                   None if vocab_hash == "-" else vocab_hash, params)


def checkpoint_hash(prefix: str) -> str:
    """SHA-256 over manifest + blob bytes of the checkpoint a prefix or
    ``.manifest`` path names: a fingerprint for comparing runs.  Loading
    checks the blob against the manifest's ``blob-sha256`` line, not against
    this hash."""
    prefix = prefix.removesuffix(".manifest")
    h = hashlib.sha256()
    for suffix in (".manifest", ".bin"):
        h.update(read_file(prefix + suffix, CheckpointError, binary=True))
    return h.hexdigest()


def save_ensemble_manifest(member_prefixes, path):
    lines = [MAGIC, ENSEMBLE_KIND] + [f"member {p}" for p in member_prefixes]
    write_file(path, "\n".join(lines) + "\n")


def model_members(path: str) -> list:
    """Member checkpoint prefixes of the model ``path`` names: ``[prefix]`` for an
    encoder, else the ensemble's members, resolved against its directory."""
    prefix, manifest_path, lines = _read_manifest(path)
    if lines[1:2] != [ENSEMBLE_KIND]:
        return [prefix]
    base = os.path.dirname(os.path.abspath(manifest_path))
    members = []
    for lineno, line in enumerate(lines[2:], start=3):
        parts = line.split(None, 1)
        if parts[:1] == ["member"] and len(parts) == 2:
            members.append(os.path.join(base, parts[1]))  # an absolute one stays
        elif parts:
            raise CheckpointError(f"{manifest_path}:{lineno}: cannot parse {line!r}")
    if not members:
        raise CheckpointError(f"{manifest_path}: ensemble manifest lists no members")
    return members
