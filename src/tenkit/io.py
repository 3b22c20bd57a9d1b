"""File formats: the TNSR binary tensor container and factorized-model
manifest directories.

TNSR layout (little-endian throughout):

====================  ========================================
bytes 0-3             ASCII magic ``TNSR``
bytes 4-5             format version, uint16 (currently 1)
bytes 6-7             reserved, must be zero
bytes 8-15            order N, uint64
next 8*N bytes        mode sizes, uint64 each
remainder             prod(shape) IEEE-754 binary64 values,
                      row-major
====================  ========================================

No compression, no alignment padding.

A factorized model is stored as a directory containing
``manifest.json`` plus one TNSR file per factor/core. The manifest
carries the format name, mode sizes, ranks, weights (when the format
has them) and the file names; see the README for the schema. Manifests
are written with sorted keys and fixed float formatting so identical
models produce byte-identical directories.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .linalg import _as_float64

__all__ = [
    "FormatError",
    "read_tnsr",
    "write_tnsr",
    "save_manifest",
    "load_manifest",
]

MAGIC = b"TNSR"
VERSION = 1
_HEADER = struct.Struct("<4sHHQ")


class FormatError(ValueError):
    """Raised for malformed TNSR files or manifests."""


def write_tnsr(path, tensor) -> None:
    """Write a tensor to ``path`` in the TNSR container format."""
    arr = np.ascontiguousarray(_as_float64(tensor, "write_tnsr"), dtype="<f8")
    if arr.ndim < 1:
        arr = arr.reshape(1)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, 0, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr.tobytes(order="C"))


def read_tnsr(path) -> np.ndarray:
    """Read a TNSR file, validating the header and payload length.

    Raises :class:`FormatError` with the offending byte offset on bad
    magic, version, or reserved bytes, and with expected vs actual
    sizes on truncated or oversized payloads, before it allocates the
    result; the payload is read straight into it.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise FormatError(
                f"{path}: header truncated, expected at least "
                f"{_HEADER.size} bytes, got {size}"
            )
        magic, version, reserved, order = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != MAGIC:
            raise FormatError(
                f"{path}: bad magic at byte 0, expected {MAGIC!r}, got {magic!r}"
            )
        if version != VERSION:
            raise FormatError(
                f"{path}: unsupported version at byte 4, expected "
                f"{VERSION}, got {version}"
            )
        if reserved != 0:
            raise FormatError(
                f"{path}: reserved bytes 6-7 must be zero, got {reserved}"
            )
        if order < 1:
            raise FormatError(f"{path}: order at byte 8 must be >= 1, got {order}")
        shape_off = _HEADER.size
        shape_end = shape_off + 8 * order
        if size < shape_end:
            raise FormatError(
                f"{path}: shape truncated at byte {shape_off}, expected "
                f"{8 * order} bytes of mode sizes, got {size - shape_off}"
            )
        shape = struct.unpack(f"<{order}Q", fh.read(8 * order))
        if 0 in shape:
            raise FormatError(
                f"{path}: mode size at byte {shape_off + 8 * shape.index(0)} "
                f"must be positive, got shape {shape}"
            )
        expected = 8 * math.prod(shape)  # a Python int: no wrap-around
        actual = size - shape_end
        if actual == expected:
            arr = np.empty(shape, dtype="<f8")
            # a file that changed size since fstat still fails below
            actual = fh.readinto(memoryview(arr).cast("B")) + len(fh.read(1))
        if actual != expected:
            raise FormatError(
                f"{path}: payload at byte {shape_end} has {actual} bytes, "
                f"expected {expected} (shape {tuple(shape)})"
            )
    return _as_float64(arr, "read_tnsr")


def _dump_manifest(path, manifest: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_manifest(directory, fmt: str, arrays: dict, meta: dict) -> None:
    """Write a factorized model into ``directory``.

    ``arrays`` maps entry names to either one tensor (stored as
    ``<name>.tnsr``) or a list of tensors (stored as
    ``<name>_00.tnsr``, ``<name>_01.tnsr``, ...). ``meta`` holds the
    JSON-serializable metadata (ranks, mode sizes, weights, tags).
    """
    os.makedirs(directory, exist_ok=True)
    files: dict = {}
    for name, value in arrays.items():
        if isinstance(value, (list, tuple)):
            names = []
            for i, arr in enumerate(value):
                fname = f"{name}_{i:02d}.tnsr"
                write_tnsr(os.path.join(directory, fname), arr)
                names.append(fname)
            files[name] = names
        else:
            fname = f"{name}.tnsr"
            write_tnsr(os.path.join(directory, fname), value)
            files[name] = fname
    manifest = dict(meta)
    manifest["format"] = fmt
    manifest["files"] = files
    _dump_manifest(os.path.join(directory, "manifest.json"), manifest)


def _entry_path(directory, mpath, fname):
    # a file entry must name a file directly inside the directory
    if not isinstance(fname, str) or fname in ("", ".", "..") or (
        os.path.basename(fname) != fname
    ):
        raise FormatError(f"{mpath}: file entry {fname!r} is not a plain file name")
    path = os.path.join(directory, fname)
    if not os.path.isfile(path):
        raise FormatError(f"{mpath}: file entry {fname!r} names no file")
    return path


def load_manifest(directory) -> tuple[str, dict, dict]:
    """Read a manifest directory back.

    Returns ``(format, arrays, meta)`` where ``arrays`` mirrors the
    structure passed to :func:`save_manifest`. A file entry that is not
    a plain file name inside ``directory`` raises :class:`FormatError`.
    """
    mpath = os.path.join(directory, "manifest.json")
    try:
        with open(mpath, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise FormatError(f"{directory}: missing manifest.json") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{mpath}: invalid JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise FormatError(f"{mpath}: top level is not a JSON object")
    try:
        fmt = manifest["format"]
        files = manifest["files"]
    except KeyError as exc:
        raise FormatError(f"{mpath}: missing required key {exc}") from None
    if not isinstance(files, dict):
        raise FormatError(f"{mpath}: 'files' is not a JSON object")
    arrays = {}
    for name, value in files.items():
        if isinstance(value, list):
            arrays[name] = [
                read_tnsr(_entry_path(directory, mpath, f)) for f in value
            ]
        else:
            arrays[name] = read_tnsr(_entry_path(directory, mpath, value))
    meta = {k: v for k, v in manifest.items() if k not in ("format", "files")}
    return fmt, arrays, meta
