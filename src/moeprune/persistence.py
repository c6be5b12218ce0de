"""Bit-exact checkpoint storage.

A checkpoint is a directory holding manifest.json (format version, model
config, tensor index, per-file CRC32, and the CRC32 of the manifest's own
canonical JSON without that field) plus tensors.bin (concatenated
little-endian float64, row-major) and an optional masks.bin sidecar (bitmaps
packed 8 columns per byte, each row padded to a whole byte). Binaries are
written first and the manifest last, each via temp-file + rename, so an
interrupted save never leaves a manifest pointing at truncated data.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import asdict
from itertools import accumulate
from pathlib import Path

import numpy as np

from .errors import (
    ChecksumError,
    ConfigError,
    FormatError,
    MaskConsistencyError,
    NumericalError,
    StorageError,
    VersionError,
)
from .model import ModelConfig, MoEModel, param_count, param_shapes

__all__ = ["save_checkpoint", "load_checkpoint", "nonzero_where_pruned", "CHECKPOINT_VERSION"]

CHECKPOINT_VERSION = 2


def nonzero_where_pruned(p: np.ndarray, mask: np.ndarray) -> bool:
    """Whether any position that `mask` marks pruned (0) holds a nonzero weight."""
    return bool(np.logical_and(p, mask == 0).any())


def _atomic_write(path: Path, chunks) -> int:
    """Write the buffers in `chunks` via temp file + rename; return their CRC32."""
    tmp = path.with_name(path.name + ".tmp")
    crc = 0
    try:
        with tmp.open("wb") as f:
            for chunk in chunks:
                f.write(chunk)
                crc = zlib.crc32(chunk, crc)
        tmp.replace(path)
    except OSError as exc:
        raise StorageError(f"cannot write {path}: {exc}") from exc
    return crc & 0xFFFFFFFF


def _manifest_crc(manifest: dict) -> int:
    """CRC32 of the manifest's canonical JSON (sorted keys, no whitespace),
    leaving out its own manifest_crc32 field."""
    body = {k: v for k, v in manifest.items() if k != "manifest_crc32"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


def _indexed(arrays: dict[str, np.ndarray]) -> dict[str, dict]:
    """Manifest index of `arrays` laid end to end in order."""
    offsets = accumulate((a.nbytes for a in arrays.values()), initial=0)
    return {name: {"shape": list(a.shape), "byte_offset": off, "byte_length": a.nbytes}
            for (name, a), off in zip(arrays.items(), offsets)}


def save_checkpoint(
    model: MoEModel,
    directory,
    masks: dict[str, np.ndarray] | None = None,
    extra: dict | None = None,
) -> None:
    """Write manifest + tensors (+ masks) atomically, manifest last."""
    d = Path(directory)
    try:
        d.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StorageError(f"cannot create checkpoint directory {d}: {exc}") from exc

    tensors = {n: np.ascontiguousarray(p, dtype="<f8") for n, p in model.params.items()}
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "model_config": asdict(model.config),
        "tensors": _indexed(tensors),
        "tensors_crc32": _atomic_write(d / "tensors.bin", tensors.values()),
    }
    if extra:
        manifest["extra"] = extra

    if masks is not None:
        packed = {}
        for name in sorted(masks):
            bits = masks[name]
            if bits.shape != model.params[name].shape:
                raise FormatError(
                    f"mask {name!r} shape {bits.shape} != parameter shape {model.params[name].shape}"
                )
            packed[name] = np.packbits(bits.astype(np.uint8, copy=False), axis=1,
                                       bitorder="little")
        # the index records each mask's unpacked shape
        manifest["masks"] = {n: {**e, "shape": list(masks[n].shape)}
                             for n, e in _indexed(packed).items()}
        manifest["masks_crc32"] = _atomic_write(d / "masks.bin", packed.values())

    manifest["manifest_crc32"] = _manifest_crc(manifest)
    _atomic_write(d / "manifest.json",
                  [json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")])


def _read_file(path: Path, expected_crc: int) -> bytearray:
    """The whole file in one writable buffer, checked against its CRC32."""
    try:
        with path.open("rb") as f:
            buf = bytearray(os.fstat(f.fileno()).st_size)
            f.readinto(buf)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if zlib.crc32(buf) & 0xFFFFFFFF != expected_crc:
        raise ChecksumError(f"{path}: CRC32 mismatch (corrupted file)")
    return buf


def _index_views(index: dict, buf: bytearray, shapes: dict, what: str, dtype: str,
                 row_bytes) -> dict[str, np.ndarray]:
    """Views of `buf`, by name, over the ranges of an index of tensors or
    masks (`what`). Each entry names a parameter and carries its shape; its
    int byte_offset, a multiple of the dtype's size, and the byte length its
    shape implies (`row_bytes(cols)` a row) fall inside `buf`; no two ranges
    overlap. Each view holds a parameter's rows."""
    size = np.dtype(dtype).itemsize
    views, spans = {}, []
    for name, entry in index.items():
        if name not in shapes:
            raise FormatError(f"{what} {name!r} names no parameter")
        shape, off, length = entry["shape"], entry["byte_offset"], entry["byte_length"]
        # type(): JSON floats and bools compare equal to ints
        if not ([type(v) for v in shape] == [int, int] and tuple(shape) == shapes[name]):
            raise FormatError(f"{what} {name!r}: shape {shape!r} is not its parameter's "
                              f"{list(shapes[name])}")
        rows, cols = shapes[name]
        n = rows * row_bytes(cols)
        if type(off) is not int or off < 0 or off % size or length != n or off + n > len(buf):
            raise FormatError(f"{what} {name!r}: {length!r} bytes at offset {off!r} are not "
                              f"{n} bytes at a multiple of {size} inside {len(buf)}")
        views[name] = np.frombuffer(buf, dtype, count=n // size, offset=off).reshape(rows, -1)
        spans.append((off, off + n, name))
    spans.sort()
    for (_, end, a), (start, _, b) in zip(spans, spans[1:]):
        if start < end:
            raise FormatError(f"{what}s {a} and {b} overlap")
    return views


def load_checkpoint(directory) -> tuple[MoEModel, dict[str, np.ndarray] | None]:
    """Reconstruct the model (and masks, if present). Verifies checksums,
    that every weight is finite (NumericalError naming the first parameter
    that is not) and that every mask-pruned position stores an exact zero.
    The manifest's own CRC32 is checked last, so a manifest that fails a
    structural check is reported by that check. The parameters are views of
    one buffer holding tensors.bin."""
    d = Path(directory)
    mpath = d / "manifest.json"
    try:
        manifest = json.loads(mpath.read_text())
    except OSError as exc:
        raise FormatError(f"cannot read {mpath}: {exc}") from exc
    except ValueError as exc:  # invalid JSON or UTF-8
        raise FormatError(f"{mpath}: not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FormatError(f"{mpath}: manifest root is not a JSON object")

    version = manifest.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise VersionError(f"{mpath}: unsupported checkpoint version {version!r}")

    try:
        config = ModelConfig.from_dict(manifest["model_config"])
        index = manifest["tensors"]
        # more parameters than entries fails before the table is built; else
        # each entry names a parameter, so every parameter has exactly one
        if param_count(config) > len(index):
            raise FormatError(f"{mpath}: the tensor index has {len(index)} entries for the "
                              f"{param_count(config)} parameters of its model config")
        shapes = param_shapes(config)
        tensors = _read_file(d / "tensors.bin", int(manifest["tensors_crc32"]))
        params = _index_views(index, tensors, shapes, "tensor", "<f8", lambda c: 8 * c)
    except (AttributeError, ConfigError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"{mpath}: malformed manifest: {exc}") from exc
    # one pass over the whole buffer; the tensors are walked only to name a bad one
    if not np.isfinite(np.frombuffer(tensors, dtype="<f8", count=len(tensors) // 8)).all():
        for name, p in params.items():
            if not np.isfinite(p).all():
                raise NumericalError(f"{d}: parameter {name} holds a non-finite value")

    model = MoEModel(config, params)

    masks = None
    if "masks" in manifest:
        try:
            mask_blob = _read_file(d / "masks.bin", int(manifest["masks_crc32"]))
            packed = _index_views(manifest["masks"], mask_blob, shapes, "mask", "u1",
                                  lambda c: (c + 7) // 8)
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise FormatError(f"{mpath}: malformed mask index: {exc}") from exc
        masks = {}
        for name, rows in packed.items():
            masks[name] = np.unpackbits(rows, axis=1, count=shapes[name][1], bitorder="little")
            if nonzero_where_pruned(params[name], masks[name]):
                raise MaskConsistencyError(
                    f"mask {name!r} marks pruned positions holding nonzero weights")
    # an edit that leaves every check above satisfied (another top_k, two
    # same-shape tensors' offsets swapped) still changes the manifest's CRC32
    if manifest.get("manifest_crc32") != _manifest_crc(manifest):
        raise ChecksumError(f"{mpath}: manifest CRC32 mismatch (edited or corrupted manifest)")
    return model, masks

