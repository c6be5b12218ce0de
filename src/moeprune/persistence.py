"""Bit-exact checkpoint storage.

A checkpoint is a directory holding manifest.json (format version, model
config, tensor index, per-file CRC32) plus tensors.bin (concatenated
little-endian float64, row-major) and an optional masks.bin sidecar (bitmaps
packed 8 columns per byte, each row padded to a whole byte). Binaries are
written first and the manifest last, each via temp-file + rename, so an
interrupted save never leaves a manifest pointing at truncated data.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict
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
from .model import ModelConfig, MoEModel

__all__ = ["save_checkpoint", "load_checkpoint", "CHECKPOINT_VERSION"]

CHECKPOINT_VERSION = 1


def _pack_mask(bits: np.ndarray) -> bytes:
    return np.packbits(bits.astype(np.uint8), axis=1, bitorder="little").tobytes()


def _unpack_mask(raw: bytes, rows: int, cols: int) -> np.ndarray:
    row_bytes = (cols + 7) // 8
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(rows, row_bytes)
    return np.unpackbits(packed, axis=1, count=cols, bitorder="little")


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        tmp.replace(path)
    except OSError as exc:
        raise StorageError(f"cannot write {path}: {exc}") from exc


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

    index = {}
    chunks = []
    offset = 0
    for name in model.param_names():
        p = model.params[name]
        raw = np.ascontiguousarray(p, dtype="<f8").tobytes()
        index[name] = {"shape": list(p.shape), "byte_offset": offset, "byte_length": len(raw)}
        chunks.append(raw)
        offset += len(raw)
    tensors = b"".join(chunks)
    _atomic_write(d / "tensors.bin", tensors)

    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "model_config": asdict(model.config),
        "tensors": index,
        "tensors_crc32": zlib.crc32(tensors) & 0xFFFFFFFF,
    }
    if extra:
        manifest["extra"] = extra

    if masks is not None:
        mindex = {}
        mchunks = []
        moffset = 0
        for name in sorted(masks):
            bits = masks[name]
            if bits.shape != model.params[name].shape:
                raise FormatError(
                    f"mask {name!r} shape {bits.shape} != parameter shape {model.params[name].shape}"
                )
            raw = _pack_mask(bits)
            mindex[name] = {"shape": list(bits.shape), "byte_offset": moffset, "byte_length": len(raw)}
            mchunks.append(raw)
            moffset += len(raw)
        mask_blob = b"".join(mchunks)
        _atomic_write(d / "masks.bin", mask_blob)
        manifest["masks"] = mindex
        manifest["masks_crc32"] = zlib.crc32(mask_blob) & 0xFFFFFFFF

    _atomic_write(d / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"))


def _read_file(path: Path, expected_crc: int) -> bytes:
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if zlib.crc32(raw) & 0xFFFFFFFF != expected_crc:
        raise ChecksumError(f"{path}: CRC32 mismatch (corrupted file)")
    return raw


def load_checkpoint(directory) -> tuple[MoEModel, dict[str, np.ndarray] | None]:
    """Reconstruct the model (and masks, if present). Verifies checksums,
    that every weight is finite (NumericalError naming the first parameter
    that is not) and that every mask-pruned position stores an exact zero."""
    d = Path(directory)
    mpath = d / "manifest.json"
    try:
        manifest = json.loads(mpath.read_text())
    except OSError as exc:
        raise FormatError(f"cannot read {mpath}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{mpath}: not valid JSON: {exc}") from exc

    version = manifest.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise VersionError(f"{mpath}: unsupported checkpoint version {version!r}")

    try:
        config = ModelConfig.from_dict(manifest["model_config"])
        index = manifest["tensors"]
        tensors = _read_file(d / "tensors.bin", int(manifest["tensors_crc32"]))
        params = {}
        for name, entry in index.items():
            shape = tuple(entry["shape"])
            off, length = entry["byte_offset"], entry["byte_length"]
            raw = tensors[off : off + length]
            if len(raw) != length or length != 8 * int(np.prod(shape)):
                raise FormatError(f"{name}: tensor bytes truncated")
            params[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            if not np.isfinite(params[name]).all():
                raise NumericalError(f"{d}: parameter {name} holds a non-finite value")
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{mpath}: malformed manifest: {exc}") from exc

    model = MoEModel(config, params)

    masks = None
    if "masks" in manifest:
        mask_blob = _read_file(d / "masks.bin", int(manifest["masks_crc32"]))
        try:
            masks = {name: _read_mask(name, entry, mask_blob, model)
                     for name, entry in manifest["masks"].items()}
        except (AttributeError, KeyError, TypeError) as exc:
            raise FormatError(f"{mpath}: malformed mask index: {exc}") from exc
    return model, masks


def _read_mask(name: str, entry: dict, blob: bytes, model: MoEModel) -> np.ndarray:
    """Check one mask index entry against its parameter before unpacking it,
    then check that every pruned position stores an exact zero."""
    if name not in model.params:
        raise FormatError(f"mask {name!r} has no matching parameter")
    shape, off, length = entry["shape"], entry["byte_offset"], entry["byte_length"]
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(v) is int for v in shape)):
        raise FormatError(f"mask {name!r}: shape {shape!r} is not two integers")
    want = model.params[name].shape
    if tuple(shape) != want:
        raise FormatError(f"mask {name!r} shape {tuple(shape)} != parameter shape {want}")
    rows, cols = want
    if type(off) is not int or off < 0 or length != rows * ((cols + 7) // 8):
        raise FormatError(f"mask {name!r}: {length} bytes at offset {off!r} do not fit shape {want}")
    raw = blob[off : off + length]
    if len(raw) != length:
        raise FormatError(f"mask {name}: bytes truncated")
    bits = _unpack_mask(raw, rows, cols).astype(np.uint8)
    if not (model.params[name][bits == 0] == 0.0).all():
        raise MaskConsistencyError(f"mask {name!r} marks pruned positions holding nonzero weights")
    return bits
