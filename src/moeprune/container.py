"""Shared single-file binary container.

Layout: 8-byte magic | format version (u32 LE) | manifest length (u32 LE) |
manifest (UTF-8 JSON) | payload bytes | CRC32 (u32 LE) over everything before
the trailer. Payload offsets in the manifest are relative to payload start.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

from .errors import ChecksumError, FormatError, StorageError, VersionError

FORMAT_VERSION = 1


def write_container(path, magic: bytes, manifest: dict, payload: bytes) -> None:
    if len(magic) != 8:
        raise ValueError("magic must be exactly 8 bytes")
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    body = (
        magic
        + struct.pack("<I", FORMAT_VERSION)
        + struct.pack("<I", len(manifest_bytes))
        + manifest_bytes
        + payload
    )
    blob = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    tmp = Path(str(path) + ".tmp")
    try:
        tmp.write_bytes(blob)
        tmp.replace(path)
    except OSError as exc:
        raise StorageError(f"cannot write {path}: {exc}") from exc


def read_container(path, magic: bytes) -> tuple[dict, bytes]:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if len(blob) < 20:
        raise FormatError(f"{path}: truncated (only {len(blob)} bytes)")
    if blob[:8] != magic:
        raise FormatError(f"{path}: bad magic {blob[:8]!r}, expected {magic!r}")
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    body = blob[:-4]
    if zlib.crc32(body) & 0xFFFFFFFF != stored_crc:
        raise ChecksumError(f"{path}: CRC32 mismatch (file corrupted or truncated)")
    version = struct.unpack("<I", blob[8:12])[0]
    if version != FORMAT_VERSION:
        raise VersionError(f"{path}: unsupported format version {version}")
    mlen = struct.unpack("<I", blob[12:16])[0]
    if 16 + mlen > len(body):
        raise FormatError(f"{path}: manifest length {mlen} exceeds file size")
    try:
        manifest = json.loads(body[16 : 16 + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: manifest is not valid JSON: {exc}") from exc
    return manifest, body[16 + mlen :]
