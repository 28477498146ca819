"""Flat binary weight checkpoints.

Layout, all little-endian:

    magic "SPEC" | u32 format version | 32-byte sha256 of the config
    text | u32 record count, then per parameter: u32 name length |
    name utf-8 | u32 rank | u64 * rank extents | binary32 payload.

Round trips are bit-exact; loading verifies magic, version, and, when
the caller supplies its config, the digest.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from ..errors import CheckpointError

MAGIC = b"SPEC"
FORMAT_VERSION = 1


def config_digest(config_text: str) -> bytes:
    return hashlib.sha256(config_text.encode("utf-8")).digest()


def save_checkpoint(path, params: dict[str, np.ndarray], config_text: str) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(config_digest(config_text))
        fh.write(struct.pack("<I", len(params)))
        for name, value in params.items():
            data = np.asarray(value, dtype="<f4")
            if data.ndim:
                # ascontiguousarray would silently promote rank 0 to rank 1.
                data = np.ascontiguousarray(data)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", data.ndim))
            for extent in data.shape:
                fh.write(struct.pack("<Q", extent))
            fh.write(data.tobytes())


def _config_changes(path, digest: bytes, config_text: str) -> str:
    """Each key whose value differs between ``config_text`` and the
    config text saved beside the checkpoint in ``<path>.config``, as
    ``train`` writes it, with both values; "" if that file is absent or
    holds another config."""
    try:
        with open(f"{path}.config", encoding="utf-8", errors="replace", newline="") as fh:
            saved = fh.read()
    except OSError:
        return ""
    if config_digest(saved) != digest:
        return ""
    have, want = (
        dict(line.partition("=")[::2] for line in text.splitlines())
        for text in (saved, config_text)
    )
    return "; ".join(
        f"{k} is {have.get(k, 'unset')} in the checkpoint, {want.get(k, 'unset')} requested"
        for k in sorted(have.keys() | want.keys())
        if have.get(k) != want.get(k)
    )


def _read_exact(fh, n, what):
    buf = fh.read(n)
    if len(buf) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return buf


def load_checkpoint(path, config_text: str | None = None):
    """Return (params, digest). With ``config_text`` given, a digest
    mismatch raises instead of returning, naming the differing keys when
    the checkpoint's config text is saved beside it."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != MAGIC:
            raise CheckpointError(f"{path}: not a weight checkpoint (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        digest = _read_exact(fh, 32, "config digest")
        if config_text is not None and digest != config_digest(config_text):
            changes = _config_changes(path, digest, config_text)
            raise CheckpointError(
                f"{path}: checkpoint config digest does not match the requested config"
                + (f": {changes}" if changes else "")
            )
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "record count"))
        params: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, "name length"))
            name = _read_exact(fh, name_len, "name").decode("utf-8")
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, "rank"))
            shape = tuple(
                struct.unpack("<Q", _read_exact(fh, 8, "extent"))[0] for _ in range(rank)
            )
            n_items = int(np.prod(shape, dtype=np.int64)) if shape else 1
            payload = _read_exact(fh, 4 * n_items, f"payload of {name}")
            params[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
        trailing = fh.read(1)
        if trailing:
            raise CheckpointError(f"{path}: trailing bytes after last record")
    return params, digest
