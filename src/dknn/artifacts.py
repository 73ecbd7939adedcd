"""Reads and atomic writes for every artifact the package loads or saves,
and the framing of both binary formats (checkpoint DKNM, store DKNS): a
header struct that opens with the magic and a u16 version, then row-major
blocks whose shapes follow from the header, and not one byte more."""

from __future__ import annotations

import math
import os
import secrets
import struct
from pathlib import Path

import numpy as np

from .exceptions import CorruptArtifactError, ValidationError


def read_artifact(path, what: str) -> bytes:
    """The bytes at ``path``; a missing or unreadable ``what`` is a ValidationError."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise ValidationError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc.strerror}") from None


def write_atomic(path, data: bytes | str) -> None:
    """Write ``data`` (str is UTF-8) to ``path`` all at once or not at all.

    The bytes go to a fresh temp file in the target's directory, which then
    replaces ``path`` with ``os.replace``. A reader sees the old file or the
    new one, never a part. If anything raises, the temp file is removed and
    ``path`` is left as it was; an ``OSError`` names ``path``, not the temp
    file. There is no fsync, so this guards against a writer that fails or
    is interrupted, not against power loss.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        # O_EXCL: never reuse a file; 0o666 under the umask, as open() would
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def pack_blocks(header: struct.Struct, fields: tuple, blocks: list[tuple]) -> bytes:
    """``header`` packed from ``fields`` (magic and version first), then the
    row-major bytes of each ``(dtype, array)`` block, cast to its dtype."""
    parts = [header.pack(*fields)]
    parts += [np.asarray(array, dtype=dtype).tobytes() for dtype, array in blocks]
    return b"".join(parts)


def unpack_blocks(blob: bytes, source, what: str, header: struct.Struct, magic: bytes,
                  version: int, layout) -> tuple[tuple, list[np.ndarray]]:
    """``(fields, arrays)`` of a ``pack_blocks`` blob: the header fields after
    magic and version, and a read-only view of ``blob`` for each
    ``(dtype, shape)`` block of ``layout(fields)``. A short header, another
    magic or version, or any size but header plus blocks is a
    CorruptArtifactError naming ``source``."""
    if len(blob) < header.size:
        raise CorruptArtifactError(f"{source}: truncated {what} header")
    fields = header.unpack_from(blob)
    if fields[0] != magic:
        raise CorruptArtifactError(f"{source}: bad magic {fields[0]!r}")
    if fields[1] != version:
        raise CorruptArtifactError(f"{source}: unsupported version {fields[1]}")
    fields = fields[2:]
    blocks = [(np.dtype(dtype), shape) for dtype, shape in layout(fields)]
    expected = header.size + sum(dt.itemsize * math.prod(shape) for dt, shape in blocks)
    if len(blob) != expected:
        raise CorruptArtifactError(f"{source}: size {len(blob)} != expected {expected} bytes")
    arrays, offset = [], header.size
    for dt, shape in blocks:
        arrays.append(np.frombuffer(blob, dt, math.prod(shape), offset).reshape(shape))
        offset += arrays[-1].nbytes
    return fields, arrays
