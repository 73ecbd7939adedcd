"""Atomic writes for every artifact the package saves."""

from __future__ import annotations

import os
import secrets
from pathlib import Path


def write_atomic(path, data: bytes | str) -> None:
    """Write ``data`` (str is UTF-8) to ``path`` all at once or not at all.

    The bytes go to a fresh temp file in the target's directory, which then
    replaces ``path`` with ``os.replace``. A reader sees the old file or the
    new one, never a part. If anything raises, the temp file is removed and
    ``path`` is left as it was. There is no fsync, so this guards against a
    writer that fails or is interrupted, not against power loss.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    # O_EXCL: never reuse a file; 0o666 under the umask, as open() would
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
