"""Crash-safe file output shared by every writer in the lab."""

from __future__ import annotations

import contextlib
import os
import secrets


def atomic_write(path: str, data: bytes | str) -> None:
    """Replace ``path`` with ``data`` so that readers only ever see the old
    file or the whole new one: write a temp file in the target's directory,
    fsync it, then rename it over the target. On any failure the temp file
    is removed and the old file is left as it was."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(4)}.tmp")
    # 0o666 under the umask: the permissions a plain open() would give
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
