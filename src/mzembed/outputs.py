"""Output files that appear whole: a reader sees the previous file or the
new one, never a partly written one."""

from __future__ import annotations

import contextlib
import os


def publish(path, content) -> None:
    """Make ``path`` hold ``content``: text, or a function that writes the
    file at the path it is given. The file is written under a per-process
    temporary name beside ``path``, so concurrent runs never share one,
    then moved into place by ``os.replace``. A failed write removes the
    temporary file and leaves the previous output unchanged."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        if callable(content):
            content(tmp)
        else:
            with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
