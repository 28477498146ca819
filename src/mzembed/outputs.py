"""Output files that appear whole: a reader sees the previous file or the
new one, never a partly written one. Every table is one TSV format
(``tsv``)."""

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


def tsv(header, rows, comments=()) -> str:
    """The text of a table: a ``# comment`` line per comment, the header,
    then one line per row, cells joined by tabs and each line ending in
    "\n". A cell is written as ``str`` gives it, so a caller formats its
    floats itself. A row whose width differs from the header's raises
    ValueError."""
    lines = [f"# {comment}" for comment in comments]
    lines.append("\t".join(header))
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"table row has {len(row)} cells for {len(header)} columns")
        lines.append("\t".join(map(str, row)))
    return "".join(line + "\n" for line in lines)
