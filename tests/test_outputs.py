"""``outputs.publish``: an output file appears whole or not at all."""

import os

import pytest

from mzembed.outputs import publish


def test_text_is_written_with_newline_line_ends(tmp_path):
    path = tmp_path / "out.tsv"
    publish(path, "a\tb\nc\td\n")
    assert path.read_bytes() == b"a\tb\nc\td\n"
    assert os.listdir(tmp_path) == ["out.tsv"]


def test_writer_gets_a_temporary_path_beside_the_output(tmp_path):
    seen = []

    def write(tmp):
        seen.append(tmp)
        with open(tmp, "wb") as fh:
            fh.write(b"\x00\x01")

    path = tmp_path / "index.bin"
    publish(path, write)
    assert path.read_bytes() == b"\x00\x01"
    assert os.path.dirname(seen[0]) == str(tmp_path)
    assert str(os.getpid()) in os.path.basename(seen[0])
    assert os.listdir(tmp_path) == ["index.bin"]


def test_a_failing_writer_leaves_the_previous_output(tmp_path):
    path = tmp_path / "report.tsv"
    publish(path, "old\n")

    def write(tmp):
        with open(tmp, "w") as fh:
            fh.write("half a rep")
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        publish(path, write)
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["report.tsv"]


def test_a_failing_replace_leaves_the_previous_output(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    publish(path, "old\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        publish(path, "new\n")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["model.ckpt"]
