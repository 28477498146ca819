"""Output checks for every subcommand the benchmark runs.

Three kinds of check, applied to each invocation:

* invariants that hold for any input: files exist and parse, search hits
  come from the library in score order, the checkpoint reloads under the
  digest of its config text;
* repeatability: every repeat of a command inside one run must write the
  same bytes as the first (the train log's ``wall_time_s`` column aside);
* references recorded from this benchmark on a known-good commit
  (``refs.json``), for the seeds recorded there.

Ids, split manifests, search hit ids and modified-cosine audit rows must
match the references exactly; kernel scores are bit-identical across
backends. Floats match within ``abs 2e-6 + rel 1e-6``: the TSVs print six
decimals, so a last-bit change in a sum can move the printed digit by one,
while a wrong result moves it by far more.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct

import numpy as np

ABS_TOL = 2e-6
REL_TOL = 1e-6

PREPARE_FILES = ("cleaned.mgf", "split_manifest.tsv")
TRAIN_FILES = ("model_siamese.ckpt", "model_siamese.ckpt.config", "train_log_siamese.tsv")
EVAL_FILES = (
    "pair_mse.tsv",
    "search_accuracy.tsv",
    "search_audit.tsv",
    "cosine_accuracy.tsv",
    "cosine_audit.tsv",
)
SEARCH_FILES = ("search_results.tsv",)
OUTPUTS = {
    "prepare": PREPARE_FILES,
    "checkpoint": TRAIN_FILES,
    "train": TRAIN_FILES,
    "eval": EVAL_FILES,
    "search": SEARCH_FILES,
}


class CheckError(Exception):
    """An output that is missing, malformed or different from its reference."""


def load_refs(path: str) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def snapshot(kind: str, out_dir: str) -> dict[str, str]:
    """The outputs of one command, as text (checkpoints as a sha256)."""
    snap = {}
    for name in OUTPUTS[kind]:
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            raise CheckError(f"{kind}: missing output {name}")
        with open(path, "rb") as handle:
            data = handle.read()
        if name.endswith(".ckpt"):
            snap[name] = hashlib.sha256(data).hexdigest()
        elif name.startswith("train_log"):
            snap[name] = _drop_column(data.decode("utf-8"), "wall_time_s")
        else:
            snap[name] = data.decode("utf-8")
    return snap


def train_ids(manifest: str) -> set[str]:
    """Ids of the training spectra, the search library, from a split manifest."""
    return {row[0] for row in _rows(manifest) if row[2] == "train"}


def check_invariants(kind: str, out_dir: str, snap: dict[str, str], k: int, library: set[str]) -> None:
    if kind in ("checkpoint", "train"):
        with open(os.path.join(out_dir, "model_siamese.ckpt"), "rb") as handle:
            blob = handle.read()
        _check_checkpoint(blob, snap["model_siamese.ckpt.config"])
        rows = _rows(snap["train_log_siamese.tsv"])
        if kind == "train" and not rows:
            raise CheckError("train: the train log has no epoch rows")
        for row in rows:
            if not all(np.isfinite(float(v)) for v in row[1:]):
                raise CheckError(f"train: non-finite train log row {row}")
    elif kind == "search":
        _check_ranking(snap["search_results.tsv"], k, library)
    elif kind == "eval":
        for row in _rows(snap["search_audit.tsv"]) + _rows(snap["cosine_audit.tsv"]):
            if row[2] not in library:
                raise CheckError(f"eval: hit {row[2]!r} is not a library spectrum")


def reference_view(kind: str, snap: dict[str, str]) -> dict[str, str]:
    """The part of a snapshot that is compared with recorded references."""
    if kind == "prepare":
        return {name: hashlib.sha256(snap[name].encode()).hexdigest() for name in PREPARE_FILES}
    if kind == "checkpoint":
        return {"model_siamese.ckpt.config": snap["model_siamese.ckpt.config"]}
    if kind == "train":
        return {name: snap[name] for name in ("model_siamese.ckpt.config", "train_log_siamese.tsv")}
    if kind == "search":
        # Hit ids of every rank, and the top score, per query.
        hits = _hit_lists(snap["search_results.tsv"])
        return {"search_hits.tsv": "query\thits\ttop_score\n" + "\n".join(
            f"{q}\t{','.join(h for h, _ in ranked)}\t{ranked[0][1]:.6f}" for q, ranked in hits.items()
        )}
    return dict(snap)


def compare_reference(kind: str, view: dict[str, str], ref: dict[str, str]) -> None:
    for name, expected in ref.items():
        actual = view.get(name)
        if actual is None:
            raise CheckError(f"{kind}: no {name} to compare with its reference")
        if name.endswith(".tsv") and name != "cosine_audit.tsv":
            _compare_table(name, actual, expected)
        elif actual != expected:
            raise CheckError(f"{kind}: {name} differs from its reference")


# ------------------------------------------------------------------ helpers


def _rows(text: str) -> list[list[str]]:
    lines = [line for line in text.split("\n") if line and not line.startswith("#")]
    return [line.split("\t") for line in lines[1:]]


def _drop_column(text: str, column: str) -> str:
    out, drop = [], None
    for line in text.split("\n"):
        if not line or line.startswith("#"):
            out.append(line)
            continue
        cells = line.split("\t")
        if drop is None:
            drop = cells.index(column) if column in cells else -1
        if drop >= 0:
            del cells[drop]
        out.append("\t".join(cells))
    return "\n".join(out)


def _close(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return abs(x - y) <= ABS_TOL + REL_TOL * abs(y)


def _compare_table(name: str, actual: str, expected: str) -> None:
    a_lines, e_lines = actual.split("\n"), expected.split("\n")
    if len(a_lines) != len(e_lines):
        raise CheckError(f"{name}: {len(a_lines)} lines, reference has {len(e_lines)}")
    for line_no, (a, e) in enumerate(zip(a_lines, e_lines), start=1):
        a_cells, e_cells = a.split("\t"), e.split("\t")
        if len(a_cells) != len(e_cells) or not all(map(_close, a_cells, e_cells)):
            raise CheckError(f"{name}:{line_no}: {a!r} differs from reference {e!r}")


def _hit_lists(text: str) -> dict[str, list[tuple[str, float]]]:
    """search_results.tsv as query id -> [(hit id, score)] in rank order."""
    hits: dict[str, list[tuple[str, float]]] = {}
    for row in _rows(text):
        hits.setdefault(row[0], []).append((row[2], float(row[4])))
    return hits


def _check_ranking(text: str, k: int, library: set[str]) -> None:
    per_query = _hit_lists(text)
    if not per_query:
        raise CheckError("search: no results")
    for query, hits in per_query.items():
        if len(hits) != min(k, len(library)):
            raise CheckError(f"search: query {query} has {len(hits)} hits, expected {k}")
        scores = [s for _, s in hits]
        if any(not -1.000001 <= s <= 1.000001 for s in scores) or scores != sorted(scores, reverse=True):
            raise CheckError(f"search: query {query} scores are not a cosine ranking")
        if any(h not in library for h, _ in hits):
            raise CheckError(f"search: query {query} has a hit outside the library")


def _check_checkpoint(blob: bytes, config_text: str) -> None:
    """Parse the checkpoint format and check its digest against its config."""
    if blob[:4] != b"SPEC" or blob[4:8] != struct.pack("<I", 1):
        raise CheckError("checkpoint: bad magic or format version")
    if blob[8:40] != hashlib.sha256(config_text.encode("utf-8")).digest():
        raise CheckError("checkpoint: digest does not match its config text")
    try:
        (count,) = struct.unpack_from("<I", blob, 40)
        pos = 44
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", blob, pos)
            pos += 4 + name_len
            (rank,) = struct.unpack_from("<I", blob, pos)
            shape = struct.unpack_from(f"<{rank}Q", blob, pos + 4)
            pos += 4 + 8 * rank
            size = 4 * int(np.prod(shape, dtype=np.int64))
            values = np.frombuffer(blob, dtype="<f4", count=size // 4, offset=pos)
            if not np.all(np.isfinite(values)):
                raise CheckError("checkpoint: non-finite weights")
            pos += size
    except (struct.error, ValueError):
        raise CheckError("checkpoint: truncated record") from None
    if pos != len(blob):
        raise CheckError("checkpoint: truncated or trailing bytes")
