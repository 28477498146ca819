"""Run one mzembed command with spans recorded around calls into its modules.

    python3 perfbench/traced_cli.py SPANS_JSON RUN_ID -- <mzembed arguments>

Wrappers are installed at the names where the callers look functions up
(for example ``mzembed.encoder.multi_head_attention`` for the encoder's
attention calls), so the program's own code runs unchanged. Each span
records its name, start, end, the index of the span that was open when it
started, and optional counts. Spans stay in memory and are written to
SPANS_JSON, with RUN_ID, when the command ends. Cyclic garbage collections
are recorded as ``gc.collect`` spans through ``gc.callbacks``.

The wrapper table below is the single place that maps program functions to
span names; ``metrics.py`` turns the spans into per-layer metrics.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import sys
import time

_clock = time.perf_counter
_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _rss_mb() -> float:
    with open("/proc/self/statm", "rb") as handle:
        return int(handle.read().split()[1]) * _PAGE_MB


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent, counts]
        self.stack: list[int] = []
        self._gc_open: list[int] = []

    def open(self, name: str) -> int:
        # The record is allocated before it is linked, so a collection
        # triggered by the allocation records its own span first.
        record = [name, 0.0, None, None, None]
        record[3] = self.stack[-1] if self.stack else None
        self.spans.append(record)
        index = len(self.spans) - 1
        self.stack.append(index)
        record[1] = _clock()
        return index

    def close(self, index: int, counts: dict | None = None) -> None:
        record = self.spans[index]
        record[2] = _clock()
        record[4] = counts
        if self.stack and self.stack[-1] == index:
            self.stack.pop()

    def wrap(self, fn, name, counts=None):
        """Wrap fn in a span; name may be a callable of (args, kwargs)."""
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name(args, kwargs) if callable(name) else name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                done = counts is not None and result is not None
                tracer.close(index, counts(args, kwargs, result) if done else None)

        traced.__wrapped__ = fn
        return traced

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_open.append(self.open("gc.collect"))
        elif self._gc_open:
            self.close(
                self._gc_open.pop(),
                {"gen": info["generation"], "collected": info["collected"]},
            )

    def dump(self, path: str) -> None:
        spans = [
            {"name": n, "start": s, "end": e, "parent": p, **(c or {})}
            for n, s, e, p, c in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run_id": self.run_id, "spans": spans}, handle)


# ------------------------------------------------------------ span counts


def _len_result(args, kwargs, result):
    return {"n": len(result)}


def _encode_name(args, kwargs):
    return "encoder.fwd_train" if kwargs.get("mode", "infer") == "train" else "encoder.fwd_infer"


def _encode_counts(args, kwargs, result):
    spectra, cfg = args[0], args[1]
    slots = [1 + min(len(s.fragments), cfg.max_fragments) for s in spectra]
    padded = len(slots) * max(slots)
    counts = {"n": len(spectra), "slots": padded, "pad": padded - sum(slots)}
    if kwargs.get("mode") == "train":
        counts["rss_mb"] = _rss_mb()
    return counts


def _sinusoidal_counts(args, kwargs, result):
    return {"n": int(result.shape[0]) if result.ndim == 2 else 1}


def _pair_mse_counts(args, kwargs, result):
    pairs = args[0]
    ids = [p.a for p in pairs] + [p.b for p in pairs]
    return {"n": len(ids), "unique": len(set(ids))}


def _rank_counts(args, kwargs, result):
    return {"n": len(args[1])}


# (module, attribute, span name, counts). Functions are wrapped where their
# callers look them up; methods are wrapped on their class.
WRAPPERS = [
    ("mzembed.cli", "main", "cli.main", None),
    ("mzembed.data", "load_mgf", "data.load_mgf", _len_result),
    ("mzembed.data", "clean_spectra", "data.clean", None),
    ("mzembed.data", "make_split", "data.split", None),
    ("mzembed.data", "serialize_mgf", "data.serialize_mgf", None),
    ("mzembed.data", "load_molecules", "data.load_molecules", _len_result),
    ("mzembed.embed", "normalize_intensities", "embed.normalize", None),
    ("mzembed.embed.features", "sinusoidal_embed", "embed.sinusoidal", _sinusoidal_counts),
    ("mzembed.embed.features", "feed_forward", "embed.peak_ff", None),
    ("mzembed.encoder", "encode_batch", _encode_name, _encode_counts),
    ("mzembed.siamese", "encode_batch", _encode_name, _encode_counts),
    ("mzembed.encoder", "layer_norm", "encoder.layer_norm", None),
    ("mzembed.encoder", "multi_head_attention", "encoder.attention", None),
    ("mzembed.encoder", "feed_forward", "encoder.ff", None),
    ("mzembed.tensor.core", "Tensor.backward", "tensor.backward", None),
    ("mzembed.tensor.optim", "Adam.step", "tensor.adam", None),
    ("mzembed.training", "clip_gradients", "tensor.clip", None),
    ("mzembed.tensor", "save_checkpoint", "tensor.checkpoint_save", None),
    ("mzembed.tensor", "load_checkpoint", "tensor.checkpoint_load", None),
    ("mzembed.siamese", "apply_step", "training.apply_step", None),
    ("mzembed.siamese", "build_similarity_bins", "siamese.bins", None),
    ("mzembed.siamese", "sample_uniform_pairs", "siamese.sample_pairs", None),
    ("mzembed.siamese", "_pair_mse", "siamese.pair_mse", _pair_mse_counts),
    ("mzembed.search", "build_index", "search.build_index", _len_result),
    ("mzembed.search", "search", "search.query", None),
    ("mzembed.search", "encode_spectrum", "search.encode", None),
    ("mzembed.search", "search_embedding", "search.rank", _rank_counts),
    ("mzembed.search", "evaluate_search", "search.evaluate", None),
    ("mzembed.search", "score_modified_cosine", "kernels.modified_cosine", None),
]


def install(tracer: Tracer) -> None:
    for module_name, attr, name, counts in WRAPPERS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, leaf, tracer.wrap(getattr(owner, leaf), name, counts))
    gc.callbacks.append(tracer.on_gc)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    spans_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    started = tracer.open("cli.import")
    install(tracer)
    tracer.close(started)
    cli = sys.modules["mzembed.cli"]
    try:
        return cli.main(cli_args)
    finally:
        gc.callbacks.remove(tracer.on_gc)
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
