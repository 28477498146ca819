"""Per-layer metrics computed from the spans that ``traced_cli.py`` writes.

A traced cycle is the traced set-up commands plus one traced measured
command (the one with the median wall time). Every per-layer metric is
computed over the spans of one cycle, so set-up layers (cleaning, splits)
and measured layers (encoder, search) appear side by side. Span indices
are per process; parents never cross processes.
"""

from __future__ import annotations

from collections import defaultdict

ENCODER_LAYERS = 4


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child_time)]


def layer_metrics(processes: list[list[dict]]) -> dict[str, float]:
    """Aggregate span lists (one per process) into the per-layer metrics."""
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    items: dict[str, int] = defaultdict(int)
    layer_s = [0.0] * ENCODER_LAYERS
    steps, queries, fwd_train_rss = [], [], [0.0]
    slots = pad = unique = gen2 = 0
    query_encode_s = 0.0

    for spans in processes:
        last_fwd_train = None
        norm_starts: dict[int, list[float]] = defaultdict(list)
        encodes = []
        for index, span in enumerate(spans):
            name, duration = span["name"], span["end"] - span["start"]
            seconds[name] += duration
            calls[name] += 1
            items[name] += span.get("n", 0)
            if name.startswith("encoder.fwd_"):
                slots += span.get("slots", 0)
                pad += span.get("pad", 0)
                encodes.append(index)
            if name == "encoder.fwd_train":
                last_fwd_train = span
                fwd_train_rss.append(span.get("rss_mb", 0.0))
            elif name == "training.apply_step" and last_fwd_train is not None:
                steps.append(span["end"] - last_fwd_train["start"])
            elif name == "search.query":
                queries.append(duration)
            elif name == "search.encode" and span["parent"] is not None:
                if spans[span["parent"]]["name"] == "search.query":
                    query_encode_s += duration
            elif name == "siamese.pair_mse":
                unique += span.get("unique", 0)
            elif name == "gc.collect" and span.get("gen") == 2:
                gen2 += 1
            elif name == "encoder.layer_norm":
                norm_starts[span["parent"]].append(span["start"])
        for index in encodes:
            _attribute_layers(norm_starts[index], spans[index]["end"], layer_s)

    out = {
        "data.load_mgf.s": seconds["data.load_mgf"],
        "data.load_mgf.spectra": items["data.load_mgf"],
        "data.clean.s": seconds["data.clean"],
        "data.split.s": seconds["data.split"],
        "data.serialize_mgf.s": seconds["data.serialize_mgf"],
        "data.load_molecules.s": seconds["data.load_molecules"],
        "embed.sinusoidal.s": seconds["embed.sinusoidal"],
        "embed.sinusoidal.rows": items["embed.sinusoidal"],
        "embed.peak_ff.s": seconds["embed.peak_ff"],
        "embed.normalize.s": seconds["embed.normalize"],
        "encoder.fwd_train.s": seconds["encoder.fwd_train"],
        "encoder.fwd_infer.s": seconds["encoder.fwd_infer"],
        "encoder.spectra": items["encoder.fwd_train"] + items["encoder.fwd_infer"],
    }
    for i, value in enumerate(layer_s):
        out[f"encoder.layer{i}.fwd_s"] = value
    out.update({
        "encoder.attention.s": seconds["encoder.attention"],
        "encoder.ff.s": seconds["encoder.ff"],
        "encoder.layer_norm.s": seconds["encoder.layer_norm"],
        "encoder.pad_frac": pad / slots if slots else 0.0,
        "encoder.fwd_train.rss_mb": max(fwd_train_rss),
        "tensor.backward.s": seconds["tensor.backward"],
        "tensor.backward.calls": calls["tensor.backward"],
        "tensor.adam.s": seconds["tensor.adam"],
        "tensor.clip.s": seconds["tensor.clip"],
        "tensor.checkpoint_save.s": seconds["tensor.checkpoint_save"],
        "tensor.checkpoint_load.s": seconds["tensor.checkpoint_load"],
        "gc.collections": calls["gc.collect"],
        "gc.gen2_collections": gen2,
        "gc.pause_s": seconds["gc.collect"],
        "training.apply_step.s": seconds["training.apply_step"],
        "training.steps": len(steps),
        "training.step_s_p50": percentile(steps, 50),
        "training.step_s_max": max(steps, default=0.0),
        "siamese.bins.s": seconds["siamese.bins"],
        "siamese.sample_pairs.s": seconds["siamese.sample_pairs"],
        "siamese.pair_mse.s": seconds["siamese.pair_mse"],
        "siamese.pair_mse.encodes": items["siamese.pair_mse"],
        "siamese.pair_mse.unique_frac": (
            unique / items["siamese.pair_mse"] if items["siamese.pair_mse"] else 0.0
        ),
        "search.build_index.s": seconds["search.build_index"],
        "search.build_index.rows": items["search.build_index"],
        "search.query_encode.s": query_encode_s,
        "search.rank.s": seconds["search.rank"],
        "search.rank.rows": items["search.rank"],
        "search.queries": len(queries),
        "search.query_s_p50": percentile(queries, 50),
        "search.query_s_p90": percentile(queries, 90),
        "search.evaluate.s": seconds["search.evaluate"],
        "kernels.modified_cosine.s": seconds["kernels.modified_cosine"],
        "kernels.modified_cosine.calls": calls["kernels.modified_cosine"],
        "kernels.modified_cosine.us_per_call": (
            1e6 * seconds["kernels.modified_cosine"] / calls["kernels.modified_cosine"]
            if calls["kernels.modified_cosine"] else 0.0
        ),
        "cli.import_s": seconds["cli.import"],
        "cli.main_s": seconds["cli.main"],
        "trace.spans": sum(len(spans) for spans in processes),
    })
    return out


def _attribute_layers(norm_starts: list[float], encode_end: float, layer_s: list[float]) -> None:
    """Split an encode span into encoder layers by its layer-norm calls.

    Each layer calls layer_norm twice, the first time at its start, so
    layer i runs from the start of norm call 2i to the start of norm call
    2i + 2 (or the end of the encode span, for the last layer).
    """
    bounds = norm_starts[0::2] + [encode_end]
    for i in range(min(len(bounds) - 1, len(layer_s))):
        layer_s[i] += bounds[i + 1] - bounds[i]
