"""Command line entry points: prepare, train, eval, search, predict,
export-embeddings.

SETTINGS declares every key a flag or the config file can give, once:
its parser, its range check, and the EncoderConfig or TrainConfig field
it fills. Heavy imports happen inside the command handlers so that
``main`` can pin BLAS to one thread, through environment variables read
once when numpy loads, before the encoder's worker pool takes the
thread budget (``pin_blas``).
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import shutil
import sys
from collections.abc import Callable
from dataclasses import dataclass

from .errors import CheckpointError, ConfigError, DataError, MzembedError, ParseError
from .outputs import publish, tsv

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

# Grid rows embedded and written at a time by export-embeddings.
EXPORT_BLOCK_ROWS = 4096


# --------------------------------------------------------------- settings


@dataclass(frozen=True)
class Key:
    """One setting: ``parse`` turns its text into a value that must be one
    of ``choices`` and pass ``check``, a (predicate, requirement) pair. A
    key that fills an EncoderConfig ("encoder.<name>") or TrainConfig
    ("train.<name>") field takes its default and range check from there."""

    help: str
    parse: Callable[[str], object] = str
    check: tuple[Callable[[object], bool], str] | None = None
    choices: tuple[str, ...] | None = None
    field: str | None = None
    default: object = None


POSITIVE = (lambda v: 0 < v < math.inf, "must be positive and finite")
NON_NEGATIVE = (lambda v: 0 <= v < math.inf, "must be non-negative and finite")
AT_LEAST_ONE = (lambda v: v >= 1, "must be at least 1")
FRACTION = (lambda v: 0 <= v <= 1, "must be in [0, 1]")
MODES = ("siamese", "properties", "properties-baseline")

SETTINGS: dict[str, Key] = {
    "schema_version": Key("config file format; read_config_file checks it"),
    # Inputs and outputs.
    "out-dir": Key("output directory"),
    "spectra": Key("input MGF file"),
    "fingerprints": Key("fingerprint TSV"),
    "properties": Key("property TSV"),
    "queries": Key("query MGF file"),
    "checkpoint": Key("checkpoint path"),
    # The run.
    "mode": Key("training/evaluation mode", choices=MODES, default="siamese"),
    "threads": Key("thread budget: encoder workers, each on one BLAS thread", int, AT_LEAST_ONE),
    "n-novel": Key("novel structures", int, default=0),
    "n-known": Key("known spectra", int, default=0),
    "k": Key("hits per query", int, AT_LEAST_ONE, default=5),
    "threshold": Key("Tanimoto threshold of an approximate match", float, FRACTION),
    "tolerance": Key("modified-cosine m/z tolerance", float, POSITIVE),
    "bin-width": Key("properties-baseline m/z bin width", float, POSITIVE),
    "grid-start": Key("first grid m/z", float, NON_NEGATIVE, default=0.0),
    "grid-step": Key("grid step in Daltons", float, POSITIVE, default=0.02),
    "grid-count": Key("grid row count", int, AT_LEAST_ONE, default=50_000),
    # The model: EncoderConfig.
    "d": Key("model width", int, field="encoder.d"),
    "layers": Key("encoder layers", int, field="encoder.layers"),
    "heads": Key("attention heads", int, field="encoder.heads"),
    "inner-dim": Key("feed-forward hidden width", int, field="encoder.inner_dim"),
    "dropout": Key("dropout rate", float, field="encoder.dropout"),
    "embedding": Key("peak embedding kind", choices=("sin", "token"), field="encoder.kind"),
    "max-fragments": Key("fragments kept per spectrum", int, field="encoder.max_fragments"),
    "lambda-min": Key("shortest sinusoid wavelength", float, field="encoder.lambda_min"),
    "lambda-max": Key("longest sinusoid wavelength", float, field="encoder.lambda_max"),
    "resolution": Key("token m/z resolution", float, field="encoder.resolution"),
    "max-mz": Key("top m/z of the token vocabulary and baseline bins", float, field="encoder.max_mz"),
    "precision": Key("m/z input precision in bits; only the sin kind reads it",
                     choices=("16", "32", "64"), field="encoder.precision"),
    # The optimization: TrainConfig.
    "seed": Key("random seed", int, field="train.seed"),
    "epochs": Key("training epochs", int, field="train.epochs"),
    "batch-size": Key("pairs or spectra per step", int, field="train.batch_size"),
    "lr": Key("Adam learning rate", float, field="train.lr"),
    "beta1": Key("Adam beta1", float, field="train.beta1"),
    "beta2": Key("Adam beta2", float, field="train.beta2"),
    "weight-decay": Key("decoupled weight decay", float, field="train.weight_decay"),
    "clip": Key("gradient norm clip", float, field="train.clip"),
    "pairs-per-epoch": Key("training pairs per epoch", int, field="train.pairs_per_epoch"),
    "eval-pairs": Key("held-out pairs per split", int, field="train.eval_pairs"),
}

_KINDS = {int: "an integer", float: "a number"}


def parse_setting(key: str, text: str):
    """The value of one setting, parsed and range-checked."""
    spec = SETTINGS.get(key)
    if spec is None:
        raise ConfigError(f"unknown setting {key!r}")
    try:
        value = spec.parse(text)
    except ValueError:
        raise ConfigError(f"setting {key!r} must be {_KINDS[spec.parse]}, got {text!r}") from None
    if spec.choices and value not in spec.choices:
        raise ConfigError(f"setting {key!r} must be one of {'/'.join(spec.choices)}, got {text!r}")
    if spec.check and not spec.check[0](value):
        raise ConfigError(f"setting {key!r} {spec.check[1]}, got {text!r}")
    return value


def read_config_file(path) -> dict[str, str]:
    if not os.path.isfile(path):
        raise FileNotFoundError(f"config file not found: {path}")
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if key not in SETTINGS:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
            values[key] = value.strip()
    if values.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: schema_version must be {SCHEMA_VERSION}, "
            f"got {values.get('schema_version')!r}"
        )
    return values


class Settings:
    """Config-file values overridden by command line flags, each parsed
    and range-checked by its SETTINGS entry."""

    def __init__(self, file_values: dict[str, str], args: argparse.Namespace):
        merged = dict(file_values)
        for name, value in vars(args).items():
            if name not in ("func", "command", "config") and value is not None:
                merged[name.replace("_", "-")] = str(value)
        self.values = {key: parse_setting(key, text) for key, text in merged.items()}

    def get(self, key: str, default=None):
        """The key's value; when unset, ``default`` or else the table's."""
        if key in self.values:
            return self.values[key]
        return SETTINGS[key].default if default is None else default

    def require(self, key: str) -> str:
        value = self.get(key)
        if value is None:
            raise ConfigError(f"missing required setting {key!r}")
        return value

    def require_path(self, key: str) -> str:
        path = self.require(key)
        if not os.path.isfile(path):
            raise FileNotFoundError(f"{key}: no such file: {path}")
        return path

    def fields(self, config: str) -> dict[str, object]:
        """The set values of ``config``'s ("encoder" or "train") fields, by name."""
        field = {key: (SETTINGS[key].field or "").partition(".") for key in self.values}
        return {field[k][2]: v for k, v in self.values.items() if field[k][0] == config}


# ----------------------------------------------------------- file helpers


def out_path(settings: Settings, name: str) -> str:
    """The path of a file the command writes into the out-dir, which is
    created if absent."""
    out_dir = settings.require("out-dir")
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def checkpoint_path(settings: Settings, mode: str) -> str:
    """The --checkpoint setting, else the mode's checkpoint in the out-dir;
    no directory is created, so a command that cannot find it writes
    nothing."""
    return settings.get("checkpoint") or os.path.join(
        settings.require("out-dir"), f"model_{mode}.ckpt"
    )


# ------------------------------------------------------ model assembly


def build_configs(settings: Settings):
    """EncoderConfig (the model) and TrainConfig (the optimization), from
    the keys that are set; every other field keeps its dataclass default."""
    from .embed import PrecisionMode
    from .encoder import EncoderConfig
    from .training import TrainConfig

    encoder = settings.fields("encoder")
    if "precision" in encoder:
        encoder["precision"] = PrecisionMode(int(encoder["precision"]))
    return EncoderConfig(**encoder), TrainConfig(**settings.fields("train"))


def baseline_bins(settings: Settings, enc_cfg) -> tuple[float, float]:
    """The properties baseline's bin width and top bin edge (max-mz)."""
    from .properties import DEFAULT_BIN_WIDTH

    return settings.get("bin-width", DEFAULT_BIN_WIDTH), enc_cfg.max_mz


def run_config_text(settings: Settings, mode: str) -> str:
    """The digest-protected configuration record for checkpoints."""
    from .encoder import describe_config

    enc_cfg = build_configs(settings)[0]
    if mode == "properties-baseline":
        # The binned baseline reads only the width and the bins.
        bin_width, bin_max_mz = baseline_bins(settings, enc_cfg)
        return (
            f"d={enc_cfg.d}\nschema_version=1\nmode={mode}\n"
            f"bin_width={bin_width!r}\nbin_max_mz={bin_max_mz!r}\n"
        )
    return describe_config(enc_cfg) + f"mode={mode}\n"


def load_dataset(settings: Settings):
    """The prepared train, known and novel spectra, intensity-normalized,
    each list in id order."""
    from .data import load_mgf, read_manifest
    from .embed import normalize_intensities

    out_dir = settings.require("out-dir")
    cleaned = os.path.join(out_dir, "cleaned.mgf")
    manifest = os.path.join(out_dir, "split_manifest.tsv")
    for path in (cleaned, manifest):
        if not os.path.isfile(path):
            raise FileNotFoundError(f"prepared dataset incomplete, missing {path}; run prepare")
    spectra = [normalize_intensities(s) for s in load_mgf(cleaned)]
    assignment = read_manifest(manifest, spectra)
    by_id = {s.id: s for s in spectra}
    return tuple(
        [by_id[i] for i in sorted(ids)]
        for ids in (assignment.train_ids, assignment.known_ids, assignment.novel_ids)
    )


def load_labels(settings: Settings):
    """The molecules of the fingerprint and property files, by structure id."""
    from .data import load_molecules

    return load_molecules(
        settings.require_path("fingerprints"), settings.require_path("properties")
    )


def load_queries(settings: Settings):
    """The query spectra, intensity-normalized, in id order."""
    from .data import load_mgf
    from .embed import normalize_intensities

    path = settings.require_path("queries")
    queries = sorted((normalize_intensities(s) for s in load_mgf(path)), key=lambda s: s.id)
    if not queries:
        raise DataError(f"query file {path} holds no spectra")
    return queries


def load_model(settings: Settings, mode: str):
    """Load the mode's checkpoint, refusing on config digest mismatch.

    The records must be the mode's layout exactly: the encoder's table,
    with the property head in mode properties, or the binned baseline's;
    a property mode's layout ends with the label scaler's records
    (``properties.SCALER_SHAPES``). ``load_table`` refuses a missing,
    unknown or wrong-shaped record. The weights come back as the table's
    inference copy, binary64 column-major (``ModelWeights.for_inference``);
    no binary32 copy is kept. The scaler is None in mode siamese.
    """
    from .embed.features import bin_count
    from .encoder import load_table, parameter_shapes
    from .properties import N_PROPERTIES, SCALER_SHAPES, LabelScaler, baseline_shapes
    from .tensor import load_checkpoint

    enc_cfg, _ = build_configs(settings)
    config_text = run_config_text(settings, mode)
    ckpt = checkpoint_path(settings, mode)
    if not os.path.isfile(ckpt):
        raise FileNotFoundError(f"checkpoint not found: {ckpt}")
    records, _ = load_checkpoint(ckpt, config_text)

    if mode == "siamese":
        weights = load_table(records, parameter_shapes(enc_cfg, None))
        return weights.for_inference(), None, enc_cfg
    if mode == "properties-baseline":
        shapes = baseline_shapes(bin_count(*baseline_bins(settings, enc_cfg)), enc_cfg.d)
    else:
        shapes = parameter_shapes(enc_cfg, N_PROPERTIES)
    weights, scaler = LabelScaler.split(load_table(records, shapes | SCALER_SHAPES))
    return weights.for_inference(), scaler, enc_cfg


# ------------------------------------------------------------- commands


def cmd_prepare(settings: Settings) -> int:
    from .data import clean_spectra, load_mgf, load_molecules, make_split
    from .data import serialize_mgf, validate_coverage, write_manifest, write_rejection_log

    seed = build_configs(settings)[1].seed
    spectra = load_mgf(settings.require_path("spectra"))
    molecules = load_molecules(
        settings.require_path("fingerprints"), settings.require_path("properties")
    )
    kept, rejected = clean_spectra(spectra)
    if not kept:
        raise DataError("no spectra survive cleaning")
    validate_coverage(kept, molecules)
    assignment = make_split(
        kept, n_novel=settings.get("n-novel"), n_known=settings.get("n-known"), seed=seed
    )

    publish(out_path(settings, "cleaned.mgf"), serialize_mgf(kept))
    write_manifest(out_path(settings, "split_manifest.tsv"), kept, assignment)
    write_rejection_log(out_path(settings, "rejections.tsv"), rejected)

    counts: dict[str, list[int]] = {}
    for s in kept:
        row = counts.setdefault(s.structure_id, [0, 0, 0])
        row[("train", "known", "novel").index(assignment.split_of(s.id))] += 1
    audit = [(sid, *counts[sid]) for sid in sorted(counts)]
    publish(
        out_path(settings, "label_audit.tsv"),
        tsv(("structure_id", "n_train", "n_known", "n_novel"), audit),
    )

    print(
        f"prepared {len(kept)} spectra ({len(rejected)} rejected), "
        f"{len(assignment.train_ids)} train / {len(assignment.known_ids)} known / "
        f"{len(assignment.novel_ids)} novel"
    )
    return EXIT_OK


def _encoder_mode(settings: Settings) -> str:
    """The train mode of a command that needs the m/z embedding."""
    mode = settings.get("mode")
    if mode == "properties-baseline":
        raise ConfigError(
            "the properties-baseline model has no m/z embedding; "
            "use mode siamese or properties"
        )
    return mode


def cmd_train(settings: Settings) -> int:
    from .properties import train_properties
    from .siamese import train_siamese
    from .tensor import save_checkpoint

    mode = settings.get("mode")
    enc_cfg, trn_cfg = build_configs(settings)
    train, known, novel = load_dataset(settings)
    molecules = load_labels(settings)

    config_text = run_config_text(settings, mode)
    if mode == "siamese":
        eval_sets = {name: part for name, part in (("known", known), ("novel", novel)) if part}
        weights, log = train_siamese(train, molecules, trn_cfg, enc_cfg, eval_sets=eval_sets)
        named = {k: v.data for k, v in weights.named().items()}
    else:
        # No eval sets: `eval` writes the held-out report, not `train`.
        bin_width, bin_max_mz = baseline_bins(settings, enc_cfg)
        model, scaler, _report, log = train_properties(
            train, molecules, trn_cfg, enc_cfg,
            baseline=(mode == "properties-baseline"),
            bin_width=bin_width, bin_max_mz=bin_max_mz,
        )
        named = {k: v.data for k, v in model.named().items()} | scaler.records()

    ckpt = checkpoint_path(settings, mode)
    publish(ckpt, lambda tmp: save_checkpoint(tmp, named, config_text))
    publish(ckpt + ".config", config_text)
    log_path = out_path(settings, f"train_log_{mode}.tsv")
    publish(log_path, log.serialize())
    print(f"wrote {ckpt} and {log_path}")
    return EXIT_OK


def cmd_eval(settings: Settings) -> int:
    from .properties import evaluate_properties, property_predictor

    mode = settings.get("mode")
    train, known, novel = load_dataset(settings)
    molecules = load_labels(settings)
    model, scaler, enc_cfg = load_model(settings, mode)

    if mode == "siamese":
        return _eval_siamese(settings, train, known, novel, molecules, model, enc_cfg)
    predict_fn = property_predictor(model, scaler, enc_cfg, *baseline_bins(settings, enc_cfg))
    report = evaluate_properties({"known": known, "novel": novel}, molecules, predict_fn)
    path = out_path(settings, f"property_report_{mode}.tsv")
    publish(path, report.serialize())
    print(f"wrote {path}")
    return EXIT_OK


def _eval_siamese(settings, train, known, novel, molecules, weights, enc_cfg) -> int:
    from .encoder import encode_many
    from .search import DEFAULT_TANIMOTO_THRESHOLD, DEFAULT_TOLERANCE, cached_index, cosine_hits
    from .search import evaluate_search, summarize_hits, write_accuracy_report, write_search_audit
    from .siamese import _pair_mse, eval_pair_sample

    trn_cfg = build_configs(settings)[1]
    threshold = settings.get("threshold", DEFAULT_TANIMOTO_THRESHOLD)
    tolerance = settings.get("tolerance", DEFAULT_TOLERANCE)

    # Each spectrum is encoded at most once: the training library's rows
    # come from its index, the held-out spectra share one encode, and
    # both the pair MSE and the retrieval read those rows.
    index = cached_index(out_path(settings, "index_siamese.bin"), train, enc_cfg, weights)
    queries = known + novel
    held = encode_many(queries, enc_cfg, weights)
    rows = dict(zip(index.spectrum_ids, index.raw))
    rows.update(zip((s.id for s in queries), held))

    # Pair MSE per split.
    mse_rows = []
    for name, spectra in (("train", train), ("known", known), ("novel", novel)):
        if not spectra:
            continue
        pairs = eval_pair_sample(name, spectra, molecules, trn_cfg)
        mse_rows.append((name, f"{_pair_mse(pairs, rows):.6f}", len(pairs)))
    publish(out_path(settings, "pair_mse.tsv"), tsv(("set", "mse", "n_pairs"), mse_rows))

    # Embedding retrieval and the modified-cosine baseline, both against
    # the training reference library.
    sets = [
        (name, include_exact, part)
        for name, include_exact, part in (
            ("known", True, slice(0, len(known))),
            ("novel", False, slice(len(known), None)),
        )
        if queries[part]
    ]
    reports = [
        evaluate_search(
            queries[part], index, molecules, enc_cfg, weights,
            threshold=threshold, query_set=name, include_exact=include_exact,
            embeddings=held[part],
        )
        for name, include_exact, part in sets
    ]
    hits = cosine_hits(queries, train, tolerance)
    cosine_reports = [
        summarize_hits(hits[part], molecules, threshold, name, include_exact)
        for name, include_exact, part in sets
    ]
    write_accuracy_report(out_path(settings, "search_accuracy.tsv"), reports)
    write_search_audit(out_path(settings, "search_audit.tsv"), reports)
    write_accuracy_report(out_path(settings, "cosine_accuracy.tsv"), cosine_reports)
    write_search_audit(out_path(settings, "cosine_audit.tsv"), cosine_reports)
    print("wrote pair_mse.tsv, search_accuracy.tsv, search_audit.tsv, cosine_accuracy.tsv")
    return EXIT_OK


def cmd_search(settings: Settings) -> int:
    from .encoder import encode_many
    from .search import cached_index, search_embedding

    mode = _encoder_mode(settings)
    model, _scaler, enc_cfg = load_model(settings, mode)
    train, _, _ = load_dataset(settings)

    queries = load_queries(settings)
    k = settings.get("k")
    index = cached_index(out_path(settings, f"index_{mode}.bin"), train, enc_cfg, model)
    embeddings = encode_many(queries, enc_cfg, model)
    hits = [
        (result.query_id, rank, hit_id, hit_structure, f"{score:.6f}")
        for result in search_embedding(embeddings, index, k, [q.id for q in queries])
        for rank, (hit_id, hit_structure, score) in enumerate(result.hits, start=1)
    ]
    path = out_path(settings, "search_results.tsv")
    publish(path, tsv(("query_id", "rank", "hit_id", "hit_structure", "score"), hits))
    print(f"wrote {path}")
    return EXIT_OK


def cmd_predict(settings: Settings) -> int:
    from .data import PROPERTY_NAMES
    from .properties import property_predictor

    mode = settings.get("mode", "properties")
    if mode == "siamese":
        raise ConfigError(
            "the siamese model predicts no properties; "
            "use mode properties or properties-baseline"
        )
    model, scaler, enc_cfg = load_model(settings, mode)
    predict_fn = property_predictor(model, scaler, enc_cfg, *baseline_bins(settings, enc_cfg))
    queries = load_queries(settings)
    preds = predict_fn(queries)
    rows = [(s.id, *(f"{v:.6f}" for v in row)) for s, row in zip(queries, preds)]
    path = out_path(settings, "predictions.tsv")
    publish(path, tsv(("spectrum_id", *PROPERTY_NAMES), rows))
    print(f"wrote {path}")
    return EXIT_OK


def export_blocks(count: int):
    """(start, stop) rows of the export's blocks, made one at a time:
    ``EXPORT_BLOCK_ROWS`` each, the last one longer. No block but a whole
    one-row grid has one row, because a one-row matmul rounds differently
    from the rows of a larger one."""
    starts = range(0, max(count - 1, 1), EXPORT_BLOCK_ROWS)
    return zip(starts, itertools.chain(starts[1:], [count]))


def check_export_grid(settings: Settings, enc_cfg) -> None:
    """Refuse, before a checkpoint loads, a grid whose last m/z is not
    finite, whose ends the model's m/z features refuse, or whose file
    cannot fit in the free space of the out-dir's filesystem."""
    from .embed.features import mz_features

    start, step = settings.get("grid-start"), settings.get("grid-step")
    count = settings.get("grid-count")
    try:
        last = start + (count - 1) * step
    except OverflowError:  # a count beyond binary64
        last = math.inf
    if not math.isfinite(last):
        raise ConfigError(
            f"the grid's last m/z, grid-start + (grid-count - 1) x grid-step = "
            f"{start!r} + {count - 1} x {step!r}, is not finite"
        )
    grid = f"grid-start={start!r}, grid-step={step!r}, grid-count={count}"
    try:
        mz_features([start, last], enc_cfg)
    except MzembedError as exc:
        raise ConfigError(f"the grid {grid} cannot be embedded: {exc}") from None
    # The shortest row: "0.00000\t0.00000\tbinaryNN", a tab and one
    # character per component, and the line end.
    need = count * (25 + 2 * enc_cfg.d)
    free = free_bytes(settings.require("out-dir"))
    if need > free:
        raise ConfigError(
            f"the grid {grid} needs at least {need} bytes, "
            f"and the out-dir's filesystem has {free} free"
        )


def free_bytes(directory: str) -> int:
    """The free bytes of the filesystem that holds ``directory``, or its
    nearest existing parent when it does not exist yet."""
    probe = os.path.abspath(directory)
    while not os.path.isdir(probe):
        probe = os.path.dirname(probe)
    return shutil.disk_usage(probe).free


def cmd_export_embeddings(settings: Settings) -> int:
    import numpy as np

    from .embed import fractional_mz, mz_embedding
    from .tensor import no_grad

    mode = _encoder_mode(settings)
    check_export_grid(settings, build_configs(settings)[0])
    start, step = settings.get("grid-start"), settings.get("grid-step")
    count = settings.get("grid-count")
    model, _scaler, enc_cfg = load_model(settings, mode)
    table = model.named()

    precision = str(enc_cfg.precision)
    # One format string per line: formatting value by value took twice
    # as long, and a separate string for the components raised peak RSS.
    line_format = "\t".join(["%.5f", "%.5f", "%s"] + ["%.8g"] * enc_cfg.d) + "\n"
    header = tsv(["mz", "frac_mz", "precision"] + [f"e{i}" for i in range(enc_cfg.d)], ())

    def write(tmp):
        # Each block's grid is built from its own rows, then embedded,
        # formatted and written, so memory stays bounded at any grid size.
        with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(header)
            for lo, hi in export_blocks(count):
                grid = start + np.arange(lo, hi, dtype=np.float64) * step
                with no_grad():
                    emb = mz_embedding(grid, enc_cfg, table).data
                handle.write("".join(
                    line_format % (mz, fr, precision, *row.tolist())
                    for mz, fr, row in zip(grid.tolist(), fractional_mz(grid).tolist(), emb)
                ))

    path = out_path(settings, "embedding_export.tsv")
    publish(path, write)
    print(f"wrote {path} ({count} rows)")
    return EXIT_OK


# --------------------------------------------------------------- parser

COMMON_FLAGS = ("seed", "threads", "out-dir", "precision", "embedding", "mode")
LABELS = ("fingerprints", "properties")
COMMANDS = {  # name: (handler, help, flags besides COMMON_FLAGS)
    "prepare": (cmd_prepare, "clean spectra, build splits", ("spectra", *LABELS, "n-novel", "n-known")),
    "train": (cmd_train, "train a model", (*LABELS, "epochs", "checkpoint")),
    "eval": (cmd_eval, "evaluate a trained model", (*LABELS, "checkpoint")),
    "search": (cmd_search, "library search for query spectra", (*LABELS, "checkpoint", "queries", "k")),
    "predict": (cmd_predict, "predict properties for query spectra", (*LABELS, "checkpoint", "queries")),
    "export-embeddings": (
        cmd_export_embeddings, "write the m/z embedding grid", ("checkpoint", "grid-step", "grid-count")
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per COMMANDS entry. Flag values stay text: Settings
    parses them together with the config file's."""
    parser = argparse.ArgumentParser(
        prog="mzembed",
        description="Spectrum embedding models for tandem mass spectrometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file (schema_version=1)")
        for key in COMMON_FLAGS + flags:
            p.add_argument(f"--{key}", choices=SETTINGS[key].choices, help=SETTINGS[key].help)
        p.set_defaults(func=func)
    return parser


BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def thread_budget(threads: int | None) -> int:
    """The threads setting; else OPENBLAS_NUM_THREADS or OMP_NUM_THREADS,
    the first that holds a positive integer; else the usable CPUs."""
    if threads is not None:
        return threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        text = os.environ.get(var, "").strip()
        if text.isdecimal() and int(text) > 0:
            return int(text)
    return usable_cpus()


def _numpy_loaded() -> bool:
    return "numpy" in sys.modules


def pin_blas(threads: int | None) -> int:
    """Pin BLAS to one thread and return the encoder's worker count: the
    thread budget, at most the usable CPUs.

    BLAS reads its thread count once, when numpy loads, and on one
    spectrum's matmuls its second thread gains nothing, where a second
    encoder worker does. A process that has loaded numpy already (a test
    run, a library caller) keeps its BLAS threads and encodes serially:
    workers on top of BLAS threads oversubscribe the cores.
    """
    if _numpy_loaded():
        return 1
    workers = min(thread_budget(threads), usable_cpus())
    os.environ.update(dict.fromkeys(BLAS_VARIABLES, "1"))
    return workers


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = Settings(read_config_file(args.config) if args.config else {}, args)
        workers = pin_blas(settings.get("threads"))
        from .encoder import encode_workers  # numpy loads here, after the pin

        with encode_workers(workers):
            return args.func(settings)
    except (ConfigError, ParseError, DataError, CheckpointError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MzembedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
