"""Command line entry points: prepare, train, eval, search, predict,
export-embeddings.

Heavy imports happen inside the command handlers so that --threads can
pin the BLAS thread pools through environment variables before numpy
initializes them.
"""

from __future__ import annotations

import argparse
import os
import sys

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


# ----------------------------------------------------------------- config


def read_config_file(path) -> dict[str, str]:
    from .errors import ConfigError

    if not os.path.exists(path):
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
    """Merged view of config-file values and command line overrides."""

    def __init__(self, file_values: dict[str, str], args: argparse.Namespace):
        self.values = dict(file_values)
        for key, value in vars(args).items():
            if key in ("func", "config", "threads") or value is None:
                continue
            self.values[key.replace("_", "-")] = str(value)

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.values.get(key, default)

    def require(self, key: str) -> str:
        from .errors import ConfigError

        value = self.values.get(key)
        if value is None:
            raise ConfigError(f"missing required setting {key!r}")
        return value

    def get_int(self, key: str, default: int) -> int:
        from .errors import ConfigError

        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"setting {key!r} must be an integer, got {raw!r}") from None

    def get_float(self, key: str, default: float) -> float:
        from .errors import ConfigError

        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"setting {key!r} must be a number, got {raw!r}") from None

    def require_path(self, key: str) -> str:
        path = self.require(key)
        if not os.path.exists(path):
            raise FileNotFoundError(f"{key}: no such file: {path}")
        return path


# ----------------------------------------------------------- file helpers


def atomic_write_text(path, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    os.replace(tmp, path)


def out_path(settings: Settings, name: str) -> str:
    out_dir = settings.require("out-dir")
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def checkpoint_path(settings: Settings, mode: str) -> str:
    """The --checkpoint setting, else the mode's checkpoint in the out-dir."""
    return settings.get("checkpoint") or out_path(settings, f"model_{mode}.ckpt")


# ------------------------------------------------------ model assembly


def build_configs(settings: Settings):
    """EncoderConfig (the model) and TrainConfig (the optimization)."""
    from .embed import LAMBDA_MAX_DEFAULT, LAMBDA_MIN_DEFAULT, PrecisionMode
    from .encoder import EncoderConfig
    from .training import TrainConfig

    d = settings.get_int("d", 512)
    enc_cfg = EncoderConfig(
        d=d,
        layers=settings.get_int("layers", 6),
        heads=settings.get_int("heads", 32),
        inner_dim=settings.get_int("inner-dim", d),
        dropout=settings.get_float("dropout", 0.1),
        kind=settings.get("embedding", "sin"),
        max_fragments=settings.get_int("max-fragments", 512),
        lambda_min=settings.get_float("lambda-min", LAMBDA_MIN_DEFAULT),
        lambda_max=settings.get_float("lambda-max", LAMBDA_MAX_DEFAULT),
        resolution=settings.get_float("resolution", 0.1),
        max_mz=settings.get_float("max-mz", 2000.0),
        precision=PrecisionMode.from_string(settings.get("precision", "64")),
    )
    trn_cfg = TrainConfig(
        epochs=settings.get_int("epochs", 50),
        batch_size=settings.get_int("batch-size", 64),
        lr=settings.get_float("lr", 5.0e-5),
        beta1=settings.get_float("beta1", 0.9),
        beta2=settings.get_float("beta2", 0.999),
        weight_decay=settings.get_float("weight-decay", 0.1),
        clip=settings.get_float("clip", 0.5),
        seed=settings.get_int("seed", 0),
        pairs_per_epoch=settings.get_int("pairs-per-epoch", 1024),
        eval_pairs=settings.get_int("eval-pairs", 10_000),
    )
    return enc_cfg, trn_cfg


def run_config_text(settings: Settings, mode: str) -> str:
    """The digest-protected configuration record for checkpoints."""
    from .encoder import describe_config

    text = describe_config(build_configs(settings)[0])
    text += f"mode={mode}\n"
    if mode == "properties-baseline":
        text += f"bin_width={settings.get_float('bin-width', 0.1)!r}\n"
        text += f"bin_max_mz={settings.get_float('max-mz', 2000.0)!r}\n"
    return text


def load_dataset(settings: Settings):
    """Cleaned spectra (normalized), molecules, split assignment."""
    from .data import load_mgf, load_molecules, read_manifest
    from .embed import normalize_intensities

    out_dir = settings.require("out-dir")
    cleaned = os.path.join(out_dir, "cleaned.mgf")
    manifest = os.path.join(out_dir, "split_manifest.tsv")
    for path in (cleaned, manifest):
        if not os.path.exists(path):
            raise FileNotFoundError(f"prepared dataset incomplete, missing {path}; run prepare")
    spectra = [normalize_intensities(s) for s in load_mgf(cleaned)]
    molecules = load_molecules(
        settings.require_path("fingerprints"), settings.require_path("properties")
    )
    assignment = read_manifest(manifest, spectra)
    return spectra, molecules, assignment


def split_sets(spectra, assignment):
    by_id = {s.id: s for s in spectra}
    train = [by_id[i] for i in sorted(assignment.train_ids)]
    known = [by_id[i] for i in sorted(assignment.known_ids)]
    novel = [by_id[i] for i in sorted(assignment.novel_ids)]
    return train, known, novel


def load_model(settings: Settings, mode: str):
    """Load a checkpoint, refusing on config digest mismatch.

    Weights come back in their inference layout, binary64 column-major
    (``ModelWeights.for_inference``, ``BaselineParams.for_inference``);
    no binary32 copy is kept.
    """
    import numpy as np

    from .encoder import weights_from_named
    from .properties import BaselineParams, LabelScaler
    from .tensor import Tensor, load_checkpoint

    enc_cfg, _ = build_configs(settings)
    config_text = run_config_text(settings, mode)
    ckpt = checkpoint_path(settings, mode)
    if not os.path.exists(ckpt):
        raise FileNotFoundError(f"checkpoint not found: {ckpt}")
    params, _ = load_checkpoint(ckpt, config_text)

    scaler = None
    if "scaler.mean" in params:
        scaler = LabelScaler(
            mean=params.pop("scaler.mean").astype(np.float64),
            std=params.pop("scaler.std").astype(np.float64),
        )
    if mode == "properties-baseline":
        model = BaselineParams(
            **{
                name: Tensor(params.pop(f"baseline.{name}"))
                for name in ("w1", "b1", "w2", "b2", "w3", "b3")
            }
        ).for_inference()
    else:
        model = weights_from_named(params, enc_cfg).for_inference()
    return model, scaler, enc_cfg


# ------------------------------------------------------------- commands


def cmd_prepare(args) -> int:
    from .data import clean_spectra, load_mgf, load_molecules, make_split
    from .data import serialize_mgf, validate_coverage, write_manifest, write_rejection_log

    settings = Settings(read_config_file(args.config) if args.config else {}, args)
    spectra = load_mgf(settings.require_path("spectra"))
    molecules = load_molecules(
        settings.require_path("fingerprints"), settings.require_path("properties")
    )
    kept, rejected = clean_spectra(spectra)
    if not kept:
        from .errors import DataError

        raise DataError("no spectra survive cleaning")
    validate_coverage(kept, molecules)
    assignment = make_split(
        kept,
        n_novel=settings.get_int("n-novel", 0),
        n_known=settings.get_int("n-known", 0),
        seed=settings.get_int("seed", 0),
    )

    atomic_write_text(out_path(settings, "cleaned.mgf"), serialize_mgf(kept))
    manifest = out_path(settings, "split_manifest.tsv")
    tmp = manifest + ".tmp"
    write_manifest(tmp, kept, assignment)
    os.replace(tmp, manifest)
    rejections = out_path(settings, "rejections.tsv")
    tmp = rejections + ".tmp"
    write_rejection_log(tmp, rejected)
    os.replace(tmp, rejections)

    audit_lines = ["structure_id\tn_train\tn_known\tn_novel"]
    counts: dict[str, list[int]] = {}
    for s in kept:
        if s.structure_id is None:
            continue
        row = counts.setdefault(s.structure_id, [0, 0, 0])
        row[("train", "known", "novel").index(assignment.split_of(s.id))] += 1
    for sid in sorted(counts):
        row = counts[sid]
        audit_lines.append(f"{sid}\t{row[0]}\t{row[1]}\t{row[2]}")
    atomic_write_text(out_path(settings, "label_audit.tsv"), "\n".join(audit_lines) + "\n")

    print(
        f"prepared {len(kept)} spectra ({len(rejected)} rejected), "
        f"{len(assignment.train_ids)} train / {len(assignment.known_ids)} known / "
        f"{len(assignment.novel_ids)} novel"
    )
    return EXIT_OK


def _train_mode(settings: Settings, default: str = "siamese") -> str:
    from .errors import ConfigError

    mode = settings.get("mode", default)
    if mode not in ("siamese", "properties", "properties-baseline"):
        raise ConfigError(f"mode must be siamese/properties/properties-baseline, got {mode!r}")
    return mode


def _encoder_mode(settings: Settings) -> str:
    """The train mode of a command that needs the m/z embedding."""
    from .errors import ConfigError

    mode = _train_mode(settings)
    if mode == "properties-baseline":
        raise ConfigError(
            "the properties-baseline model has no m/z embedding; "
            "use mode siamese or properties"
        )
    return mode


def cmd_train(args) -> int:
    import numpy as np

    from .properties import train_properties
    from .siamese import train_siamese
    from .tensor import Tensor, save_checkpoint

    settings = Settings(read_config_file(args.config) if args.config else {}, args)
    mode = _train_mode(settings)
    enc_cfg, trn_cfg = build_configs(settings)
    spectra, molecules, assignment = load_dataset(settings)
    train, known, novel = split_sets(spectra, assignment)
    eval_sets = {}
    if known:
        eval_sets["known"] = known
    if novel:
        eval_sets["novel"] = novel

    config_text = run_config_text(settings, mode)
    if mode == "siamese":
        weights, log = train_siamese(train, molecules, trn_cfg, enc_cfg, eval_sets=eval_sets)
        named = {k: v.data for k, v in weights.named().items()}
    else:
        model, scaler, _report, log = train_properties(
            train, molecules, trn_cfg, enc_cfg, eval_sets=eval_sets,
            baseline=(mode == "properties-baseline"),
            bin_width=settings.get_float("bin-width", 0.1),
            bin_max_mz=settings.get_float("max-mz", 2000.0),
        )
        named = {k: v.data for k, v in model.named().items()}
        named["scaler.mean"] = scaler.mean.astype(np.float32)
        named["scaler.std"] = scaler.std.astype(np.float32)

    ckpt = checkpoint_path(settings, mode)
    tmp = ckpt + ".tmp"
    save_checkpoint(tmp, named, config_text)
    os.replace(tmp, ckpt)
    atomic_write_text(ckpt + ".config", config_text)
    log_path = settings.get("train-log") or out_path(settings, f"train_log_{mode}.tsv")
    atomic_write_text(log_path, log.serialize())
    print(f"wrote {ckpt} and {log_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    settings = Settings(read_config_file(args.config) if args.config else {}, args)
    mode = _train_mode(settings)
    spectra, molecules, assignment = load_dataset(settings)
    train, known, novel = split_sets(spectra, assignment)
    model, scaler, enc_cfg = load_model(settings, mode)

    if mode == "siamese":
        return _eval_siamese(settings, train, known, novel, molecules, model, enc_cfg)
    return _eval_properties(settings, mode, known, novel, molecules, model, scaler, enc_cfg)


def _eval_siamese(settings, train, known, novel, molecules, weights, enc_cfg) -> int:
    from .encoder import encode_many
    from .search import (
        cached_index,
        cosine_hits,
        evaluate_search,
        summarize_hits,
        write_accuracy_report,
        write_search_audit,
    )
    from .siamese import _pair_mse, build_similarity_bins, sample_uniform_pairs
    from .rng import stream_rng

    trn_cfg = build_configs(settings)[1]
    threshold = settings.get_float("threshold", 0.6)
    tolerance = settings.get_float("tolerance", 0.1)

    # Each spectrum is encoded at most once: the training library's rows
    # come from its index, the held-out spectra share one encode, and
    # both the pair MSE and the retrieval read those rows.
    index = cached_index(out_path(settings, "index_siamese.bin"), train, enc_cfg, weights)
    queries = known + novel
    held = encode_many(queries, enc_cfg, weights)
    rows = dict(zip(index.spectrum_ids, index.raw))
    rows.update(zip((s.id for s in queries), held))

    # Pair MSE per split.
    mse_lines = ["set\tmse\tn_pairs"]
    for name, spectra in (("train", train), ("known", known), ("novel", novel)):
        if not spectra:
            continue
        structures = sorted({s.structure_id for s in spectra if s.structure_id})
        bins = build_similarity_bins(molecules, structures, seed=trn_cfg.seed)
        pairs = sample_uniform_pairs(
            molecules, spectra, bins, trn_cfg.eval_pairs,
            stream_rng(trn_cfg.seed, "eval", name),
        )
        mse = _pair_mse(pairs, rows)
        mse_lines.append(f"{name}\t{mse:.6f}\t{len(pairs)}")
    atomic_write_text(out_path(settings, "pair_mse.tsv"), "\n".join(mse_lines) + "\n")

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

    def write_reports(accuracy_name, audit_name, rows):
        for filename, write in (
            (accuracy_name, write_accuracy_report), (audit_name, write_search_audit)
        ):
            path = out_path(settings, filename)
            write(path + ".tmp", rows)
            os.replace(path + ".tmp", path)

    write_reports("search_accuracy.tsv", "search_audit.tsv", reports)
    write_reports("cosine_accuracy.tsv", "cosine_audit.tsv", cosine_reports)
    print("wrote pair_mse.tsv, search_accuracy.tsv, search_audit.tsv, cosine_accuracy.tsv")
    return EXIT_OK


def _property_predictor(settings, mode, model, scaler, enc_cfg):
    """Natural-unit property predictions from a loaded checkpoint: the
    binned baseline's forward pass, or the encoder and its head."""
    from .errors import CheckpointError
    from .properties import predict_baseline, predict_properties_batch

    if scaler is None:
        raise CheckpointError("checkpoint carries no label scaler; retrain")
    if mode == "properties-baseline":
        bin_width = settings.get_float("bin-width", 0.1)
        bin_max = settings.get_float("max-mz", 2000.0)
        return lambda spectra: predict_baseline(spectra, model, scaler, bin_width, bin_max)
    return lambda spectra: predict_properties_batch(spectra, enc_cfg, model, scaler)


def _eval_properties(settings, mode, known, novel, molecules, model, scaler, enc_cfg) -> int:
    from .properties import evaluate_properties

    predict_fn = _property_predictor(settings, mode, model, scaler, enc_cfg)
    eval_sets = {}
    if known:
        eval_sets["known"] = known
    if novel:
        eval_sets["novel"] = novel
    report = evaluate_properties(eval_sets, molecules, predict_fn)
    path = out_path(settings, f"property_report_{mode}.tsv")
    atomic_write_text(path, report.serialize())
    print(f"wrote {path}")
    return EXIT_OK


def cmd_search(args) -> int:
    from .data import load_mgf
    from .embed import normalize_intensities
    from .encoder import encode_many
    from .search import cached_index, search_embedding

    settings = Settings(read_config_file(args.config) if args.config else {}, args)
    mode = _encoder_mode(settings)
    model, _scaler, enc_cfg = load_model(settings, mode)
    spectra, _molecules, assignment = load_dataset(settings)
    train, _, _ = split_sets(spectra, assignment)

    queries = [normalize_intensities(s) for s in load_mgf(settings.require_path("queries"))]
    queries.sort(key=lambda s: s.id)
    k = settings.get_int("k", 5)
    index = cached_index(out_path(settings, f"index_{mode}.bin"), train, enc_cfg, model)
    embeddings = encode_many(queries, enc_cfg, model)
    lines = ["query_id\trank\thit_id\thit_structure\tscore"]
    for query, emb in zip(queries, embeddings):
        result = search_embedding(emb, index, k, query_id=query.id)
        for rank, (hit_id, hit_structure, score) in enumerate(result.hits, start=1):
            lines.append(
                f"{query.id}\t{rank}\t{hit_id}\t{hit_structure or ''}\t{score:.6f}"
            )
    path = out_path(settings, "search_results.tsv")
    atomic_write_text(path, "\n".join(lines) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_predict(args) -> int:
    from .data import PROPERTY_NAMES, load_mgf
    from .embed import normalize_intensities

    settings = Settings(read_config_file(args.config) if args.config else {}, args)
    mode = _train_mode(settings, "properties")
    predict_fn = _property_predictor(settings, mode, *load_model(settings, mode))
    queries = [normalize_intensities(s) for s in load_mgf(settings.require_path("queries"))]
    queries.sort(key=lambda s: s.id)
    preds = predict_fn(queries)
    lines = ["spectrum_id\t" + "\t".join(PROPERTY_NAMES)]
    for s, row in zip(queries, preds):
        lines.append(s.id + "\t" + "\t".join(f"{v:.6f}" for v in row))
    path = out_path(settings, "predictions.tsv")
    atomic_write_text(path, "\n".join(lines) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_export_embeddings(args) -> int:
    import numpy as np

    from .embed import fractional_mz, sinusoidal_embed, tokenize_mz
    from .tensor import Tensor, feed_forward, no_grad

    settings = Settings(read_config_file(args.config) if args.config else {}, args)
    mode = _encoder_mode(settings)
    model, _scaler, enc_cfg = load_model(settings, mode)

    start = settings.get_float("grid-start", 0.0)
    step = settings.get_float("grid-step", 0.02)
    count = settings.get_int("grid-count", 50_000)
    grid = start + np.arange(count, dtype=np.float64) * step

    if enc_cfg.kind == "sin":
        with no_grad():
            se = sinusoidal_embed(grid, enc_cfg.sinusoidal, enc_cfg.precision)
            emb = feed_forward(Tensor(se), model.peak_inner).data
    else:
        ids = tokenize_mz(grid, enc_cfg.vocab)
        emb = model.token_table.data[ids]

    lines = [
        "mz\tfrac_mz\tprecision\t"
        + "\t".join(f"e{i}" for i in range(emb.shape[1]))
    ]
    frac = fractional_mz(grid)
    # One format string per line: formatting value by value took twice
    # as long, and a separate string for the components raised peak RSS.
    line_format = "\t".join(["%.5f", "%.5f", "%s"] + ["%.8g"] * emb.shape[1])
    precision = str(enc_cfg.precision)
    for mz, fr, row in zip(grid.tolist(), frac.tolist(), emb):
        lines.append(line_format % (mz, fr, precision, *row.tolist()))
    path = out_path(settings, "embedding_export.tsv")
    atomic_write_text(path, "\n".join(lines) + "\n")
    print(f"wrote {path} ({grid.shape[0]} rows)")
    return EXIT_OK


# --------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzembed",
        description="Spectrum embedding models for tandem mass spectrometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file (schema_version=1)")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--threads", type=int, help="BLAS thread cap")
        p.add_argument("--out-dir", dest="out_dir", help="output directory")
        p.add_argument(
            "--precision", choices=("16", "32", "64"), help="m/z input precision"
        )
        p.add_argument("--embedding", choices=("sin", "token"), help="peak embedding kind")
        p.add_argument(
            "--mode",
            choices=("siamese", "properties", "properties-baseline"),
            help="training/evaluation mode",
        )

    p = sub.add_parser("prepare", help="clean spectra, build splits")
    common(p)
    p.add_argument("--spectra", help="input MGF file")
    p.add_argument("--fingerprints", help="fingerprint TSV")
    p.add_argument("--properties", help="property TSV")
    p.add_argument("--n-novel", dest="n_novel", type=int, help="novel structures")
    p.add_argument("--n-known", dest="n_known", type=int, help="known spectra")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model")
    common(p)
    p.add_argument("--fingerprints", help="fingerprint TSV")
    p.add_argument("--properties", help="property TSV")
    p.add_argument("--epochs", type=int, help="training epochs")
    p.add_argument("--checkpoint", help="checkpoint output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model")
    common(p)
    p.add_argument("--fingerprints", help="fingerprint TSV")
    p.add_argument("--properties", help="property TSV")
    p.add_argument("--checkpoint", help="checkpoint path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("search", help="library search for query spectra")
    common(p)
    p.add_argument("--fingerprints", help="fingerprint TSV")
    p.add_argument("--properties", help="property TSV")
    p.add_argument("--checkpoint", help="checkpoint path")
    p.add_argument("--queries", help="query MGF file")
    p.add_argument("--k", type=int, help="hits per query")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("predict", help="predict properties for query spectra")
    common(p)
    p.add_argument("--fingerprints", help="fingerprint TSV")
    p.add_argument("--properties", help="property TSV")
    p.add_argument("--checkpoint", help="checkpoint path")
    p.add_argument("--queries", help="query MGF file")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("export-embeddings", help="write the m/z embedding grid")
    common(p)
    p.add_argument("--checkpoint", help="checkpoint path")
    p.add_argument("--grid-step", dest="grid_step", type=float, help="grid step in Daltons")
    p.add_argument("--grid-count", dest="grid_count", type=int, help="grid row count")
    p.set_defaults(func=cmd_export_embeddings)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "threads", None):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)

    from .errors import (
        CheckpointError,
        ConfigError,
        DataError,
        MzembedError,
        ParseError,
    )

    try:
        return args.func(args)
    except (ConfigError, ParseError, DataError, CheckpointError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MzembedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
