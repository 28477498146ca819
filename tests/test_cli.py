"""End-to-end command line flows on a tiny on-disk dataset."""

import argparse
import ast
import os
import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import toy_dataset
from mzembed import cli, encoder
from mzembed.cli import (
    SETTINGS,
    Settings,
    build_configs,
    build_parser,
    main,
    pin_blas,
    read_config_file,
    run_config_text,
    thread_budget,
)
from mzembed.data import PROPERTY_NAMES, Peak, Spectrum, load_mgf, serialize_mgf
from mzembed.embed import PrecisionMode, normalize_intensities
from mzembed.encoder import EncoderConfig, describe_config
from mzembed.errors import ConfigError
from mzembed.search import INDEX_MAGIC
from mzembed.training import TrainConfig

REPO = Path(__file__).resolve().parents[1]

CONFIG_SMALL = """\
# tiny model for tests
schema_version=1
d=8
layers=1
heads=1
inner-dim=8
dropout=0.0
max-fragments=16
epochs=2
batch-size=8
lr=0.001
pairs-per-epoch=8
eval-pairs=4
seed=3
"""


def hex_fingerprint(bits: np.ndarray) -> str:
    return np.packbits(bits.astype(np.uint8)).tobytes().hex()


def write_inputs(root, n_structures=5, spectra_per=4, seed=77):
    """Raw MGF plus label TSVs under root; returns a path dict."""
    root.mkdir(parents=True, exist_ok=True)
    spectra, molecules = toy_dataset(
        n_structures=n_structures, spectra_per=spectra_per, seed=seed
    )
    raw = root / "raw.mgf"
    raw.write_text(serialize_mgf(spectra))
    fp = root / "fingerprints.tsv"
    fp.write_text(
        "".join(
            f"{sid}\t{hex_fingerprint(molecules[sid].fingerprint)}\n"
            for sid in sorted(molecules)
        )
    )
    prop = root / "properties.tsv"
    header = "structure_id\t" + "\t".join(PROPERTY_NAMES)
    rows = [
        sid + "\t" + "\t".join(f"{v:.6f}" for v in molecules[sid].properties)
        for sid in sorted(molecules)
    ]
    prop.write_text(header + "\n" + "\n".join(rows) + "\n")
    cfg = root / "run.cfg"
    cfg.write_text(CONFIG_SMALL)
    return {
        "raw": raw, "fingerprints": fp, "properties": prop, "config": cfg,
        "out": root / "out", "spectra": spectra, "molecules": molecules,
    }


def common_args(paths):
    return [
        "--config", str(paths["config"]),
        "--out-dir", str(paths["out"]),
        "--fingerprints", str(paths["fingerprints"]),
        "--properties", str(paths["properties"]),
    ]


def run_prepare(paths, extra=()):
    return main(
        ["prepare", "--spectra", str(paths["raw"]),
         "--n-novel", "2", "--n-known", "4", *common_args(paths), *extra]
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Prepared dataset with one trained model per mode."""
    root = tmp_path_factory.mktemp("cli")
    paths = write_inputs(root)
    assert run_prepare(paths) == 0
    for mode in ("siamese", "properties", "properties-baseline"):
        assert main(["train", "--mode", mode, *common_args(paths)]) == 0
    return paths


class TestPrepare:
    def test_outputs_and_split_accounting(self, tmp_path):
        paths = write_inputs(tmp_path)
        assert run_prepare(paths) == 0
        out = paths["out"]
        for name in ("cleaned.mgf", "split_manifest.tsv", "rejections.tsv", "label_audit.tsv"):
            assert (out / name).exists(), name

        manifest = (out / "split_manifest.tsv").read_text().splitlines()
        assert manifest[0] == "spectrum_id\tstructure_id\tsplit"
        splits = [line.split("\t")[2] for line in manifest[1:]]
        assert len(splits) == 20
        assert splits.count("novel") == 8  # two structures, wholesale
        assert splits.count("known") == 4
        assert splits.count("train") == 8

        audit = (out / "label_audit.tsv").read_text().splitlines()
        assert audit[0] == "structure_id\tn_train\tn_known\tn_novel"
        for line in audit[1:]:
            counts = [int(v) for v in line.split("\t")[1:]]
            assert sum(counts) == 4

    def test_prepare_is_deterministic(self, tmp_path):
        a = write_inputs(tmp_path / "a")
        b = write_inputs(tmp_path / "b")
        assert run_prepare(a) == 0
        assert run_prepare(b) == 0
        for name in ("cleaned.mgf", "split_manifest.tsv", "label_audit.tsv"):
            assert (a["out"] / name).read_bytes() == (b["out"] / name).read_bytes()

    def test_missing_input_exits_2(self, tmp_path):
        paths = write_inputs(tmp_path)
        code = main(
            ["prepare", "--spectra", str(tmp_path / "nope.mgf"), *common_args(paths)]
        )
        assert code == 2

    def test_all_zero_spectrum_rejected_and_train_runs(self, tmp_path):
        paths = write_inputs(tmp_path)
        zero = Spectrum(
            id="zero", precursor=Peak(1000.0, 1.0),
            fragments=tuple(Peak(100.0 + 10.0 * i, 0.0) for i in range(5)),
            structure_id="m0",
        )
        paths["raw"].write_text(serialize_mgf([*paths["spectra"], zero]))
        assert run_prepare(paths) == 0
        rejections = (paths["out"] / "rejections.tsv").read_text().splitlines()
        assert rejections[1:] == ["zero\tall fragment intensities are zero"]
        assert main(["train", "--mode", "siamese", *common_args(paths)]) == 0

    def test_number_beyond_binary64_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # float() reads it as inf; cleaned.mgf must never hold a value
        # its own parser refuses.
        paths = write_inputs(tmp_path)
        assert run_prepare(paths) == 0
        before = snapshot(paths["out"])
        lines = paths["raw"].read_text().splitlines()
        line_no = next(i for i, line in enumerate(lines, 1) if line[:1].isdigit())
        big = "1" + "0" * 400 + ".0000"
        lines[line_no - 1] = f"{big} 1.0"
        paths["raw"].write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_prepare(paths) == 2
        assert capsys.readouterr().err.startswith(f"error: line {line_no}: peak m/z '{big}'")
        assert snapshot(paths["out"]) == before

    def test_title_with_a_tab_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # The id is the first column of the manifest; a tab in it made a
        # 4-column row that every later command refused.
        paths = write_inputs(tmp_path)
        assert run_prepare(paths) == 0
        before = snapshot(paths["out"])
        first = paths["spectra"][0].id
        text = paths["raw"].read_text()
        paths["raw"].write_text(text.replace(f"TITLE={first}\n", f"TITLE={first}\t0\n", 1))
        capsys.readouterr()
        assert run_prepare(paths) == 2
        assert capsys.readouterr().err == f"error: line 1: TITLE {first + chr(9) + '0'!r} holds a tab\n"
        assert snapshot(paths["out"]) == before


class TestTrain:
    def test_siamese_artifacts(self, workspace):
        out = workspace["out"]
        assert (out / "model_siamese.ckpt").exists()
        assert (out / "model_siamese.ckpt.config").exists()
        log = (out / "train_log_siamese.tsv").read_text().splitlines()
        header_at = next(i for i, l in enumerate(log) if not l.startswith("#"))
        assert log[header_at] == "epoch\ttrain_mse\tknown_mse\tnovel_mse\twall_time_s"
        assert len(log) - header_at - 1 == 2  # one row per epoch

    def test_each_mode_keeps_its_own_log(self, workspace, tmp_path, capsys):
        # The workspace trains three modes from one config file. The old
        # train-log key named one path for all of them; it is now unknown.
        for mode in ("siamese", "properties", "properties-baseline"):
            log = (workspace["out"] / f"train_log_{mode}.tsv").read_text()
            assert f"# mode={mode}\n" in log
        shared = tmp_path / "shared.cfg"
        shared.write_text(CONFIG_SMALL + f"train-log={tmp_path / 'log.tsv'}\n")
        code = main(
            ["train", "--mode", "siamese", "--config", str(shared),
             "--out-dir", str(tmp_path / "out"),
             "--fingerprints", str(workspace["fingerprints"]),
             "--properties", str(workspace["properties"])]
        )
        assert code == 2
        assert "'train-log'" in capsys.readouterr().err
        assert not (tmp_path / "log.tsv").exists()

    def test_property_training_encodes_only_its_steps(self, tmp_path, monkeypatch):
        # The held-out R-squared is eval's job; train predicts nothing.
        import mzembed.properties

        paths = write_inputs(tmp_path)
        assert run_prepare(paths) == 0
        encoded = []
        real_batch = mzembed.properties.encode_batch
        real_many = mzembed.properties.encode_many

        def counting_batch(spectra, *args, **kwargs):
            encoded.append((kwargs["mode"], len(spectra)))
            return real_batch(spectra, *args, **kwargs)

        def counting_many(spectra, *args, **kwargs):
            encoded.append(("infer", len(spectra)))
            return real_many(spectra, *args, **kwargs)

        monkeypatch.setattr(mzembed.properties, "encode_batch", counting_batch)
        monkeypatch.setattr(mzembed.properties, "encode_many", counting_many)
        assert main(["train", "--mode", "properties", *common_args(paths)]) == 0
        # 2 epochs of the 8 training spectra in one batch of 8.
        assert encoded == [("train", 8), ("train", 8)]

    def test_property_checkpoint_carries_scaler(self, workspace):
        from mzembed.tensor import load_checkpoint

        params, _ = load_checkpoint(workspace["out"] / "model_properties.ckpt")
        assert "scaler.mean" in params and "scaler.std" in params
        assert params["scaler.mean"].shape == (10,)

    def test_baseline_checkpoint_has_baseline_names(self, workspace):
        from mzembed.tensor import load_checkpoint

        params, _ = load_checkpoint(workspace["out"] / "model_properties-baseline.ckpt")
        assert "baseline.w1" in params

    def test_retrain_bit_identical(self, tmp_path):
        paths = write_inputs(tmp_path)
        assert run_prepare(paths) == 0
        ck1 = tmp_path / "first.ckpt"
        ck2 = tmp_path / "second.ckpt"
        for ck in (ck1, ck2):
            code = main(
                ["train", "--mode", "siamese", "--checkpoint", str(ck), *common_args(paths)]
            )
            assert code == 0
        assert ck1.read_bytes() == ck2.read_bytes()

    def test_bad_mode_exits_2(self, workspace, tmp_path):
        # The flag is vetted by argparse; a config-file mode goes through
        # the command's own validation.
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG_SMALL + "mode=nonsense\n")
        code = main(
            ["train", "--config", str(bad),
             "--out-dir", str(workspace["out"]),
             "--fingerprints", str(workspace["fingerprints"]),
             "--properties", str(workspace["properties"])]
        )
        assert code == 2

    def test_unprepared_out_dir_exits_2(self, tmp_path):
        paths = write_inputs(tmp_path)
        assert main(["train", "--mode", "siamese", *common_args(paths)]) == 2


class TestEval:
    def test_siamese_reports(self, workspace):
        assert main(["eval", "--mode", "siamese", *common_args(workspace)]) == 0
        out = workspace["out"]
        mse = (out / "pair_mse.tsv").read_text().splitlines()
        assert mse[0] == "set\tmse\tn_pairs"
        assert {line.split("\t")[0] for line in mse[1:]} == {"train", "known", "novel"}

        acc = (out / "search_accuracy.tsv").read_text().splitlines()
        assert acc[0] == "query_set\tmatch\taccuracy\tn_structures"
        kinds = {tuple(line.split("\t")[:2]) for line in acc[1:]}
        assert ("known", "exact") in kinds
        assert ("novel", "approximate") in kinds
        assert ("novel", "exact") not in kinds

        audit = (out / "search_audit.tsv").read_text().splitlines()
        assert len(audit) == 1 + 4 + 8  # header + known queries + novel queries

        cos = (out / "cosine_accuracy.tsv").read_text().splitlines()
        assert cos[0] == "query_set\tmatch\taccuracy\tn_structures"
        assert (out / "cosine_audit.tsv").exists()

    def test_property_report_layout(self, workspace):
        assert main(["eval", "--mode", "properties", *common_args(workspace)]) == 0
        report = (workspace["out"] / "property_report_properties.tsv").read_text().splitlines()
        assert report[0] == "# evaluation_unit=per-spectrum"
        assert report[1] == "property\tknown_r2\tnovel_r2"
        assert report[2].startswith("all\t")
        assert [line.split("\t")[0] for line in report[3:]] == list(PROPERTY_NAMES)

    def test_baseline_report(self, workspace):
        assert main(["eval", "--mode", "properties-baseline", *common_args(workspace)]) == 0
        assert (workspace["out"] / "property_report_properties-baseline.tsv").exists()

    @pytest.mark.parametrize("mode", ["properties", "properties-baseline"])
    @pytest.mark.parametrize("flags,column", [
        (["--n-novel", "1", "--n-known", "4"], 2),
        (["--n-novel", "2", "--n-known", "1"], 1),
    ], ids=["one_novel_structure", "one_known_spectrum"])
    def test_undefined_r2_is_written_as_nan(self, tmp_path, mode, flags, column):
        # One novel structure holds every property constant, and one known
        # spectrum is too few points: eval used to exit 1 and 2 on them.
        paths = write_inputs(tmp_path)
        assert main(["prepare", "--spectra", str(paths["raw"]), *flags, *common_args(paths)]) == 0
        assert main(["train", "--mode", mode, "--epochs", "0", *common_args(paths)]) == 0
        assert main(["eval", "--mode", mode, *common_args(paths)]) == 0
        report = (paths["out"] / f"property_report_{mode}.tsv").read_text().splitlines()
        rows = [line.split("\t") for line in report[2:]]
        assert [row[0] for row in rows] == ["all", *PROPERTY_NAMES]
        assert all(row[column] == "nan" for row in rows)

    def test_config_digest_mismatch_exits_2(self, workspace, tmp_path, capsys):
        # Same checkpoint, different architecture settings. The config text
        # train saved beside the checkpoint names the differing key.
        other = tmp_path / "other.cfg"
        other.write_text(CONFIG_SMALL.replace("heads=1", "heads=2"))
        before = snapshot(workspace["out"])
        capsys.readouterr()
        code = main(
            ["eval", "--mode", "siamese",
             "--config", str(other),
             "--out-dir", str(workspace["out"]),
             "--fingerprints", str(workspace["fingerprints"]),
             "--properties", str(workspace["properties"])]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {workspace['out'] / 'model_siamese.ckpt'}: checkpoint config digest "
            "does not match the requested config: heads is 1 in the checkpoint, 2 requested\n"
        )
        assert snapshot(workspace["out"]) == before

    def test_missing_checkpoint_exits_2(self, workspace, tmp_path):
        code = main(
            ["eval", "--mode", "siamese", "--checkpoint", str(tmp_path / "no.ckpt"),
             *common_args(workspace)]
        )
        assert code == 2


class TestSearchPredictExport:
    def test_search_results(self, workspace, tmp_path):
        queries = tmp_path / "queries.mgf"
        queries.write_text(serialize_mgf(workspace["spectra"][:3]))
        code = main(
            ["search", "--mode", "siamese", "--queries", str(queries), "--k", "2",
             *common_args(workspace)]
        )
        assert code == 0
        lines = (workspace["out"] / "search_results.tsv").read_text().splitlines()
        assert lines[0] == "query_id\trank\thit_id\thit_structure\tscore"
        assert len(lines) == 1 + 3 * 2
        ranks = [int(line.split("\t")[1]) for line in lines[1:]]
        assert ranks == [1, 2] * 3

    @pytest.mark.parametrize("command,mode", [("search", "siamese"), ("predict", "properties")])
    def test_query_title_with_a_tab_exits_2_and_writes_nothing(
        self, workspace, tmp_path, capsys, command, mode
    ):
        # A tab in a query id used to add a column to the output rows.
        queries = tmp_path / "queries.mgf"
        second = workspace["spectra"][1].id
        text = serialize_mgf(workspace["spectra"][:2])
        queries.write_text(text.replace(f"TITLE={second}\n", f"TITLE=q\t{second}\n"))
        before = snapshot(workspace["out"])
        capsys.readouterr()
        code = main([command, "--mode", mode, "--queries", str(queries), *common_args(workspace)])
        assert code == 2
        line = text.splitlines().index("BEGIN IONS", 1) + 1
        assert capsys.readouterr().err == f"error: line {line}: TITLE {'q' + chr(9) + second!r} holds a tab\n"
        assert snapshot(workspace["out"]) == before

    def test_search_reads_no_label_files(self, workspace, tmp_path, monkeypatch):
        import mzembed.data

        queries = tmp_path / "queries.mgf"
        queries.write_text(serialize_mgf(workspace["spectra"][:3]))
        results = workspace["out"] / "search_results.tsv"
        search = ["search", "--mode", "siamese", "--queries", str(queries), "--k", "2"]
        assert main([*search, *common_args(workspace)]) == 0
        with_labels = results.read_bytes()
        results.unlink()

        def no_labels(*args):
            raise AssertionError("search read the label files")

        monkeypatch.setattr(mzembed.data, "load_molecules", no_labels)
        unlabeled = ["--config", str(workspace["config"]), "--out-dir", str(workspace["out"])]
        assert main([*search, *unlabeled]) == 0
        assert results.read_bytes() == with_labels

    @staticmethod
    def baseline_predictions(workspace, tmp_path, capsys, key=None, value=None):
        """predict --mode properties-baseline on the workspace's baseline
        checkpoint, with the config's ``key`` set to ``value``: the exit
        code, stderr and the predictions' bytes."""
        lines = CONFIG_SMALL.splitlines()
        if key is not None:
            lines = [line for line in lines if not line.startswith(f"{key}=")] + [f"{key}={value}"]
        config = tmp_path / f"{key}.cfg"
        config.write_text("\n".join(lines) + "\n")
        queries = tmp_path / "queries.mgf"
        queries.write_text(serialize_mgf(workspace["spectra"][:3]))
        out = tmp_path / f"out-{key}"
        capsys.readouterr()
        code = main(
            ["predict", "--mode", "properties-baseline", "--queries", str(queries),
             "--checkpoint", str(workspace["out"] / "model_properties-baseline.ckpt"),
             "--config", str(config), "--out-dir", str(out)]
        )
        predictions = out / "predictions.tsv"
        return code, capsys.readouterr().err, predictions.read_bytes() if out.exists() else None

    @pytest.mark.parametrize("key,value", [("layers", "2"), ("heads", "2"), ("embedding", "token")])
    def test_baseline_checkpoint_loads_under_other_encoder_settings(
        self, workspace, tmp_path, capsys, key, value
    ):
        # The baseline's config text names d and its bins only, so a
        # setting it never reads does not refuse its checkpoint.
        code, _, want = self.baseline_predictions(workspace, tmp_path, capsys)
        assert code == 0
        assert self.baseline_predictions(workspace, tmp_path, capsys, key, value) == (0, "", want)

    def test_baseline_checkpoint_refuses_another_width(self, workspace, tmp_path, capsys):
        code, err, written = self.baseline_predictions(workspace, tmp_path, capsys, "d", "16")
        assert code == 2 and written is None
        assert err.endswith(
            "checkpoint config digest does not match the requested config: "
            "d is 8 in the checkpoint, 16 requested\n"
        )

    @pytest.mark.parametrize("command", ["search", "eval", "predict", "export-embeddings"])
    def test_mistyped_out_dir_is_not_created(self, workspace, tmp_path, capsys, command):
        # Only a command that writes an output creates the out-dir; one
        # that cannot find its checkpoint or dataset leaves no trace.
        queries = tmp_path / "queries.mgf"
        queries.write_text(serialize_mgf(workspace["spectra"][:2]))
        typo = tmp_path / "typo"
        args = [command, "--config", str(workspace["config"]), "--out-dir", str(typo)]
        if command in ("search", "predict"):
            args += ["--queries", str(queries)]
        capsys.readouterr()
        assert main(args) == 2
        missing = "prepared dataset incomplete" if command == "eval" else "checkpoint not found"
        assert capsys.readouterr().err.startswith(f"error: {missing}")
        assert not typo.exists()

    def test_zero_intensity_query_exits_2(self, workspace, tmp_path, capsys):
        zero = Spectrum(
            id="zero_q0000", precursor=Peak(1000.0, 1.0),
            fragments=(Peak(100.0, 0.0), Peak(200.0, 0.0)),
        )
        queries = tmp_path / "zero.mgf"
        queries.write_text(serialize_mgf([zero]))
        code = main(
            ["search", "--mode", "siamese", "--queries", str(queries),
             *common_args(workspace)]
        )
        assert code == 2
        assert "spectrum 'zero_q0000'" in capsys.readouterr().err

    def test_non_finite_query_embedding_exits_1(self, workspace, tmp_path, capsys, monkeypatch):
        # The query rows come from the command's own encode; the index's
        # come through the search module and stay finite.
        queries = tmp_path / "queries.mgf"
        queries.write_text(serialize_mgf(workspace["spectra"][:2]))
        encode = encoder.encode_many

        def spoiled(spectra, *args):
            rows = encode(spectra, *args)
            rows[1, 0] = np.nan
            return rows

        monkeypatch.setattr(encoder, "encode_many", spoiled)
        target = workspace["out"] / "search_results.tsv"
        before = target.read_bytes() if target.exists() else None
        code = main(
            ["search", "--mode", "siamese", "--queries", str(queries),
             *common_args(workspace)]
        )
        assert code == 1
        name = workspace["spectra"][1].id
        assert f"query {name!r} has norm nan" in capsys.readouterr().err
        assert (target.read_bytes() if target.exists() else None) == before

    def test_unencodable_query_exits_2(self, tmp_path, capsys):
        # binary16 tops out at 65504, so this fragment m/z cannot be cast.
        paths = write_inputs(tmp_path)
        assert run_prepare(paths) == 0
        args = ["--mode", "siamese", "--precision", "16", *common_args(paths)]
        assert main(["train", "--epochs", "0", *args]) == 0
        huge = Spectrum(
            id="huge_q0000", precursor=Peak(1000.0, 1.0), fragments=(Peak(70000.0, 1.0),)
        )
        queries = tmp_path / "huge.mgf"
        queries.write_text(serialize_mgf([huge]))
        capsys.readouterr()
        assert main(["search", "--queries", str(queries), *args]) == 2
        assert capsys.readouterr().err == (
            "error: failed to encode spectrum 'huge_q0000': "
            "m/z overflows binary16: max |value| 70000.0\n"
        )

    @pytest.mark.parametrize(
        "command,mode,output",
        [
            ("search", "siamese", "search_results.tsv"),
            ("predict", "properties", "predictions.tsv"),
            ("predict", "properties-baseline", "predictions.tsv"),
        ],
    )
    def test_empty_query_file_exits_2(self, workspace, tmp_path, capsys, command, mode, output):
        queries = tmp_path / "empty.mgf"
        queries.write_text("")
        target = workspace["out"] / output
        before = target.read_bytes() if target.exists() else None
        capsys.readouterr()
        code = main([command, "--mode", mode, "--queries", str(queries), *common_args(workspace)])
        assert code == 2
        assert capsys.readouterr().err == f"error: query file {queries} holds no spectra\n"
        assert (target.read_bytes() if target.exists() else None) == before

    def test_predictions_table(self, workspace, tmp_path):
        queries = tmp_path / "queries.mgf"
        queries.write_text(serialize_mgf(workspace["spectra"][:2]))
        code = main(
            ["predict", "--mode", "properties", "--queries", str(queries),
             *common_args(workspace)]
        )
        assert code == 0
        lines = (workspace["out"] / "predictions.tsv").read_text().splitlines()
        assert lines[0] == "spectrum_id\t" + "\t".join(PROPERTY_NAMES)
        assert len(lines) == 3
        for line in lines[1:]:
            values = line.split("\t")[1:]
            assert len(values) == 10
            assert all(np.isfinite(float(v)) for v in values)

    def test_baseline_predictions_match_predict_baseline(self, workspace, tmp_path):
        from mzembed.encoder import load_table
        from mzembed.properties import SCALER_SHAPES, LabelScaler, baseline_shapes
        from mzembed.properties import predict_baseline
        from mzembed.tensor import load_checkpoint

        queries = tmp_path / "queries.mgf"
        queries.write_text(serialize_mgf(workspace["spectra"][:3]))
        code = main(
            ["predict", "--mode", "properties-baseline", "--queries", str(queries),
             *common_args(workspace)]
        )
        assert code == 0

        params, _ = load_checkpoint(workspace["out"] / "model_properties-baseline.ckpt")
        shapes = baseline_shapes(20_000, 8) | SCALER_SHAPES  # 2000 / 0.1 bins
        model, scaler = LabelScaler.split(load_table(params, shapes))
        spectra = sorted(
            (normalize_intensities(s) for s in load_mgf(queries)), key=lambda s: s.id
        )
        want = predict_baseline(spectra, model, scaler, bin_width=0.1, bin_max_mz=2000.0)
        lines = (workspace["out"] / "predictions.tsv").read_text().splitlines()
        assert lines[0] == "spectrum_id\t" + "\t".join(PROPERTY_NAMES)
        assert lines[1:] == [
            s.id + "\t" + "\t".join(f"{v:.6f}" for v in row) for s, row in zip(spectra, want)
        ]

    @pytest.mark.parametrize("edit,message", [
        ("missing", "checkpoint has no record 'baseline.b3'"),
        ("shape", "checkpoint record 'baseline.w1': shape (16, 19999) "
                  "does not match the model's (16, 20000)"),
        ("unknown", "checkpoint record 'baseline.w4' is not a parameter of this model"),
    ], ids=["missing", "shape", "unknown"])
    def test_baseline_record_outside_the_layout_exits_2(
        self, workspace, tmp_path, capsys, edit, message
    ):
        from mzembed.tensor import load_checkpoint, save_checkpoint

        trained = workspace["out"] / "model_properties-baseline.ckpt"
        records, _ = load_checkpoint(trained)
        if edit == "missing":
            del records["baseline.b3"]
        elif edit == "shape":
            records["baseline.w1"] = records["baseline.w1"][:, :-1]
        else:
            records["baseline.w4"] = records["baseline.w3"]
        edited = tmp_path / "edited.ckpt"
        save_checkpoint(edited, records, Path(f"{trained}.config").read_text())
        queries = tmp_path / "queries.mgf"
        queries.write_text(serialize_mgf(workspace["spectra"][:2]))
        before = snapshot(workspace["out"])
        capsys.readouterr()
        code = main(
            ["predict", "--mode", "properties-baseline", "--queries", str(queries),
             "--checkpoint", str(edited), *common_args(workspace)]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert snapshot(workspace["out"]) == before

    @pytest.mark.parametrize("edit,message", [
        ("missing", "checkpoint has no record 'scaler.std'"),
        ("short", "checkpoint record 'scaler.mean': shape (1,) does not match the model's (10,)"),
        ("long", "checkpoint record 'scaler.mean': shape (3,) does not match the model's (10,)"),
    ], ids=["missing", "short", "long"])
    @pytest.mark.parametrize("mode", ["properties", "properties-baseline"])
    def test_malformed_scaler_exits_2(self, workspace, tmp_path, capsys, mode, edit, message):
        # The scaler's records end the property layout and load_table
        # checks them: unchecked, a (1,) mean would rescale every property
        # by the first one's, and a (3,) mean would fail inside numpy.
        from mzembed.tensor import load_checkpoint, save_checkpoint

        trained = workspace["out"] / f"model_{mode}.ckpt"
        records, _ = load_checkpoint(trained)
        if edit == "missing":
            del records["scaler.std"]
        else:
            records["scaler.mean"] = records["scaler.mean"][: 1 if edit == "short" else 3]
        edited = tmp_path / "edited.ckpt"
        save_checkpoint(edited, records, Path(f"{trained}.config").read_text())
        queries = tmp_path / "queries.mgf"
        queries.write_text(serialize_mgf(workspace["spectra"][:2]))
        before = snapshot(workspace["out"])
        capsys.readouterr()
        code = main(
            ["predict", "--mode", mode, "--queries", str(queries),
             "--checkpoint", str(edited), *common_args(workspace)]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert snapshot(workspace["out"]) == before

    def test_siamese_checkpoint_with_a_scaler_exits_2(self, workspace, tmp_path, capsys):
        from mzembed.tensor import load_checkpoint, save_checkpoint

        trained = workspace["out"] / "model_siamese.ckpt"
        records, _ = load_checkpoint(trained)
        property_records, _ = load_checkpoint(workspace["out"] / "model_properties.ckpt")
        records.update((name, property_records[name]) for name in ("scaler.mean", "scaler.std"))
        edited = tmp_path / "edited.ckpt"
        save_checkpoint(edited, records, Path(f"{trained}.config").read_text())
        queries = tmp_path / "queries.mgf"
        queries.write_text(serialize_mgf(workspace["spectra"][:2]))
        before = snapshot(workspace["out"])
        capsys.readouterr()
        code = main(
            ["search", "--mode", "siamese", "--queries", str(queries),
             "--checkpoint", str(edited), *common_args(workspace)]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: checkpoint record 'scaler.mean' is not a parameter of this model\n"
        )
        assert snapshot(workspace["out"]) == before

    @pytest.mark.parametrize("command", ["export-embeddings", "search"])
    def test_baseline_without_mz_embedding_exits_2(self, workspace, tmp_path, capsys, command):
        args = ["--config", str(workspace["config"]), "--out-dir", str(workspace["out"])]
        if command == "search":
            queries = tmp_path / "queries.mgf"
            queries.write_text(serialize_mgf(workspace["spectra"][:1]))
            args += ["--queries", str(queries), "--fingerprints", str(workspace["fingerprints"]),
                     "--properties", str(workspace["properties"])]
        capsys.readouterr()
        code = main([command, "--mode", "properties-baseline", *args])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: the properties-baseline model has no m/z embedding; "
            "use mode siamese or properties\n"
        )

    def test_siamese_predict_exits_2_before_loading(self, workspace, tmp_path, capsys):
        queries = tmp_path / "queries.mgf"
        queries.write_text(serialize_mgf(workspace["spectra"][:1]))
        target = workspace["out"] / "predictions.tsv"
        before = target.read_bytes() if target.exists() else None
        capsys.readouterr()
        for checkpoint in ("model_siamese.ckpt", "missing.ckpt"):
            code = main(
                ["predict", "--mode", "siamese", "--queries", str(queries),
                 "--checkpoint", str(workspace["out"] / checkpoint), *common_args(workspace)]
            )
            assert code == 2
            assert capsys.readouterr().err == (
                "error: the siamese model predicts no properties; "
                "use mode properties or properties-baseline\n"
            )
        assert (target.read_bytes() if target.exists() else None) == before

    def test_embedding_export_grid(self, workspace):
        code = main(
            ["export-embeddings", "--mode", "siamese",
             "--grid-step", "0.5", "--grid-count", "20",
             "--config", str(workspace["config"]),
             "--out-dir", str(workspace["out"])]
        )
        assert code == 0
        lines = (workspace["out"] / "embedding_export.tsv").read_text().splitlines()
        assert lines[0].split("\t")[:3] == ["mz", "frac_mz", "precision"]
        assert len(lines[0].split("\t")) == 3 + 8  # d=8 embedding columns
        assert len(lines) == 1 + 20
        first = lines[1].split("\t")
        assert float(first[0]) == 0.0
        second = lines[2].split("\t")
        assert float(second[0]) == 0.5


    @pytest.mark.parametrize("embedding,precision", [
        ("sin", "16"), ("sin", "32"), ("sin", "64"), ("token", "64"),
    ])
    def test_embedding_export_bytes(self, tmp_path, embedding, precision):
        # The file equals the per-value formatter over mz_embedding of the
        # grid under the checkpoint's own binary32 weights; the token table
        # exports binary32 values. The per-kind expressions below are the
        # reference mz_embedding must match bit for bit.
        from mzembed.embed import fractional_mz, mz_embedding, sinusoidal_embed, tokenize_mz
        from mzembed.tensor import FeedForwardParams, Tensor, feed_forward, no_grad

        config, out, cfg, weights = saved_export_model(
            tmp_path, f"embedding={embedding}\nprecision={precision}\n"
            "grid-start=10\ngrid-step=3.7\ngrid-count=25\n"
        )
        assert main(
            ["export-embeddings", "--mode", "siamese",
             "--config", str(config), "--out-dir", str(out)]
        ) == 0

        grid = 10.0 + np.arange(25, dtype=np.float64) * 3.7
        with no_grad():
            emb = mz_embedding(grid, cfg, weights.named()).data
            if embedding == "sin":
                se = sinusoidal_embed(grid, cfg.sinusoidal, cfg.precision)
                inner = FeedForwardParams.of(weights.named(), "peak.inner")
                old = feed_forward(Tensor(se), inner).data
            else:
                old = weights.named()["peak.table"].data[tokenize_mz(grid, cfg.vocab)]
        assert emb.dtype == old.dtype and emb.tobytes() == old.tobytes()
        assert np.all(np.isfinite(emb))
        frac = fractional_mz(grid)
        lines = ["mz\tfrac_mz\tprecision\t" + "\t".join(f"e{i}" for i in range(8))]
        for i in range(grid.shape[0]):
            comps = "\t".join(f"{v:.8g}" for v in emb[i])
            lines.append(f"{grid[i]:.5f}\t{frac[i]:.5f}\t{cfg.precision}\t{comps}")
        want = "\n".join(lines) + "\n"
        assert (out / "embedding_export.tsv").read_bytes() == want.encode()

    @pytest.mark.parametrize("embedding", ["sin", "token"])
    @pytest.mark.parametrize("line", [
        "grid-start=nan", "grid-start=inf", "grid-start=-inf", "grid-start=-0.5",
        "grid-step=inf", "grid-step=nan", "grid-step=-inf",
    ])
    def test_bad_grid_exits_2_before_loading(self, tmp_path, capsys, embedding, line):
        config, out, _, _ = saved_export_model(tmp_path, f"embedding={embedding}\n{line}\n")
        before = snapshot(out)
        capsys.readouterr()
        assert main(["export-embeddings", "--config", str(config), "--out-dir", str(out)]) == 2
        key, value = line.split("=")
        err = capsys.readouterr().err
        assert f"setting {key!r}" in err and err.endswith(f"got {value!r}\n")
        assert snapshot(out) == before

    def test_token_grid_beyond_max_mz_exports_the_unknown_row(self, tmp_path):
        config, out, cfg, weights = saved_export_model(
            tmp_path, "embedding=token\ngrid-start=1e300\ngrid-step=1e300\ngrid-count=3\n"
        )
        assert main(["export-embeddings", "--config", str(config), "--out-dir", str(out)]) == 0
        rows = (out / "embedding_export.tsv").read_text().splitlines()[1:]
        unknown = weights.named()["peak.table"].data[cfg.vocab.unknown_id]
        want = "\t".join(f"{v:.8g}" for v in unknown)
        assert len(rows) == 3 and all(row.endswith("\tbinary64\t" + want) for row in rows)

    @pytest.mark.parametrize("precision", ["16", "64"])
    def test_checkpoint_of_the_removed_full_mode_exits_2(self, tmp_path, capsys, precision):
        # A checkpoint saved when the precision setting still took "16:full"
        # carries the digest of "precision=binary16-full"; no spelling
        # accepted now describes that config.
        from mzembed.tensor import load_checkpoint, save_checkpoint

        config, out, _, _ = saved_export_model(tmp_path, f"precision={precision}\n")
        settings = Settings(read_config_file(str(config)), argparse.Namespace())
        text = run_config_text(settings, "siamese")
        full = re.sub(r"^precision=binary\d+$", "precision=binary16-full", text, flags=re.M)
        assert full != text
        ckpt = out / "model_siamese.ckpt"
        records, _ = load_checkpoint(ckpt)
        save_checkpoint(ckpt, records, full)
        refused = f"error: {ckpt}: checkpoint config digest does not match the requested config"
        # Without the checkpoint's own config text beside it, or with a
        # stale one, the differing keys are unknown.
        for saved in (None, text):
            if saved is not None:
                (out / "model_siamese.ckpt.config").write_text(saved)
            capsys.readouterr()
            assert main(["export-embeddings", "--config", str(config), "--out-dir", str(out)]) == 2
            assert capsys.readouterr().err == refused + "\n"
        (out / "model_siamese.ckpt.config").write_text(full)
        capsys.readouterr()
        assert main(["export-embeddings", "--config", str(config), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"{refused}: precision is binary16-full in the checkpoint, "
            f"binary{precision} requested\n"
        )
        assert not (out / "embedding_export.tsv").exists()


class TestExportBlocks:
    def test_blocks_cover_the_grid_with_no_one_row_block(self):
        size = cli.EXPORT_BLOCK_ROWS
        for count in (1, 2, 3, size - 1, size, size + 1, size + 2, 2 * size + 1, 3 * size + 7):
            blocks = cli.export_blocks(count)
            assert blocks[0][0] == 0 and blocks[-1][1] == count
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            rows = [stop - start for start, stop in blocks]
            assert all(n == size for n in rows[:-1])
            assert rows[-1] <= size + 1 and (rows[-1] >= 2 or count == 1)

    @pytest.mark.parametrize("count", [1, 2, cli.EXPORT_BLOCK_ROWS + 1, cli.EXPORT_BLOCK_ROWS + 2])
    def test_blocked_export_equals_the_whole_grid(self, tmp_path, count):
        # The grid is embedded a block at a time; the file must hold the
        # bytes of one embedding of the whole grid.
        from mzembed.embed import fractional_mz, mz_embedding
        from mzembed.tensor import no_grad

        config, out, cfg, weights = saved_export_model(
            tmp_path, f"grid-start=80\ngrid-step=0.21\ngrid-count={count}\n"
        )
        assert main(["export-embeddings", "--config", str(config), "--out-dir", str(out)]) == 0
        grid = 80.0 + np.arange(count, dtype=np.float64) * 0.21
        with no_grad():
            emb = mz_embedding(grid, cfg, weights.named()).data
        line = "\t".join(["%.5f", "%.5f", "%s"] + ["%.8g"] * 8)
        lines = ["mz\tfrac_mz\tprecision\t" + "\t".join(f"e{i}" for i in range(8))] + [
            line % (mz, fr, cfg.precision, *row.tolist())
            for mz, fr, row in zip(grid.tolist(), fractional_mz(grid).tolist(), emb)
        ]
        assert (out / "embedding_export.tsv").read_text() == "\n".join(lines) + "\n"


class TestRectangularOutputs:
    def test_every_tsv_row_has_the_header_width(self, tmp_path):
        # Spectrum and structure ids with spaces and non-ASCII letters go
        # through every command; no TSV row may gain or lose a column.
        paths = write_inputs(tmp_path)
        raw = paths["raw"].read_text()
        raw = re.sub(r"^TITLE=(.*)$", r"TITLE=spectre \1 ü", raw, flags=re.M)
        raw = re.sub(r"^STRUCTUREID=(.*)$", r"STRUCTUREID=mol é \1", raw, flags=re.M)
        paths["raw"].write_text(raw, encoding="utf-8")
        for key in ("fingerprints", "properties"):
            text = paths[key].read_text()
            paths[key].write_text(re.sub(r"^(m\d+)\t", r"mol é \1\t", text, flags=re.M), encoding="utf-8")
        queries = tmp_path / "queries.mgf"
        queries.write_text(raw.replace("TITLE=spectre", "TITLE=requête"), encoding="utf-8")

        args = common_args(paths)
        assert run_prepare(paths) == 0
        for mode in ("siamese", "properties", "properties-baseline"):
            assert main(["train", "--mode", mode, "--epochs", "0", *args]) == 0
            assert main(["eval", "--mode", mode, *args]) == 0
        assert main(["search", "--mode", "siamese", "--queries", str(queries), *args]) == 0
        for mode in ("properties", "properties-baseline"):
            assert main(["predict", "--mode", mode, "--queries", str(queries), *args]) == 0

        written = sorted(paths["out"].glob("*.tsv"))
        assert len(written) == 15
        for path in written:
            text = path.read_text(encoding="utf-8")
            rows = [line for line in text.split("\n")[:-1] if not line.startswith("#")]
            width = len(rows[0].split("\t"))
            assert all(len(row.split("\t")) == width for row in rows), path.name
        manifest = (paths["out"] / "split_manifest.tsv").read_text(encoding="utf-8")
        assert "spectre s0_0 ü\tmol é m0\t" in manifest
        hits = (paths["out"] / "search_results.tsv").read_text(encoding="utf-8")
        assert "requête s0_0 ü\t1\t" in hits


def saved_export_model(tmp_path, lines):
    """A d=8 config with ``lines`` added, and a seed-9 siamese checkpoint
    saved under it in tmp_path/out: (config, out, EncoderConfig, weights)."""
    from mzembed.encoder import init_weights
    from mzembed.tensor import save_checkpoint

    config = tmp_path / "run.cfg"
    config.write_text(
        "schema_version=1\nd=8\nlayers=1\nheads=1\ninner-dim=8\nmax-mz=100\n" + lines
    )
    out = tmp_path / "out"
    out.mkdir()
    # Settings without the grid keys, so a bad grid value still saves.
    values = {k: v for k, v in read_config_file(str(config)).items() if not k.startswith("grid-")}
    settings = Settings(values, argparse.Namespace())
    cfg = build_configs(settings)[0]
    weights = init_weights(cfg, seed=9)
    save_checkpoint(
        out / "model_siamese.ckpt",
        {k: v.data for k, v in weights.named().items()},
        run_config_text(settings, "siamese"),
    )
    return config, out, cfg, weights


EVAL_OUTPUTS = (
    "pair_mse.tsv", "search_accuracy.tsv", "search_audit.tsv",
    "cosine_accuracy.tsv", "cosine_audit.tsv",
)


class TestIndexCache:
    """``search`` and ``eval`` keep the library index in index_siamese.bin."""

    @pytest.fixture
    def paths(self, tmp_path):
        paths = write_inputs(tmp_path)
        assert run_prepare(paths) == 0
        assert main(["train", "--mode", "siamese", *common_args(paths)]) == 0
        paths["queries"] = tmp_path / "queries.mgf"
        paths["queries"].write_text(serialize_mgf(paths["spectra"][:5]))
        paths["index"] = paths["out"] / "index_siamese.bin"
        return paths

    @staticmethod
    def search(paths):
        code = main(
            ["search", "--mode", "siamese", "--queries", str(paths["queries"]),
             "--k", "3", *common_args(paths)]
        )
        assert code == 0
        return (paths["out"] / "search_results.tsv").read_bytes()

    def cold_search(self, paths):
        paths["index"].unlink(missing_ok=True)
        results = self.search(paths)
        return results, paths["index"].read_bytes()

    def test_cold_runs_write_the_same_bytes(self, paths):
        first = self.cold_search(paths)
        assert first[1].startswith(INDEX_MAGIC)
        assert self.cold_search(paths) == first

    @pytest.mark.parametrize(
        "damage", ["truncated", "extended", "foreign", "first_row_bit"]
    )
    def test_damaged_index_is_rebuilt(self, paths, damage):
        results, index = self.cold_search(paths)
        # The key is intact in first_row_bit; only the first row's check
        # against a fresh encode can tell the file is wrong.
        row = len(INDEX_MAGIC) + 32
        damaged = {
            "truncated": index[:-8],
            "extended": index + bytes(8),
            "foreign": b"X" + index[1:],
            "first_row_bit": index[:row] + bytes([index[row] ^ 1]) + index[row + 1:],
        }[damage]
        paths["index"].write_bytes(damaged)
        assert self.search(paths) == results
        assert paths["index"].read_bytes() == index

    def test_index_of_another_checkpoint_is_rebuilt(self, paths):
        _, old_index = self.cold_search(paths)
        assert main(["train", "--mode", "siamese", "--seed", "4", *common_args(paths)]) == 0
        stale_results = self.search(paths)
        stale_index = paths["index"].read_bytes()
        assert stale_index != old_index
        assert (stale_results, stale_index) == self.cold_search(paths)

    def test_warm_runs_encode_the_queries_and_one_check_row(self, paths, monkeypatch):
        import mzembed.encoder
        import mzembed.search

        encoded = []
        real = mzembed.encoder.encode_many

        def counting(spectra, *args, **kwargs):
            encoded.append([s.id for s in spectra])
            return real(spectra, *args, **kwargs)

        monkeypatch.setattr(mzembed.encoder, "encode_many", counting)
        monkeypatch.setattr(mzembed.search, "encode_many", counting)
        queries = sorted(s.id for s in paths["spectra"][:5])
        cold = self.cold_search(paths)
        library = encoded[0]
        assert encoded == [library, queries] and len(library) == 8
        encoded.clear()
        assert self.search(paths) == cold[0]
        assert encoded == [library[:1], queries]

        # eval reads the index that search wrote, and writes the same
        # reports as a cold eval.
        encoded.clear()
        assert main(["eval", "--mode", "siamese", *common_args(paths)]) == 0
        assert encoded and library not in encoded
        warm = [(paths["out"] / name).read_bytes() for name in EVAL_OUTPUTS]
        paths["index"].unlink()
        assert main(["eval", "--mode", "siamese", *common_args(paths)]) == 0
        assert [(paths["out"] / name).read_bytes() for name in EVAL_OUTPUTS] == warm
        assert paths["index"].read_bytes() == cold[1]

    def test_eval_encodes_each_spectrum_once(self, paths, monkeypatch):
        import mzembed.encoder
        import mzembed.search

        encoded = []
        real = mzembed.encoder.encode_many

        def counting(spectra, *args, **kwargs):
            encoded.append([s.id for s in spectra])
            return real(spectra, *args, **kwargs)

        monkeypatch.setattr(mzembed.encoder, "encode_many", counting)
        monkeypatch.setattr(mzembed.search, "encode_many", counting)
        manifest = (paths["out"] / "split_manifest.tsv").read_text().splitlines()[1:]
        split = {}
        for line in manifest:
            spectrum_id, _, which = line.split("\t")
            split.setdefault(which, []).append(spectrum_id)
        library = sorted(split["train"])
        held = sorted(split["known"]) + sorted(split["novel"])
        assert len(split["known"]) == 4 and len(split["novel"]) > 0

        # Cold: the library once for the index, the held-out spectra once.
        paths["index"].unlink(missing_ok=True)
        assert main(["eval", "--mode", "siamese", *common_args(paths)]) == 0
        assert encoded == [library, held]
        cold = [(paths["out"] / name).read_bytes() for name in EVAL_OUTPUTS]

        # Warm: the index check row and the held-out spectra.
        encoded.clear()
        assert main(["eval", "--mode", "siamese", *common_args(paths)]) == 0
        assert encoded == [library[:1], held]
        assert [(paths["out"] / name).read_bytes() for name in EVAL_OUTPUTS] == cold

    @pytest.mark.parametrize("layout", ["v1_file", "v1_key"])
    def test_index_of_the_normalized_layout_is_rebuilt(self, paths, monkeypatch, layout):
        # The /1 layout stored the normalized matrix under a key over the
        # /1 magic. Neither that file nor its rows under the /2 magic is
        # read: the key covers the magic.
        import mzembed.search
        from mzembed.cli import load_dataset, load_model

        results, index = self.cold_search(paths)
        settings = Settings(
            read_config_file(str(paths["config"])),
            argparse.Namespace(out_dir=str(paths["out"])),
        )
        weights, _, cfg = load_model(settings, "siamese")
        library = load_dataset(settings)[0]
        v1_magic = b"MZEMBED-INDEX/1\n"
        with monkeypatch.context() as patch:
            patch.setattr(mzembed.search, "INDEX_MAGIC", v1_magic)
            v1_key = mzembed.search.index_key(library, cfg, weights)
        matrix = mzembed.search.build_index(library, cfg, weights).matrix
        magic = v1_magic if layout == "v1_file" else INDEX_MAGIC
        paths["index"].write_bytes(magic + v1_key + matrix.astype("<f8").tobytes())
        assert self.search(paths) == results
        assert paths["index"].read_bytes() == index


class TestConfigHandling:
    def test_missing_schema_version_exits_2(self, tmp_path):
        paths = write_inputs(tmp_path)
        paths["config"].write_text("d=8\n")
        assert run_prepare(paths) == 2

    def test_duplicate_key_exits_2(self, tmp_path):
        paths = write_inputs(tmp_path)
        paths["config"].write_text("schema_version=1\nd=8\nd=16\n")
        assert run_prepare(paths) == 2

    def test_malformed_line_exits_2(self, tmp_path):
        paths = write_inputs(tmp_path)
        paths["config"].write_text("schema_version=1\nnot a pair\n")
        assert run_prepare(paths) == 2

    @pytest.mark.parametrize("key,message", [
        ("config", "config file not found"), ("raw", "spectra: no such file"),
    ])
    def test_directory_as_input_file_exits_2(self, tmp_path, capsys, key, message):
        # A directory used to pass the existence check and end in an
        # IsADirectoryError traceback when opened.
        paths = write_inputs(tmp_path)
        paths[key] = tmp_path
        assert run_prepare(paths) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}: {tmp_path}")

    def test_cli_overrides_config_file(self, tmp_path):
        paths = write_inputs(tmp_path)
        assert run_prepare(paths) == 0
        # Config says epochs=2; the flag forces a single epoch.
        assert main(
            ["train", "--mode", "siamese", "--epochs", "1", *common_args(paths)]
        ) == 0
        log = (paths["out"] / "train_log_siamese.tsv").read_text().splitlines()
        rows = [l for l in log if not l.startswith("#")][1:]
        assert len(rows) == 1

    def test_unknown_key_exits_2_naming_key_and_file(self, tmp_path, capsys):
        # A mistyped key used to be ignored: batch_size=8 trained at 64.
        paths = write_inputs(tmp_path)
        paths["config"].write_text(CONFIG_SMALL + "batch_size=8\n")
        assert run_prepare(paths) == 2
        err = capsys.readouterr().err
        assert "'batch_size'" in err and str(paths["config"]) in err
        assert not paths["out"].exists()

    def test_threads_from_the_config_file(self, tmp_path, monkeypatch):
        # As in a fresh process: numpy not yet loaded, four usable CPUs.
        monkeypatch.setattr(cli, "_numpy_loaded", lambda: False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        variables = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        for var in variables:
            monkeypatch.setenv(var, "7")
        real, workers = encoder.encode_workers, []

        def recording(n):
            workers.append(n)
            return real(n)

        monkeypatch.setattr(encoder, "encode_workers", recording)
        paths = write_inputs(tmp_path)
        paths["config"].write_text(CONFIG_SMALL + "threads=1\n")
        assert run_prepare(paths) == 0
        assert run_prepare(paths, ["--threads", "2"]) == 0  # the flag wins
        assert workers == [1, 2]
        assert [os.environ[var] for var in variables] == ["1"] * 3

    def test_console_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "mzembed.cli", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0
        assert "prepare" in result.stdout


BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class TestThreadBudget:
    """``threads`` is a budget: encoder workers, each on one BLAS thread."""

    @pytest.fixture
    def env(self, monkeypatch):
        """No BLAS variables and two usable CPUs."""
        for var in BLAS_VARIABLES:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        return monkeypatch

    def test_setting_then_environment_then_cpus(self, env):
        assert thread_budget(None) == 2
        env.setenv("OMP_NUM_THREADS", "5")
        assert thread_budget(None) == 5
        env.setenv("OPENBLAS_NUM_THREADS", "4")
        assert thread_budget(None) == 4
        assert thread_budget(3) == 3

    # "²" passes str.isdigit() but not int(); it used to crash every command.
    @pytest.mark.parametrize("text", ["abc", "0", "-2", "1.5", "", "²"])
    def test_malformed_variable_counts_as_unset(self, env, text):
        env.setenv("OPENBLAS_NUM_THREADS", text)
        assert thread_budget(None) == 2
        env.setenv("OMP_NUM_THREADS", "3")
        assert thread_budget(None) == 3

    def test_workers_at_most_the_usable_cpus(self, env):
        env.setattr(cli, "_numpy_loaded", lambda: False)
        assert pin_blas(64) == 2
        assert pin_blas(1) == 1
        assert [os.environ[var] for var in BLAS_VARIABLES] == ["1"] * 3

    def test_cpu_count_where_affinity_is_missing(self, env):
        env.delattr(os, "sched_getaffinity")
        env.setattr(os, "cpu_count", lambda: 3)
        env.setattr(cli, "_numpy_loaded", lambda: False)
        assert pin_blas(None) == 3
        assert pin_blas(8) == 3

    def test_importing_the_cli_loads_no_numpy(self):
        # pin_blas only takes effect if numpy loads after it.
        code = "import mzembed.cli, sys; print('numpy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), *sys.path]))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        )
        assert (result.returncode, result.stdout) == (0, "False\n")

    def test_loaded_numpy_keeps_its_blas_threads_and_encodes_serially(self, env):
        # This test process has loaded numpy, so a pin could not take effect.
        assert pin_blas(2) == 1
        assert not any(var in os.environ for var in BLAS_VARIABLES)

    def test_main_returns_with_the_pool_shut_down(self, tmp_path, env):
        import threading

        paths = write_inputs(tmp_path)
        assert run_prepare(paths) == 0
        assert main(["train", "--mode", "siamese", *common_args(paths)]) == 0
        queries = tmp_path / "queries.mgf"
        queries.write_text(serialize_mgf(paths["spectra"][:8]))
        real, threads = encoder._encode_group, set()

        def spy(*args):
            threads.add(threading.current_thread().name)
            return real(*args)

        env.setattr(encoder, "_encode_group", spy)
        env.setattr(cli, "_numpy_loaded", lambda: False)
        code = main(
            ["search", "--mode", "siamese", "--queries", str(queries), "--threads", "2",
             *common_args(paths)]
        )
        assert code == 0
        assert threads and all(name.startswith("mzembed-encode") for name in threads)
        assert encoder._pool is None and encoder._workers == 1
        alive = [t for t in threading.enumerate() if t.name.startswith("mzembed-encode")]
        assert not alive

    def test_one_and_two_threads_write_the_same_bytes(self, tmp_path):
        # In fresh processes, where the BLAS pin takes effect.
        paths = write_inputs(tmp_path)
        paths["config"].write_text(CONFIG_SMALL.replace("dropout=0.0", "dropout=0.1"))
        assert run_prepare(paths) == 0
        queries = tmp_path / "queries.mgf"
        queries.write_text(serialize_mgf(paths["spectra"][::2]))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), *sys.path]))
        outputs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            shutil.copytree(paths["out"], out)
            for command in (
                ["train", "--mode", "siamese"],
                ["search", "--mode", "siamese", "--queries", str(queries), "--k", "3"],
            ):
                args = [*common_args(paths), "--out-dir", str(out), "--threads", threads]
                subprocess.run(
                    [sys.executable, "-m", "mzembed.cli", *command, *args],
                    env=env, check=True, capture_output=True, timeout=300,
                )
            log = (out / "train_log_siamese.tsv").read_text().splitlines()
            outputs[threads] = (
                [line.rsplit("\t", 1)[0] for line in log],  # without wall_time_s
                *((out / name).read_bytes() for name in (
                    "model_siamese.ckpt", "index_siamese.bin", "search_results.tsv"
                )),
            )
        assert outputs["1"] == outputs["2"]


# Checkpoints embed a digest of this text, so any change to it makes
# every saved checkpoint refuse to load. The strings are literal on
# purpose: a refactor of the config types must reproduce them exactly.
DESCRIBE_SIN = (
    "d=8\ndropout=0.1\nheads=2\ninner_dim=8\nkind=sin\n"
    "lambda_max=1995.2623149688789\nlambda_min=0.0031622776601683794\n"
    "layers=1\nmax_fragments=512\nprecision={}\nschema_version=1\n"
)
DESCRIBE_TOKEN = (
    "d=8\ndropout=0.1\nheads=2\ninner_dim=8\nkind=token\n"
    "layers=1\nmax_fragments=512\nmax_mz=2000.0\nprecision={}\n"
    "resolution=0.1\nschema_version=1\n"
)
PRECISIONS = {"16": "binary16", "32": "binary32", "64": "binary64"}


def settings_of(**values):
    base = {"schema_version": "1", "d": "8", "layers": "1", "heads": "2"}
    return Settings({**base, **values}, argparse.Namespace())


class TestConfigText:
    @pytest.mark.parametrize("kind,golden,precision", [
        *(("sin", DESCRIBE_SIN, p) for p in sorted(PRECISIONS)), ("token", DESCRIBE_TOKEN, "64"),
    ])
    def test_describe_config_and_run_config_text(self, kind, golden, precision):
        want = golden.format(PRECISIONS[precision])
        cfg = EncoderConfig(
            d=8, layers=1, heads=2, kind=kind, precision=PrecisionMode(int(precision))
        )
        assert describe_config(cfg) == want
        text = run_config_text(settings_of(embedding=kind, precision=precision), "siamese")
        assert text == want + "mode=siamese\n"

    @pytest.mark.parametrize("precision", ["16", "32"])
    def test_token_kind_refuses_a_reduced_precision(self, tmp_path, capsys, precision):
        # The token kind never casts m/z, so a reduced precision would
        # name another config for the same model.
        message = (
            "peak embedding kind token reads no m/z precision; "
            f"it needs binary64, got binary{precision}"
        )
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            EncoderConfig(d=8, layers=1, heads=2, kind="token",
                          precision=PrecisionMode(int(precision)))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_config_text(settings_of(embedding="token", precision=precision), "siamese")
        capsys.readouterr()
        assert main(["export-embeddings", "--embedding", "token", "--precision", precision,
                     "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["16:full", "64:full", "32:input", "1_6", "+64", "064", "３２"])
    def test_precision_spellings_other_than_the_widths_exit_2(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["export-embeddings", "--precision", value, "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert f"invalid choice: {value!r}" in capsys.readouterr().err
        config = tmp_path / "run.cfg"
        config.write_text(f"schema_version=1\nprecision={value}\n", encoding="utf-8")
        assert main(["export-embeddings", "--config", str(config),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: setting 'precision' must be one of 16/32/64, got {value!r}\n"
        )
        assert list(tmp_path.iterdir()) == [config]

    def test_embedding_settings_reach_the_text(self):
        sin = settings_of(**{"lambda-min": "0.01", "lambda-max": "1000"})
        assert run_config_text(sin, "properties") == (
            "d=8\ndropout=0.1\nheads=2\ninner_dim=8\nkind=sin\n"
            "lambda_max=1000.0\nlambda_min=0.01\nlayers=1\nmax_fragments=512\n"
            "precision=binary64\nschema_version=1\nmode=properties\n"
        )
        token = settings_of(embedding="token", resolution="0.5", **{"max-mz": "1500"})
        assert run_config_text(token, "properties") == (
            "d=8\ndropout=0.1\nheads=2\ninner_dim=8\nkind=token\n"
            "layers=1\nmax_fragments=512\nmax_mz=1500.0\nprecision=binary64\n"
            "resolution=0.5\nschema_version=1\nmode=properties\n"
        )

    def test_baseline_bin_lines(self):
        # The baseline reads no encoder setting but the width d.
        default = run_config_text(settings_of(), "properties-baseline")
        assert default == (
            "d=8\nschema_version=1\nmode=properties-baseline\n"
            "bin_width=0.1\nbin_max_mz=2000.0\n"
        )
        custom = settings_of(precision="32", **{"bin-width": "0.2", "max-mz": "1500"})
        assert run_config_text(custom, "properties-baseline") == (
            "d=8\nschema_version=1\nmode=properties-baseline\n"
            "bin_width=0.2\nbin_max_mz=1500.0\n"
        )


def snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestRangeChecks:
    """A bad value exits 2 before the command writes anything."""

    @pytest.mark.parametrize("command,flags,line", [
        ("search", ["--k", "0"], ""),
        ("eval", [], "tolerance=0"),
        ("eval", [], "threshold=1.5"),
        ("export-embeddings", ["--grid-step", "0"], ""),
        ("export-embeddings", ["--grid-count", "0"], ""),
    ])
    def test_bad_value_exits_2_and_writes_nothing(
        self, workspace, tmp_path, capsys, command, flags, line
    ):
        out = tmp_path / "out"
        shutil.copytree(workspace["out"], out)
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG_SMALL + line + "\n")
        queries = tmp_path / "queries.mgf"
        queries.write_text(serialize_mgf(workspace["spectra"][:2]))
        args = ["--config", str(config), "--out-dir", str(out)]
        if command != "export-embeddings":
            args += ["--fingerprints", str(workspace["fingerprints"]),
                     "--properties", str(workspace["properties"])]
        if command == "search":
            args += ["--queries", str(queries)]
        before = snapshot(out)
        capsys.readouterr()
        assert main([command, "--mode", "siamese", *flags, *args]) == 2
        key = (flags[0][2:] if flags else line.split("=")[0])
        assert f"setting {key!r}" in capsys.readouterr().err
        assert snapshot(out) == before

    @pytest.mark.parametrize("command,line,field", [
        ("prepare", "heads=0", "heads"),
        ("train", "heads=-8", "heads"),
        ("train", "inner-dim=0", "inner_dim"),
        ("eval", "d=0", "d"),
    ])
    def test_model_size_below_one_exits_2_and_writes_nothing(
        self, workspace, tmp_path, capsys, command, line, field
    ):
        out = tmp_path / "out"
        shutil.copytree(workspace["out"], out)
        config = tmp_path / "run.cfg"
        key = line.split("=")[0]
        config.write_text(re.sub(rf"^{key}=.*$", line, CONFIG_SMALL, flags=re.M))
        args = ["--config", str(config), "--out-dir", str(out),
                "--fingerprints", str(workspace["fingerprints"]),
                "--properties", str(workspace["properties"])]
        if command == "prepare":
            args += ["--spectra", str(workspace["raw"])]
        before = snapshot(out)
        capsys.readouterr()
        assert main([command, "--mode", "siamese", *args]) == 2
        value = line.split("=")[1]
        assert capsys.readouterr().err == f"error: {field} must be at least 1, got {value}\n"
        assert snapshot(out) == before

    def test_bin_width_not_dividing_max_mz_exits_2_and_writes_nothing(
        self, workspace, tmp_path, capsys
    ):
        out = tmp_path / "out"
        shutil.copytree(workspace["out"], out)
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG_SMALL + "bin-width=0.3\n")
        args = ["--config", str(config), "--out-dir", str(out),
                "--fingerprints", str(workspace["fingerprints"]),
                "--properties", str(workspace["properties"])]
        before = snapshot(out)
        capsys.readouterr()
        assert main(["train", "--mode", "properties-baseline", *args]) == 2
        assert capsys.readouterr().err == (
            "error: bin width 0.3 does not divide bin max m/z 2000.0\n"
        )
        assert snapshot(out) == before


def parser_flags():
    """(subcommand, flag key) for every flag of every subcommand."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (name, option[2:])
        for name, sub in commands.choices.items()
        for action in sub._actions
        for option in action.option_strings
        if option.startswith("--") and option not in ("--help", "--config")
    ]


def handler_keys():
    """Every literal key cli.py reads through settings.get/require/require_path."""
    tree = ast.parse((REPO / "src" / "mzembed" / "cli.py").read_text())
    return sorted({
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("get", "require", "require_path")
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "settings"
        and node.args and isinstance(node.args[0], ast.Constant)
    })


class TestSettingsTable:
    """Every setting is declared once, in cli.SETTINGS."""

    @pytest.mark.parametrize("command,key", parser_flags())
    def test_every_flag_is_a_table_key(self, command, key):
        assert key in SETTINGS

    def test_every_key_a_handler_reads_is_a_table_key(self):
        keys = handler_keys()
        assert {"out-dir", "k", "threshold", "tolerance", "bin-width", "grid-start"} <= set(keys)
        assert [key for key in keys if key not in SETTINGS] == []

    def test_empty_settings_give_the_dataclass_defaults(self):
        enc_cfg, trn_cfg = build_configs(Settings({}, argparse.Namespace()))
        assert describe_config(enc_cfg) == describe_config(EncoderConfig())
        assert trn_cfg == TrainConfig()

    def test_readme_example_config_is_accepted(self, tmp_path):
        readme = (REPO / "README.md").read_text()
        example = re.search(r"## Command line.*?```ini\n(.*?)```", readme, re.S).group(1)
        config = tmp_path / "run.cfg"
        config.write_text(example)
        enc_cfg, trn_cfg = build_configs(Settings(read_config_file(config), argparse.Namespace()))
        assert (enc_cfg.d, enc_cfg.layers, enc_cfg.heads) == (256, 4, 8)
        assert trn_cfg.batch_size == 64

    def test_benchmark_config_is_accepted(self, tmp_path):
        spec = importlib.util.spec_from_file_location(
            "perfbench_inputs", REPO / "perfbench" / "inputs.py"
        )
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        config = tmp_path / "run.cfg"
        inputs.write_config(str(config), {**inputs.CONFIG, "seed": 31})
        settings = Settings(read_config_file(config), argparse.Namespace())
        enc_cfg, trn_cfg = build_configs(settings)
        assert trn_cfg.batch_size == inputs.CONFIG["batch-size"]
        assert set(settings.values) == {"schema_version", "seed", *inputs.CONFIG}
