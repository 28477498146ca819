"""End-to-end command line flows on a tiny on-disk dataset."""

import subprocess
import sys

import numpy as np
import pytest

from conftest import toy_dataset
from mzembed.cli import main
from mzembed.data import PROPERTY_NAMES, Peak, Spectrum, serialize_mgf

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


class TestTrain:
    def test_siamese_artifacts(self, workspace):
        out = workspace["out"]
        assert (out / "model_siamese.ckpt").exists()
        assert (out / "model_siamese.ckpt.config").exists()
        log = (out / "train_log_siamese.tsv").read_text().splitlines()
        header_at = next(i for i, l in enumerate(log) if not l.startswith("#"))
        assert log[header_at] == "epoch\ttrain_mse\tknown_mse\tnovel_mse\twall_time_s"
        assert len(log) - header_at - 1 == 2  # one row per epoch

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

    def test_config_digest_mismatch_exits_2(self, workspace, tmp_path):
        # Same checkpoint, different architecture settings.
        other = tmp_path / "other.cfg"
        other.write_text(CONFIG_SMALL.replace("heads=1", "heads=2"))
        code = main(
            ["eval", "--mode", "siamese",
             "--config", str(other),
             "--out-dir", str(workspace["out"]),
             "--fingerprints", str(workspace["fingerprints"]),
             "--properties", str(workspace["properties"])]
        )
        assert code == 2

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

    def test_console_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "mzembed.cli", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0
        assert "prepare" in result.stdout
