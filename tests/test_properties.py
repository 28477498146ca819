"""Property regression: scaler, R-squared oracle, baseline forward,
report table and the training loop."""

import numpy as np
import pytest

from conftest import bin_one, toy_dataset, toy_spectrum
from mzembed.data import PROPERTY_NAMES
from mzembed.embed import bin_spectra
from mzembed.encoder import EncoderConfig, init_table, init_weights
from mzembed.errors import ConfigError, DataError, NumericsError
from mzembed.properties import (
    LabelScaler,
    PropertyReport,
    baseline_forward,
    baseline_shapes,
    evaluate_properties,
    predict_baseline,
    predict_properties_batch,
    r2_score,
    spectrum_labels,
    train_properties,
)
from mzembed.tensor import Tensor
from mzembed.training import TrainConfig

def small_cfg():
    return EncoderConfig(d=8, layers=1, heads=1, inner_dim=8, dropout=0.0,
                         kind="sin", max_fragments=16)


class TestLabelScaler:
    def test_fit_matches_hand_statistics(self, rng):
        labels = rng.normal(3.0, 2.0, size=(40, 10))
        scaler = LabelScaler.fit(labels)
        assert np.allclose(scaler.mean, labels.mean(axis=0), atol=1e-12)
        assert np.allclose(scaler.std, labels.std(axis=0), atol=1e-12)

    def test_apply_standardizes(self, rng):
        labels = rng.normal(-1.0, 5.0, size=(60, 10))
        scaler = LabelScaler.fit(labels)
        z = scaler.apply(labels)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-10)

    def test_invert_round_trips(self, rng):
        labels = rng.normal(size=(20, 10))
        scaler = LabelScaler.fit(labels)
        other = rng.normal(size=(7, 10))
        assert np.allclose(scaler.invert(scaler.apply(other)), other, atol=1e-12)

    def test_constant_property_rejected(self, rng):
        labels = rng.normal(size=(20, 10))
        labels[:, 3] = 7.0
        with pytest.raises(NumericsError) as err:
            LabelScaler.fit(labels)
        assert PROPERTY_NAMES[3] in str(err.value)

    def test_shape_and_row_count_validation(self, rng):
        with pytest.raises(ConfigError):
            LabelScaler.fit(rng.normal(size=(20, 9)))
        with pytest.raises(DataError):
            LabelScaler.fit(rng.normal(size=(1, 10)))


class TestR2:
    def test_hand_formula_on_random_data(self, rng):
        for trial in range(200):
            n = int(rng.integers(2, 50))
            actual = rng.normal(size=n) * rng.uniform(0.5, 4.0)
            predicted = actual + rng.normal(size=n) * rng.uniform(0.0, 2.0)
            ss_res = np.sum((actual - predicted) ** 2)
            ss_tot = np.sum((actual - np.mean(actual)) ** 2)
            if ss_tot == 0.0:
                continue
            want = 1.0 - ss_res / ss_tot
            assert np.isclose(r2_score(predicted, actual), want, atol=1e-12)

    def test_perfect_prediction(self, rng):
        actual = rng.normal(size=25)
        assert r2_score(actual, actual) == 1.0

    def test_mean_predictor_is_exactly_zero(self, rng):
        actual = rng.normal(size=31)
        predicted = np.full_like(actual, actual.mean())
        assert r2_score(predicted, actual) == 0.0

    def test_bad_predictor_goes_negative(self, rng):
        actual = rng.normal(size=20)
        assert r2_score(-5.0 * actual + 3.0, actual) < 0.0

    def test_validation(self, rng):
        with pytest.raises(ConfigError):
            r2_score(np.zeros(3), np.zeros(4))
        with pytest.raises(DataError):
            r2_score(np.zeros(1), np.zeros(1))
        with pytest.raises(NumericsError):
            r2_score(np.arange(5.0), np.full(5, 2.0))

    def test_equal_values_refused_despite_rounding(self):
        # The mean of three 0.1s is not 0.1, so SS_tot of equal values
        # came out near 6e-34 and R-squared near -1e33.
        actual = np.full(3, 0.1)
        assert np.sum((actual - actual.mean()) ** 2) > 0.0
        with pytest.raises(NumericsError):
            r2_score(np.array([0.0, 0.1, 0.2]), actual)


class TestBaseline:
    def test_init_deterministic_and_named(self):
        a = init_table(baseline_shapes(50, 8), seed=3)
        b = init_table(baseline_shapes(50, 8), seed=3)
        for name, tensor in a.named().items():
            assert name.startswith("baseline.")
            assert np.array_equal(tensor.data, b.named()[name].data)
        assert set(a.named()) == {
            "baseline.w1", "baseline.b1", "baseline.w2", "baseline.b2",
            "baseline.w3", "baseline.b3",
        }

    def test_shapes(self):
        t = init_table(baseline_shapes(50, 8), seed=0).named()
        assert t["baseline.w1"].data.shape == (16, 50)
        assert t["baseline.w2"].data.shape == (16, 16)
        assert t["baseline.w3"].data.shape == (10, 16)

    def test_forward_matches_hand_numpy(self, rng):
        params = init_table(baseline_shapes(12, 4), seed=1)
        x = rng.normal(size=(5, 12))
        got = baseline_forward(Tensor(x), params).data
        w1, b1, w2, b2, w3, b3 = (t.data for t in params.named().values())
        h = np.maximum(x @ w1.T + b1, 0.0)
        h = np.maximum(h @ w2.T + b2, 0.0)
        want = h @ w3.T + b3
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_forward_on_binned_spectrum(self, rng):
        s = toy_spectrum("s", "m", rng)
        x = bin_spectra([s], 0.1, 2000.0)[0]
        params = init_table(baseline_shapes(x.shape[0], 8), seed=0)
        out = baseline_forward(Tensor(x[None, :]), params)
        assert out.data.shape == (1, 10)
        assert np.all(np.isfinite(out.data))

    def test_predict_baseline_inverts_the_scaler(self, rng):
        spectra = [toy_spectrum(f"s{i}", "m", rng) for i in range(3)]
        x = np.stack([bin_spectra([s], 0.5, 1000.0)[0] for s in spectra])
        params = init_table(baseline_shapes(x.shape[1], 8), seed=0)
        scaler = LabelScaler.fit(rng.normal(2.0, 3.0, size=(30, 10)))
        got = predict_baseline(spectra, params, scaler, 0.5, 1000.0)
        want = baseline_forward(Tensor(x), params).data * scaler.std + scaler.mean
        assert got.shape == (3, 10)
        assert np.array_equal(got, want)

    def test_converted_params_predict_the_same_bits(self, rng):
        spectra = [toy_spectrum(f"s{i}", "m", rng) for i in range(5)]
        params = init_table(baseline_shapes(10_000, 16), seed=2)
        converted = params.for_inference()
        for tensor in converted.named().values():
            assert tensor.data.dtype == np.float64 and tensor.data.flags.f_contiguous
        scaler = LabelScaler.fit(rng.normal(2.0, 3.0, size=(30, 10)))
        want = predict_baseline(spectra, params, scaler, 0.1, 1000.0)
        got = predict_baseline(spectra, converted, scaler, 0.1, 1000.0)
        assert got.tobytes() == want.tobytes()


class TestSpectrumLabels:
    def test_rows_align_with_spectra(self, rng):
        spectra, molecules = toy_dataset(n_structures=3, spectra_per=2, seed=6)
        labels = spectrum_labels(spectra, molecules)
        assert labels.shape == (len(spectra), 10)
        for row, s in zip(labels, spectra):
            assert np.array_equal(row, molecules[s.structure_id].properties)

    def test_unresolvable_structure_rejected(self, rng):
        spectra, molecules = toy_dataset(n_structures=2, spectra_per=2, seed=6)
        orphan = toy_spectrum("o", "missing", rng)
        with pytest.raises(DataError):
            spectrum_labels([orphan], molecules)


class TestPredict:
    def test_batch_matches_hand_pipeline(self, rng):
        cfg = small_cfg()
        weights = init_weights(cfg, seed=4, head_out=10)
        scaler = LabelScaler.fit(rng.normal(2.0, 3.0, size=(30, 10)))
        spectra = [toy_spectrum(f"s{i}", "m", rng) for i in range(3)]
        got = predict_properties_batch(spectra, cfg, weights, scaler)

        from mzembed.encoder import encode_batch

        embs = encode_batch(spectra, cfg, weights).data
        t = weights.named()
        h = np.maximum(embs @ t["head.w1"].data.T + t["head.b1"].data, 0.0)
        scaled = h @ t["head.w2"].data.T + t["head.b2"].data
        want = scaled * scaler.std + scaler.mean
        assert got.shape == (3, 10)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_row_does_not_depend_on_batch(self, rng):
        # A spectrum predicted alone gets the same bits as its row in a
        # batch with differently sized spectra.
        cfg = small_cfg()
        weights = init_weights(cfg, seed=4, head_out=10)
        scaler = LabelScaler.fit(rng.normal(size=(30, 10)))
        spectra = [
            toy_spectrum(f"s{i}", "m", rng, n_peaks=(4 + 2 * i, 5 + 2 * i)) for i in range(6)
        ]
        batch = predict_properties_batch(spectra, cfg, weights, scaler)
        for row, s in zip(batch, spectra):
            alone = predict_properties_batch([s], cfg, weights, scaler)
            assert np.array_equal(alone[0], row)

    def test_headless_weights_rejected(self, rng):
        cfg = small_cfg()
        weights = init_weights(cfg, seed=4)  # no head
        scaler = LabelScaler.fit(rng.normal(size=(30, 10)))
        with pytest.raises(ConfigError):
            predict_properties_batch(
                [toy_spectrum("s", "m", rng)], cfg, weights, scaler
            )


class TestReport:
    def test_serialization_layout(self):
        rows = [(name, 0.5, 0.25) for name in PROPERTY_NAMES]
        report = PropertyReport(rows=rows)
        lines = report.serialize().splitlines()
        assert lines[0] == "# evaluation_unit=per-spectrum"
        assert lines[1] == "property\tknown_r2\tnovel_r2"
        assert lines[2] == "all\t0.500000\t0.250000"
        assert lines[3] == f"{PROPERTY_NAMES[0]}\t0.500000\t0.250000"
        assert len(lines) == 3 + 10

    def test_average_row(self):
        rows = [(name, float(j), float(2 * j)) for j, name in enumerate(PROPERTY_NAMES)]
        report = PropertyReport(rows=rows)
        avg_known, avg_novel = report.average
        assert avg_known == np.mean([float(j) for j in range(10)])
        assert avg_novel == 2 * avg_known

    def test_nan_rendering(self):
        rows = [(name, 0.9, float("nan")) for name in PROPERTY_NAMES]
        report = PropertyReport(rows=rows)
        assert "nan" in report.serialize()


class TestEvaluate:
    def test_oracle_predictor_gives_unit_r2(self, rng):
        spectra, molecules = toy_dataset(n_structures=4, spectra_per=2, seed=8)

        def perfect(batch):
            return spectrum_labels(batch, molecules)

        report = evaluate_properties({"known": spectra}, molecules, perfect)
        for name, known, novel in report.rows:
            assert known == 1.0
            assert np.isnan(novel)

    def test_mean_predictor_gives_zero_r2(self, rng):
        spectra, molecules = toy_dataset(n_structures=4, spectra_per=2, seed=8)
        labels = spectrum_labels(spectra, molecules)
        mean_row = labels.mean(axis=0)

        def mean_predictor(batch):
            return np.tile(mean_row, (len(batch), 1))

        report = evaluate_properties({"known": spectra}, molecules, mean_predictor)
        for name, known, novel in report.rows:
            # Axis-0 means differ from column means by an ulp at most.
            assert abs(known) <= 1e-12

    def test_fewer_than_two_spectra_give_nan(self):
        spectra, molecules = toy_dataset(n_structures=4, spectra_per=2, seed=8)

        def perfect(batch):
            return spectrum_labels(batch, molecules)

        report = evaluate_properties({"known": spectra[:1], "novel": spectra}, molecules, perfect)
        assert all(np.isnan(known) and novel == 1.0 for _, known, novel in report.rows)
        assert np.isnan(report.average[0]) and report.average[1] == 1.0
        assert report.serialize().splitlines()[2] == "all\tnan\t1.000000"

    def test_equal_values_of_a_property_give_nan(self):
        # One structure: every property is constant over the split. Two
        # structures that share one property: only that cell is nan.
        spectra, molecules = toy_dataset(n_structures=4, spectra_per=2, seed=8)
        molecules["m1"].properties[3] = molecules["m0"].properties[3]

        def perfect(batch):
            return spectrum_labels(batch, molecules)

        one, two = spectra[:2], spectra[:4]
        report = evaluate_properties({"known": two, "novel": one}, molecules, perfect)
        for j, (name, known, novel) in enumerate(report.rows):
            assert np.isnan(known) if j == 3 else known == 1.0
            assert np.isnan(novel)
        assert np.isnan(report.average[0]) and np.isnan(report.average[1])

    def test_unknown_set_names_ignored(self, rng):
        spectra, molecules = toy_dataset(n_structures=4, spectra_per=2, seed=8)

        def perfect(batch):
            return spectrum_labels(batch, molecules)

        report = evaluate_properties({"extra": spectra}, molecules, perfect)
        for name, known, novel in report.rows:
            assert np.isnan(known) and np.isnan(novel)


class TestTrainLoop:
    def setup_data(self):
        spectra, molecules = toy_dataset(n_structures=4, spectra_per=2, seed=17)
        trn = TrainConfig(epochs=3, batch_size=8, lr=1e-3, seed=5)
        return spectra, molecules, trn

    def test_transformer_path(self):
        spectra, molecules, trn = self.setup_data()
        model, scaler, report, log = train_properties(
            spectra, molecules, trn, small_cfg(),
            eval_sets={"known": spectra},
        )
        assert "head.w1" in model.named()
        assert isinstance(scaler, LabelScaler)
        assert log.columns == ("epoch", "train_mse", "wall_time_s")
        assert len(log.rows) == 3
        assert log.rows[-1][1] < log.rows[0][1]
        assert [r[0] for r in report.rows] == list(PROPERTY_NAMES)

    def test_baseline_path(self):
        spectra, molecules, trn = self.setup_data()
        model, scaler, report, log = train_properties(
            spectra, molecules, trn, small_cfg(), baseline=True,
            bin_width=0.5, bin_max_mz=1000.0,
            eval_sets={"known": spectra},
        )
        shapes = {name: t.data.shape for name, t in model.named().items()}
        assert shapes == baseline_shapes(2000, 8)  # 1000 / 0.5 bins, d=8
        assert log.meta["mode"] == "properties-baseline"
        assert log.rows[-1][1] < log.rows[0][1]

    @pytest.mark.parametrize("batch_size", [4, 5])
    def test_baseline_equals_binning_the_split_up_front(self, monkeypatch, batch_size):
        # The reference bins every training spectrum once and gathers
        # each step's rows from that matrix; binning each step instead
        # must give the same weights and the same log. 8 spectra: a
        # batch of 4 divides them, a batch of 5 leaves a step of 3.
        import mzembed.properties

        spectra, molecules, _ = self.setup_data()
        trn = TrainConfig(epochs=3, batch_size=batch_size, lr=1e-3, seed=5)
        stepped = train_properties(
            spectra, molecules, trn, small_cfg(), baseline=True, bin_width=0.5, bin_max_mz=1000.0
        )
        binned = np.stack([bin_one(s, 0.5, 1000.0) for s in spectra])
        row_of = {s.id: i for i, s in enumerate(spectra)}
        monkeypatch.setattr(
            mzembed.properties, "bin_spectra",
            lambda chunk, width, max_mz: binned[[row_of[s.id] for s in chunk]],
        )
        up_front = train_properties(
            spectra, molecules, trn, small_cfg(), baseline=True, bin_width=0.5, bin_max_mz=1000.0
        )
        for (name, got), want in zip(stepped[0].named().items(), up_front[0].named().values()):
            assert got.data.tobytes() == want.data.tobytes(), name

        def without_wall_time(log):
            return [line.rpartition("\t")[0] for line in log.serialize().splitlines()]

        assert without_wall_time(stepped[3]) == without_wall_time(up_front[3])

    def test_baseline_bins_at_most_a_batch_at_a_time(self, monkeypatch):
        # As train calls it, with no eval sets: no call bins more than
        # one step's spectra, and each epoch's calls cover the 8 spectra.
        import mzembed.properties

        spectra, molecules, _ = self.setup_data()
        trn = TrainConfig(epochs=2, batch_size=3, lr=1e-3, seed=5)
        sizes = []
        real = mzembed.properties.bin_spectra

        def counting(chunk, *args):
            sizes.append(len(chunk))
            return real(chunk, *args)

        monkeypatch.setattr(mzembed.properties, "bin_spectra", counting)
        train_properties(
            spectra, molecules, trn, small_cfg(), baseline=True, bin_width=0.5, bin_max_mz=1000.0
        )
        assert sizes == [3, 3, 2] * 2

    def test_rerun_is_bit_identical(self):
        spectra, molecules, trn = self.setup_data()
        m1, s1, _, log1 = train_properties(spectra, molecules, trn, small_cfg())
        m2, s2, _, log2 = train_properties(spectra, molecules, trn, small_cfg())
        for name, tensor in m1.named().items():
            assert tensor.data.tobytes() == m2.named()[name].data.tobytes(), name
        assert np.array_equal(s1.mean, s2.mean)
        assert [r[:2] for r in log1.rows] == [r[:2] for r in log2.rows]

    def test_empty_training_set_rejected(self):
        _, molecules, trn = self.setup_data()
        with pytest.raises(DataError):
            train_properties([], molecules, trn, small_cfg())
