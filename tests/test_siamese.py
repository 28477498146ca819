"""Siamese similarity training: Tanimoto oracle, bin bookkeeping,
uniform pair sampling and the loss."""

import numpy as np
import pytest
from scipy import stats

from conftest import toy_dataset, toy_molecule
from mzembed.data import MoleculeRecord
from mzembed.encoder import EncoderConfig, encode_many, encode_spectrum, init_weights
from mzembed.errors import ConfigError, DataError, DimensionError
from mzembed.rng import stream_rng
from mzembed.siamese import (
    PairSample,
    _pair_mse,
    bin_of,
    build_similarity_bins,
    sample_uniform_pairs,
    siamese_loss,
    tanimoto,
    train_siamese,
)
from mzembed.tensor import Tensor
from mzembed.training import TrainConfig


def bits_from_indices(indices, width=16):
    out = np.zeros(width, dtype=np.uint8)
    out[list(indices)] = 1
    return out


class TestTanimoto:
    def test_set_oracle_on_random_fingerprints(self, rng):
        for trial in range(1000):
            width = int(rng.integers(1, 40))
            a = (rng.random(width) < 0.4).astype(np.uint8)
            b = (rng.random(width) < 0.4).astype(np.uint8)
            sa = set(np.nonzero(a)[0].tolist())
            sb = set(np.nonzero(b)[0].tolist())
            union = len(sa | sb)
            want = len(sa & sb) / union if union else 0.0
            assert tanimoto(a, b) == want

    def test_known_value(self):
        # Sets {1,2,3} and {2,3,4}: intersection 2, union 4.
        a = bits_from_indices({1, 2, 3})
        b = bits_from_indices({2, 3, 4})
        assert tanimoto(a, b) == 0.5

    def test_identical_sets(self):
        a = bits_from_indices({0, 5, 9})
        assert tanimoto(a, a) == 1.0

    def test_disjoint_sets(self):
        assert tanimoto(bits_from_indices({0, 1}), bits_from_indices({2, 3})) == 0.0

    def test_both_empty(self):
        assert tanimoto(np.zeros(8, dtype=np.uint8), np.zeros(8, dtype=np.uint8)) == 0.0

    def test_symmetry(self, rng):
        a = (rng.random(32) < 0.3).astype(np.uint8)
        b = (rng.random(32) < 0.3).astype(np.uint8)
        assert tanimoto(a, b) == tanimoto(b, a)

    def test_width_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            tanimoto(np.zeros(8, dtype=np.uint8), np.zeros(9, dtype=np.uint8))


class TestBins:
    def test_bin_of_boundaries(self):
        assert bin_of(0.0, 10) == 0
        assert bin_of(0.0999, 10) == 0
        assert bin_of(0.1, 10) == 1
        assert bin_of(0.95, 10) == 9
        assert bin_of(1.0, 10) == 9  # top bin owns the boundary

    def test_exact_enumeration_covers_all_pairs(self, rng):
        molecules = {f"m{i}": toy_molecule(f"m{i}", rng) for i in range(6)}
        names = sorted(molecules)
        bins = build_similarity_bins(molecules, names, bin_count=10)
        entries = [e for r in bins.reservoirs for e in r]
        # 6 choose 2 unordered pairs plus 6 self-pairs.
        assert len(entries) == 15 + 6
        seen = {(a, b) for a, b, _ in entries}
        assert len(seen) == 21
        for a, b, t in entries:
            assert a <= b
            assert t == tanimoto(molecules[a].fingerprint, molecules[b].fingerprint)
            assert bin_of(t, 10) == next(
                k for k, r in enumerate(bins.reservoirs) if (a, b, t) in r
            )

    def test_self_pairs_make_top_bin_reachable(self, rng):
        molecules = {f"m{i}": toy_molecule(f"m{i}", rng) for i in range(4)}
        bins = build_similarity_bins(molecules, sorted(molecules), bin_count=10)
        top = bins.reservoirs[-1]
        assert {(a, b) for a, b, _ in top} >= {(m, m) for m in molecules}

    def test_missing_molecule_rejected(self, rng):
        molecules = {"m0": toy_molecule("m0", rng)}
        with pytest.raises(DataError):
            build_similarity_bins(molecules, ["m0", "m1"])

    def test_bad_bin_count_rejected(self, rng):
        molecules = {"m0": toy_molecule("m0", rng)}
        with pytest.raises(ConfigError):
            build_similarity_bins(molecules, ["m0"], bin_count=0)

    def test_rejection_sampling_beyond_exact_limit(self, rng):
        molecules = {f"m{i:02d}": toy_molecule(f"m{i:02d}", rng) for i in range(30)}
        names = sorted(molecules)

        def build(seed, max_draws=2000):
            return build_similarity_bins(
                molecules, names, bin_count=10, exact_limit=10, seed=seed,
                rejection_target=5, rejection_max_draws=max_draws,
            )

        bins = build(3)
        assert bins.reservoirs == build(3).reservoirs
        assert bins.reservoirs != build(4).reservoirs
        sizes = [len(r) for r in bins.reservoirs]
        assert max(sizes) == 5
        for k, reservoir in enumerate(bins.reservoirs):
            for a, b, t in reservoir:
                assert a <= b
                assert t == tanimoto(molecules[a].fingerprint, molecules[b].fingerprint)
                assert k / 10 <= t < (k + 1) / 10 or (k == 9 and t == 1.0)
        # Self-pairs drawn by the sampler land in the last bin.
        assert any(t == 1.0 for _, _, t in bins.reservoirs[-1])

        assert build(3, max_draws=0).unreachable == list(range(10))

    def test_unreachable_property(self):
        bins = build_similarity_bins({}, [], bin_count=3)
        assert bins.unreachable == [0, 1, 2]


class TestPairSampling:
    def test_label_validation(self):
        with pytest.raises(DataError):
            PairSample(a="x", b="y", label=1.5)
        with pytest.raises(DataError):
            PairSample(a="x", b="y", label=-0.1)

    def test_pairs_reference_real_spectra_and_labels(self, rng):
        spectra, molecules = toy_dataset(n_structures=5, spectra_per=3, seed=11)
        structures = sorted(molecules)
        bins = build_similarity_bins(molecules, structures)
        pairs = sample_uniform_pairs(molecules, spectra, bins, 200, seed=7)
        assert len(pairs) == 200
        by_id = {s.id: s for s in spectra}
        for p in pairs:
            sa = by_id[p.a].structure_id
            sb = by_id[p.b].structure_id
            want = tanimoto(molecules[sa].fingerprint, molecules[sb].fingerprint)
            assert p.label in (want, tanimoto(molecules[sb].fingerprint, molecules[sa].fingerprint))

    def test_bin_draws_are_uniform_over_reachable(self, rng):
        spectra, molecules = toy_dataset(n_structures=8, spectra_per=2, seed=3)
        bins = build_similarity_bins(molecules, sorted(molecules))
        pairs = sample_uniform_pairs(molecules, spectra, bins, 5000, seed=1)
        reachable = [k for k, r in enumerate(bins.reservoirs) if r]
        counts = np.zeros(len(reachable))
        index_of = {k: i for i, k in enumerate(reachable)}
        for p in pairs:
            counts[index_of[bin_of(p.label, bins.bin_count)]] += 1
        assert counts.sum() == 5000
        result = stats.chisquare(counts)
        assert result.pvalue > 0.01

    def test_sampling_is_deterministic(self, rng):
        spectra, molecules = toy_dataset(n_structures=4, spectra_per=2, seed=5)
        bins = build_similarity_bins(molecules, sorted(molecules))
        a = sample_uniform_pairs(molecules, spectra, bins, 50, seed=9)
        b = sample_uniform_pairs(molecules, spectra, bins, 50, seed=9)
        c = sample_uniform_pairs(molecules, spectra, bins, 50, seed=10)
        assert a == b
        assert a != c

    def test_structures_without_spectra_are_filtered(self, rng):
        spectra, molecules = toy_dataset(n_structures=4, spectra_per=2, seed=5)
        # Drop every spectrum of one structure; its pairs must not appear.
        gone = spectra[0].structure_id
        kept = [s for s in spectra if s.structure_id != gone]
        bins = build_similarity_bins(molecules, sorted(molecules))
        pairs = sample_uniform_pairs(molecules, kept, bins, 100, seed=2)
        by_id = {s.id: s for s in kept}
        for p in pairs:
            assert by_id[p.a].structure_id != gone
            assert by_id[p.b].structure_id != gone

    def test_zero_count_allowed(self, rng):
        spectra, molecules = toy_dataset(n_structures=3, spectra_per=2, seed=5)
        bins = build_similarity_bins(molecules, sorted(molecules))
        assert sample_uniform_pairs(molecules, spectra, bins, 0, seed=0) == []

    def test_no_reachable_bins_rejected(self, rng):
        spectra, molecules = toy_dataset(n_structures=3, spectra_per=2, seed=5)
        bins = build_similarity_bins(molecules, sorted(molecules))
        with pytest.raises(DataError):
            sample_uniform_pairs(molecules, [], bins, 10, seed=0)


class TestLoss:
    def test_matches_hand_computation(self, rng):
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(4, 6))
        labels = rng.uniform(0, 1, size=4)
        cos = np.sum(a * b, axis=1) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        )
        want = np.mean((cos - labels) ** 2)
        got = siamese_loss(Tensor(a), Tensor(b), labels)
        assert np.isclose(float(got.data), want, atol=1e-12)

    def test_single_pair_vectors(self, rng):
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        cos = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        got = siamese_loss(Tensor(a), Tensor(b), 0.3)
        assert np.isclose(float(got.data), (cos - 0.3) ** 2, atol=1e-12)

    def test_perfect_prediction_zero_loss(self):
        a = Tensor(np.array([[1.0, 0.0], [0.0, 2.0]]))
        labels = np.array([1.0, 1.0])
        loss = siamese_loss(a, a, labels)
        assert float(loss.data) <= 1e-15

    def test_gradient_flows(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        loss = siamese_loss(a, b, np.array([0.2, 0.5, 0.9]))
        loss.backward()
        assert a.grad is not None and np.any(a.grad != 0)
        assert b.grad is not None and np.any(b.grad != 0)


class TestPairMse:
    def test_equals_loss_over_lone_encodes(self):
        # Spectra of mixed sizes, each in several pairs: the held-out MSE
        # must not depend on how the pairs were batched.
        spectra, molecules = toy_dataset(n_structures=4, spectra_per=3, seed=5)
        cfg = EncoderConfig(d=8, layers=2, heads=2, inner_dim=8, dropout=0.0,
                            kind="sin", max_fragments=16)
        weights = init_weights(cfg, seed=1)
        bins = build_similarity_bins(molecules, sorted(molecules))
        pairs = sample_uniform_pairs(molecules, spectra, bins, 40, seed=3)
        lone = {s.id: encode_spectrum(s, cfg, weights).data for s in spectra}
        want = siamese_loss(
            Tensor(np.stack([lone[p.a] for p in pairs])),
            Tensor(np.stack([lone[p.b] for p in pairs])),
            np.array([p.label for p in pairs]),
        )
        rows = dict(zip((s.id for s in spectra), encode_many(spectra, cfg, weights)))
        got = _pair_mse(pairs, rows)
        assert got == float(want.data)

    def test_no_pairs_is_nan(self):
        assert np.isnan(_pair_mse([], {}))


class TestTrainLoop:
    def small_setup(self):
        spectra, molecules = toy_dataset(n_structures=3, spectra_per=2, seed=21)
        enc = EncoderConfig(d=8, layers=1, heads=1, inner_dim=8, dropout=0.0,
                            kind="sin", max_fragments=16)
        trn = TrainConfig(epochs=2, batch_size=8, lr=1e-3,
                          seed=13, pairs_per_epoch=16, eval_pairs=8)
        return spectra, molecules, enc, trn

    def test_two_epochs_log_and_shapes(self):
        spectra, molecules, enc, trn = self.small_setup()
        weights, log = train_siamese(spectra, molecules, trn, enc, eval_sets={"known": spectra})
        assert log.columns == ("epoch", "train_mse", "known_mse", "novel_mse", "wall_time_s")
        assert len(log.rows) == 2
        for row in log.rows:
            assert np.isfinite(row[1])
            assert np.isfinite(row[2])
            assert np.isnan(row[3])  # no novel set supplied
        assert "peak.inner.w1" in weights.named()

    def test_rerun_is_bit_identical(self):
        spectra, molecules, enc, trn = self.small_setup()
        w1, log1 = train_siamese(spectra, molecules, trn, enc)
        w2, log2 = train_siamese(spectra, molecules, trn, enc)
        for (n1, t1), (n2, t2) in zip(w1.named().items(), w2.named().items()):
            assert n1 == n2
            assert t1.data.tobytes() == t2.data.tobytes(), n1
        for r1, r2 in zip(log1.rows, log2.rows):
            # Everything except wall time must reproduce; NaN slots match NaN.
            assert np.array_equal(r1[:4], r2[:4], equal_nan=True)

    def test_two_workers_train_the_same_bytes(self, tmp_path, monkeypatch):
        import mzembed.siamese
        from mzembed import encoder
        from mzembed.tensor import save_checkpoint

        spectra, molecules = toy_dataset(n_structures=3, spectra_per=3, seed=21)
        enc = EncoderConfig(d=8, layers=2, heads=2, inner_dim=8, dropout=0.2,
                            kind="sin", max_fragments=16)
        trn = TrainConfig(epochs=1, batch_size=8, lr=1e-3,
                          seed=13, pairs_per_epoch=16, eval_pairs=8)
        real = mzembed.siamese.encode_batch

        def train(workers):
            streams = []

            def spying(batch, *args, rng=None, **kwargs):
                streams.append(rng)
                return real(batch, *args, rng=rng, **kwargs)

            monkeypatch.setattr(mzembed.siamese, "encode_batch", spying)
            with encoder.encode_workers(workers):
                weights, log = train_siamese(
                    spectra, molecules, trn, enc, eval_sets={"known": spectra[:4]}
                )
            path = tmp_path / f"workers{workers}.ckpt"
            save_checkpoint(path, {k: v.data for k, v in weights.named().items()}, "test\n")
            assert len(streams) == 2  # two steps
            return path.read_bytes(), [row[:4] for row in log.rows], streams[-1].random()

        (ckpt1, log1, draw1), (ckpt2, log2, draw2) = train(1), train(2)
        assert ckpt1 == ckpt2
        assert np.array_equal(log1, log2, equal_nan=True)
        assert draw1 == draw2  # the dropout generator's next draw

    def test_held_out_mse_takes_one_encode_per_epoch(self, monkeypatch):
        import mzembed.siamese

        spectra, molecules, enc, trn = self.small_setup()
        known, novel = spectra[:3], spectra[3:]
        real = mzembed.siamese.encode_many
        calls = []

        def counting(batch, *args, **kwargs):
            calls.append([s.id for s in batch])
            return real(batch, *args, **kwargs)

        monkeypatch.setattr(mzembed.siamese, "encode_many", counting)
        weights, log = train_siamese(
            spectra, molecules, trn, enc, eval_sets={"known": known, "novel": novel}
        )
        assert len(calls) == trn.epochs
        assert all(len(set(ids)) == len(ids) for ids in calls)
        # The last epoch's values equal a separate encode of each set.
        for name, held, column in (("known", known, 2), ("novel", novel, 3)):
            structures = sorted({s.structure_id for s in held})
            bins = build_similarity_bins(molecules, structures, seed=trn.seed)
            pairs = sample_uniform_pairs(
                molecules, held, bins, trn.eval_pairs, stream_rng(trn.seed, "eval", name)
            )
            rows = dict(zip((s.id for s in held), real(held, enc, weights)))
            assert log.rows[-1][column] == _pair_mse(pairs, rows)

    def test_loss_moves(self):
        spectra, molecules, enc, trn = self.small_setup()
        _, log = train_siamese(spectra, molecules, trn, enc)
        assert log.rows[0][1] != log.rows[-1][1]

    def test_duplicate_ids_rejected(self):
        spectra, molecules, enc, trn = self.small_setup()
        with pytest.raises(DataError):
            train_siamese(spectra + [spectra[0]], molecules, trn, enc)

    def test_unlabeled_training_set_rejected(self, rng):
        from conftest import toy_spectrum

        spectra, molecules, enc, trn = self.small_setup()
        orphans = [toy_spectrum(f"o{i}", None, rng) for i in range(4)]
        with pytest.raises(DataError):
            train_siamese(orphans, molecules, trn, enc)
