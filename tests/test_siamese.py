"""Siamese similarity training: Tanimoto oracle, bin bookkeeping,
uniform pair sampling and the loss."""

import numpy as np
import pytest
from scipy import stats

from conftest import toy_dataset, toy_molecule
from mzembed.data import MoleculeRecord
from mzembed.encoder import EncoderConfig, encode_many, encode_spectrum, init_weights
from mzembed.errors import DataError, DimensionError
from mzembed.rng import stream_rng
from mzembed.siamese import (
    PairSample,
    _pair_mse,
    bin_of,
    build_similarity_bins,
    sample_uniform_pairs,
    siamese_loss,
    tanimoto,
    tanimoto_many,
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

    def test_block_scores_each_pair(self, rng):
        # One fingerprint against a block, and a block against a block,
        # give each pair's bits; uint8 values other than 0 and 1 count as
        # values, not bits.
        block = (rng.random((30, 24)) < 0.3).astype(np.uint8)
        block[0] = 0
        block[1] = rng.integers(0, 256, 24)
        one = tanimoto_many(block[1], block)
        pairs = tanimoto_many(block, block[::-1])
        assert [t.hex() for t in one.tolist()] == [pair_tanimoto(block[1], f).hex() for f in block]
        assert [t.hex() for t in pairs.tolist()] == [
            pair_tanimoto(f, g).hex() for f, g in zip(block, block[::-1])
        ]
        with pytest.raises(DimensionError, match="widths differ"):
            tanimoto_many(block[0], block[:, :-1])


def pair_tanimoto(fp_a, fp_b):
    """One pair's Tanimoto as Python integer division of its counts."""
    a = np.asarray(fp_a, dtype=np.uint8)
    b = np.asarray(fp_b, dtype=np.uint8)
    if a.shape != b.shape:
        raise DimensionError(f"fingerprint widths differ: {a.shape} vs {b.shape}")
    union = int(np.sum(a | b))
    return int(np.sum(a & b)) / union if union else 0.0


def per_pair_bins(molecules, names, bin_count):
    """The exact enumeration as one scored pair at a time, kept as
    (structure_a, structure_b, tanimoto) tuples: the reference for
    ``build_similarity_bins`` up to ``EXACT_ENUMERATION_LIMIT``."""
    reservoirs = [[] for _ in range(bin_count)]
    for i, sa in enumerate(names):
        for sb in names[i:]:
            t = pair_tanimoto(molecules[sa].fingerprint, molecules[sb].fingerprint)
            reservoirs[min(int(t * bin_count), bin_count - 1)].append((sa, sb, t))
    return reservoirs


def per_pair_sampler(molecules, names, bin_count, seed, target, max_draws):
    """The rejection sampler as one drawn and scored pair per loop turn,
    stopping when every bin is full: the reference for
    ``build_similarity_bins`` past ``EXACT_ENUMERATION_LIMIT``."""
    reservoirs = [[] for _ in range(bin_count)]
    rng = stream_rng(seed, "pairs", 0xB1)
    draws = 0
    while draws < max_draws and any(len(r) < target for r in reservoirs):
        i = int(rng.integers(len(names)))
        j = int(rng.integers(len(names)))
        if j < i:
            i, j = j, i
        sa, sb = names[i], names[j]
        t = pair_tanimoto(molecules[sa].fingerprint, molecules[sb].fingerprint)
        k = min(int(t * bin_count), bin_count - 1)
        if len(reservoirs[k]) < target:
            reservoirs[k].append((sa, sb, t))
        draws += 1
    return reservoirs


def per_pair_sample(spectra, reservoirs, count, seed):
    """``sample_uniform_pairs`` over tuple reservoirs, filtering every
    pair in Python: its reference."""
    rng = stream_rng(seed, "pairs")
    spectra_of = {}
    for s in sorted(spectra, key=lambda x: x.id):
        if s.structure_id is not None:
            spectra_of.setdefault(s.structure_id, []).append(s.id)
    usable = [[e for e in r if e[0] in spectra_of and e[1] in spectra_of] for r in reservoirs]
    reachable = [k for k, r in enumerate(usable) if r]
    out = []
    for _ in range(count):
        k = reachable[int(rng.integers(len(reachable)))]
        sa, sb, label = usable[k][int(rng.integers(len(usable[k])))]
        ids_a = spectra_of[sa]
        ids_b = spectra_of[sb]
        a = ids_a[int(rng.integers(len(ids_a)))]
        b = ids_b[int(rng.integers(len(ids_b)))]
        out.append(PairSample(a=a, b=b, label=label))
    return out


def table(bins):
    """Each bin's pairs as (structure_a, structure_b, tanimoto bits)."""
    return [
        [(bins.names[i], bins.names[j], t.hex()) for i, j, t in zip(a.tolist(), b.tolist(), t.tolist())]
        for a, b, t in zip(bins.a, bins.b, bins.t)
    ]


def reference_table(reservoirs):
    return [[(a, b, t.hex()) for a, b, t in r] for r in reservoirs]


def past_the_limit(monkeypatch, limit=10, target=5, max_draws=2000, block=4096):
    import mzembed.siamese

    monkeypatch.setattr(mzembed.siamese, "EXACT_ENUMERATION_LIMIT", limit)
    monkeypatch.setattr(mzembed.siamese, "REJECTION_TARGET", target)
    monkeypatch.setattr(mzembed.siamese, "REJECTION_MAX_DRAWS", max_draws)
    monkeypatch.setattr(mzembed.siamese, "SCORE_BLOCK", block)


def mixed_molecules(rng):
    """Fingerprints at densities from 0 to 1, so all-zero and all-one
    ones, an all-zero record, and uint8 values other than 0 and 1, which
    count as values, not bits."""
    molecules = {
        f"m{i:02d}": toy_molecule(f"m{i:02d}", rng, density=density)
        for i, density in enumerate(np.linspace(0.0, 1.0, 40))
    }
    molecules["zero"] = MoleculeRecord("zero", np.zeros(64, dtype=np.uint8), np.zeros(10))
    for i in range(5):
        values = rng.integers(0, 256, 64).astype(np.uint8)
        molecules[f"u{i}"] = MoleculeRecord(f"u{i}", values, np.zeros(10))
    return molecules


class TestBins:
    def test_bin_of_boundaries(self):
        assert bin_of(0.0, 10) == 0
        assert bin_of(0.0999, 10) == 0
        assert bin_of(0.1, 10) == 1
        assert bin_of(0.95, 10) == 9
        assert bin_of(1.0, 10) == 9  # top bin owns the boundary
        labels = np.array([0.0, 0.0999, 0.1, 0.95, 1.0])
        assert bin_of(labels, 10).tolist() == [0, 0, 1, 9, 9]

    def test_exact_enumeration_covers_all_pairs(self, rng):
        molecules = {f"m{i}": toy_molecule(f"m{i}", rng) for i in range(6)}
        names = sorted(molecules)
        bins = build_similarity_bins(molecules, names)
        assert bins.names == names
        # 6 choose 2 unordered pairs plus 6 self-pairs.
        entries = [(a, b, float.fromhex(t)) for r in table(bins) for a, b, t in r]
        assert len(entries) == 15 + 6
        assert len({(a, b) for a, b, _ in entries}) == 21
        for k, reservoir in enumerate(table(bins)):
            for a, b, t in reservoir:
                assert a <= b
                assert float.fromhex(t) == tanimoto(molecules[a].fingerprint, molecules[b].fingerprint)
                assert bin_of(float.fromhex(t), 10) == k

    @pytest.mark.parametrize("bin_count", [1, 7, 10])
    def test_exact_enumeration_equals_the_per_pair_loop(self, rng, monkeypatch, bin_count):
        monkeypatch.setattr("mzembed.siamese.BIN_COUNT", bin_count)
        molecules = mixed_molecules(rng)
        names = sorted(molecules)
        bins = build_similarity_bins(molecules, names)
        assert table(bins) == reference_table(per_pair_bins(molecules, names, bin_count))
        molecules["wide"] = MoleculeRecord("wide", np.zeros(65, dtype=np.uint8), np.zeros(10))
        with pytest.raises(DimensionError, match="widths differ"):
            build_similarity_bins(molecules, sorted(molecules))

    def test_self_pairs_make_top_bin_reachable(self, rng):
        molecules = {f"m{i}": toy_molecule(f"m{i}", rng) for i in range(4)}
        bins = build_similarity_bins(molecules, sorted(molecules))
        top = table(bins)[-1]
        assert {(a, b) for a, b, _ in top} >= {(m, m) for m in molecules}

    def test_missing_molecule_rejected(self, rng):
        molecules = {"m0": toy_molecule("m0", rng)}
        with pytest.raises(DataError):
            build_similarity_bins(molecules, ["m0", "m1"])

    def test_rejection_sampling_beyond_exact_limit(self, rng, monkeypatch):
        past_the_limit(monkeypatch, target=5, max_draws=2000)
        molecules = {f"m{i:02d}": toy_molecule(f"m{i:02d}", rng) for i in range(30)}
        names = sorted(molecules)
        bins = build_similarity_bins(molecules, names, seed=3)
        assert table(bins) == reference_table(per_pair_sampler(molecules, names, 10, 3, 5, 2000))
        assert table(bins) != table(build_similarity_bins(molecules, names, seed=4))
        assert max(len(t) for t in bins.t) == 5
        for k, reservoir in enumerate(table(bins)):
            for a, b, t in reservoir:
                assert a <= b
                t = float.fromhex(t)
                assert k / 10 <= t < (k + 1) / 10 or (k == 9 and t == 1.0)
        # Self-pairs drawn by the sampler land in the last bin.
        assert 1.0 in bins.t[-1]

        past_the_limit(monkeypatch, max_draws=0)
        assert build_similarity_bins(molecules, names, seed=3).unreachable == list(range(10))

    @pytest.mark.parametrize(
        "bin_count, target, max_draws, block",
        [
            (1, 40, 3000, 100),
            (7, 40, 3000, 100),
            (10, 40, 3000, 100),
            (10, 5, 2000, 7),
            (10, 1000, 2000, 4096),
            (10, 5, 0, 4096),
        ],
    )
    def test_sampled_bins_equal_the_per_pair_sampler(
        self, rng, monkeypatch, bin_count, target, max_draws, block
    ):
        # All-zero and non-binary fingerprints, bins that fill and bins
        # that do not, blocks that split the draws unevenly, no draws.
        past_the_limit(monkeypatch, target=target, max_draws=max_draws, block=block)
        monkeypatch.setattr("mzembed.siamese.BIN_COUNT", bin_count)
        molecules = mixed_molecules(rng)
        names = sorted(molecules)
        bins = build_similarity_bins(molecules, names, seed=5)
        assert table(bins) == reference_table(
            per_pair_sampler(molecules, names, bin_count, 5, target, max_draws)
        )

    @pytest.mark.parametrize("target, max_draws", [(1, 2000), (5, 0)])
    def test_widths_are_checked_before_drawing(self, rng, monkeypatch, target, max_draws):
        # One-pair bins fill long before a draw reaches "wide", and a zero
        # budget draws nothing: the widths are still checked.
        past_the_limit(monkeypatch, target=target, max_draws=max_draws)
        molecules = {f"m{i:02d}": toy_molecule(f"m{i:02d}", rng) for i in range(30)}
        molecules["wide"] = MoleculeRecord("wide", np.zeros(65, dtype=np.uint8), np.zeros(10))
        with pytest.raises(DimensionError, match="widths differ"):
            build_similarity_bins(molecules, sorted(molecules))

    def test_unreachable_property(self, monkeypatch):
        monkeypatch.setattr("mzembed.siamese.BIN_COUNT", 3)
        bins = build_similarity_bins({}, [])
        assert bins.bin_count == 3
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
            assert type(p.label) is float
            assert p.label in (want, tanimoto(molecules[sb].fingerprint, molecules[sa].fingerprint))

    def test_bin_draws_are_uniform_over_reachable(self, rng):
        spectra, molecules = toy_dataset(n_structures=8, spectra_per=2, seed=3)
        bins = build_similarity_bins(molecules, sorted(molecules))
        pairs = sample_uniform_pairs(molecules, spectra, bins, 5000, seed=1)
        reachable = [k for k in range(bins.bin_count) if k not in bins.unreachable]
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
        names = sorted(molecules)
        bins = build_similarity_bins(molecules, names)
        pairs = sample_uniform_pairs(molecules, kept, bins, 100, seed=2)
        by_id = {s.id: s for s in kept}
        for p in pairs:
            assert by_id[p.a].structure_id != gone
            assert by_id[p.b].structure_id != gone
        assert pairs == per_pair_sample(kept, per_pair_bins(molecules, names, 10), 100, 2)

    @pytest.mark.parametrize("past_limit", [False, True])
    def test_pair_stream_equals_the_per_pair_filter(self, monkeypatch, past_limit):
        spectra, molecules = toy_dataset(n_structures=30, spectra_per=2, seed=8)
        # The first four structures keep no spectrum, the next three one.
        names = sorted(molecules)
        kept = [
            s for s in spectra
            if s.structure_id not in names[:4]
            and not (s.structure_id in names[4:7] and s.id.endswith("_1"))
        ]
        if past_limit:
            past_the_limit(monkeypatch, target=20, max_draws=1000, block=50)
            reservoirs = per_pair_sampler(molecules, names, 10, 6, 20, 1000)
        else:
            reservoirs = per_pair_bins(molecules, names, 10)
        bins = build_similarity_bins(molecules, names, seed=6)
        assert sample_uniform_pairs(molecules, kept, bins, 300, seed=4) == per_pair_sample(
            kept, reservoirs, 300, 4
        )

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
