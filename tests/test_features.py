"""Token vocabulary, intensity normalization, peak embeddings, binning
and fractional mass."""

import itertools

import numpy as np
import pytest

from conftest import toy_spectrum
from mzembed.data import Peak, Spectrum
from mzembed.embed import (
    PRECURSOR_INTENSITY,
    TokenVocab,
    bin_spectrum,
    fractional_mz,
    is_normalized,
    mz_embedding,
    normalize_intensities,
    peak_embed,
    tokenize_mz,
)
from mzembed.embed.features import bin_count
from mzembed.encoder import EncoderConfig, init_weights
from mzembed.errors import ConfigError, DataError, NumericsError


class TestTokenVocab:
    def test_default_vocabulary_size(self):
        vocab = TokenVocab()
        assert vocab.resolution == 0.1
        assert vocab.max_mz == 2000.0
        assert vocab.n_mz_tokens == 20001  # 0.0 through 2000.0 inclusive
        assert vocab.unknown_id == 20001
        assert vocab.size == 20002

    def test_rounding_is_half_even(self):
        vocab = TokenVocab()
        ids = tokenize_mz(np.array([0.05, 0.15, 0.25, 0.35]), vocab)
        # .5 ties at the 0.1 grid: 0.5->0, 1.5->2, 2.5->2, 3.5->4.
        # (0.05 and such are not exactly representable, so compare to
        # np.round of the exact quotients instead of hand values.)
        expected = np.round(np.array([0.05, 0.15, 0.25, 0.35]) / 0.1).astype(ids.dtype)
        assert np.array_equal(ids, expected)

    def test_grid_values_map_to_index(self):
        vocab = TokenVocab()
        ids = tokenize_mz(np.array([0.0, 0.1, 99.9, 2000.0]), vocab)
        assert np.array_equal(ids, [0, 1, 999, 20000])

    def test_above_max_is_unknown(self):
        vocab = TokenVocab()
        ids = tokenize_mz(np.array([2000.06, 5000.0]), vocab)
        assert np.array_equal(ids, [vocab.unknown_id, vocab.unknown_id])

    def test_rounding_down_to_max_is_known(self):
        vocab = TokenVocab()
        assert tokenize_mz(np.array([2000.04]), vocab)[0] == 20000

    @pytest.mark.parametrize("mz", [1e300, np.finfo(np.float64).max, 2.0 ** 63, 9.3e17])
    def test_huge_finite_mz_is_unknown(self, mz):
        vocab = TokenVocab()
        assert tokenize_mz(mz, vocab) == vocab.unknown_id
        assert np.array_equal(tokenize_mz(np.array([mz, 1.0]), vocab), [vocab.unknown_id, 10])

    @pytest.mark.parametrize("mz", [np.nan, np.inf])
    def test_non_finite_mz_raises(self, mz):
        with pytest.raises(NumericsError, match="^m/z values must be finite$"):
            tokenize_mz(np.array([1.0, mz]), TokenVocab())
        with pytest.raises(NumericsError):
            tokenize_mz(mz, TokenVocab())

    @pytest.mark.parametrize(
        "resolution,max_mz", [(0.01, 2000.0), (0.1, 2000.0), (0.3, 1000.1), (1.0, 50.0)]
    )
    def test_ids_are_the_rounded_quotients(self, rng, resolution, max_mz):
        vocab = TokenVocab(resolution, max_mz)
        top = vocab.unknown_id * resolution
        edges = [0.0, resolution / 2, max_mz, top, np.nextafter(top, 0), np.nextafter(top, np.inf)]
        mz = np.concatenate([rng.uniform(0.0, 1.5 * max_mz, 20000), edges])
        want = np.round(mz / vocab.resolution).astype(np.int64)
        want[want >= vocab.n_mz_tokens] = vocab.unknown_id
        assert np.array_equal(tokenize_mz(mz, vocab), want)


class TestNormalization:
    def test_max_fragment_becomes_one_precursor_two(self, rng):
        s = toy_spectrum("s", "m", rng, normalize=False)
        n = normalize_intensities(s)
        assert np.isclose(max(p.intensity for p in n.fragments), 1.0)
        assert n.precursor.intensity == PRECURSOR_INTENSITY
        assert n.precursor.mz == s.precursor.mz

    def test_idempotent(self, rng):
        s = toy_spectrum("s", "m", rng, normalize=False)
        once = normalize_intensities(s)
        twice = normalize_intensities(once)
        assert all(
            a.intensity == b.intensity for a, b in zip(once.fragments, twice.fragments)
        )
        assert is_normalized(once) and is_normalized(twice)

    def test_preserves_metadata_and_decimals(self, rng):
        s = toy_spectrum("s", "m", rng, normalize=False)
        object.__setattr__(s, "metadata", {"CHARGE": "1+"})
        n = normalize_intensities(s)
        assert n.metadata == {"CHARGE": "1+"}
        assert n.mz_decimals == s.mz_decimals
        assert n.structure_id == s.structure_id

    def test_all_zero_intensities_raise(self):
        s = Spectrum(
            id="z",
            precursor=Peak(500.0, 0.0),
            fragments=tuple(Peak(100.0 + i, 0.0) for i in range(5)),
        )
        with pytest.raises(DataError):
            normalize_intensities(s)


class TestPeakEmbeddings:
    def test_sin_peak_embedding_shape(self, rng):
        cfg = EncoderConfig(d=16, layers=1, heads=2, kind="sin")
        weights = init_weights(cfg, seed=0)
        mz = rng.uniform(100, 900, 7)
        intensity = rng.uniform(0, 1, 7)
        out = peak_embed(mz, intensity, cfg, weights.named())
        assert out.data.shape == (7, 16)
        assert mz_embedding(mz.reshape(7, 1), cfg, weights.named()).data.shape == (7, 1, 16)

    def test_intensity_enters_after_inner_block(self, rng):
        # Same m/z, different intensity: inner feed-forward output is
        # shared, the concatenated intensity changes the outer block.
        cfg = EncoderConfig(d=16, layers=1, heads=2, kind="sin")
        weights = init_weights(cfg, seed=0)
        mz = np.array([250.0])
        a = peak_embed(mz, np.array([0.2]), cfg, weights.named())
        b = peak_embed(mz, np.array([0.9]), cfg, weights.named())
        assert not np.array_equal(a.data, b.data)

    def test_token_peak_embedding_uses_table_rows(self, rng):
        cfg = EncoderConfig(d=8, layers=1, heads=2, kind="token", resolution=0.1, max_mz=500.0)
        weights = init_weights(cfg, seed=0)
        mz = np.array([100.0, 100.04])  # both round to token 1000
        table = weights.named()
        half = mz_embedding(mz, cfg, table)
        assert np.array_equal(half.data, table["peak.table"].data[[1000, 1000]])
        out = peak_embed(mz, np.array([0.5, 0.5]), cfg, table)
        assert np.array_equal(out.data[0], out.data[1])

    def test_token_table_of_another_vocabulary_rejected(self):
        cfg = EncoderConfig(d=8, layers=1, heads=2, kind="token", resolution=0.1, max_mz=500.0)
        other = EncoderConfig(d=8, layers=1, heads=2, kind="token", resolution=0.1, max_mz=400.0)
        table = init_weights(other, seed=0).named()
        with pytest.raises(ConfigError, match="vocabulary needs"):
            mz_embedding(np.array([100.0]), cfg, table)


class TestBinning:
    def test_values_capped_at_one(self):
        s = Spectrum(
            id="b",
            precursor=Peak(500.0, 2.0),
            fragments=(
                Peak(100.01, 0.7),
                Peak(100.04, 0.8),  # same 0.1 Da bin, sum capped
                Peak(250.55, 0.3),
            ),
        )
        vec = bin_spectrum(s, bin_width=0.1, max_mz=1000.0)
        assert vec.shape == (10000,)
        assert vec[1000] == 1.0  # floor(100.0x / 0.1)
        assert vec[2505] == pytest.approx(0.3)
        assert vec.sum() == pytest.approx(1.3)

    def test_precursor_not_binned(self):
        s = Spectrum(
            id="b", precursor=Peak(123.45, 2.0),
            fragments=(Peak(600.0, 0.5),) * 1 + tuple(Peak(700.0 + i, 0.1) for i in range(4)),
        )
        vec = bin_spectrum(s, 0.1, 1000.0)
        assert vec[1234] == 0.0

    def test_out_of_range_dropped(self):
        s = Spectrum(
            id="b", precursor=Peak(500.0, 2.0),
            fragments=(Peak(1500.0, 0.9), Peak(100.0, 0.4)),
        )
        vec = bin_spectrum(s, 0.1, 1000.0)
        assert vec.sum() == pytest.approx(0.4)

    @pytest.mark.parametrize("bin_width,max_mz", [(0.0, 1000.0), (0.1, 0.1), (0.1, -5.0)])
    def test_bad_grid_rejected(self, bin_width, max_mz):
        s = Spectrum(id="b", precursor=Peak(500.0, 2.0), fragments=(Peak(100.0, 0.4),))
        with pytest.raises(ConfigError):
            bin_spectrum(s, bin_width, max_mz)

    @pytest.mark.parametrize("bin_width,max_mz", [(0.3, 2000.0), (0.7, 2000.0)])
    def test_width_not_dividing_max_mz_rejected(self, bin_width, max_mz):
        # 0.3 would bin a peak at 2000.05 into the last bin, 0.7 would
        # drop one at 1999.95: the bins would not cover [0, max_mz).
        with pytest.raises(ConfigError, match="does not divide"):
            bin_count(bin_width, max_mz)

    @pytest.mark.parametrize("bin_width,max_mz,n_bins", [
        (0.1, 1000.0, 10000), (0.1, 2000.0, 20000), (0.2, 1500.0, 7500), (0.5, 1000.0, 2000),
    ])
    def test_dividing_width_covers_max_mz(self, bin_width, max_mz, n_bins):
        assert bin_count(bin_width, max_mz) == n_bins

    def test_matches_the_per_peak_loop(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 30))
            mz = np.round(rng.uniform(99.0, 101.0, n), 3)  # several peaks per bin
            mz[0] = 1000.0  # at max_mz: out of range
            s = Spectrum(
                id="b", precursor=Peak(500.0, 2.0),
                fragments=tuple(Peak(float(m), float(v)) for m, v in zip(mz, rng.uniform(0, 0.5, n))),
            )
            want = np.zeros(10000)
            for m, v in zip(*s.fragment_arrays()):
                idx = int(np.floor(m / 0.1))
                if idx < 10000:
                    want[idx] += v
            np.minimum(want, 1.0, out=want)
            assert bin_spectrum(s, 0.1, 1000.0).tobytes() == want.tobytes()

    def test_fragment_order_leaves_bits(self):
        # (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 round differently.
        peaks = [Peak(100.01, 0.1), Peak(100.02, 0.2), Peak(100.03, 0.3)]
        vectors = {
            bin_spectrum(
                Spectrum(id="b", precursor=Peak(500.0, 2.0), fragments=order), 0.1, 1000.0
            ).tobytes()
            for order in itertools.permutations(peaks)
        }
        assert len(vectors) == 1


class TestFractionalMass:
    def test_values(self):
        out = fractional_mz(np.array([123.456, 500.0, 0.25]))
        assert np.allclose(out, [0.456, 0.0, 0.25])

    def test_scalar(self):
        assert fractional_mz(77.125) == pytest.approx(0.125)
