"""Token vocabulary, intensity normalization, peak embeddings, binning
and fractional mass."""

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
    normalize_intensities,
    peak_embed_sin,
    peak_embed_token,
    tokenize_mz,
)
from mzembed.encoder import EncoderConfig, init_weights
from mzembed.errors import ConfigError, DataError
from mzembed.tensor import FeedForwardParams


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


def peak_blocks(weights):
    """The sin kind's inner and outer peak feed-forward blocks."""
    t = weights.named()
    return FeedForwardParams.of(t, "peak.inner"), FeedForwardParams.of(t, "peak.outer")


class TestPeakEmbeddings:
    def test_sin_peak_embedding_shape(self, rng):
        cfg = EncoderConfig(d=16, layers=1, heads=2, kind="sin")
        weights = init_weights(cfg, seed=0)
        mz = rng.uniform(100, 900, 7)
        intensity = rng.uniform(0, 1, 7)
        out = peak_embed_sin(mz, intensity, cfg.sinusoidal, *peak_blocks(weights))
        assert out.data.shape == (7, 16)

    def test_intensity_enters_after_inner_block(self, rng):
        # Same m/z, different intensity: inner feed-forward output is
        # shared, the concatenated intensity changes the outer block.
        cfg = EncoderConfig(d=16, layers=1, heads=2, kind="sin")
        weights = init_weights(cfg, seed=0)
        mz = np.array([250.0])
        a = peak_embed_sin(mz, np.array([0.2]), cfg.sinusoidal, *peak_blocks(weights))
        b = peak_embed_sin(mz, np.array([0.9]), cfg.sinusoidal, *peak_blocks(weights))
        assert not np.array_equal(a.data, b.data)

    def test_token_peak_embedding_uses_table_rows(self, rng):
        cfg = EncoderConfig(d=8, layers=1, heads=2, kind="token", resolution=0.1, max_mz=500.0)
        weights = init_weights(cfg, seed=0)
        mz = np.array([100.0, 100.04])  # both round to token 1000
        out = peak_embed_token(
            mz, np.array([0.5, 0.5]), cfg.vocab, weights.named()["peak.table"],
            FeedForwardParams.of(weights.named(), "peak.outer"),
        )
        assert np.array_equal(out.data[0], out.data[1])


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


class TestFractionalMass:
    def test_values(self):
        out = fractional_mz(np.array([123.456, 500.0, 0.25]))
        assert np.allclose(out, [0.456, 0.0, 0.25])

    def test_scalar(self):
        assert fractional_mz(77.125) == pytest.approx(0.125)
