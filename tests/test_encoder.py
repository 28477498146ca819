"""Spectrum encoder: weight plumbing, a hand-unrolled forward oracle,
permutation invariance, slot-count batching and dropout determinism."""

import argparse
import sys
import threading

import numpy as np
import pytest

from conftest import toy_spectrum
from mzembed import encoder
from mzembed.data import Peak, Spectrum
from mzembed.embed import wavelengths
from mzembed.encoder import (
    EncoderConfig,
    describe_config,
    encode_batch,
    encode_many,
    encode_spectrum,
    init_weights,
    load_table,
    parameter_shapes,
)
from mzembed.errors import ConfigError, DataError
from mzembed.rng import stream_rng
from mzembed.tensor import AttentionParams, FeedForwardParams

EPS = 1e-5  # layer norm epsilon


def small_cfg(**kw):
    defaults = dict(d=8, layers=1, heads=1, inner_dim=8, dropout=0.0, kind="sin", max_fragments=16)
    defaults.update(kw)
    return EncoderConfig(**defaults)


def fragment_arrays(s):
    mz = np.array([p.mz for p in s.fragments])
    it = np.array([p.intensity for p in s.fragments])
    order = np.lexsort((it, mz))
    return mz[order], it[order]


# ------------------------------------------------------------------
# numpy-only reference forward pass
# ------------------------------------------------------------------


def np_layer_norm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / np.sqrt(var + EPS) * gain + bias


def np_ff(x, p):
    h = x @ p.w1.data.T + p.b1.data
    return np.maximum(h, 0.0) @ p.w2.data.T + p.b2.data


def np_attention(query, key, value, p, heads):
    def proj(x, w, b):
        return x @ w.data.T + b.data

    d = query.shape[-1]
    dh = d // heads

    def split(x):
        n = x.shape[0]
        return x.reshape(n, heads, dh).swapaxes(0, 1)  # (heads, n, dh)

    q = split(proj(query, p.wq, p.bq))
    k = split(proj(key, p.wk, p.bk))
    v = split(proj(value, p.wv, p.bv))
    scores = q @ k.swapaxes(-1, -2) / np.sqrt(dh)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    out = probs @ v  # (heads, nq, dh)
    merged = out.swapaxes(0, 1).reshape(query.shape[0], d)
    return proj(merged, p.wo, p.bo)


def np_encode(spectrum, cfg, weights):
    """Reference forward for an unpadded single spectrum, sin features."""
    mz, intensity = fragment_arrays(spectrum)
    mz = np.concatenate(([spectrum.precursor.mz], mz))
    intensity = np.concatenate(([spectrum.precursor.intensity], intensity))

    lam = wavelengths(cfg.sinusoidal)
    angles = 2.0 * np.pi * mz[:, None] / lam[None, :]
    se = np.empty((mz.shape[0], cfg.d))
    se[:, 0::2] = np.sin(angles)
    se[:, 1::2] = np.cos(angles)

    t = weights.named()
    inner = np_ff(se, FeedForwardParams.of(t, "peak.inner"))
    outer = FeedForwardParams.of(t, "peak.outer")
    x = np_ff(np.concatenate([inner, intensity[:, None]], axis=1), outer)

    def layer(i):
        return (
            t[f"layer{i}.norm1.gain"].data, t[f"layer{i}.norm1.bias"].data,
            AttentionParams.of(t, f"layer{i}.attn"),
            t[f"layer{i}.norm2.gain"].data, t[f"layer{i}.norm2.bias"].data,
            FeedForwardParams.of(t, f"layer{i}.ff"),
        )

    for i in range(cfg.layers - 1):
        g1, b1, attn, g2, b2, ff = layer(i)
        h = np_layer_norm(x, g1, b1)
        x = x + np_attention(h, h, h, attn, cfg.heads)
        h = np_layer_norm(x, g2, b2)
        x = x + np_ff(h, ff)

    g1, b1, attn, g2, b2, ff = layer(cfg.layers - 1)
    h = np_layer_norm(x, g1, b1)
    a = np_attention(h[0:1], h, h, attn, cfg.heads)
    x0 = x[0:1] + a
    h0 = np_layer_norm(x0, g2, b2)
    return (x0 + np_ff(h0, ff))[0]


class TestConfig:
    def test_defaults_match_model_card(self):
        cfg = EncoderConfig()
        assert (cfg.d, cfg.layers, cfg.heads) == (512, 6, 32)
        assert cfg.ffn_dim == 512
        assert cfg.max_fragments == 512
        assert cfg.dropout == 0.1

    def test_validation(self):
        with pytest.raises(ConfigError):
            EncoderConfig(d=10, heads=4)  # not divisible
        with pytest.raises(ConfigError):
            EncoderConfig(layers=0)
        with pytest.raises(ConfigError):
            EncoderConfig(kind="learned")
        with pytest.raises(ConfigError):
            EncoderConfig(dropout=1.5)

    @pytest.mark.parametrize("field,value", [
        ("d", 0), ("d", -8), ("heads", 0), ("heads", -8), ("inner_dim", 0), ("inner_dim", -1),
    ])
    def test_size_below_one_names_the_field(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be at least 1, got {value}$"):
            EncoderConfig(**{field: value})


class TestWeights:
    def test_init_is_deterministic(self):
        a = init_weights(small_cfg(), seed=3)
        b = init_weights(small_cfg(), seed=3)
        for (na, ta), (nb, tb) in zip(a.named().items(), b.named().items()):
            assert na == nb and np.array_equal(ta.data, tb.data)
        c = init_weights(small_cfg(), seed=4)
        wq = "layer0.attn.wq"
        assert not np.array_equal(a.named()[wq].data, c.named()[wq].data)

    def test_weights_are_float32(self):
        w = init_weights(small_cfg(), seed=0)
        for name, tensor in w.named().items():
            assert tensor.data.dtype == np.float32, name

    def test_named_round_trip(self):
        cfg = small_cfg(layers=2)
        w = init_weights(cfg, seed=5, head_out=10)
        named = {k: v.data for k, v in w.named().items()}
        rebuilt = load_table(named, parameter_shapes(cfg, 10))
        assert list(rebuilt.named()) == list(named)
        for name, tensor in rebuilt.named().items():
            assert np.array_equal(tensor.data, named[name]), name

    def test_missing_parameter_raises(self):
        cfg = small_cfg()
        named = {k: v.data for k, v in init_weights(cfg, seed=0).named().items()}
        del named["layer0.attn.wq"]
        with pytest.raises(ConfigError, match="'layer0.attn.wq'"):
            load_table(named, parameter_shapes(cfg, None))

    def test_shape_mismatch_raises(self):
        cfg = small_cfg()
        named = {k: v.data for k, v in init_weights(cfg, seed=0).named().items()}
        named["layer0.attn.wq"] = named["layer0.attn.wq"][:4]
        with pytest.raises(ConfigError, match="'layer0.attn.wq'"):
            load_table(named, parameter_shapes(cfg, None))

    @pytest.mark.parametrize("head_out,name", [(None, "scaler.mean"), (10, "head.w1")])
    def test_unknown_record_raises(self, head_out, name):
        # A record outside the layout is refused, not carried along.
        cfg = small_cfg()
        named = {k: v.data for k, v in init_weights(cfg, seed=0, head_out=head_out).named().items()}
        named["scaler.mean"] = np.zeros(10, dtype=np.float32)
        with pytest.raises(ConfigError, match=f"'{name}'"):
            load_table(named, parameter_shapes(cfg, None))

    def test_loading_draws_no_random_weights(self, monkeypatch):
        cfg = small_cfg(layers=2)
        named = {k: v.data for k, v in init_weights(cfg, seed=5, head_out=10).named().items()}

        def refuse(*args, **kwargs):
            raise AssertionError("load_table must not initialise weights")

        monkeypatch.setattr(encoder, "uniform_fan_in", refuse)
        rebuilt = load_table(named, parameter_shapes(cfg, 10))
        assert list(rebuilt.named()) == list(named)
        for name, tensor in rebuilt.named().items():
            assert tensor.data is named[name], name

    def test_token_model_has_table(self):
        cfg = small_cfg(kind="token", resolution=0.1, max_mz=100.0)
        w = init_weights(cfg, seed=0)
        assert w.named()["peak.table"].data.shape == (cfg.vocab.size, 8)
        assert not any(name.startswith("peak.inner.") for name in w.named())


class TestDescribeConfig:
    def test_text_is_sorted_key_value(self):
        text = describe_config(small_cfg())
        keys = [line.split("=")[0] for line in text.strip().splitlines()]
        assert keys == sorted(keys)
        assert "d=8" in text

    def test_text_changes_with_config(self):
        a = describe_config(small_cfg())
        b = describe_config(small_cfg(heads=2))
        assert a != b


class TestForwardOracle:
    @pytest.mark.parametrize("layers,heads", [(1, 1), (2, 2), (3, 4)])
    def test_matches_hand_unrolled_numpy(self, rng, layers, heads):
        cfg = small_cfg(layers=layers, heads=heads)
        weights = init_weights(cfg, seed=7)
        s = toy_spectrum("s", "m", rng)
        ours = encode_spectrum(s, cfg, weights, mode="infer")
        reference = np_encode(s, cfg, weights)
        assert np.allclose(ours.data, reference, rtol=1e-10, atol=1e-10)

    def test_embedding_is_finite_and_nonzero(self, rng):
        cfg = small_cfg(layers=2, heads=2)
        weights = init_weights(cfg, seed=0)
        s = toy_spectrum("s", "m", rng)
        out = encode_spectrum(s, cfg, weights)
        assert np.all(np.isfinite(out.data))
        assert np.linalg.norm(out.data) > 0


class TestPermutationInvariance:
    def test_shuffled_fragments_bit_identical(self, rng):
        cfg = small_cfg(layers=2, heads=2)
        weights = init_weights(cfg, seed=1)
        s = toy_spectrum("s", "m", rng)
        base = encode_spectrum(s, cfg, weights)
        for trial in range(20):
            perm = rng.permutation(len(s.fragments))
            shuffled = Spectrum(
                id=s.id,
                precursor=s.precursor,
                fragments=tuple(s.fragments[i] for i in perm),
                structure_id=s.structure_id,
            )
            out = encode_spectrum(shuffled, cfg, weights)
            assert np.array_equal(base.data, out.data)

    def test_cap_keeps_most_intense(self):
        cfg = small_cfg(max_fragments=4)
        weights = init_weights(cfg, seed=0)
        frags = (
            Peak(100.0, 0.05),
            Peak(150.0, 0.4),
            Peak(200.0, 1.0),
            Peak(250.0, 0.3),
            Peak(300.0, 0.5),
        )
        s = Spectrum(id="s", precursor=Peak(500.0, 2.0), fragments=frags)
        capped = Spectrum(id="s", precursor=Peak(500.0, 2.0), fragments=frags[1:])
        a = encode_spectrum(s, cfg, weights)
        b = encode_spectrum(capped, cfg, weights)
        assert np.array_equal(a.data, b.data)


class TestBatching:
    def test_batch_matches_single(self, rng):
        cfg = small_cfg(layers=2, heads=2)
        weights = init_weights(cfg, seed=2)
        # Different peak counts: one forward per slot count.
        spectra = [
            toy_spectrum(f"s{i}", "m", rng, n_peaks=(4 + i, 5 + i)) for i in range(5)
        ]
        batch = encode_batch(spectra, cfg, weights)
        assert batch.data.shape == (5, 8)
        for i, s in enumerate(spectra):
            single = encode_spectrum(s, cfg, weights)
            assert np.array_equal(batch.data[i], single.data)

    def test_padded_slots_cannot_leak(self, rng):
        # The same spectrum must encode identically regardless of what
        # else sits in the batch (a padded batch would differ in width).
        cfg = small_cfg(layers=2, heads=2)
        weights = init_weights(cfg, seed=2)
        target = toy_spectrum("t", "m", rng, n_peaks=(4, 5))
        small_batch = encode_batch([target], cfg, weights)
        big = toy_spectrum("b", "m", rng, n_peaks=(14, 15))
        wide_batch = encode_batch([target, big], cfg, weights)
        assert np.array_equal(small_batch.data[0], wide_batch.data[0])

    @pytest.mark.parametrize("kind", ["sin", "token"])
    def test_encode_many_matches_single_exactly(self, rng, kind):
        # Only spectra with equal slot counts share a batch, so no row is
        # padded and each equals its lone encode bit for bit. Equal slot
        # counts agreeing across batch sizes is observed BLAS behaviour,
        # which this test pins down.
        cfg = small_cfg(kind=kind, layers=2, heads=2, max_fragments=8)
        weights = init_weights(cfg, seed=2)
        # Repeated sizes, and 9 and 12 peaks capped to the 8 of another.
        sizes = [5, 9, 5, 12, 6, 8, 5, 9, 4]
        spectra = [
            toy_spectrum(f"s{i}", "m", rng, n_peaks=(n, n + 1)) for i, n in enumerate(sizes)
        ]
        many = encode_many(spectra, cfg, weights)
        assert many.shape == (len(spectra), 8)
        assert many.dtype == np.float64
        for row, s in zip(many, spectra):
            single = encode_spectrum(s, cfg, weights)
            assert np.array_equal(row, single.data)

    def test_encode_many_keeps_input_order(self, rng):
        cfg = small_cfg(layers=2, heads=2)
        weights = init_weights(cfg, seed=2)
        spectra = [
            toy_spectrum(f"s{i}", "m", rng, n_peaks=(4 + i % 3, 5 + i % 3)) for i in range(7)
        ]
        forward = encode_many(spectra, cfg, weights)
        backward = encode_many(spectra[::-1], cfg, weights)
        assert np.array_equal(forward, backward[::-1])
        assert not np.array_equal(forward[0], forward[1])

    def test_encode_many_empty(self):
        cfg = small_cfg()
        out = encode_many([], cfg, init_weights(cfg, seed=0))
        assert out.shape == (0, 8)

    def test_encode_many_names_failing_group(self, rng):
        cfg = small_cfg()
        weights = init_weights(cfg, seed=0)
        spectra = [
            toy_spectrum(sid, "m", rng, n_peaks=(5, 6), normalize=False) for sid in ("a", "b")
        ]
        with pytest.raises(DataError, match=r"^failed to encode spectra 'a', 'b': "):
            encode_many(spectra, cfg, weights)

    def test_empty_batch_rejected(self):
        cfg = small_cfg()
        with pytest.raises(DataError):
            encode_batch([], cfg, init_weights(cfg, seed=0))

    def test_unnormalized_spectrum_rejected(self, rng):
        cfg = small_cfg()
        s = toy_spectrum("s", "m", rng, normalize=False)
        with pytest.raises(DataError):
            encode_spectrum(s, cfg, init_weights(cfg, seed=0))


class TestTrainingMode:
    def test_requires_rng(self, rng):
        cfg = small_cfg(dropout=0.1)
        s = toy_spectrum("s", "m", rng)
        with pytest.raises(ConfigError):
            encode_spectrum(s, cfg, init_weights(cfg, seed=0), mode="train")

    def test_dropout_reproducible_under_stream(self, rng):
        cfg = small_cfg(layers=2, heads=2, dropout=0.3)
        weights = init_weights(cfg, seed=0)
        s = toy_spectrum("s", "m", rng)
        a = encode_spectrum(s, cfg, weights, mode="train", rng=stream_rng(5, "dropout", 0))
        b = encode_spectrum(s, cfg, weights, mode="train", rng=stream_rng(5, "dropout", 0))
        c = encode_spectrum(s, cfg, weights, mode="train", rng=stream_rng(5, "dropout", 1))
        infer = encode_spectrum(s, cfg, weights)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)
        assert not np.array_equal(a.data, infer.data)

    def test_dropout_stream_pinned(self):
        # Recorded from the padded forward this encoder replaced, whose
        # masks were drawn at the padded batch's shapes. Masks drawn at
        # the slot-count groups' shapes would change both the output and
        # the generator's next draw.
        spectra = []
        for i, n in enumerate((3, 6, 3, 5)):  # slot counts 4, 7, 4, 6
            fragments = tuple(
                Peak(50.0 + 37.25 * j + 3.5 * i, 0.1 + 0.225 * ((7 * j + i) % 5))
                for j in range(n)
            )
            spectra.append(Spectrum(f"p{i}", Peak(400.0 + 11.0 * i, 2.0), fragments))
        cfg = small_cfg(layers=2, heads=2, dropout=0.3)
        stream = stream_rng(5, "dropout", 0)
        out = encode_batch(spectra, cfg, init_weights(cfg, seed=0), mode="train", rng=stream)
        want = [
            [0.22113934750734734, -0.7942232724039825, 0.951070478381105, 0.3265386607908749,
             -0.6553856964000968, -0.47764545596432284, -0.8534355426503363, 0.8947175620163695],
            [0.5128719254326743, 0.2639071445585036, -0.4301458215986211, -0.30082059797070176,
             0.09190139074810601, -0.511697458251084, -0.07834549010721034, 0.5030794804337279],
            [0.442746949280734, -0.2855867860158122, 0.34228047662957684, -0.005623724654085588,
             0.08975969535795023, -0.19747535424417298, 0.14997891940352187, -0.10840855864504659],
            [0.02289640326598591, -0.3667494480272082, 0.6099878897647938, 0.3208355088812248,
             -0.33886342485387727, -0.7783797568644751, -0.02602909287749952, 0.27235880073309393],
        ]
        np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=0)
        assert stream.random() == 0.35451740580903346

    def test_gradients_reach_all_trainable_weights(self, rng):
        cfg = small_cfg(layers=2, heads=2)
        weights = init_weights(cfg, seed=0, head_out=None)
        spectra = [toy_spectrum(f"s{i}", "m", rng) for i in range(3)]
        out = encode_batch(spectra, cfg, weights)
        (out * out).sum().backward()
        for name, tensor in weights.named().items():
            assert tensor.grad is not None, name
            assert np.any(tensor.grad != 0.0) or "bias" in name, name


def graph_nodes(root):
    """Every tensor reachable from ``root`` through ``_parents``."""
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


def held_arrays(node):
    """The node's value and the arrays its backward closure keeps."""
    yield node.data
    for cell in getattr(node._backward, "__closure__", None) or ():
        if isinstance(cell.cell_contents, np.ndarray):
            yield cell.cell_contents


def base_buffer(array):
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


class TestTrainingGraphSize:
    def test_attention_maps_held_once_per_layer(self, rng):
        # Mixed peak counts: three slot-count groups, two of two spectra.
        cfg = small_cfg(d=16, layers=3, heads=2, dropout=0.2)
        weights = init_weights(cfg, seed=0)
        peaks = (5, 12, 5, 10, 12)
        spectra = [
            toy_spectrum(f"s{i}", "m", rng, n_peaks=(n, n + 1)) for i, n in enumerate(peaks)
        ]
        out = encode_batch(spectra, cfg, weights, mode="train", rng=stream_rng(0, "dropout", 0))
        groups = {n + 1: peaks.count(n) for n in peaks}
        assert cfg.d // cfg.heads not in groups
        nodes = graph_nodes(out)
        floats = [
            a
            for node in nodes
            for a in held_arrays(node)
            if a.ndim == 4 and np.issubdtype(a.dtype, np.floating)
        ]
        # No map of the padded batch.
        assert not [a for a in floats if a.shape[0] == len(spectra)]
        for n_slots, rows in groups.items():
            map_shape = (rows, cfg.heads, n_slots, n_slots)
            maps = {id(base_buffer(a)) for a in floats if a.shape == map_shape}
            # Per full layer: the probabilities and their dropout.
            assert 0 < len(maps) <= 2 * (cfg.layers - 1), n_slots

        drops = [
            node for node in nodes
            if getattr(node._backward, "__qualname__", "").startswith("dropout.")
        ]
        # Attention probabilities, attention output and feed-forward
        # output in every layer of every group.
        assert len(drops) == 3 * cfg.layers * len(groups)
        for node in drops:
            constants = [p.data for p in node._parents if not p.requires_grad]
            closure = [a for a in held_arrays(node) if a is not node.data]
            for a in constants + closure:
                assert not np.issubdtype(a.dtype, np.floating), a.shape


class TestTokenKind:
    def test_token_forward_runs_and_is_permutation_invariant(self, rng):
        cfg = small_cfg(kind="token", layers=2, heads=2, resolution=0.1, max_mz=2000.0)
        weights = init_weights(cfg, seed=0)
        s = toy_spectrum("s", "m", rng)
        base = encode_spectrum(s, cfg, weights)
        perm = rng.permutation(len(s.fragments))
        shuffled = Spectrum(
            id=s.id, precursor=s.precursor,
            fragments=tuple(s.fragments[i] for i in perm),
            structure_id=s.structure_id,
        )
        assert np.array_equal(
            base.data, encode_spectrum(shuffled, cfg, weights).data
        )


# ------------------------------------------------------------------
# inference weights: binary64 column-major copies, the same bits
# ------------------------------------------------------------------

README_SHAPE = dict(d=256, layers=2, heads=8, inner_dim=256, max_fragments=64)


def cli_loaded(tmp_path, cfg_values):
    """Weights saved as a binary32 checkpoint and read back by cli.load_model."""
    from mzembed.cli import Settings, build_configs, load_model, run_config_text
    from mzembed.tensor import save_checkpoint

    values = {"schema_version": "1", "out-dir": str(tmp_path), **cfg_values}
    settings = Settings(values, argparse.Namespace())
    cfg = build_configs(settings)[0]
    weights = init_weights(cfg, seed=4)
    named = {k: v.data for k, v in weights.named().items()}
    save_checkpoint(tmp_path / "model_siamese.ckpt", named, run_config_text(settings, "siamese"))
    loaded, _scaler, loaded_cfg = load_model(settings, "siamese")
    assert loaded_cfg == cfg
    return cfg, weights, loaded


class TestInferenceWeights:
    def spectra(self, rng, n=6):
        return [toy_spectrum(f"s{i}", "m", rng, n_peaks=(4, 9)) for i in range(n)]

    @pytest.mark.parametrize("kind", ["sin", "token"])
    def test_layout(self, kind):
        weights = init_weights(small_cfg(kind=kind, layers=2), seed=0, head_out=10)
        converted = weights.for_inference()
        assert converted.for_inference() is converted
        assert list(converted.named()) == list(weights.named())
        for name, tensor in converted.named().items():
            if name == "peak.table":
                assert tensor is weights.named()["peak.table"]
                continue
            assert tensor.data.dtype == np.float64, name
            assert tensor.data.flags.f_contiguous, name
            assert np.array_equal(tensor.data, weights.named()[name].data), name
        # Training weights are left as they were.
        assert all(t.data.dtype == np.float32 for t in weights.named().values())

    @pytest.mark.parametrize("source", ["init", "cli"])
    def test_linear_operands_share_a_dtype(self, rng, monkeypatch, tmp_path, source):
        from mzembed.tensor import nn

        values = {"d": "8", "layers": "2", "heads": "2", "inner-dim": "8", "max-fragments": "16"}
        cfg, weights, loaded = cli_loaded(tmp_path, values)
        if source == "cli":
            weights = loaded
        seen = []
        real_linear = nn.linear

        def recording_linear(x, w, b):
            seen.append((x.data.dtype, w.data.dtype, b.data.dtype))
            return real_linear(x, w, b)

        monkeypatch.setattr(nn, "linear", recording_linear)
        encode_many(self.spectra(rng), cfg, weights)
        assert seen
        assert all(x == w == b == np.float64 for x, w, b in seen), set(seen)

    @pytest.mark.parametrize("kind", ["sin", "token"])
    @pytest.mark.parametrize("shape", [{}, README_SHAPE], ids=["small", "readme"])
    def test_converted_weights_encode_the_same_bits(self, rng, kind, shape):
        from mzembed.tensor import no_grad

        cfg = small_cfg(kind=kind, **{"layers": 2, "heads": 2, **shape})
        weights = init_weights(cfg, seed=3)
        spectra = self.spectra(rng)
        # A padded batch on binary32 weights against the same batch on
        # the converted copy: the two layouts must give the same bits.
        with no_grad():
            want = encode_batch(spectra, cfg, weights).data
            got = encode_batch(spectra, cfg, weights.for_inference()).data
        assert np.array_equal(got, want)
        many = encode_many(spectra, cfg, weights)
        for row, s in zip(many, spectra):
            assert np.array_equal(row, encode_spectrum(s, cfg, weights).data)

    @pytest.mark.parametrize("shape", [{}, README_SHAPE], ids=["small", "readme"])
    def test_property_head_gives_the_same_bits(self, rng, shape):
        from mzembed.tensor import Tensor, feed_forward, no_grad

        cfg = small_cfg(**{"layers": 2, "heads": 2, **shape})
        weights = init_weights(cfg, seed=3, head_out=10)
        embs = encode_many(self.spectra(rng), cfg, weights)[:, None, :]
        with no_grad():
            want = feed_forward(Tensor(embs), FeedForwardParams.of(weights.named(), "head")).data
            converted = weights.for_inference().named()
            got = feed_forward(Tensor(embs), FeedForwardParams.of(converted, "head")).data
        assert got.shape == (embs.shape[0], 1, 10)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [{}, README_SHAPE], ids=["small", "readme"])
    def test_export_peak_feed_forward_gives_the_same_bits(self, shape):
        from mzembed.embed import sinusoidal_embed
        from mzembed.tensor import Tensor, feed_forward, no_grad

        cfg = small_cfg(**{"layers": 1, "heads": 1, **shape})
        weights = init_weights(cfg, seed=3)
        grid = np.arange(2_000, dtype=np.float64) * 0.37
        se = Tensor(sinusoidal_embed(grid, cfg.sinusoidal))
        with no_grad():
            want = feed_forward(se, FeedForwardParams.of(weights.named(), "peak.inner")).data
            converted = weights.for_inference().named()
            got = feed_forward(se, FeedForwardParams.of(converted, "peak.inner")).data
        assert got.shape == (grid.shape[0], cfg.d)
        assert np.array_equal(got, want)


class TestWorkerPool:
    """``encode_workers``: the same bits on any number of workers."""

    @staticmethod
    def spectra(rng):
        # Two spectra of 5-9 slots and six at the cap (17 slots): a group
        # larger than one worker's share (4 of 8) on 2 workers.
        spectra = [toy_spectrum(f"s{i}", "m", rng, n_peaks=(4, 9)) for i in range(2)]
        spectra += [toy_spectrum(f"c{i}", "m", rng, n_peaks=(20, 30)) for i in range(6)]
        return spectra

    @staticmethod
    def pool_threads():
        return [t for t in threading.enumerate() if t.name.startswith("mzembed-encode")]

    @staticmethod
    def spy_units(monkeypatch):
        """(thread name, spectrum ids) of every forward encode_batch runs."""
        real, calls = encoder._encode_group, []

        def spy(spectra, *args):
            calls.append((threading.current_thread().name, [s.id for s in spectra]))
            return real(spectra, *args)

        monkeypatch.setattr(encoder, "_encode_group", spy)
        return calls

    def test_rows_identical_on_one_and_two_workers(self, rng, monkeypatch):
        cfg = small_cfg(layers=2, heads=2)
        weights = init_weights(cfg, seed=0)
        spectra = self.spectra(rng)
        serial = encode_many(spectra, cfg, weights)
        calls = self.spy_units(monkeypatch)
        with encoder.encode_workers(2):
            pooled = encode_many(spectra, cfg, weights)
        assert np.array_equal(pooled, serial)
        assert all(name.startswith("mzembed-encode") for name, _ in calls)
        # The capped group of six is split at a worker's share.
        assert sorted(ids for _, ids in calls if ids[0].startswith("c")) == [
            ["c0", "c1", "c2", "c3"], ["c4", "c5"]
        ]

    def test_default_is_serial_on_the_calling_thread(self, rng, monkeypatch):
        cfg = small_cfg()
        calls = self.spy_units(monkeypatch)
        encode_many(self.spectra(rng), cfg, init_weights(cfg, seed=0))
        assert {name for name, _ in calls} == {threading.current_thread().name}
        assert encoder._pool is None

    def test_one_unit_starts_no_pool(self, rng):
        cfg = small_cfg()
        with encoder.encode_workers(2):
            encode_many([toy_spectrum("s", "m", rng)], cfg, init_weights(cfg, seed=0))
            assert encoder._pool is None

    def test_training_keeps_groups_whole_and_bits(self, rng, monkeypatch):
        cfg = small_cfg(layers=2, heads=2, dropout=0.3)
        weights = init_weights(cfg, seed=0)
        spectra = self.spectra(rng)

        def train_forward():
            for t in weights.named().values():
                t.grad = None
            stream = stream_rng(5, "dropout", 0)
            out = encode_batch(spectra, cfg, weights, mode="train", rng=stream)
            (out * out).sum().backward()
            grads = {n: t.grad.copy() for n, t in weights.named().items()}
            return out.data, grads, stream.random()

        serial = train_forward()
        calls = self.spy_units(monkeypatch)
        with encoder.encode_workers(2):
            pooled = train_forward()
        assert np.array_equal(pooled[0], serial[0])
        assert pooled[2] == serial[2]  # the dropout generator's next draw
        for name, grad in serial[1].items():
            assert np.array_equal(pooled[1][name], grad), name
        capped = [ids for _, ids in calls if ids[0].startswith("c")]
        assert capped == [[f"c{i}" for i in range(6)]]

    def test_eight_workers_with_fast_thread_switching(self, rng):
        # More workers than cores, switching threads every few bytecodes:
        # any shared state the forwards wrote would show up as changed bits.
        cfg = small_cfg(layers=2, heads=2, dropout=0.3)
        weights = init_weights(cfg, seed=0)
        spectra = [toy_spectrum(f"s{i}", "m", rng, n_peaks=(3, 15)) for i in range(30)]

        def both():
            rows = encode_many(spectra, cfg, weights)
            out = encode_batch(spectra, cfg, weights, mode="train", rng=stream_rng(5, "dropout", 0))
            out.sum().backward()
            grads = [t.grad.copy() for t in weights.named().values()]
            for t in weights.named().values():
                t.grad = None
            return rows, out.data, grads

        serial = both()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with encoder.encode_workers(8):
                pooled = both()
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(pooled[0], serial[0])
        assert np.array_equal(pooled[1], serial[1])
        assert all(np.array_equal(a, b) for a, b in zip(pooled[2], serial[2]))

    def test_failure_names_the_first_group_and_the_pool_survives(self, rng):
        cfg = small_cfg()
        weights = init_weights(cfg, seed=0)
        good = self.spectra(rng)
        # Two failing groups: six unnormalized spectra at the cap (split
        # between workers; the last one fails) and a later lone one.
        bad = [toy_spectrum(f"b{i}", "m", rng, n_peaks=(20, 30)) for i in range(5)]
        bad.append(toy_spectrum("b5", "m", rng, n_peaks=(20, 30), normalize=False))
        bad.append(toy_spectrum("z", "m", rng, n_peaks=(3, 4), normalize=False))
        names = ", ".join(f"'b{i}'" for i in range(6))
        with encoder.encode_workers(2):
            with pytest.raises(DataError, match=rf"^failed to encode spectra {names}: "):
                encode_many(bad, cfg, weights)
            after = encode_many(good, cfg, weights)
        assert np.array_equal(after, encode_many(good, cfg, weights))

    def test_exit_joins_the_threads_and_restores_serial(self, rng):
        cfg = small_cfg()
        with encoder.encode_workers(2):
            encode_many(self.spectra(rng), cfg, init_weights(cfg, seed=0))
            assert self.pool_threads()
        assert not self.pool_threads()
        assert encoder._pool is None and encoder._workers == 1

    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigError):
            with encoder.encode_workers(0):
                pass
