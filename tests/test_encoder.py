"""Spectrum encoder: weight plumbing, a hand-unrolled forward oracle,
permutation invariance, slot-count batching and dropout determinism."""

import argparse
import sys
import threading
import weakref

import numpy as np
import pytest

from conftest import graph_nodes, held_arrays, saved_arrays, toy_spectrum
from mzembed import encoder
from mzembed.data import Peak, Spectrum
from mzembed.embed import wavelengths
from mzembed.encoder import (
    EncoderConfig,
    ModelWeights,
    describe_config,
    encode_batch,
    encode_many,
    encode_spectrum,
    init_weights,
    load_table,
    parameter_shapes,
)
from mzembed.errors import ConfigError, DataError, MzembedError
from mzembed.rng import stream_rng
from mzembed.tensor import (
    AttentionParams,
    FeedForwardParams,
    Node,
    Tensor,
    concat,
    grad_enabled,
    no_grad,
)

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
        ours = encode_spectrum(s, cfg, weights)
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
            encode_batch([s], cfg, init_weights(cfg, seed=0), mode="train")

    def test_dropout_reproducible_under_stream(self, rng):
        cfg = small_cfg(layers=2, heads=2, dropout=0.3)
        weights = init_weights(cfg, seed=0)
        s = toy_spectrum("s", "m", rng)
        a = encode_batch([s], cfg, weights, mode="train", rng=stream_rng(5, "dropout", 0))
        b = encode_batch([s], cfg, weights, mode="train", rng=stream_rng(5, "dropout", 0))
        c = encode_batch([s], cfg, weights, mode="train", rng=stream_rng(5, "dropout", 1))
        infer = encode_batch([s], cfg, weights)
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
        out = encode_batch(spectra, cfg, weights, mode="train", rng=stream_rng(0, "dropout", 0))
        (out * out).sum().backward()
        for name, tensor in weights.named().items():
            assert tensor.grad is not None, name
            assert np.any(tensor.grad != 0.0) or "bias" in name, name


class TestTrainingGraphSize:
    def test_attention_keeps_masks_not_maps(self, rng, monkeypatch):
        # Mixed peak counts: three slot-count groups, two of two spectra.
        # Only the first group's forward records its graph; the others
        # keep their output rows and masks for the backward.
        cfg = small_cfg(d=16, layers=3, heads=2, dropout=0.2)
        weights = init_weights(cfg, seed=0)
        peaks = (5, 12, 5, 10, 12)
        spectra = [
            toy_spectrum(f"s{i}", "m", rng, n_peaks=(n, n + 1)) for i, n in enumerate(peaks)
        ]
        groups = {n + 1: peaks.count(n) for n in peaks}
        assert cfg.d // cfg.heads not in groups
        real, recorded = encoder._encode_group, []

        def spy(*args):
            unit = real(*args)
            if unit.requires_grad:
                recorded.append(unit._node)
            return unit

        monkeypatch.setattr(encoder, "_encode_group", spy)
        with encoder.encode_workers(2):
            out = encode_batch(spectra, cfg, weights, mode="train", rng=stream_rng(0, "dropout", 0))
        (root,) = recorded
        n_slots, rows = next(iter(groups.items()))

        nodes = graph_nodes(root)
        held = [a for node in nodes for a in saved_arrays(node)]
        floats = [a for a in held if np.issubdtype(a.dtype, np.floating)]
        assert {a.shape[0] for a in floats if a.ndim == 4} == {rows}
        # No attention map, not even the last layer's precursor row: each
        # attention node recomputes its probabilities in the backward.
        assert not [a for a in floats if a.shape[-2:] in ((n_slots, n_slots), (1, n_slots))]

        def made_by(name):
            return [
                node for node in nodes
                if getattr(node.backward, "__qualname__", "").startswith(name + ".")
            ]

        # Each layer's attention node keeps its probabilities' boolean
        # dropout mask, and two dropout nodes keep the other two masks.
        attends = made_by("attention")
        assert len(attends) == cfg.layers
        maps = sorted(a.shape for node in attends for a in saved_arrays(node) if a.dtype == bool)
        full, last = (rows, cfg.heads, n_slots, n_slots), (rows, cfg.heads, 1, n_slots)
        assert maps == sorted([full] * (cfg.layers - 1) + [last])
        drops = made_by("dropout")
        assert len(drops) == 2 * cfg.layers
        for node in drops:
            assert [a.dtype for a in saved_arrays(node)] == [np.dtype(bool)]

        # Outside the recorded group: no attention map and no float
        # activation, only the batch's output rows (and boolean masks).
        outside = held_arrays(out, stop=root)
        assert [a for a in outside if a.dtype == bool and a.shape[-2:] == (n_slots, n_slots)]
        kept = [a for a in outside if np.issubdtype(a.dtype, np.floating)]
        assert len(kept) == 1 and kept[0] is out.data
        assert out.shape == (len(spectra), cfg.d)


class TestTrainingNode:
    """A recording encode is one parentless node whose backward walks the
    units' graphs in unit order."""

    # Slot counts 5, 10, 5, 7, 17, 10, 17: four groups, the last capped.
    PEAKS = (4, 9, 4, 6, 20, 9, 25)

    def inputs(self, rng, kind="sin"):
        cfg = small_cfg(d=16, layers=2, heads=2, dropout=0.3, kind=kind, resolution=1.0)
        spectra = [
            toy_spectrum(f"s{i}", "m", rng, n_peaks=(n, n + 1)) for i, n in enumerate(self.PEAKS)
        ]
        return cfg, init_weights(cfg, seed=0), spectra

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_parentless_node_walks_every_group(self, rng, monkeypatch, workers):
        cfg, weights, spectra = self.inputs(rng)
        real_group, real_walk, roots, walked = encoder._encode_group, encoder.backward_walk, {}, []

        def group(group, *args):
            out = real_group(group, *args)
            if out.requires_grad:  # the node is kept, so its id stays unique
                roots[id(out._node)] = ([s.id for s in group], out._node)
            return out

        def walk(root, g):
            walked.append(roots[id(root)][0])
            real_walk(root, g)

        monkeypatch.setattr(encoder, "_encode_group", group)
        monkeypatch.setattr(encoder, "backward_walk", walk)
        with encoder.encode_workers(workers):
            out = encode_batch(spectra, cfg, weights, mode="train", rng=stream_rng(5, "dropout", 0))
            assert out._node.parents == ()
            (out * out).sum().backward()
        units = [["s0", "s2"], ["s1", "s5"], ["s3"], ["s4", "s6"]]
        assert walked == units
        # Every group's graph is recorded once, in the forward or in the
        # backward's recompute, and walked.
        assert sorted(ids for ids, _ in roots.values()) == sorted(units)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", ["sin", "token"])
    def test_gradients_equal_the_concat_composition(self, rng, monkeypatch, kind, workers):
        # The composition the node replaces: each group's graph, joined by
        # concat and put back in input order by an index, walked as one.
        cfg, weights, spectra = self.inputs(rng, kind)
        loss_weight = Tensor(rng.normal(size=(len(spectra), cfg.d)))
        real, seen = encoder._encode_group, []

        def spy(group, cfg, weights, keeps):
            seen.append(([spectra.index(s) for s in group], keeps))
            return real(group, cfg, weights, keeps)

        monkeypatch.setattr(encoder, "_encode_group", spy)
        with no_grad():
            encode_batch(spectra, cfg, weights, mode="train", rng=stream_rng(5, "dropout", 0))
        monkeypatch.undo()
        units = [rows for rows, _ in seen]
        assert len(units) == 4
        outs = [real([spectra[i] for i in rows], cfg, weights, keeps) for rows, keeps in seen]
        joined = concat(outs, axis=0)[np.argsort(np.concatenate(units))]
        (joined * loss_weight).sum().backward()
        want = {name: t.grad for name, t in weights.named().items()}

        for t in weights.named().values():
            t.grad = None
        with encoder.encode_workers(workers):
            out = encode_batch(spectra, cfg, weights, mode="train", rng=stream_rng(5, "dropout", 0))
            (out * loss_weight).sum().backward()
        assert out.data.tobytes() == joined.data.tobytes()
        for name, t in weights.named().items():
            assert t.grad.tobytes() == want[name].tobytes(), name


class TestDropoutMasks:
    """Training draws each layer's masks spectrum by spectrum, in the
    stream that drawing them at the padded batch's shapes would give."""

    # Slot counts 6, 13, 6, 11, 13: three groups; five spectra, so no
    # draw's leading axis (2 heads, 13 or 1 query rows) is the batch size.
    PEAKS = (5, 12, 5, 10, 12)

    def inputs(self, rng):
        cfg = small_cfg(d=16, layers=3, heads=2, dropout=0.3)
        spectra = [
            toy_spectrum(f"s{i}", "m", rng, n_peaks=(n, n + 1)) for i, n in enumerate(self.PEAKS)
        ]
        return cfg, init_weights(cfg, seed=0), spectra

    def test_masks_equal_the_batch_shaped_draw(self, rng, monkeypatch):
        cfg, weights, spectra = self.inputs(rng)
        real, seen = encoder._encode_group, {}

        def spy(group, cfg, weights, keeps):
            seen[tuple(s.id for s in group)] = keeps
            return real(group, cfg, weights, keeps)

        monkeypatch.setattr(encoder, "_encode_group", spy)
        stream = stream_rng(3, "dropout", 0)
        encode_batch(spectra, cfg, weights, mode="train", rng=stream)

        # The batch-shaped formula: every layer's masks drawn at once at
        # the shapes of the batch padded to its longest spectrum, the
        # last layer's with its single query row, then cut to each
        # group's rows and slots.
        ref = stream_rng(3, "dropout", 0)
        slots = [n + 1 for n in self.PEAKS]
        b, h, w, d, p = len(spectra), cfg.heads, max(slots), cfg.d, cfg.dropout
        keeps = [
            tuple(ref.random(sh) >= p for sh in ((b, h, q, w), (b, q, d), (b, q, d)))
            for q in [w] * (cfg.layers - 1) + [1]
        ]
        groups = {}
        for i, n in enumerate(slots):
            groups.setdefault(n, []).append(i)
        assert len(groups) == 3 and len(seen) == 3
        for n, rows in groups.items():
            got = seen[tuple(spectra[i].id for i in rows)]
            want = [(attn[rows, :, :n, :n], a[rows, :n], f[rows, :n]) for attn, a, f in keeps]
            assert len(got) == cfg.layers
            for got_layer, want_layer in zip(got, want):
                for mask, expected in zip(got_layer, want_layer, strict=True):
                    assert mask.dtype == bool and mask.shape == expected.shape
                    assert np.array_equal(mask, expected)
            assert [m.shape for m in got[-1]] == [
                (len(rows), h, 1, n), (len(rows), 1, d), (len(rows), 1, d)
            ]
        # The same draws, so the generator continues where it did.
        assert stream.random() == ref.random()

    def test_no_draw_has_the_batch_as_leading_axis(self, rng):
        cfg, weights, spectra = self.inputs(rng)

        class Spy:
            """A generator that records the shape of every draw."""

            def __init__(self, stream):
                self.stream, self.shapes = stream, []

            def random(self, shape):
                self.shapes.append(shape)
                return self.stream.random(shape)

        spy = Spy(stream_rng(3, "dropout", 0))
        encode_batch(spectra, cfg, weights, mode="train", rng=spy)
        assert len(spy.shapes) == 3 * cfg.layers * len(spectra)
        assert [shape for shape in spy.shapes if shape[0] == len(spectra)] == []


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
        from mzembed.search import build_index, search
        from mzembed.tensor import nn

        values = {"d": "8", "layers": "2", "heads": "2", "inner-dim": "8", "max-fragments": "16"}
        cfg, weights, loaded = cli_loaded(tmp_path, values)
        if source == "cli":
            weights = loaded
        seen = []
        real_linear = nn.linear

        def recording_linear(x, w, b):
            seen.append((x.data.dtype, w.data.dtype, b.data.dtype, w.data.flags.f_contiguous))
            return real_linear(x, w, b)

        spectra = self.spectra(rng)
        index = build_index(spectra, cfg, weights)
        monkeypatch.setattr(nn, "linear", recording_linear)
        # Every inference caller computes on the binary64 column-major copy.
        for encode in (
            lambda: encode_many(spectra, cfg, weights),
            lambda: encode_spectrum(spectra[0], cfg, weights),
            lambda: search(spectra[0], index, 1, cfg, weights),
        ):
            seen.clear()
            encode()
            assert seen
            assert all(x == w == b == np.float64 and f for x, w, b, f in seen), set(seen)

    @pytest.mark.parametrize("kind", ["sin", "token"])
    @pytest.mark.parametrize("shape", [{}, README_SHAPE], ids=["small", "readme"])
    def test_converted_weights_encode_the_same_bits(self, rng, kind, shape):
        from mzembed.tensor import no_grad

        cfg = small_cfg(kind=kind, **{"layers": 2, "heads": 2, **shape})
        weights = init_weights(cfg, seed=3)
        spectra = self.spectra(rng)
        # A training forward without dropout computes on the binary32
        # weights as given, an inference forward on the converted copy:
        # the two layouts must give the same bits.
        assert cfg.dropout == 0.0
        with no_grad():
            want = encode_batch(spectra, cfg, weights, mode="train", rng=stream_rng(0, "dropout", 0))
        assert np.array_equal(encode_batch(spectra, cfg, weights).data, want.data)
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
        # Each group stays whole in its forward and in the backward's
        # recompute, which every group but the first gets.
        groups = {}
        for s in spectra:
            groups.setdefault(min(len(s.fragments), cfg.max_fragments), []).append(s.id)
        units = list(groups.values())
        assert len(units) > 1 and units[-1] == [f"c{i}" for i in range(6)]
        assert sorted(ids for _, ids in calls) == sorted(units + units[1:])

    @staticmethod
    def mixed(rng):
        """Four slot-count groups: [s0, s2], [s1, s5], [s3], [s4]."""
        return [
            toy_spectrum(f"s{i}", "m", rng, n_peaks=(n, n + 1))
            for i, n in enumerate((4, 9, 4, 6, 12, 9))
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_backward_recomputes_each_unrecorded_group_once_on_the_pool(
        self, rng, monkeypatch, workers
    ):
        cfg = small_cfg(layers=2, heads=2, dropout=0.3)
        weights = init_weights(cfg, seed=0)
        real, calls = encoder._encode_group, []

        def spy(spectra, *args):
            record = (threading.current_thread().name, [s.id for s in spectra], grad_enabled())
            calls.append(record)
            return real(spectra, *args)

        monkeypatch.setattr(encoder, "_encode_group", spy)
        units = [["s0", "s2"], ["s1", "s5"], ["s3"], ["s4"]]
        with encoder.encode_workers(workers):
            out = encode_batch(self.mixed(rng), cfg, weights, mode="train", rng=stream_rng(5, "dropout", 0))
            forward = list(calls)
            (out * out).sum().backward()
        backward = calls[len(forward):]
        # The forward records only the first group's graph.
        assert sorted((ids, record) for _, ids, record in forward) == sorted(
            (ids, ids == units[0]) for ids in units
        )
        # Each other group is recomputed once, with recording on: on the
        # pool by a prefetch, none inline on the calling thread; on one
        # worker inline.
        assert [ids for _, ids, _ in backward] == units[1:]
        assert all(record for _, _, record in backward)
        pooled = {name.startswith("mzembed-encode") for name, _, _ in backward}
        assert pooled == {workers > 1}

    def test_one_worker_holds_one_group_graph_at_a_time(self, rng, monkeypatch):
        # Every float array a group's graph keeps, apart from the weights,
        # by weak reference: while a group is walked no other group's
        # graph is alive.
        cfg = small_cfg(layers=2, heads=2, dropout=0.3)
        weights = init_weights(cfg, seed=0)
        weight_arrays = {id(t.data) for t in weights.named().values()}
        real_group, real_walk = encoder._encode_group, encoder.backward_walk
        graphs, alive_at_walks = {}, []

        def group(spectra, *args):
            out = real_group(spectra, *args)
            if out.requires_grad:
                graphs[tuple(s.id for s in spectra)] = [
                    weakref.ref(a)
                    for node in graph_nodes(out)
                    for a in saved_arrays(node)
                    if np.issubdtype(a.dtype, np.floating) and id(a) not in weight_arrays
                ]
            return out

        def walk(root, g):
            alive_at_walks.append(
                sorted(ids for ids, refs in graphs.items() if any(ref() is not None for ref in refs))
            )
            real_walk(root, g)

        monkeypatch.setattr(encoder, "_encode_group", group)
        monkeypatch.setattr(encoder, "backward_walk", walk)
        out = encode_batch(self.mixed(rng), cfg, weights, mode="train", rng=stream_rng(5, "dropout", 0))
        (out * out).sum().backward()
        units = [("s0", "s2"), ("s1", "s5"), ("s3",), ("s4",)]
        assert all(graphs[ids] for ids in units)
        assert alive_at_walks == [[ids] for ids in units]
        assert not [ref for refs in graphs.values() for ref in refs if ref() is not None]

    def test_backward_refuses_a_recompute_that_drifted(self, rng):
        cfg = small_cfg(layers=2, heads=2, dropout=0.3)
        weights = init_weights(cfg, seed=0)
        with encoder.encode_workers(2):
            out = encode_batch(self.mixed(rng), cfg, weights, mode="train", rng=stream_rng(5, "dropout", 0))
            loss = (out * out).sum()
            weights.named()["layer1.ff.b2"].data += 0.5  # changed after the forward
            with pytest.raises(MzembedError, match=r"recomputed forward of 's1', 's5' differs"):
                loss.backward()

    @pytest.mark.parametrize("fails", ["rebuild", "walk"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_backward_leaves_no_forward_running(self, rng, monkeypatch, workers, fails):
        # Unit [s1, s5]'s recompute fails (a weight drifted) or its walk
        # does. On the pool, unit [s3]'s recompute was submitted before;
        # it is slowed in the backward, so it is still running when
        # [s1, s5] fails, unless the backward waits for it.
        import time

        cfg = small_cfg(layers=2, heads=2, dropout=0.3)
        weights = init_weights(cfg, seed=0)
        real_group, real_walk = encoder._encode_group, encoder.backward_walk
        started, returned, walks, slow = [], [], [], []

        def group(spectra, *args):
            ids = [s.id for s in spectra]
            started.append(ids)
            try:
                if slow and ids == ["s3"]:
                    time.sleep(0.3)
                return real_group(spectra, *args)
            finally:
                returned.append(ids)

        def walk(root, g):
            walks.append(id(root))
            if fails == "walk" and len(walks) == 2:
                raise MzembedError("the walk of unit [s1, s5] failed")
            real_walk(root, g)

        monkeypatch.setattr(encoder, "_encode_group", group)
        monkeypatch.setattr(encoder, "backward_walk", walk)
        message = r"recomputed forward of 's1', 's5' differs" if fails == "rebuild" else "the walk"
        with encoder.encode_workers(workers):
            out = encode_batch(self.mixed(rng), cfg, weights, mode="train", rng=stream_rng(5, "dropout", 0))
            loss = (out * out).sum()
            if fails == "rebuild":
                weights.named()["layer1.ff.b2"].data += 0.5
            slow.append(True)
            # The error is held, and with it the backward's frame, as a
            # caller handling it would hold it.
            with pytest.raises(MzembedError, match=message) as failure:
                loss.backward()
            at_failure = (sorted(started), sorted(returned))
            del failure
        assert at_failure[0] == at_failure[1]
        assert sorted(started) == at_failure[0]  # and none started later
        assert sorted(started[4:]) == ([["s1", "s5"], ["s3"]] if workers > 1 else [["s1", "s5"]])

    @pytest.mark.parametrize("pooled", [True, False], ids=["prefetched", "inline"])
    def test_backward_under_no_grad_recomputes_with_a_graph(self, rng, pooled):
        cfg = small_cfg(layers=2, heads=2, dropout=0.3)
        weights = init_weights(cfg, seed=0)
        spectra = self.mixed(rng)

        def gradients():
            grads = [t.grad.copy() for t in weights.named().values()]
            for t in weights.named().values():
                t.grad = None
            return grads

        stream = stream_rng(5, "dropout", 0)
        (encode_batch(spectra, cfg, weights, mode="train", rng=stream).sum()).backward()
        serial = gradients()
        with encoder.encode_workers(2):
            loss = encode_batch(spectra, cfg, weights, mode="train", rng=stream_rng(5, "dropout", 0)).sum()
            if pooled:
                with no_grad():
                    loss.backward()
        if not pooled:  # one worker now: every recompute runs on this thread
            with no_grad():
                loss.backward()
        assert all(np.array_equal(a, b) for a, b in zip(gradients(), serial))

    def test_pooled_inference_records_nothing(self, rng, monkeypatch):
        cfg = small_cfg(layers=2, heads=2)
        # Weights that need no inference copy and require gradients: only
        # the inference mode keeps the forwards from building a graph.
        weights = ModelWeights({
            name: Tensor(np.asfortranarray(t.data, dtype=np.float64), requires_grad=True)
            for name, t in init_weights(cfg, seed=0).named().items()
        })
        assert weights.for_inference() is weights
        spectra = self.spectra(rng)
        want = encode_many(spectra, cfg, weights)
        real, created = Node.__init__, []

        def counting(node, *args):
            created.append(threading.current_thread().name)
            real(node, *args)

        monkeypatch.setattr(Node, "__init__", counting)
        calls = self.spy_units(monkeypatch)
        assert grad_enabled()
        for workers in (1, 2):
            with encoder.encode_workers(workers):
                out = encode_batch(spectra, cfg, weights)
            assert created == [], workers
            assert not out.requires_grad
            assert np.array_equal(out.data, want)
        assert any(name.startswith("mzembed-encode") for name, _ in calls)
        with encoder.encode_workers(2):
            encode_batch(spectra, cfg, weights, mode="train", rng=stream_rng(0, "dropout", 0))
        assert created  # a training encode on the same weights builds a graph

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
