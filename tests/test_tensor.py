"""Tensor core: forward values against numpy, gradients against finite
differences, and the optimizer update rules against hand-stepped math."""

import threading
import weakref

import numpy as np
import pytest

from conftest import closure_values, graph_nodes, saved_arrays, toy_spectrum
from mzembed import encoder
from mzembed.encoder import EncoderConfig, encode_batch, init_table, init_weights
from mzembed.errors import ConfigError, DimensionError, MzembedError, NumericsError
from mzembed.properties import N_PROPERTIES, baseline_forward, baseline_shapes
from mzembed.rng import stream_rng
from mzembed.siamese import siamese_loss
from mzembed.tensor import (
    Adam,
    Tensor,
    clip_gradients,
    concat,
    cosine_similarity,
    dropout,
    feed_forward,
    gather_rows,
    global_grad_norm,
    grad_enabled,
    layer_norm,
    linear,
    multi_head_attention,
    no_grad,
    relu,
    set_grad_enabled,
    softmax,
    uniform_fan_in,
)
from mzembed.tensor.nn import (
    AttentionParams,
    FeedForwardParams,
    _merge_heads,
    _split_heads,
    attention,
    attention_probs,
)


def numerical_gradient(f, x, h=1e-5):
    """Central-difference gradient of scalar-valued f at x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        grad[idx] = (f(xp) - f(xm)) / (2.0 * h)
        it.iternext()
    return grad


def relative_error(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return np.max(np.abs(analytic - numeric) / denom)


def check_gradients(build, *arrays, tol=1e-4):
    """build(*tensors) -> Tensor; compares backward against finite
    differences for every input array."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    loss = out.sum() if out.data.ndim else out
    loss.backward()
    for pos, tensor in enumerate(tensors):
        def scalar(x, pos=pos):
            probe = [Tensor(a.copy()) for a in arrays]
            probe[pos] = Tensor(x)
            value = build(*probe)
            value = value.sum() if value.data.ndim else value
            return float(value.data)

        numeric = numerical_gradient(scalar, arrays[pos])
        assert tensor.grad is not None
        err = relative_error(tensor.grad, numeric)
        assert err < tol, f"input {pos}: relative error {err:.3e}"


class TestForward:
    def test_arithmetic_matches_numpy(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        ta, tb = Tensor(a), Tensor(b)
        assert np.array_equal((ta + tb).data, a + b)
        assert np.array_equal((ta - tb).data, a - b)
        assert np.array_equal((ta * tb).data, a * b)
        assert np.array_equal((ta / tb).data, a / b)
        assert np.array_equal((-ta).data, -a)
        assert np.array_equal((ta ** 2).data, a ** 2)

    def test_scalar_broadcast(self, rng):
        a = rng.normal(size=(2, 3))
        assert np.array_equal((Tensor(a) + 1.5).data, a + 1.5)
        assert np.array_equal((2.0 - Tensor(a)).data, 2.0 - a)
        assert np.array_equal((1.0 / Tensor(np.abs(a) + 1)).data, 1.0 / (np.abs(a) + 1))

    def test_matmul_batched(self, rng):
        a = rng.normal(size=(5, 2, 3, 4))
        b = rng.normal(size=(5, 2, 4, 6))
        assert np.allclose((Tensor(a) @ Tensor(b)).data, a @ b)

    def test_reductions(self, rng):
        a = rng.normal(size=(3, 4, 5))
        assert np.allclose(Tensor(a).sum().data, a.sum())
        assert np.allclose(Tensor(a).sum(axis=1).data, a.sum(axis=1))
        assert np.allclose(Tensor(a).mean(axis=-1, keepdims=True).data, a.mean(axis=-1, keepdims=True))

    def test_item_requires_scalar(self):
        with pytest.raises(Exception):
            Tensor(np.zeros((2, 2))).item()

    def test_no_grad_blocks_graph(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with no_grad():
            out = (a * 2.0).sum()
        assert out.requires_grad is False


class TestGradients:
    """Finite-difference checks, one op at a time."""

    def test_add_broadcast(self, rng):
        check_gradients(lambda a, b: a + b, rng.normal(size=(3, 4)), rng.normal(size=(4,)))

    def test_sub(self, rng):
        check_gradients(lambda a, b: a - b, rng.normal(size=(2, 3)), rng.normal(size=(2, 3)))

    def test_mul_broadcast(self, rng):
        check_gradients(lambda a, b: a * b, rng.normal(size=(3, 1, 4)), rng.normal(size=(2, 4)))

    def test_div(self, rng):
        check_gradients(
            lambda a, b: a / b,
            rng.normal(size=(3, 4)),
            rng.uniform(0.5, 2.0, size=(3, 4)),
        )

    def test_neg_pow_sqrt_exp_log(self, rng):
        x = rng.uniform(0.5, 2.0, size=(4, 3))
        check_gradients(lambda a: -a, x)
        check_gradients(lambda a: a ** 3, x)
        check_gradients(lambda a: a.sqrt(), x)
        check_gradients(lambda a: a.exp(), rng.normal(size=(4, 3)))
        check_gradients(lambda a: a.log(), x)

    def test_matmul(self, rng):
        check_gradients(lambda a, b: a @ b, rng.normal(size=(3, 4)), rng.normal(size=(4, 5)))

    def test_matmul_batched(self, rng):
        check_gradients(
            lambda a, b: a @ b,
            rng.normal(size=(2, 3, 4)),
            rng.normal(size=(2, 4, 5)),
        )

    def test_matmul_broadcast_against_unbatched(self, rng):
        check_gradients(
            lambda a, b: a @ b,
            rng.normal(size=(2, 3, 4)),
            rng.normal(size=(4, 5)),
        )

    def test_sum_axis_keepdims(self, rng):
        x = rng.normal(size=(3, 4, 2))
        check_gradients(lambda a: a.sum(axis=1), x)
        check_gradients(lambda a: a.sum(axis=-1, keepdims=True) * 2.0, x)
        check_gradients(lambda a: a.mean(axis=0), x)

    def test_reshape_swapaxes_getitem(self, rng):
        x = rng.normal(size=(4, 6))
        check_gradients(lambda a: a.reshape(2, 12) @ Tensor(np.ones((12, 3))), x)
        check_gradients(lambda a: a.swapaxes(0, 1) * 3.0, x)
        check_gradients(lambda a: a[1:3, ::2] ** 2, x)

    def test_getitem_accumulates_repeats(self, rng):
        x = rng.normal(size=(4, 3))
        check_gradients(lambda a: a[[0, 0, 2]] ** 2, x)
        check_gradients(lambda a: a[np.array([3, 1, 3]), 1:] * 2.0, x)
        t = Tensor(np.zeros(3), requires_grad=True)
        t[[0, 0, 2]].sum().backward()
        assert np.array_equal(t.grad, [2.0, 0.0, 1.0])

    def test_concat(self, rng):
        check_gradients(
            lambda a, b: concat([a, b], axis=-1) ** 2,
            rng.normal(size=(3, 2)),
            rng.normal(size=(3, 4)),
        )

    def test_gather_rows_accumulates_repeats(self, rng):
        table = rng.normal(size=(5, 3))
        indices = np.array([0, 2, 2, 4])
        check_gradients(lambda t: gather_rows(t, indices) * 2.0, table)
        t = Tensor(table, requires_grad=True)
        gather_rows(t, indices).sum().backward()
        expected = np.zeros_like(table)
        np.add.at(expected, indices, 1.0)
        assert np.allclose(t.grad, expected)
        assert np.allclose(t.grad[2], 2.0 * np.ones(3))

    def test_relu_softmax_layer_norm(self, rng):
        x = rng.normal(size=(3, 5)) + 0.1  # keep clear of the relu kink
        check_gradients(lambda a: relu(a), x)
        check_gradients(lambda a: softmax(a, axis=-1) @ Tensor(np.ones((5, 1))), x)
        g = np.ones(5)
        b = np.zeros(5)
        check_gradients(
            lambda a, gg, bb: layer_norm(a, gg, bb),
            x,
            g,
            b,
            tol=5e-4,
        )

    def test_linear_and_feed_forward(self, rng):
        x = rng.normal(size=(4, 6))
        w = rng.normal(size=(3, 6))
        b = rng.normal(size=(3,))
        check_gradients(lambda xx, ww, bb: linear(xx, ww, bb), x, w, b)
        ff = FeedForwardParams(
            w1=Tensor(rng.normal(size=(5, 6)), requires_grad=True),
            b1=Tensor(rng.normal(size=(5,)), requires_grad=True),
            w2=Tensor(rng.normal(size=(2, 5)), requires_grad=True),
            b2=Tensor(rng.normal(size=(2,)), requires_grad=True),
        )
        out = feed_forward(Tensor(x), ff)
        assert out.data.shape == (4, 2)
        check_gradients(
            lambda xx: feed_forward(
                xx,
                FeedForwardParams(
                    w1=Tensor(ff.w1.data), b1=Tensor(ff.b1.data),
                    w2=Tensor(ff.w2.data), b2=Tensor(ff.b2.data),
                ),
            ),
            x,
        )

    def test_linear_batched(self, rng):
        # (B, N, d) input, as the encoder feeds it; the random mix makes
        # the upstream gradient differ per element.
        x = rng.normal(size=(2, 3, 4))
        w = rng.normal(size=(5, 4))
        b = rng.normal(size=(5,))
        mix = Tensor(rng.normal(size=(2, 3, 5)))
        check_gradients(lambda xx, ww, bb: linear(xx, ww, bb) * mix, x, w, b)
        out = linear(Tensor(x), Tensor(w), Tensor(b))
        assert np.array_equal(out.data, x @ w.T + b)

    def test_linear_keeps_weight_dtype(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 4)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.normal(size=(5,)).astype(np.float32), requires_grad=True)
        out = linear(x, w, b)
        assert out.dtype == np.float64
        assert np.array_equal(out.data, x.data @ w.data.T + b.data)
        out.sum().backward()
        assert x.grad.dtype == np.float64
        assert w.grad.dtype == np.float32 and b.grad.dtype == np.float32
        expected_w = x.data.reshape(-1, 4).sum(axis=0)
        assert np.allclose(w.grad, np.broadcast_to(expected_w, (5, 4)), rtol=1e-6)
        assert np.array_equal(b.grad, np.full(5, 6.0, dtype=np.float32))

    def test_cosine_similarity(self, rng):
        a = rng.normal(size=(4, 8))
        b = rng.normal(size=(4, 8))
        check_gradients(lambda x, y: cosine_similarity(x, y), a, b)
        sim = cosine_similarity(Tensor(a), Tensor(b))
        expected = np.sum(a * b, axis=-1) / (
            np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1)
        )
        assert np.allclose(sim.data, expected)

    def test_attention(self, rng):
        d, heads = 8, 2
        x = rng.normal(size=(3, d))
        params = AttentionParams(
            wq=Tensor(rng.normal(size=(d, d)) * 0.3, requires_grad=True),
            bq=Tensor(np.zeros(d), requires_grad=True),
            wk=Tensor(rng.normal(size=(d, d)) * 0.3, requires_grad=True),
            bk=Tensor(np.zeros(d), requires_grad=True),
            wv=Tensor(rng.normal(size=(d, d)) * 0.3, requires_grad=True),
            bv=Tensor(np.zeros(d), requires_grad=True),
            wo=Tensor(rng.normal(size=(d, d)) * 0.3, requires_grad=True),
            bo=Tensor(np.zeros(d), requires_grad=True),
        )

        def rebuild(xx):
            frozen = AttentionParams(
                wq=Tensor(params.wq.data), bq=Tensor(params.bq.data),
                wk=Tensor(params.wk.data), bk=Tensor(params.bk.data),
                wv=Tensor(params.wv.data), bv=Tensor(params.bv.data),
                wo=Tensor(params.wo.data), bo=Tensor(params.bo.data),
            )
            return multi_head_attention(xx, xx, xx, frozen, heads)

        check_gradients(rebuild, x)

    def test_attention_node_with_dropout(self, rng):
        keep = rng.random((2, 2, 3, 5)) >= 0.3
        mix = Tensor(rng.normal(size=(2, 2, 3, 4)))
        check_gradients(
            lambda q, k, v: attention(q, k, v, 0.3, keep) * mix,
            rng.normal(size=(2, 2, 3, 4)),
            rng.normal(size=(2, 2, 5, 4)),
            rng.normal(size=(2, 2, 5, 4)),
        )

    def test_dropout_grad_is_scaled_mask(self, rng):
        x = Tensor(np.ones((200, 10)), requires_grad=True)
        out = dropout(x, 0.25, training=True, rng=np.random.default_rng(3))
        out.sum().backward()
        keep = out.data != 0.0
        assert np.allclose(x.grad[keep], 1.0 / 0.75)
        assert np.allclose(x.grad[~keep], 0.0)
        frac = keep.mean()
        assert 0.70 < frac < 0.80

    def test_dropout_inference_is_identity(self, rng):
        x = Tensor(rng.normal(size=(5, 5)))
        out = dropout(x, 0.5, training=False, rng=None)
        assert np.array_equal(out.data, x.data)

    def test_dropout_precomputed_keep(self, rng):
        x = rng.normal(size=(4, 6))
        want = dropout(Tensor(x), 0.3, training=True, rng=np.random.default_rng(8))
        keep = np.random.default_rng(8).random(x.shape) >= 0.3
        got = dropout(Tensor(x), 0.3, training=True, keep=keep)
        assert np.array_equal(got.data, want.data)
        with pytest.raises(DimensionError):
            dropout(Tensor(x), 0.3, training=True, keep=keep[:, :3])

    def test_matmul_refuses_vectors(self, rng):
        with pytest.raises(DimensionError):
            Tensor(rng.normal(size=(3,))) @ Tensor(rng.normal(size=(3, 2)))
        with pytest.raises(DimensionError):
            Tensor(rng.normal(size=(2, 3))) @ Tensor(rng.normal(size=(3,)))

    def test_linear_of_a_vector(self, rng):
        x = rng.normal(size=(6,))
        w = rng.normal(size=(3, 6))
        b = rng.normal(size=(3,))
        check_gradients(lambda xx, ww, bb: linear(xx, ww, bb), x, w, b)
        assert np.allclose(linear(Tensor(x), Tensor(w), Tensor(b)).data, w @ x + b)

    def test_backward_requires_scalar(self, rng):
        t = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with pytest.raises(Exception):
            (t * 2.0).backward()

    def test_diamond_graph_accumulates(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        y = x * x + x * 3.0
        y.backward()
        assert np.isclose(x.grad, 2 * 2.0 + 3.0)


class TestRecordingMode:
    """Recording is a per-thread mode."""

    @pytest.mark.parametrize("off_on", ["other", "this"], ids=["other-thread", "this-thread"])
    def test_no_grad_leaves_other_threads_recording(self, off_on):
        w = Tensor(np.ones(3), requires_grad=True)
        entered, release, seen = threading.Event(), threading.Event(), {}

        def other():
            with no_grad() if off_on == "other" else set_grad_enabled(True):
                entered.set()
                release.wait(timeout=10)
                seen["other"] = (w * 2.0).requires_grad

        thread = threading.Thread(target=other)
        with no_grad() if off_on == "this" else set_grad_enabled(True):
            thread.start()
            assert entered.wait(timeout=10)
            seen["this"] = (w * 2.0).requires_grad
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert seen == {"other": off_on != "other", "this": off_on != "this"}
        assert grad_enabled()

    def test_set_grad_enabled_restores_the_mode(self):
        with no_grad():
            with set_grad_enabled(True):
                assert grad_enabled()
            assert not grad_enabled()
        assert grad_enabled()


class TestGraphRelease:
    """backward consumes the graph: interior nodes are freed by
    reference counting, and only leaves keep a gradient."""

    def test_activations_freed_without_cycle_collector(self, rng, no_cycle_collector):
        x = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        b = Tensor(np.zeros(5), requires_grad=True)
        hidden = linear(x, w, b)
        alive = weakref.ref(hidden.data)
        loss = relu(hidden).sum()
        loss.backward()
        del hidden, loss
        assert alive() is None
        assert w.grad is not None and b.grad is not None

    def test_unwalked_graph_freed_without_cycle_collector(self, rng, no_cycle_collector):
        x = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        b = Tensor(np.zeros(5), requires_grad=True)
        hidden = linear(x, w, b)
        alive = weakref.ref(hidden.data)
        loss = relu(hidden).sum()
        del hidden, loss
        assert alive() is None

    def test_unwalked_encoder_graph_freed_without_cycle_collector(
        self, rng, no_cycle_collector, monkeypatch
    ):
        cfg = EncoderConfig(
            d=8, layers=2, heads=2, inner_dim=8, dropout=0.1, kind="sin", max_fragments=16
        )
        weights = init_weights(cfg, seed=0)
        spectra = [
            toy_spectrum(f"s{i}", "m", rng, n_peaks=(n, n + 1)) for i, n in enumerate((4, 7, 4, 9))
        ]
        # Every group's output, and of each graph a group's forward
        # records, every interior node's backward function and every
        # array a backward keeps, apart from the weights themselves.
        weight_arrays = {id(t.data) for t in weights.named().values()}
        real, alive = encoder._encode_group, []

        def spy(*args):
            out = real(*args)
            nodes = graph_nodes(out) if out.requires_grad else []
            interior = [node for node in nodes if node.parents]
            alive.append(weakref.ref(out.data))
            alive.extend(weakref.ref(node.backward) for node in interior)
            alive.extend(
                weakref.ref(a)
                for node in interior
                for a in saved_arrays(node)
                if id(a) not in weight_arrays
            )
            return out

        monkeypatch.setattr(encoder, "_encode_group", spy)

        def train_forward():
            return encode_batch(spectra, cfg, weights, mode="train", rng=stream_rng(0, "dropout", 0))

        # Unwalked: only the first group's forward records a graph, the
        # others keep their output rows.
        out = train_forward()
        assert len(alive) > 90
        del out
        assert [ref for ref in alive if ref() is not None] == []

        # Walked until the second group's recompute failed, with the
        # third group's recompute already submitted to the pool.
        alive.clear()
        with encoder.encode_workers(2):
            loss = train_forward().sum()
            weights.named()["layer1.ff.b2"].data += 0.5
            with pytest.raises(MzembedError, match="recomputed forward of 's1' differs"):
                loss.backward()
        assert len(alive) > 100
        del loss
        assert [ref for ref in alive if ref() is not None] == []

    def test_backward_without_graph_raises(self, rng):
        w = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with no_grad():
            under_no_grad = (w * w).sum()
        from_constants = (Tensor(rng.normal(size=(3,))) * 2.0).sum()
        for loss in (under_no_grad, from_constants):
            with pytest.raises(MzembedError, match="recorded no graph"):
                loss.backward()
        assert w.grad is None

    def test_second_backward_raises(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        y = x * 2.0
        loss = y.sum()
        loss.backward()
        with pytest.raises(MzembedError, match="consumed"):
            loss.backward()
        with pytest.raises(MzembedError, match="consumed"):
            (y * 3.0).sum().backward()

    def test_leaf_gradients_add_up_over_graphs(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 3.0).sum().backward()
        assert np.array_equal(x.grad, np.full(3, 5.0))

    def test_first_gradient_is_not_shared(self):
        # __add__ hands the same array to both operands; a's later
        # in-place addition must not leak into b.
        for order in (0, 1):
            a = Tensor(np.ones(3), requires_grad=True)
            b = Tensor(np.ones(3), requires_grad=True)
            terms = [(a + b).sum(), (a * 2.0).sum()]
            loss = terms[order] + terms[1 - order]
            loss.backward()
            assert np.array_equal(b.grad, np.ones(3))
            assert np.array_equal(a.grad, np.full(3, 3.0))
        x = Tensor(np.ones(3), requires_grad=True)
        (x + x).sum().backward()
        assert np.array_equal(x.grad, np.full(3, 2.0))


def interior(rng, shape=(3, 4)):
    """A value computed from a leaf, as the forward's intermediates are;
    returns the leaf too."""
    leaf = Tensor(rng.normal(size=shape), requires_grad=True)
    return leaf + 0.0, leaf


# Ops whose backward reads nothing of their input's value.
VALUE_FREE = {
    "+": lambda x: x + Tensor(np.ones(4)),
    "-": lambda x: x - 1.0,
    "neg": lambda x: -x,
    "reshape": lambda x: x.reshape(-1),
    "swapaxes": lambda x: x.swapaxes(0, 1),
    "sum": lambda x: x.sum(axis=0),
    "[] slice": lambda x: x[1:],
    "[] index array": lambda x: x[np.array([2, 0, 2])],
    "astype": lambda x: x.astype(np.float32),
    "concat": lambda x: concat([x, Tensor(np.ones((2, 4)))], axis=0),
    "dropout": lambda x: dropout(x, 0.5, True, keep=np.arange(12).reshape(3, 4) % 3 > 0),
    "relu": relu,
    "layer_norm": lambda x: layer_norm(
        x, Tensor(np.ones(4), requires_grad=True), Tensor(np.zeros(4), requires_grad=True)
    ),
}


# Ops with two operands: their shapes and the op.
TWO_OPERANDS = {
    "*": ((3, 4), (3, 4), lambda a, b: a * b),
    "@": ((3, 4), (4, 2), lambda a, b: a @ b),
    "linear": ((3, 4), (2, 4), lambda x, w: linear(x, w, Tensor(np.zeros(2)))),
}


class TestWhatTheGraphKeeps:
    """Each backward keeps exactly what its formula reads, so an input
    whose value no backward reads is freed when the forward drops it,
    while the graph that recorded it is still alive."""

    @pytest.mark.parametrize("op", list(VALUE_FREE))
    def test_input_value_freed_while_graph_lives(self, op, rng, no_cycle_collector):
        x, leaf = interior(rng)
        value = weakref.ref(x.data)
        y = VALUE_FREE[op](x)
        loss = (y * Tensor(rng.normal(size=y.shape))).sum()
        del x, y
        assert value() is None
        loss.backward()
        assert leaf.grad.shape == (3, 4) and np.all(np.isfinite(leaf.grad))

    @pytest.mark.parametrize("op", list(TWO_OPERANDS))
    @pytest.mark.parametrize("needs", [(True, False), (False, True), (True, True)])
    def test_operand_kept_only_for_the_other_sides_gradient(self, op, needs, rng, no_cycle_collector):
        *shapes, apply = TWO_OPERANDS[op]
        operands = [
            interior(rng, shape) if need else (Tensor(rng.normal(size=shape)), None)
            for shape, need in zip(shapes, needs)
        ]
        leaves = [leaf for _, leaf in operands if leaf is not None]
        operands = [value for value, _ in operands]
        values = [weakref.ref(t.data) for t in operands]
        loss = apply(*operands).sum()
        del operands
        # Each operand's value lives exactly when the other side needs a gradient.
        assert [ref() is not None for ref in values] == [needs[1], needs[0]]
        loss.backward()
        assert all(leaf.grad is not None for leaf in leaves)

    def test_no_backward_holds_a_tensor(self, rng):
        # A tensor is its value and its node; a backward that held one
        # would keep the value alive for the life of the graph.
        assert Tensor.__slots__ == ("data", "_node")
        spectra = [
            toy_spectrum(f"s{i}", "m", rng, n_peaks=(n, n + 1)) for i, n in enumerate((4, 7, 4, 9))
        ]

        def train_forward(kind, head_out=None):
            cfg = EncoderConfig(
                d=8, layers=2, heads=2, inner_dim=8, dropout=0.1, kind=kind, max_fragments=16,
                resolution=1.0,
            )
            weights = init_weights(cfg, seed=0, head_out=head_out)
            embs = encode_batch(spectra, cfg, weights, mode="train", rng=stream_rng(0, "dropout", 0))
            return embs, weights

        graphs = {}
        for kind in ("sin", "token"):
            embs, _ = train_forward(kind)
            graphs[kind] = siamese_loss(embs[:2], embs[2:], np.array([0.2, 0.7]))
        embs, weights = train_forward("sin", head_out=N_PROPERTIES)
        head = feed_forward(embs, FeedForwardParams.of(weights.named(), "head"))
        graphs["property head"] = head.sum()
        baseline_params = init_table(baseline_shapes(30, 8), seed=0)
        baseline = baseline_forward(Tensor(rng.random((4, 30))), baseline_params)
        graphs["baseline_forward"] = baseline.sum()
        for name, loss in graphs.items():
            nodes = [node for node in graph_nodes(loss) if node.backward is not None]
            assert len(nodes) > 5, name
            assert any(saved_arrays(node) for node in nodes), name
            held = [
                (node.backward.__qualname__, type(value).__name__)
                for node in nodes
                for value in closure_values(node)
                if isinstance(value, Tensor)
            ]
            assert held == [], name


class TestSoftmaxStability:
    def test_large_logits_do_not_overflow(self):
        x = Tensor(np.array([[1000.0, 1000.0, -np.inf]]))
        out = softmax(x, axis=-1)
        assert np.allclose(out.data, [[0.5, 0.5, 0.0]])

    def test_masked_entries_get_zero_weight(self):
        x = Tensor(np.array([[2.0, -np.inf, 1.0, -np.inf]]))
        out = softmax(x, axis=-1)
        assert np.all(np.isfinite(out.data))
        assert out.data[0, 1] == 0.0 and out.data[0, 3] == 0.0
        assert np.isclose(out.data.sum(), 1.0)


def composite_softmax(x, axis=-1):
    """Softmax as the chain of primitives it used to be built from."""
    shift = np.max(x, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    e = np.exp(x - shift)
    return e / e.sum(axis=axis, keepdims=True)


def composite_layer_norm(x, gain, bias, eps=1e-5):
    """Layer norm as the chain of primitives it used to be built from:
    each mean is a sum times 1/n in the input's dtype."""
    inv_n = np.asarray(1.0 / x.shape[-1], dtype=x.dtype)
    centered = x - x.sum(axis=-1, keepdims=True) * inv_n
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_n
    return centered / np.sqrt(var + np.asarray(eps, dtype=x.dtype)) * gain + bias


def split_heads(x, heads):
    # The strided (B, heads, n, dh) view the encoder hands to attention.
    b, n, d = x.shape
    return x.reshape(b, n, heads, d // heads).swapaxes(1, 2)


class TestFusedForwardBits:
    """The one-node softmax, layer norm, dropout and attention
    probabilities compute the same bits as the primitive chains they
    replace, so inference outputs do not move; the softmax backward, which
    works in place, those of its allocating formula."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_softmax(self, rng, dtype):
        x = (rng.normal(size=(4, 3, 7)) * 5.0).astype(dtype)
        x[0, 0, 2] = -np.inf
        x[1, 1:, 3:5] = -np.inf
        x[3, 2, :6] = -np.inf  # one finite entry left in the row
        out = softmax(Tensor(x), axis=-1)
        assert out.dtype == dtype
        assert np.array_equal(out.data, composite_softmax(x))
        assert np.array_equal(
            softmax(Tensor(x), axis=1).data, composite_softmax(x, axis=1)
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_softmax_backward(self, rng, dtype):
        # The gradient is written into the incoming one; the bits are
        # those of the allocating formula.
        x = Tensor((rng.normal(size=(4, 3, 7)) * 5.0).astype(dtype), requires_grad=True)
        g = rng.normal(size=(4, 3, 7)).astype(dtype)
        y = softmax(x, axis=-1)
        (y * Tensor(g)).sum().backward()
        want = y.data * (g - (g * y.data).sum(axis=-1, keepdims=True))
        assert x.grad.dtype == dtype and x.grad.tobytes() == want.tobytes()

    def test_layer_norm(self, rng):
        x = rng.normal(size=(3, 5, 16)) * 3.0 + 1.0
        gain = rng.normal(1.0, 0.2, 16).astype(np.float32)
        bias = rng.normal(0.0, 0.2, 16).astype(np.float32)
        out = layer_norm(Tensor(x), Tensor(gain), Tensor(bias))
        assert out.dtype == np.float64
        assert np.array_equal(out.data, composite_layer_norm(x, gain, bias))
        x32 = x.astype(np.float32)
        out32 = layer_norm(Tensor(x32), Tensor(gain), Tensor(bias))
        assert out32.dtype == np.float32
        assert np.array_equal(out32.data, composite_layer_norm(x32, gain, bias))

    def test_dropout(self, rng):
        x = rng.normal(size=(6, 4, 9))
        mine, theirs = np.random.default_rng(7), np.random.default_rng(7)
        out = dropout(Tensor(x), 0.3, training=True, rng=mine)
        keep = (theirs.random(x.shape) >= 0.3).astype(x.dtype)
        assert np.array_equal(out.data, x * (keep * (1.0 / (1.0 - 0.3))))
        # The same draws, so the rng stream continues where it did.
        assert mine.random() == theirs.random()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_attention_probs(self, rng, dtype):
        heads = 3
        q = split_heads(rng.normal(size=(2, 4, 15)).astype(dtype), heads)
        k = split_heads(rng.normal(size=(2, 6, 15)).astype(dtype), heads)
        mask = np.array([[True] * 6, [True, True, True, True, False, False]])
        out = attention_probs(Tensor(q), Tensor(k), mask)
        assert out.dtype == dtype
        prod = q @ np.swapaxes(k, -1, -2)  # the node's own BLAS call
        scores = prod * np.asarray(1.0 / np.sqrt(5), dtype=dtype)
        masked = scores + np.where(mask, 0.0, -np.inf).astype(dtype)[:, None, None, :]
        assert np.array_equal(out.data, composite_softmax(masked))
        unmasked = attention_probs(Tensor(q), Tensor(k))
        assert np.array_equal(unmasked.data, composite_softmax(scores))


def unfused_attention(q, k, v, p=0.0, keep=None, key_mask=None):
    """The attention node as the separate nodes it stands for."""
    probs = attention_probs(q, k, key_mask)
    if keep is not None:
        probs = dropout(probs, p, True, keep=keep)
    return probs @ v


def unfused_multi_head_attention(
    query, key, value, params, heads, key_mask=None, attn_dropout=0.0, keep=None
):
    q = _split_heads(linear(query, params.wq, params.bq), heads)
    k = _split_heads(linear(key, params.wk, params.bk), heads)
    v = _split_heads(linear(value, params.wv, params.bv), heads)
    out = unfused_attention(q, k, v, attn_dropout, keep, key_mask)
    return linear(_merge_heads(out), params.wo, params.bo)


class TestAttentionNodeBits:
    """``attention`` recomputes its probabilities in its backward, and its
    output and gradients have the bits of the separate nodes it stands
    for, with and without dropout, for all queries and the precursor's."""

    # README model heads; 181 slots is above 176 and not a multiple of 8,
    # where the score matmul's rounding can depend on the BLAS threads.
    D, HEADS = 256, 8
    pytestmark = [
        pytest.mark.parametrize("n", [5, 81, 181]),
        pytest.mark.parametrize("p", [0.1, 0.0]),
        pytest.mark.parametrize("last", [False, True], ids=["all-queries", "precursor-query"]),
    ]

    def keep(self, rng, n, p, last):
        shape = (2, self.HEADS, 1 if last else n, n)
        return rng.random(shape) >= p if p else None

    def test_qkv_gradients_have_the_unfused_bits(self, rng, n, p, last):
        # Strided head views of projections, as the encoder hands them over.
        shapes = [(2, 1 if last else n, self.D), (2, n, self.D), (2, n, self.D)]
        arrays = [split_heads(rng.normal(size=shape), self.HEADS) for shape in shapes]
        keep = self.keep(rng, n, p, last)
        mix = Tensor(rng.normal(size=shapes[0]))

        def run(attend):
            q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
            out = attend(q, k, v, p, keep)
            (_merge_heads(out) * mix).sum().backward()
            return [out.data, q.grad, k.grad, v.grad]

        for name, a, b in zip(["out", "q", "k", "v"], run(attention), run(unfused_attention)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_weight_gradients_have_the_unfused_bits(self, rng, n, p, last):
        # Binary64 activations and binary32 weights, as in training.
        x = rng.normal(size=(2, n, self.D))
        keep = self.keep(rng, n, p, last)
        mix = Tensor(rng.normal(size=(2, 1 if last else n, self.D)))
        params = AttentionParams(**{
            f"{kind}{name}": Tensor(
                (rng.normal(size=(self.D, self.D) if kind == "w" else self.D) * 0.06)
                .astype(np.float32),
                requires_grad=True,
            )
            for name in "qkvo" for kind in "wb"
        })

        def run(attend):
            xt = Tensor(x, requires_grad=True)
            for t in vars(params).values():
                t.grad = None
            query = xt[:, 0:1] if last else xt
            out = attend(query, xt, xt, params, self.HEADS, attn_dropout=p, keep=keep)
            (out * mix).sum().backward()
            return [out.data, xt.grad] + [t.grad for t in vars(params).values()]

        fused, unfused = run(multi_head_attention), run(unfused_multi_head_attention)
        for name, a, b in zip(["out", "x", *vars(params)], fused, unfused):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestAttentionNode:
    @pytest.mark.parametrize("p", [0.1, 0.0])
    @pytest.mark.parametrize("last", [False, True], ids=["all-queries", "precursor-query"])
    def test_key_mask_has_the_unfused_bits(self, rng, p, last):
        d, heads = 16, 4
        x = rng.normal(size=(2, 7, d))
        key_mask = np.array([[True] * 7, [True] * 4 + [False] * 3])
        keep = rng.random((2, heads, 1 if last else 7, 7)) >= p if p else None
        mix = Tensor(rng.normal(size=(2, 1 if last else 7, d)))
        params = AttentionParams(**{
            f"{kind}{name}": Tensor(rng.normal(size=(d, d) if kind == "w" else d) * 0.3,
                                    requires_grad=True)
            for name in "qkvo" for kind in "wb"
        })

        def run(attend):
            xt = Tensor(x, requires_grad=True)
            for t in vars(params).values():
                t.grad = None
            query = xt[:, 0:1] if last else xt
            out = attend(query, xt, xt, params, heads, key_mask, attn_dropout=p, keep=keep)
            (out * mix).sum().backward()
            return [out.data, xt.grad] + [t.grad for t in vars(params).values()]

        fused, unfused = run(multi_head_attention), run(unfused_multi_head_attention)
        for name, a, b in zip(["out", "x", *vars(params)], fused, unfused):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        if last:
            # Only the first slot queries; masked keys get no weight, so
            # their slots get no gradient.
            assert not fused[1][1, 4:].any() and fused[1][0, 4:].all()

    def test_keeps_inputs_and_mask_only(self, rng):
        q, k, v = (Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True) for _ in "qkv")
        keep = rng.random((2, 3, 4, 4)) >= 0.5
        kept = [q.data, k.data, v.data, keep]
        out = attention(q, k, v, 0.5, keep)
        assert {id(a) for a in saved_arrays(out._node)} == {id(a) for a in kept}
        # ``v`` is read only for the gradients of ``q`` and ``k``.
        out = attention(Tensor(q.data), Tensor(k.data), v, 0.5, keep)
        assert {id(a) for a in saved_arrays(out._node)} == {id(a) for a in kept} - {id(v.data)}
        key_mask = np.array([[True] * 4, [True, True, False, False]])
        out = attention(q, k, v, 0.5, keep, key_mask)
        assert {id(a) for a in saved_arrays(out._node)} == {id(a) for a in kept + [key_mask]}

    def test_keep_mask_is_checked_as_in_dropout(self, rng):
        q, k, v = (Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True) for _ in "qkv")
        keep = rng.random((2, 3, 4, 4)) >= 0.5
        with pytest.raises(DimensionError, match="keep mask"):
            attention(q, k, v, 0.5, keep[..., :3])
        with pytest.raises(DimensionError, match="keep mask"):
            attention(q, k, v, 0.5, keep[:1])
        with pytest.raises(ConfigError):
            attention(q, k, v, 1.0, keep)
        params = constant_attention(rng, 6)
        x = Tensor(rng.normal(size=(2, 4, 6)), requires_grad=True)
        with pytest.raises(DimensionError, match="keep mask"):
            multi_head_attention(x, x, x, params, 3, attn_dropout=0.5, keep=keep[..., :3])


def constant_attention(rng, d):
    """AttentionParams of random constant weights and zero biases."""
    params = {}
    for name in "qkvo":
        params[f"w{name}"] = Tensor(rng.normal(size=(d, d)) * 0.3)
        params[f"b{name}"] = Tensor(np.zeros(d))
    return AttentionParams(**params)


class TestEncoderShapeGradients:
    """Gradient checks in the shapes and dtypes the encoder uses."""

    def test_attention_one_query_masked_keys(self, rng):
        # The last layer: only the precursor slot queries all keys.
        d, heads = 8, 2
        mask = np.array([[True] * 5, [True, True, True, False, False]])
        mix = Tensor(rng.normal(size=(2, 1, d)))
        consts = constant_attention(rng, d)

        def build(xx, wq, wk):
            params = AttentionParams(**{**vars(consts), "wq": wq, "wk": wk})
            out = multi_head_attention(xx[:, 0:1, :], xx, xx, params, heads, key_mask=mask)
            return out * mix

        check_gradients(
            build,
            rng.normal(size=(2, 5, d)),
            rng.normal(size=(d, d)) * 0.3,
            rng.normal(size=(d, d)) * 0.3,
        )

    def test_attention_float32_keeps_dtype(self, rng):
        d, heads = 8, 2
        mask = np.array([[True] * 5, [True, True, True, False, False]])
        x = rng.normal(size=(2, 5, d))
        wq = rng.normal(size=(d, d)) * 0.3
        wk = rng.normal(size=(d, d)) * 0.3
        mix = rng.normal(size=(2, 5, d))
        consts = constant_attention(rng, d)
        grads = {}
        for dtype in (np.float64, np.float32):
            tq = Tensor(wq.astype(dtype), requires_grad=True)
            tk = Tensor(wk.astype(dtype), requires_grad=True)
            tx = Tensor(x.astype(dtype), requires_grad=True)
            params = AttentionParams(**{
                name: Tensor(t.data.astype(dtype)) for name, t in vars(consts).items()
            } | {"wq": tq, "wk": tk})
            out = multi_head_attention(tx, tx, tx, params, heads, key_mask=mask)
            assert out.dtype == dtype
            (out * Tensor(mix.astype(dtype))).sum().backward()
            grads[dtype] = (tx.grad, tq.grad, tk.grad)
            assert all(g.dtype == dtype for g in grads[dtype])
        for g32, g64 in zip(grads[np.float32], grads[np.float64]):
            assert np.allclose(g32, g64, rtol=1e-4, atol=1e-5)

        q = Tensor(split_heads(x.astype(np.float32), heads), requires_grad=True)
        k = Tensor(split_heads(x.astype(np.float32), heads), requires_grad=True)
        probs = attention_probs(q, k, mask)
        assert probs.dtype == np.float32
        (probs * Tensor(rng.normal(size=probs.shape).astype(np.float32))).sum().backward()
        assert q.grad.dtype == np.float32 and k.grad.dtype == np.float32

    def test_layer_norm_batched_float32_affine(self, rng):
        x = rng.normal(size=(3, 4, 6)) * 2.0 + 0.5
        gain = rng.normal(1.0, 0.2, 6)
        bias = rng.normal(0.0, 0.2, 6)
        mix = rng.normal(size=(3, 4, 6))
        check_gradients(
            lambda xx, gg, bb: layer_norm(xx, gg, bb) * Tensor(mix), x, gain, bias
        )

        tx = Tensor(x, requires_grad=True)
        tg = Tensor(gain.astype(np.float32), requires_grad=True)
        tb = Tensor(bias.astype(np.float32), requires_grad=True)
        (layer_norm(tx, tg, tb) * Tensor(mix)).sum().backward()
        assert tx.grad.dtype == np.float64
        assert tg.grad.dtype == np.float32 and tb.grad.dtype == np.float32
        assert tg.grad.shape == (6,) and tb.grad.shape == (6,)
        xhat = composite_layer_norm(x, np.ones(6), np.zeros(6))
        assert np.allclose(tb.grad, mix.sum(axis=(0, 1)), rtol=1e-6)
        assert np.allclose(tg.grad, (mix * xhat).sum(axis=(0, 1)), rtol=1e-6)


class TestOptimizer:
    def test_global_norm_and_clip(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        grads = {"a": np.full(3, 3.0), "b": np.full(4, 4.0)}
        norm = global_grad_norm(list(grads.values()))
        assert np.isclose(norm, np.sqrt(9 * 3 + 16 * 4))
        clipped, reported = clip_gradients(list(grads.values()), 1.0)
        assert np.isclose(reported, norm)
        assert np.isclose(global_grad_norm(clipped), 1.0)
        # Below the threshold nothing changes.
        small = [np.full(2, 1e-3)]
        out, _ = clip_gradients(small, 1.0)
        assert np.array_equal(out[0], small[0])

    def test_adam_first_step_size(self):
        w = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
        opt = Adam({"w": w}, lr=0.1)
        opt.step({"w": np.array([0.5], dtype=np.float32)})
        # With bias correction the first step is exactly lr in magnitude
        # (up to epsilon), against the gradient sign.
        assert np.isclose(w.data[0], -0.1, atol=1e-3)

    def test_adam_matches_hand_rolled_reference(self, rng):
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        w0 = rng.normal(size=(4,)).astype(np.float32)
        w = Tensor(w0.copy(), requires_grad=True)
        opt = Adam({"w": w}, lr=lr, beta1=b1, beta2=b2)
        ref = w0.astype(np.float64).copy()
        m = np.zeros(4)
        v = np.zeros(4)
        for t in range(1, 6):
            g = rng.normal(size=(4,)).astype(np.float32)
            opt.step({"w": g.copy()})
            g64 = g.astype(np.float64)
            m = b1 * m + (1 - b1) * g64
            v = b2 * v + (1 - b2) * g64 * g64
            mh = m / (1 - b1 ** t)
            vh = v / (1 - b2 ** t)
            ref = ref - lr * mh / (np.sqrt(vh) + eps)
        assert np.allclose(w.data, ref.astype(np.float32), atol=1e-5)

    def test_weight_decay_is_decoupled(self):
        w = Tensor(np.full(3, 2.0, dtype=np.float32), requires_grad=True)
        opt = Adam({"w": w}, lr=0.5, weight_decay=0.1)
        opt.step({"w": np.zeros(3, dtype=np.float32)})
        # Zero gradient: the only movement is -lr * wd * w.
        assert np.allclose(w.data, 2.0 - 0.5 * 0.1 * 2.0)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.1])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_adam_keeps_the_bits_of_the_allocating_formula(self, rng, dtype, weight_decay):
        # The update as written before it reused scratch buffers: one
        # temporary per operation, in the same order.
        def reference_step(p, m, v, g, t, lr, b1, b2, eps):
            dt = p.dtype.type
            m *= dt(b1)
            m += dt(1.0 - b1) * g
            v *= dt(b2)
            v += dt(1.0 - b2) * (g * g)
            m_hat = m / dt(1.0 - b1 ** t)
            v_hat = v / dt(1.0 - b2 ** t)
            p -= dt(lr) * m_hat / (np.sqrt(v_hat) + dt(eps))
            if weight_decay:
                p -= dt(lr * weight_decay) * p

        shapes = {"w": (5, 7), "b": (5,), "table": (11, 3)}
        start = {n: rng.normal(size=sh).astype(dtype) for n, sh in shapes.items()}
        params = {n: Tensor(a.copy(), requires_grad=True) for n, a in start.items()}
        opt = Adam(params, lr=3e-2, weight_decay=weight_decay)
        ref = {n: [a.copy(), np.zeros_like(a), np.zeros_like(a)] for n, a in start.items()}
        for t in range(1, 8):
            grads = {n: rng.normal(size=sh).astype(dtype) for n, sh in shapes.items()}
            opt.step({n: g.copy() for n, g in grads.items()})
            for n, (p, m, v) in ref.items():
                reference_step(p, m, v, grads[n], t, 3e-2, 0.9, 0.999, 1e-8)
        for n, (p, m, v) in ref.items():
            assert params[n].data.tobytes() == p.tobytes(), n
            assert opt.m[n].tobytes() == m.tobytes(), n
            assert opt.v[n].tobytes() == v.tobytes(), n

    def test_uniform_fan_in_bounds(self):
        rng = np.random.default_rng(0)
        w = uniform_fan_in((100, 50), 50, rng)
        bound = 1.0 / np.sqrt(50)
        assert w.data.dtype == np.float32
        assert np.all(np.abs(w.data) <= bound)
        assert np.std(w.data) > bound / 4
