"""Set-transformer spectrum encoder with precursor-slot pooling.

The input sequence is [precursor embedding, fragment embeddings...] with
no positional encoding anywhere, so the model is a function of the peak
multiset. All layers but the last are standard pre-norm self-attention
blocks; in the last layer only the precursor-slot query is computed,
end to end, and its output is the spectrum embedding.

Fragments are brought into a canonical order (by m/z, then intensity)
before they enter the sequence. Attention itself is permutation
equivariant, but float reductions are not associative, so canonical
ordering is what turns mathematical symmetry into bit-identical
outputs under input permutation.

``encode_batch`` is the one forward, for training and inference alike.
It runs spectra of one slot count (the precursor plus at most
``max_fragments`` fragments) through one forward each, so nothing is
padded or masked and a row never depends on the rest of the batch.
Training draws its dropout masks as if the batch were padded to its
longest spectrum, so the dropout stream does not depend on the grouping.

Inside ``encode_workers(n)`` the groups run on a process-wide pool of
``n`` threads, in inference with groups larger than one worker's share
split by spectra; results are gathered in group order, so the bits are
those of the serial loop. The masks are drawn before dispatch, on the
calling thread. Outside it, the default, every group runs on the
calling thread. ``cli.main`` opens it with one BLAS thread per worker.

A model's weights are one ordered name -> Tensor table
(``ModelWeights``), in checkpoint order. This module serves it for both
of the package's models, the encoder (``parameter_shapes``) and the
binned property baseline (``properties.baseline_shapes``): one init
(``init_table``), one load that checks every checkpoint record against
the layout (``load_table``), and one inference copy
(``ModelWeights.for_inference``). The forward reads feed-forward and
attention views of the table.

Weights are trained and checkpointed as binary32; activations are
binary64. ``encode_many``, the inference entry point, computes on the
inference copy: binary64 column-major arrays, which multiply to the same
bits as the binary32 originals without the cast numpy would otherwise
make on every matmul. ``cli.load_model`` converts once at load, so the
commands that encode never pay for it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .data.types import Spectrum
from .embed.features import is_normalized, peak_embed_sin, peak_embed_token
from .embed.precision import BINARY64, PrecisionMode
from .embed.sinusoidal import LAMBDA_MAX_DEFAULT, LAMBDA_MIN_DEFAULT, SinusoidalConfig
from .embed.tokens import TokenVocab
from .errors import ConfigError, DataError
from .rng import stream_rng
from .tensor import (
    AttentionParams,
    FeedForwardParams,
    Tensor,
    concat,
    dropout,
    feed_forward,
    layer_norm,
    multi_head_attention,
    no_grad,
    ones,
    uniform_fan_in,
    zeros,
)

MAX_FRAGMENTS_DEFAULT = 512


@dataclass(frozen=True)
class EncoderConfig:
    """The whole model description: encoder shape, peak embedding kind
    with its settings, and the m/z input precision.

    Construction builds the embedding config the kind uses, once:
    ``sinusoidal`` for the sin kind (from lambda_min, lambda_max and d),
    ``vocab`` for the token kind (from resolution and max_mz). The other
    is None, and the other kind's settings are not read.
    """

    d: int = 512
    layers: int = 6
    heads: int = 32
    inner_dim: int | None = None  # feed-forward hidden width; defaults to d
    dropout: float = 0.1
    kind: str = "sin"  # peak embedding kind: "sin" | "token"
    max_fragments: int = MAX_FRAGMENTS_DEFAULT
    lambda_min: float = LAMBDA_MIN_DEFAULT  # sin kind
    lambda_max: float = LAMBDA_MAX_DEFAULT  # sin kind
    resolution: float = 0.1  # token kind
    max_mz: float = 2000.0  # token kind
    precision: PrecisionMode = BINARY64
    sinusoidal: SinusoidalConfig | None = field(default=None, init=False, repr=False)
    vocab: TokenVocab | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for name in ("d", "heads", "inner_dim"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be at least 1, got {value}")
        if self.d % self.heads != 0:
            raise ConfigError(f"d={self.d} not divisible by heads={self.heads}")
        if self.layers < 1:
            raise ConfigError(f"need at least 1 layer, got {self.layers}")
        if not 0 <= self.dropout < 1:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.kind not in ("sin", "token"):
            raise ConfigError(f"peak embedding kind must be sin or token, got {self.kind!r}")
        if self.max_fragments < 4:
            raise ConfigError(f"max_fragments must be at least 4, got {self.max_fragments}")
        if self.kind == "sin":
            sinusoidal = SinusoidalConfig(self.lambda_min, self.lambda_max, self.d)
            object.__setattr__(self, "sinusoidal", sinusoidal)
        else:
            object.__setattr__(self, "vocab", TokenVocab(self.resolution, self.max_mz))

    @property
    def ffn_dim(self) -> int:
        return self.d if self.inner_dim is None else self.inner_dim


class ModelWeights:
    """One model's parameters: an ordered name -> Tensor table.

    The order is the checkpoint's record order, the init's draw order,
    and the order ``apply_step`` hands gradients to ``clip_gradients``,
    whose global norm is summed in it. ``parameter_shapes`` lays out the
    encoder's table (peak embedding, layers, optional property head);
    ``properties.baseline_shapes`` the binned baseline's. ``init_table``
    draws a fresh table, ``load_table`` checks checkpoint records against
    one, and ``for_inference`` copies one for inference. Forward passes
    read ``FeedForwardParams``/``AttentionParams`` views of the table,
    which share its tensors.
    """

    def __init__(self, table: dict[str, Tensor]):
        self._table = table

    def named(self) -> dict[str, Tensor]:
        """The table itself, in its order."""
        return self._table

    def for_inference(self) -> ModelWeights:
        """These weights with binary64 column-major copies of every array
        that ``linear`` and ``layer_norm`` read; ``self`` if they already
        are.

        Activations are binary64. ``linear`` multiplies by ``w.T``, and
        for a binary32 ``w`` numpy casts ``w.T`` into a fresh C-contiguous
        binary64 array on every call (82 MB for the baseline's first
        weight at the default 20,000 bins). ``w.T`` of a Fortran-order
        binary64 ``w`` is exactly that operand, so BLAS runs the same
        kernel and every output keeps its bits, without the per-call copy.
        The token table is only gathered, never multiplied, and stays as
        it is.
        """
        dense = [name for name in self._table if name != "peak.table"]
        if all(
            self._table[n].data.dtype == np.float64 and self._table[n].data.flags.f_contiguous
            for n in dense
        ):
            return self
        table = dict(self._table)
        for name in dense:
            table[name] = Tensor(np.asfortranarray(table[name].data, dtype=np.float64))
        return ModelWeights(table)


def parameter_shapes(cfg: EncoderConfig, head_out: int | None) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every encoder parameter, in table order; the
    property head, with ``head_out`` outputs, comes last."""
    d = cfg.d
    shapes: dict[str, tuple[int, ...]] = {}

    def ff(prefix: str, n_out: int, n_hidden: int, n_in: int):
        shapes[f"{prefix}.w1"] = (n_hidden, n_in)
        shapes[f"{prefix}.b1"] = (n_hidden,)
        shapes[f"{prefix}.w2"] = (n_out, n_hidden)
        shapes[f"{prefix}.b2"] = (n_out,)

    if cfg.kind == "sin":
        ff("peak.inner", d, d, d)
    else:
        shapes["peak.table"] = (cfg.vocab.size, d)
    ff("peak.outer", d, d, d + 1)
    for i in range(cfg.layers):
        shapes[f"layer{i}.norm1.gain"] = (d,)
        shapes[f"layer{i}.norm1.bias"] = (d,)
        for proj in "qkvo":
            shapes[f"layer{i}.attn.w{proj}"] = (d, d)
            shapes[f"layer{i}.attn.b{proj}"] = (d,)
        shapes[f"layer{i}.norm2.gain"] = (d,)
        shapes[f"layer{i}.norm2.bias"] = (d,)
        ff(f"layer{i}.ff", d, cfg.ffn_dim, d)
    if head_out is not None:
        ff("head", head_out, d, d)
    return shapes


def init_table(shapes: dict[str, tuple[int, ...]], seed: int) -> ModelWeights:
    """Fresh binary32 weights of any model's layout.

    2-D weights (linear weights and the token table) draw from
    U(-1/sqrt(fan_in), 1/sqrt(fan_in)) with fan_in their second axis;
    norm gains start at one and biases at zero. Every draw comes from
    the seed's "init" stream in table order, so the same seed and layout
    always give the same weights.
    """
    rng = stream_rng(seed, "init")
    table = {}
    for name, shape in shapes.items():
        if len(shape) == 2:
            table[name] = uniform_fan_in(shape, shape[1], rng)
        elif name.endswith(".gain"):
            table[name] = ones(shape)
        else:
            table[name] = zeros(shape)
    return ModelWeights(table)


def init_weights(cfg: EncoderConfig, seed: int, head_out: int | None = None) -> ModelWeights:
    """Fresh encoder weights (see ``init_table``), with a property head
    of ``head_out`` outputs if given."""
    return init_table(parameter_shapes(cfg, head_out), seed)


def load_table(records: dict[str, np.ndarray], shapes: dict[str, tuple[int, ...]]) -> ModelWeights:
    """Weights from checkpoint records, which must match the layout
    ``shapes`` name for name and shape for shape: a record outside the
    layout, a missing one or one of another shape raises ConfigError
    naming it. The arrays are used as they are, in table order.
    """
    for name in records:
        if name not in shapes:
            raise ConfigError(f"checkpoint record {name!r} is not a parameter of this model")
    table = {}
    for name, want in shapes.items():
        if name not in records:
            raise ConfigError(f"checkpoint has no record {name!r}")
        have = np.asarray(records[name])
        if have.shape != want:
            raise ConfigError(
                f"checkpoint record {name!r}: shape {have.shape} does not match the model's {want}"
            )
        table[name] = Tensor(have, requires_grad=True)
    return ModelWeights(table)


def describe_config(cfg: EncoderConfig) -> str:
    """Canonical key-value text naming the model configuration.

    Its digest is embedded in checkpoints so a checkpoint can refuse to
    load under a different configuration.
    """
    pairs = {
        "schema_version": "1",
        "d": str(cfg.d),
        "layers": str(cfg.layers),
        "heads": str(cfg.heads),
        "inner_dim": str(cfg.ffn_dim),
        "dropout": repr(cfg.dropout),
        "kind": cfg.kind,
        "max_fragments": str(cfg.max_fragments),
        "precision": str(cfg.precision),
    }
    if cfg.kind == "sin":
        pairs["lambda_min"] = repr(cfg.lambda_min)
        pairs["lambda_max"] = repr(cfg.lambda_max)
    else:
        pairs["resolution"] = repr(cfg.resolution)
        pairs["max_mz"] = repr(cfg.max_mz)
    return "".join(f"{k}={v}\n" for k, v in sorted(pairs.items()))


# The encode worker pool, one per process: ``encode_workers`` sizes it and
# ``_map_in_order`` creates it on first use. With one worker, the default,
# every forward runs on the calling thread.
_workers = 1
_pool = None


@contextmanager
def encode_workers(n: int):
    """Within the block, ``encode_batch`` runs its forwards on up to ``n``
    threads; afterwards the pool's threads are joined and the previous
    size is back.

    The threads overlap because numpy releases the GIL inside BLAS calls
    and large array loops. Each should get one BLAS thread (``cli.main``
    pins BLAS before numpy loads), or the two kinds of threads
    oversubscribe the cores. Only one thread at a time may encode.
    """
    global _workers, _pool
    if n < 1:
        raise ConfigError(f"encode workers must be at least 1, got {n}")
    previous, _workers = _workers, n
    try:
        yield
    finally:
        if _pool is not None:
            # Joins the threads. Only an interrupt leaves work queued; drop it.
            _pool.shutdown(cancel_futures=True)
        _workers, _pool = previous, None


def _map_in_order(fn, units: list) -> list:
    """``fn`` of each unit, in unit order. On the pool every unit finishes
    before the first failure in unit order is raised, so no work is left
    running; on the calling thread the first failure stops the rest."""
    global _pool
    if _workers == 1 or len(units) == 1:
        return [fn(unit) for unit in units]
    from concurrent.futures import ThreadPoolExecutor, wait

    if _pool is None:
        _pool = ThreadPoolExecutor(_workers, thread_name_prefix="mzembed-encode")
    futures = [_pool.submit(fn, unit) for unit in units]
    wait(futures)
    return [future.result() for future in futures]


def _slot_arrays(spectra: list[Spectrum], cfg: EncoderConfig) -> np.ndarray:
    """(2, B, n) m/z and intensity of spectra with n slots each: the
    precursor, then the fragments capped to the most intense and ordered
    by (mz, intensity)."""
    rows = []
    for s in spectra:
        if not s.fragments:
            raise DataError(f"spectrum {s.id!r} has no fragments")
        if not is_normalized(s):
            raise DataError(
                f"spectrum {s.id!r} is not normalized; run normalize_intensities first"
            )
        mz, intensity = np.array([(p.mz, p.intensity) for p in s.fragments], dtype=np.float64).T
        if mz.shape[0] > cfg.max_fragments:
            keep = np.lexsort((mz, -intensity))[: cfg.max_fragments]
            mz, intensity = mz[keep], intensity[keep]
        order = np.lexsort((intensity, mz))
        precursor = [[s.precursor.mz], [s.precursor.intensity]]
        rows.append(np.concatenate((precursor, (mz[order], intensity[order])), axis=1))
    return np.stack(rows, axis=1)


def _encode_group(spectra: list[Spectrum], cfg: EncoderConfig, weights: ModelWeights, keeps):
    """One unpadded forward over spectra of one slot count, with dropout
    if ``keeps`` holds each layer's masks for their rows and slots."""
    mz, intensity = _slot_arrays(spectra, cfg)
    t = weights.named()
    outer = FeedForwardParams.of(t, "peak.outer")
    if cfg.kind == "sin":
        inner = FeedForwardParams.of(t, "peak.inner")
        x = peak_embed_sin(mz, intensity, cfg.sinusoidal, inner, outer, cfg.precision)
    else:
        x = peak_embed_token(mz, intensity, cfg.vocab, t["peak.table"], outer)

    training, p, last = keeps is not None, cfg.dropout, cfg.layers - 1
    for i in range(cfg.layers):
        keep_attn, keep_a, keep_f = keeps[i] if training else (None, None, None)
        h = layer_norm(x, t[f"layer{i}.norm1.gain"], t[f"layer{i}.norm1.bias"])
        # The last layer queries, and carries on, only the precursor slot.
        query, x = (h[:, 0:1], x[:, 0:1]) if i == last else (h, x)
        attn = AttentionParams.of(t, f"layer{i}.attn")
        a = multi_head_attention(query, h, h, attn, cfg.heads, attn_dropout=p, keep=keep_attn)
        x = x + dropout(a, p, training, keep=keep_a)
        h = layer_norm(x, t[f"layer{i}.norm2.gain"], t[f"layer{i}.norm2.bias"])
        ff = FeedForwardParams.of(t, f"layer{i}.ff")
        x = x + dropout(feed_forward(h, ff), p, training, keep=keep_f)
    return x.reshape((len(spectra), cfg.d))


def encode_batch(
    spectra: list[Spectrum],
    cfg: EncoderConfig,
    weights: ModelWeights,
    *,
    mode: str = "infer",
    rng=None,
) -> Tensor:
    """Encode spectra to a (batch, d) embedding tensor, rows in input order.

    Spectra share a forward only with spectra of the same slot count, so
    no row is padded and none depends on the rest of the batch. Inference
    mode is deterministic; training mode applies dropout and requires an
    rng. The forwards run on the worker pool (``encode_workers``); in
    inference a group larger than one worker's share of the spectra is
    split between workers. A failing group raises DataError naming its
    spectra, the first such group in group order.
    """
    if mode not in ("infer", "train"):
        raise ConfigError(f"mode must be infer or train, got {mode!r}")
    if mode == "train" and rng is None:
        raise ConfigError("training mode requires an rng for dropout")
    if not spectra:
        raise DataError("cannot encode an empty spectrum batch")
    slots = [1 + min(len(s.fragments), cfg.max_fragments) for s in spectra]
    groups: dict[int, list[int]] = {}
    for i, n in enumerate(slots):
        groups.setdefault(n, []).append(i)
    keeps = None
    if mode == "train" and cfg.dropout > 0.0:
        # Each layer's masks (attention probabilities, attention output,
        # feed-forward output), drawn in layer order at the shapes of the
        # batch padded to its longest spectrum: one stream for any grouping.
        b, h, w, d = len(spectra), cfg.heads, max(slots), cfg.d
        keeps = [
            tuple(rng.random(sh) >= cfg.dropout for sh in ((b, h, q, w), (b, q, d), (b, q, d)))
            for q in [w] * (cfg.layers - 1) + [1]
        ]
    units = list(groups.values())
    if mode == "infer":
        # Weight-gradient sums run over a whole group, so only inference
        # may split one; its rows come out the same either way.
        share = -(-len(spectra) // _workers)
        units = [rows[i:i + share] for rows in units for i in range(0, len(rows), share)]

    def run(rows: list[int]) -> Tensor:
        n = slots[rows[0]]
        unit_keeps = None if keeps is None else [
            (attn[rows, :, :n, :n], a[rows, :n], f[rows, :n]) for attn, a, f in keeps
        ]
        try:
            return _encode_group([spectra[i] for i in rows], cfg, weights, unit_keeps)
        except Exception as exc:
            noun = "spectrum" if len(groups[n]) == 1 else "spectra"
            names = ", ".join(repr(spectra[i].id) for i in groups[n])
            raise DataError(f"failed to encode {noun} {names}: {exc}") from exc

    outs = _map_in_order(run, units)
    return concat(outs, axis=0)[np.argsort(np.concatenate(units))]


def encode_spectrum(
    spectrum: Spectrum,
    cfg: EncoderConfig,
    weights: ModelWeights,
    *,
    mode: str = "infer",
    rng=None,
) -> Tensor:
    """Encode one spectrum to a (d,) embedding tensor."""
    batch = encode_batch([spectrum], cfg, weights, mode=mode, rng=rng)
    return batch.reshape((cfg.d,))


def encode_many(
    spectra: list[Spectrum], cfg: EncoderConfig, weights: ModelWeights
) -> np.ndarray:
    """Encode spectra in inference mode to a (len(spectra), d) float64 array.

    Each row equals encode_spectrum of that spectrum alone, whatever else
    is in the list and however many workers run it (see ``encode_batch``
    and ``encode_workers``). Binary32 weights are converted once per call
    (see ``ModelWeights.for_inference``); the output bits are the same.
    """
    if not spectra:
        return np.empty((0, cfg.d), dtype=np.float64)
    with no_grad():
        return encode_batch(spectra, cfg, weights.for_inference()).data
