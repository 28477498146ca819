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

Weights are trained and checkpointed as binary32; activations are
binary64. ``encode_many``, the one inference encode path, computes on
binary64 column-major copies of the weights (``ModelWeights.for_inference``),
which multiply to the same bits as the binary32 originals without the
cast numpy would otherwise make on every matmul. ``cli.load_model``
converts once at load, so the commands that encode never pay for it.
"""

from __future__ import annotations

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


@dataclass
class LayerParams:
    norm1_gain: Tensor
    norm1_bias: Tensor
    attn: AttentionParams
    norm2_gain: Tensor
    norm2_bias: Tensor
    ff: FeedForwardParams

    def named(self, prefix: str) -> dict[str, Tensor]:
        out = {
            f"{prefix}.norm1.gain": self.norm1_gain,
            f"{prefix}.norm1.bias": self.norm1_bias,
        }
        out.update(self.attn.named(f"{prefix}.attn"))
        out[f"{prefix}.norm2.gain"] = self.norm2_gain
        out[f"{prefix}.norm2.bias"] = self.norm2_bias
        out.update(self.ff.named(f"{prefix}.ff"))
        return out


@dataclass
class ModelWeights:
    """All trainable parameters, in a named, checkpointable layout."""

    kind: str
    peak_outer: FeedForwardParams
    layers: list[LayerParams]
    peak_inner: FeedForwardParams | None = None  # sin kind only
    token_table: Tensor | None = None  # token kind only
    head: FeedForwardParams | None = None  # property regression head
    extra: dict[str, Tensor] = field(default_factory=dict)  # scaler constants etc.

    def named(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        if self.kind == "sin":
            out.update(self.peak_inner.named("peak.inner"))
        else:
            out["peak.table"] = self.token_table
        out.update(self.peak_outer.named("peak.outer"))
        for i, layer in enumerate(self.layers):
            out.update(layer.named(f"layer{i}"))
        if self.head is not None:
            out.update(self.head.named("head"))
        out.update(self.extra)
        return out

    def trainable(self) -> dict[str, Tensor]:
        named = self.named()
        return {k: v for k, v in named.items() if k not in self.extra}

    def parameter_count(self) -> int:
        return sum(int(np.prod(t.data.shape)) for t in self.trainable().values())

    def for_inference(self) -> ModelWeights:
        """These weights with binary64 column-major copies of every array
        that ``linear`` and ``layer_norm`` read; ``self`` if they already
        are.

        Activations are binary64. ``linear`` multiplies by ``w.T``, and
        for a binary32 ``w`` numpy casts ``w.T`` into a fresh C-contiguous
        binary64 array on every call. ``w.T`` of a Fortran-order binary64
        ``w`` is exactly that operand, so BLAS runs the same kernel and
        every output keeps its bits, without the per-call copy. The token
        table is only gathered, never multiplied, and stays as it is.
        """
        params = self.trainable()
        dense = [name for name in params if name != "peak.table"]
        if all(
            params[n].data.dtype == np.float64 and params[n].data.flags.f_contiguous
            for n in dense
        ):
            return self
        for name in dense:
            params[name] = Tensor(np.asfortranarray(params[name].data, dtype=np.float64))
        return _assemble(self.kind, len(self.layers), params, self.extra)


def _parameter_shapes(cfg: EncoderConfig, head_out: int | None) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every trainable parameter, in ``named()`` order."""
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


def _assemble(
    kind: str,
    n_layers: int,
    params: dict[str, Tensor],
    extra: dict[str, Tensor] | None = None,
) -> ModelWeights:
    """Structured weights from a name -> tensor mapping in the named layout."""

    def ff(prefix: str) -> FeedForwardParams:
        return FeedForwardParams(*(params[f"{prefix}.{n}"] for n in ("w1", "b1", "w2", "b2")))

    def layer(i: int) -> LayerParams:
        p = f"layer{i}"
        attn = AttentionParams(
            **{n: params[f"{p}.attn.{n}"] for n in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")}
        )
        return LayerParams(
            norm1_gain=params[f"{p}.norm1.gain"],
            norm1_bias=params[f"{p}.norm1.bias"],
            attn=attn,
            norm2_gain=params[f"{p}.norm2.gain"],
            norm2_bias=params[f"{p}.norm2.bias"],
            ff=ff(f"{p}.ff"),
        )

    return ModelWeights(
        kind=kind,
        peak_outer=ff("peak.outer"),
        layers=[layer(i) for i in range(n_layers)],
        peak_inner=ff("peak.inner") if kind == "sin" else None,
        token_table=params.get("peak.table"),
        head=ff("head") if "head.w1" in params else None,
        extra=dict(extra or {}),
    )


def init_weights(
    cfg: EncoderConfig,
    seed: int,
    head_out: int | None = None,
    dtype=np.float32,
) -> ModelWeights:
    """Build freshly initialized weights; layout is fixed by the config.

    Linear weights and the token table draw from
    U(-1/sqrt(fan_in), 1/sqrt(fan_in)) with fan_in their second axis;
    biases start at zero, norm gains at one. The draw order follows the
    named parameter layout, so the same seed and config always produce
    the same weights.
    """
    rng = stream_rng(seed, "init")
    params = {}
    for name, shape in _parameter_shapes(cfg, head_out).items():
        if len(shape) == 2:
            params[name] = uniform_fan_in(shape, shape[1], rng, dtype=dtype)
        elif name.endswith(".gain"):
            params[name] = ones(shape, dtype=dtype)
        else:
            params[name] = zeros(shape, dtype=dtype)
    return _assemble(cfg.kind, cfg.layers, params)


def weights_from_named(named: dict[str, np.ndarray], cfg: EncoderConfig) -> ModelWeights:
    """Rebuild structured weights from a flat name -> array mapping.

    The layout comes from the config alone; names outside it become
    ``extra`` constants.
    """
    head_out = named["head.w2"].shape[0] if "head.w2" in named else None
    shapes = _parameter_shapes(cfg, head_out)
    missing = sorted(set(shapes) - set(named))
    if missing:
        raise ConfigError(f"weight set is missing parameters: {missing}")
    params = {}
    for name, want in shapes.items():
        have = np.asarray(named[name])
        if have.shape != want:
            raise ConfigError(
                f"parameter {name}: shape {have.shape} does not match config shape {want}"
            )
        params[name] = Tensor(have, requires_grad=True)
    extra = {
        name: Tensor(np.asarray(named[name]), requires_grad=False)
        for name in sorted(set(named) - set(shapes))
    }
    return _assemble(cfg.kind, cfg.layers, params, extra)


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


def _canonical_fragments(spectrum: Spectrum, cfg: EncoderConfig):
    """Cap to the most intense fragments, then order by (mz, intensity)."""
    mz = np.array([p.mz for p in spectrum.fragments], dtype=np.float64)
    intensity = np.array([p.intensity for p in spectrum.fragments], dtype=np.float64)
    if mz.shape[0] > cfg.max_fragments:
        keep = np.lexsort((mz, -intensity))[: cfg.max_fragments]
        mz, intensity = mz[keep], intensity[keep]
    order = np.lexsort((intensity, mz))
    return mz[order], intensity[order]


def _prepare_batch(spectra: list[Spectrum], cfg: EncoderConfig):
    """Pad spectra into (B, N) m/z / intensity arrays plus a key mask."""
    if not spectra:
        raise DataError("cannot encode an empty spectrum batch")
    rows = []
    for s in spectra:
        if not s.fragments:
            raise DataError(f"spectrum {s.id!r} has no fragments")
        if not is_normalized(s):
            raise DataError(
                f"spectrum {s.id!r} is not normalized; run normalize_intensities first"
            )
        mz, intensity = _canonical_fragments(s, cfg)
        rows.append(
            (
                np.concatenate(([s.precursor.mz], mz)),
                np.concatenate(([s.precursor.intensity], intensity)),
            )
        )
    n_max = max(r[0].shape[0] for r in rows)
    batch = len(rows)
    mz = np.zeros((batch, n_max), dtype=np.float64)
    intensity = np.zeros((batch, n_max), dtype=np.float64)
    mask = np.zeros((batch, n_max), dtype=bool)
    for i, (row_mz, row_int) in enumerate(rows):
        n = row_mz.shape[0]
        mz[i, :n] = row_mz
        intensity[i, :n] = row_int
        mask[i, :n] = True
    return mz, intensity, mask


def encode_batch(
    spectra: list[Spectrum],
    cfg: EncoderConfig,
    weights: ModelWeights,
    *,
    mode: str = "infer",
    rng=None,
) -> Tensor:
    """Encode spectra to a (batch, d) embedding tensor.

    Inference mode is deterministic; training mode applies dropout and
    requires an rng. Padded slots are excluded from attention via the
    key mask and can never reach the precursor-slot output.
    """
    if mode not in ("infer", "train"):
        raise ConfigError(f"mode must be infer or train, got {mode!r}")
    training = mode == "train"
    if training and rng is None:
        raise ConfigError("training mode requires an rng for dropout")
    p = cfg.dropout if training else 0.0

    mz, intensity, mask = _prepare_batch(spectra, cfg)
    if cfg.kind == "sin":
        x = peak_embed_sin(
            mz, intensity, cfg.sinusoidal, weights.peak_inner, weights.peak_outer,
            cfg.precision,
        )
    else:
        x = peak_embed_token(mz, intensity, cfg.vocab, weights.token_table, weights.peak_outer)

    full_mask = None if bool(mask.all()) else mask
    for layer in weights.layers[:-1]:
        h = layer_norm(x, layer.norm1_gain, layer.norm1_bias)
        a = multi_head_attention(
            h, h, h, layer.attn, cfg.heads,
            key_mask=full_mask, attn_dropout=p, training=training, rng=rng,
        )
        x = x + dropout(a, p, training=training, rng=rng)
        h = layer_norm(x, layer.norm2_gain, layer.norm2_bias)
        f = feed_forward(h, layer.ff)
        x = x + dropout(f, p, training=training, rng=rng)

    # Final layer: only the precursor slot is queried and carried through.
    layer = weights.layers[-1]
    h = layer_norm(x, layer.norm1_gain, layer.norm1_bias)
    a = multi_head_attention(
        h[:, 0:1, :], h, h, layer.attn, cfg.heads,
        key_mask=full_mask, attn_dropout=p, training=training, rng=rng,
    )
    x0 = x[:, 0:1, :] + dropout(a, p, training=training, rng=rng)
    h0 = layer_norm(x0, layer.norm2_gain, layer.norm2_bias)
    f0 = feed_forward(h0, layer.ff)
    out = x0 + dropout(f0, p, training=training, rng=rng)
    return out.reshape((len(spectra), cfg.d))


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

    Spectra share a batch only with spectra of the same slot count, so
    no row is padded and each row equals encode_spectrum of that
    spectrum alone, whatever else is in the list. Rows follow the input
    order. Binary32 weights are converted once per call (see
    ``ModelWeights.for_inference``); the output bits are the same.
    """
    weights = weights.for_inference()
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(spectra):
        groups.setdefault(1 + min(len(s.fragments), cfg.max_fragments), []).append(i)
    out = np.empty((len(spectra), cfg.d), dtype=np.float64)
    with no_grad():
        for rows in groups.values():
            group = [spectra[i] for i in rows]
            try:
                emb = encode_batch(group, cfg, weights, mode="infer")
            except Exception as exc:
                noun = "spectrum" if len(group) == 1 else "spectra"
                names = ", ".join(repr(s.id) for s in group)
                raise DataError(f"failed to encode {noun} {names}: {exc}") from exc
            out[rows] = emb.data
    return out
