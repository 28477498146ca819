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


def _init_ff(n_out: int, n_hidden: int, n_in: int, rng, dtype) -> FeedForwardParams:
    return FeedForwardParams(
        w1=uniform_fan_in((n_hidden, n_in), n_in, rng, dtype=dtype),
        b1=zeros((n_hidden,), dtype=dtype),
        w2=uniform_fan_in((n_out, n_hidden), n_hidden, rng, dtype=dtype),
        b2=zeros((n_out,), dtype=dtype),
    )


def _init_attention(d: int, rng, dtype) -> AttentionParams:
    def lin(n_out, n_in):
        return uniform_fan_in((n_out, n_in), n_in, rng, dtype=dtype)

    return AttentionParams(
        wq=lin(d, d), bq=zeros((d,), dtype=dtype),
        wk=lin(d, d), bk=zeros((d,), dtype=dtype),
        wv=lin(d, d), bv=zeros((d,), dtype=dtype),
        wo=lin(d, d), bo=zeros((d,), dtype=dtype),
    )


def init_weights(
    cfg: EncoderConfig,
    seed: int,
    head_out: int | None = None,
    dtype=np.float32,
) -> ModelWeights:
    """Build freshly initialized weights; layout is fixed by the config.

    Linear weights draw from U(-1/sqrt(fan_in), 1/sqrt(fan_in)); biases
    start at zero, norm gains at one. The draw order follows the named
    parameter layout, so the same seed and config always produce the
    same weights.
    """
    d = cfg.d
    rng = stream_rng(seed, "init")
    peak_inner = None
    token_table = None
    if cfg.kind == "sin":
        peak_inner = _init_ff(d, d, d, rng, dtype)
    else:
        token_table = uniform_fan_in((cfg.vocab.size, d), d, rng, dtype=dtype)
    peak_outer = _init_ff(d, d, d + 1, rng, dtype)

    layers = []
    for _ in range(cfg.layers):
        layers.append(
            LayerParams(
                norm1_gain=ones((d,), dtype=dtype),
                norm1_bias=zeros((d,), dtype=dtype),
                attn=_init_attention(d, rng, dtype),
                norm2_gain=ones((d,), dtype=dtype),
                norm2_bias=zeros((d,), dtype=dtype),
                ff=_init_ff(d, cfg.ffn_dim, d, rng, dtype),
            )
        )

    head = None
    if head_out is not None:
        head = _init_ff(head_out, d, d, rng, dtype)

    return ModelWeights(
        kind=cfg.kind,
        peak_outer=peak_outer,
        layers=layers,
        peak_inner=peak_inner,
        token_table=token_table,
        head=head,
    )


def weights_from_named(named: dict[str, np.ndarray], cfg: EncoderConfig) -> ModelWeights:
    """Rebuild structured weights from a flat name -> array mapping."""
    head_out = None
    if "head.w2" in named:
        head_out = named["head.w2"].shape[0]
    template = init_weights(cfg, seed=0, head_out=head_out)
    expected = template.named()
    extra_names = sorted(set(named) - set(expected))
    missing = sorted(set(expected) - set(named))
    if missing:
        raise ConfigError(f"weight set is missing parameters: {missing}")
    for name in expected:
        have = np.asarray(named[name])
        want = expected[name].data.shape
        if have.shape != want:
            raise ConfigError(
                f"parameter {name}: shape {have.shape} does not match config shape {want}"
            )
        expected[name].data = have
    template.extra = {
        name: Tensor(np.asarray(named[name]), requires_grad=False)
        for name in extra_names
    }
    return template


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
    order.
    """
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
