"""Acceptance suite: one module-level test per numbered criterion.

Every test states a falsifiable claim about the released behavior and
checks it against an independent oracle or an engineered dataset where
the expected outcome is known by construction. The hook in conftest.py
prints one pass/fail line per criterion at the end of the run.

Numbered claims:

 1. every differentiable tensor op passes a central finite-difference
    gradient check at 100 sampled coordinates per op
 2. sinusoidal wavelength endpoints, the per-pair Pythagorean identity,
    and the m/z = 0 pattern
 3. reduced-precision m/z casts match an exact rational rounding oracle,
    binary16 visibly shifts fine channels, binary32 does not
 4. fragment order never changes an inference embedding, bit for bit
 5. the modified cosine kernel equals an exhaustive maximal-matching
    oracle on small spectra
 6. tanimoto, R-squared, the label scaler, and macro-averaged search
    accuracy each match brute-force reimplementations
 7. pair sampling is uniform over similarity bins on a dataset built to
    populate every bin
 8. a small siamese model overfits its training pairs and retrieves
    every training spectrum at rank 1
 9. the property head overfits its training labels, and the transformer
    beats a binned baseline on unseen structures when labels follow
    precursor mass
10. binary64 inputs beat binary16 inputs when labels depend only on
    fractional mass, across three seeds
11. MGF and checkpoint round trips are byte-identical, and fixed-seed
    training reruns are too
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from conftest import toy_dataset, toy_molecule, toy_spectrum
from ieee754_oracle import round_to_format
from test_kernels import brute_force_score

from mzembed.data import (
    MoleculeRecord,
    Peak,
    Spectrum,
    load_mgf,
    parse_mgf,
    save_mgf,
    serialize_mgf,
)
from mzembed.embed import (
    PrecisionMode,
    SinusoidalConfig,
    cast_mz,
    normalize_intensities,
    sinusoidal_embed,
    wavelengths,
)
from mzembed.encoder import (
    EncoderConfig,
    describe_config,
    encode_spectrum,
    init_weights,
)
from mzembed.kernels import score_modified_cosine
from mzembed.properties import LabelScaler, r2_score, train_properties
from mzembed.rng import stream_rng
from mzembed.search import build_index, evaluate_search, search
from mzembed.siamese import (
    bin_of,
    build_similarity_bins,
    sample_uniform_pairs,
    tanimoto,
    train_siamese,
)
from mzembed.tensor import (
    AttentionParams,
    FeedForwardParams,
    Tensor,
    concat,
    cosine_similarity,
    dropout,
    feed_forward,
    gather_rows,
    layer_norm,
    linear,
    load_checkpoint,
    multi_head_attention,
    relu,
    save_checkpoint,
    softmax,
)
from mzembed.training import TrainConfig


# ------------------------------------------------------------------
# criterion 1: finite-difference gradient checks for every op
# ------------------------------------------------------------------


def _fd_worst_error(build, arrays, coord_rng, n_points=100, h=1e-5):
    """Worst relative error between backward() and a central difference.

    ``build`` maps one Tensor per input array to an output tensor; the
    scalar under test is the sum of that output. Coordinates are sampled
    without replacement across all inputs.
    """
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    (out.sum() if out.data.ndim else out).backward()

    def value_with(pos, replacement):
        probe = [Tensor(a.copy()) for a in arrays]
        probe[pos] = Tensor(replacement)
        v = build(*probe)
        return float((v.sum() if v.data.ndim else v).data)

    coords = [
        (pos, idx) for pos, a in enumerate(arrays) for idx in np.ndindex(a.shape)
    ]
    assert len(coords) >= n_points, "case too small to sample 100 coordinates"
    chosen = coord_rng.choice(len(coords), size=n_points, replace=False)
    worst = 0.0
    for flat in chosen:
        pos, idx = coords[int(flat)]
        plus = arrays[pos].copy()
        plus[idx] += h
        minus = arrays[pos].copy()
        minus[idx] -= h
        numeric = (value_with(pos, plus) - value_with(pos, minus)) / (2.0 * h)
        analytic = float(tensors[pos].grad[idx])
        denom = max(abs(analytic), abs(numeric), 1.0)
        worst = max(worst, abs(analytic - numeric) / denom)
    return worst


def _gradient_cases():
    """(name, build, input arrays) for every differentiable operation.

    Ops whose plain sum has a constant or trivial gradient (reshape,
    softmax, concat and friends) are multiplied by a fixed constant
    tensor so the check cannot pass vacuously. Every case exposes at
    least 100 input coordinates.
    """
    rng = np.random.default_rng(7)

    def n(*shape):
        return rng.normal(0.0, 1.0, shape)

    def pos(*shape):
        return rng.uniform(0.5, 2.0, shape)

    def const(*shape):
        return Tensor(rng.normal(0.0, 1.0, shape))

    relu_in = n(8, 13)
    relu_in += 0.2 * np.sign(relu_in)  # keep values off the kink

    c_out = const(8, 13)
    c_swap = const(13, 8)
    c_get = const(5, 7)
    c_lin = const(6, 7)
    c_ff = const(5, 6)
    c_gather = const(6, 9)
    c_cat = const(8, 13)

    heads = 2
    attn_names = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")

    def build_attn(mask):
        def run(q, *flat):
            params = AttentionParams(**dict(zip(attn_names, flat)))
            return multi_head_attention(q, q, q, params, heads, key_mask=mask)

        return run

    attn_arrays = [n(2, 5, 8)]
    for _ in range(4):
        attn_arrays.append(rng.normal(0.0, 0.5, (8, 8)))
        attn_arrays.append(rng.normal(0.0, 0.1, 8))
    key_mask = np.array([[True] * 5, [True, True, True, False, False]])

    idx = np.array([0, 3, 3, 7, 11, 5])

    return [
        ("add", lambda x, y: x + y, [n(8, 13), n(8, 13)]),
        ("sub", lambda x, y: x - y, [n(8, 13), n(8, 13)]),
        ("neg", lambda x: -x, [n(8, 13)]),
        ("mul", lambda x, y: x * y, [n(8, 13), n(8, 13)]),
        ("div", lambda x, y: x / y, [n(8, 13), pos(8, 13)]),
        ("pow", lambda x: x**1.7, [pos(8, 13)]),
        ("sqrt", lambda x: x.sqrt(), [pos(8, 13)]),
        ("exp", lambda x: x.exp(), [n(8, 13)]),
        ("log", lambda x: x.log(), [pos(8, 13)]),
        ("matmul", lambda x, y: x @ y, [n(2, 4, 5), n(2, 5, 6)]),
        ("sum", lambda x: (x.sum(axis=1) ** 2.0), [n(8, 13)]),
        ("mean", lambda x: (x.mean(axis=0) ** 2.0), [n(8, 13)]),
        ("reshape", lambda x: x.reshape(13, 8) * c_swap, [n(8, 13)]),
        ("swapaxes", lambda x: x.swapaxes(0, 1) * c_swap, [n(8, 13)]),
        ("getitem", lambda x: x[2:7, ::2] * c_get, [n(8, 13)]),
        ("astype", lambda x: x.astype(np.float64) * c_out, [n(8, 13)]),
        ("concat", lambda x, y: concat([x, y], axis=1) * c_cat, [n(8, 7), n(8, 6)]),
        ("gather_rows", lambda t: gather_rows(t, idx) * c_gather, [n(12, 9)]),
        ("relu", lambda x: relu(x) * c_out, [relu_in]),
        ("softmax", lambda x: softmax(x, axis=-1) * c_out, [n(8, 13)]),
        (
            "layer_norm",
            lambda x, g, b: layer_norm(x, g, b) * c_out,
            [n(8, 13), rng.normal(1.0, 0.2, 13), rng.normal(0.0, 0.2, 13)],
        ),
        (
            "linear",
            lambda x, w, b: linear(x, w, b) * c_lin,
            [n(6, 9), rng.normal(0.0, 0.5, (7, 9)), rng.normal(0.0, 0.1, 7)],
        ),
        (
            "feed_forward",
            lambda x, w1, b1, w2, b2: feed_forward(
                x, FeedForwardParams(w1=w1, b1=b1, w2=w2, b2=b2)
            )
            * c_ff,
            [
                n(5, 6),
                rng.normal(0.0, 0.5, (8, 6)),
                rng.normal(0.0, 0.1, 8),
                rng.normal(0.0, 0.5, (6, 8)),
                rng.normal(0.0, 0.1, 6),
            ],
        ),
        ("attention", build_attn(None), [a.copy() for a in attn_arrays]),
        ("attention_masked", build_attn(key_mask), [a.copy() for a in attn_arrays]),
        (
            "dropout",
            lambda x: dropout(x, 0.3, training=True, rng=stream_rng(11, "fd-dropout"))
            * c_out,
            [n(8, 13)],
        ),
        ("cosine_similarity", cosine_similarity, [n(4, 13), n(4, 13)]),
    ]


def test_criterion_01_gradient_checks():
    """Analytic gradients match h=1e-5 central differences to 1e-4."""
    start = time.perf_counter()
    coord_rng = np.random.default_rng(13)
    failures = []
    for name, build, arrays in _gradient_cases():
        worst = _fd_worst_error(build, arrays, coord_rng)
        if worst >= 1e-4:
            failures.append(f"{name}: worst relative error {worst:.3e}")
    assert not failures, "; ".join(failures)
    assert time.perf_counter() - start < 120.0


# ------------------------------------------------------------------
# criterion 2: sinusoidal wavelength range and unit-circle identity
# ------------------------------------------------------------------


def test_criterion_02_sinusoidal_identities():
    """Wavelengths span 10^-2.5 to 10^3.3 Da; each pair lies on the unit
    circle; m/z = 0 embeds as the (0, 1, 0, 1, ...) pattern."""
    cfg = SinusoidalConfig()
    wl = wavelengths(cfg)
    lo, hi = 10.0**-2.5, 10.0**3.3
    assert abs(float(wl[0]) - lo) <= math.ulp(lo)
    assert abs(float(wl[-1]) - hi) <= math.ulp(hi)

    rng = np.random.default_rng(21)
    mz = rng.uniform(0.0, 2500.0, 10_000)
    emb = sinusoidal_embed(mz, cfg)
    radius = emb[:, 0::2] ** 2 + emb[:, 1::2] ** 2
    assert float(np.max(np.abs(radius - 1.0))) <= 1e-12

    zero = sinusoidal_embed(np.array([0.0]), cfg)
    assert np.array_equal(zero[0], np.tile([0.0, 1.0], cfg.d // 2))


# ------------------------------------------------------------------
# criterion 3: reduced-precision casts against an exact rounding oracle
# ------------------------------------------------------------------


def test_criterion_03_precision_grid():
    """On a 3600-point grid with 1/16 Da structure in [100, 1000) Da,
    binary16 casts shift at least one fine channel by 0.1 or more for at
    least 95% of points while binary32 stays within 1e-4 everywhere, and
    both casts agree with an exact rational round-to-nearest-even
    oracle."""
    cfg = SinusoidalConfig()
    das = np.arange(100.0, 1000.0, 4.0)
    odds = np.arange(1, 32, 2) / 32.0
    grid = (das[:, None] + odds[None, :]).ravel()
    assert grid.size == 3600

    for bits in (16, 32):
        casted = cast_mz(grid, PrecisionMode(bits))
        oracle = np.array([round_to_format(float(x), bits) for x in grid])
        assert np.array_equal(casted, oracle)

    e64 = sinusoidal_embed(grid, cfg)
    e16 = sinusoidal_embed(grid, cfg, PrecisionMode(16))
    e32 = sinusoidal_embed(grid, cfg, PrecisionMode(32))

    fine = np.repeat(wavelengths(cfg) < 0.25, 2)
    assert int(fine.sum()) == 168  # 84 sine/cosine pairs under 0.25 Da
    shifted = (np.abs(e16 - e64)[:, fine] >= 0.1).any(axis=1)
    assert float(shifted.mean()) >= 0.95
    assert float(np.max(np.abs(e32 - e64))) <= 1e-4


# ------------------------------------------------------------------
# criterion 4: fragment order cannot change inference output
# ------------------------------------------------------------------


def test_criterion_04_permutation_invariance():
    """1,000 random fragment permutations across 20 spectra all produce
    bit-identical binary64 embeddings."""
    spectra, _ = toy_dataset(5, 4, seed=6)
    cfg = EncoderConfig(
        d=32, layers=2, heads=4, inner_dim=32, dropout=0.0, max_fragments=32
    )
    weights = init_weights(cfg, seed=0)
    rng = np.random.default_rng(99)
    checked = 0
    for spec in spectra:
        reference = encode_spectrum(spec, cfg, weights).data.tobytes()
        for _ in range(50):
            order = rng.permutation(len(spec.fragments))
            shuffled = replace(
                spec, fragments=tuple(spec.fragments[i] for i in order)
            )
            out = encode_spectrum(shuffled, cfg, weights).data.tobytes()
            assert out == reference
            checked += 1
    assert checked == 1000


# ------------------------------------------------------------------
# criterion 5: modified cosine against exhaustive matching
# ------------------------------------------------------------------


def _separated_peaks(rng, n):
    """Sorted m/z values with gaps of at least 0.4 Da."""
    base = np.sort(rng.choice(800, size=n, replace=False)).astype(np.float64)
    return 100.0 + base + rng.uniform(0.2, 0.8, n)


def test_criterion_05_modified_cosine_oracle():
    """The matching kernel equals an exhaustive maximal-matching oracle
    on 500 random pairs of up to six peaks, and self pairs score 1."""
    start = time.perf_counter()
    rng = np.random.default_rng(17)
    for _ in range(500):
        na = int(rng.integers(1, 7))
        nb = int(rng.integers(1, 7))
        mz_a = np.sort(rng.uniform(100.0, 120.0, na))
        mz_b = np.sort(rng.uniform(100.0, 120.0, nb))
        int_a = rng.uniform(0.05, 1.0, na)
        int_b = rng.uniform(0.05, 1.0, nb)
        prec_diff = float(rng.uniform(-5.0, 5.0))
        tol = float(rng.uniform(0.05, 2.0))
        got = score_modified_cosine(mz_a, int_a, mz_b, int_b, prec_diff, tol)
        want = brute_force_score(mz_a, int_a, mz_b, int_b, prec_diff, tol)
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        mz = _separated_peaks(rng, n)
        intensity = rng.uniform(0.05, 1.0, n)
        score = score_modified_cosine(mz, intensity, mz, intensity, 0.0, 0.1)
        assert abs(score - 1.0) <= 1e-12
    assert time.perf_counter() - start < 60.0


# ------------------------------------------------------------------
# criterion 6: metric oracles
# ------------------------------------------------------------------


def test_criterion_06_metric_oracles():
    """Tanimoto, R-squared, the label scaler, and macro-averaged search
    accuracy each match a brute-force reimplementation on 1,000
    randomized instances, including the analytic anchor cases."""
    rng = np.random.default_rng(33)

    # tanimoto against set arithmetic
    for _ in range(1000):
        width = int(rng.integers(1, 64))
        a = (rng.random(width) < rng.uniform(0.1, 0.9)).astype(np.uint8)
        b = (rng.random(width) < rng.uniform(0.1, 0.9)).astype(np.uint8)
        set_a = {i for i in range(width) if a[i]}
        set_b = {i for i in range(width) if b[i]}
        union = len(set_a | set_b)
        want = len(set_a & set_b) / union if union else 0.0
        assert math.isclose(tanimoto(a, b), want, rel_tol=0.0, abs_tol=1e-15)
    a = np.zeros(8, np.uint8)
    a[[1, 2, 3]] = 1
    b = np.zeros(8, np.uint8)
    b[[2, 3, 4]] = 1
    assert tanimoto(a, b) == 0.5

    # R-squared against the summation formula
    for _ in range(1000):
        m = int(rng.integers(2, 40))
        actual = rng.normal(0.0, 2.0, m)
        predicted = actual + rng.normal(0.0, float(rng.uniform(0.0, 2.0)), m)
        ss_res = sum((p - t) ** 2 for p, t in zip(predicted, actual))
        mean = sum(actual) / m
        ss_tot = sum((t - mean) ** 2 for t in actual)
        want = 1.0 - ss_res / ss_tot
        assert math.isclose(r2_score(predicted, actual), want, rel_tol=1e-9, abs_tol=1e-12)
    anchor = rng.normal(0.0, 1.0, 25)
    assert r2_score(np.full(25, anchor.mean()), anchor) == 0.0

    # label scaler against loop-computed population statistics
    for _ in range(1000):
        rows = int(rng.integers(3, 25))
        labels = rng.normal(0.0, 3.0, (rows, 10)) * rng.uniform(0.5, 2.0, 10)
        scaler = LabelScaler.fit(labels)
        for j in range(10):
            column = labels[:, j]
            mean = sum(column) / rows
            var = sum((v - mean) ** 2 for v in column) / rows
            assert math.isclose(scaler.mean[j], mean, rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(
                scaler.std[j], math.sqrt(var), rel_tol=1e-12, abs_tol=1e-12
            )
        back = scaler.invert(scaler.apply(labels))
        assert np.allclose(back, labels, rtol=1e-12, atol=1e-9)

    # macro-averaged accuracy against a hand recompute
    cfg = EncoderConfig(
        d=8, layers=1, heads=2, inner_dim=8, dropout=0.0, max_fragments=8
    )
    weights = init_weights(cfg, seed=1)
    for trial in range(1000):
        local = np.random.default_rng(10_000 + trial)
        molecules = {
            f"m{i}": toy_molecule(f"m{i}", local, n_bits=16, density=0.4)
            for i in range(3)
        }
        index_spectra = [
            toy_spectrum(f"x{j}", f"m{j % 3}", local, n_peaks=(3, 6), mz_range=(100, 400))
            for j in range(4)
        ]
        queries = [
            toy_spectrum(
                f"q{j}",
                f"m{int(local.integers(3))}",
                local,
                n_peaks=(3, 6),
                mz_range=(100, 400),
            )
            for j in range(3)
        ]
        index = build_index(index_spectra, cfg, weights)
        report = evaluate_search(queries, index, molecules, cfg, weights, threshold=0.6)

        exact_by_structure: dict[str, list[float]] = {}
        approx_by_structure: dict[str, list[float]] = {}
        for query in queries:
            emb = encode_spectrum(query, cfg, weights).data.reshape(-1)
            scores = index.matrix @ (emb / np.linalg.norm(emb))
            best = min(
                range(len(index.spectrum_ids)),
                key=lambda r: (-scores[r], index.spectrum_ids[r]),
            )
            hit_structure = index.structure_ids[best]
            similarity = tanimoto(
                molecules[hit_structure].fingerprint,
                molecules[query.structure_id].fingerprint,
            )
            exact_by_structure.setdefault(query.structure_id, []).append(
                1.0 if hit_structure == query.structure_id else 0.0
            )
            approx_by_structure.setdefault(query.structure_id, []).append(
                1.0 if similarity >= 0.6 else 0.0
            )
        want_exact = float(
            np.mean([np.mean(v) for v in exact_by_structure.values()])
        )
        want_approx = float(
            np.mean([np.mean(v) for v in approx_by_structure.values()])
        )
        assert math.isclose(report.exact, want_exact, rel_tol=0.0, abs_tol=1e-12)
        assert math.isclose(
            report.approximate, want_approx, rel_tol=0.0, abs_tol=1e-12
        )


# ------------------------------------------------------------------
# criterion 7: uniform sampling over similarity bins
# ------------------------------------------------------------------


def test_criterion_07_pair_sampling_uniformity():
    """On a dataset engineered so every similarity bin is reachable,
    10,000 sampled pairs pass a chi-square test against uniform."""
    overlaps = [10, 26, 40, 52, 62, 71, 79, 86, 92, 97]
    rng = np.random.default_rng(8)
    reference = np.zeros(200, np.uint8)
    reference[:100] = 1
    molecules = {"r0": MoleculeRecord("r0", reference, np.zeros(10))}
    for k, x in enumerate(overlaps):
        fp = np.zeros(200, np.uint8)
        fp[:x] = 1
        fp[100 : 200 - x] = 1
        sid = f"v{k}"
        molecules[sid] = MoleculeRecord(sid, fp, np.zeros(10))
    spectra = [
        toy_spectrum(f"s{i}", sid, rng) for i, sid in enumerate(sorted(molecules))
    ]

    bins = build_similarity_bins(molecules, sorted(molecules))
    assert bins.unreachable == []

    pairs = sample_uniform_pairs(molecules, spectra, bins, 10_000, seed=11)
    assert len(pairs) == 10_000
    counts = np.bincount(
        [bin_of(p.label, bins.bin_count) for p in pairs], minlength=bins.bin_count
    )
    assert counts.min() > 0
    assert stats.chisquare(counts).pvalue > 0.01


# ------------------------------------------------------------------
# criterion 8: siamese overfit and self retrieval
# ------------------------------------------------------------------


def test_criterion_08_siamese_overfit():
    """Five structures with four spectra each: train pair MSE drops
    under 0.01 within 200 epochs, and searching the training index with
    its own spectra returns every one at rank 1."""
    start = time.perf_counter()
    spectra, molecules = toy_dataset(5, 4, seed=42)
    cfg = EncoderConfig(
        d=32, layers=2, heads=4, inner_dim=32, dropout=0.0, kind="sin", max_fragments=32
    )
    trn = TrainConfig(
        epochs=200,
        batch_size=32,
        lr=1e-3,
        seed=0,
        pairs_per_epoch=64,
        eval_pairs=16,
    )
    weights, log = train_siamese(spectra, molecules, trn, cfg)
    train_col = log.columns.index("train_mse")
    assert min(row[train_col] for row in log.rows) < 0.01

    index = build_index(spectra, cfg, weights)
    for spec in spectra:
        result = search(spec, index, 1, cfg, weights)
        hit_id, _, _ = result.hits[0]
        assert hit_id == spec.id
    assert time.perf_counter() - start < 300.0


# ------------------------------------------------------------------
# criterion 9: property overfit and the binned baseline comparison
# ------------------------------------------------------------------


def _mass_driven_dataset():
    """Sixteen structures whose ten properties are smooth functions of
    precursor mass, with fragments at mass minus common neutral losses.

    A continuous m/z embedding can interpolate to unseen masses; a fixed
    binned representation cannot, because unseen masses land in bins
    that carry no trained weights.
    """
    rng = np.random.default_rng(5)
    slopes = rng.normal(0.0, 1.0, 10)
    offsets = rng.normal(0.0, 1.0, 10)
    losses = np.array([18.011, 28.003, 44.026, 17.027, 36.021, 60.052, 76.031, 92.058])
    molecules = {}
    spectra = []
    for i in range(16):
        sid = f"m{i:02d}"
        mass = 300.0 + 25.0 * i + float(rng.uniform(0.1, 0.9))
        z = (mass - 300.0) / 400.0
        props = slopes * z + offsets + 0.3 * np.sin(3.0 * z + np.arange(10))
        fingerprint = (rng.random(64) < 0.3).astype(np.uint8)
        molecules[sid] = MoleculeRecord(sid, fingerprint, props)
        for k in range(3):
            pick = rng.choice(8, 6, replace=False)
            mz = np.sort(mass - losses[pick])
            intensity = rng.uniform(0.1, 1.0, 6)
            fragments = tuple(
                Peak(float(m), float(v)) for m, v in zip(mz, intensity)
            )
            spec = Spectrum(
                id=f"s{i:02d}_{k}",
                precursor=Peak(mass, 1.0),
                fragments=fragments,
                structure_id=sid,
                mz_decimals=(4,) * 7,
            )
            spectra.append(normalize_intensities(spec))
    return spectra, molecules


def test_criterion_09_property_regression():
    """The property head overfits five training structures (every
    per-property R-squared above 0.95), and on mass-driven labels the
    transformer's unseen-structure average R-squared is at least the
    binned baseline's under an identical training budget."""
    spectra, molecules = toy_dataset(5, 4, seed=42)
    cfg = EncoderConfig(
        d=32, layers=2, heads=4, inner_dim=32, dropout=0.0, max_fragments=32
    )
    trn = TrainConfig(epochs=200, batch_size=16, lr=1e-3, seed=0)
    _, _, report, _ = train_properties(
        spectra, molecules, trn, cfg, eval_sets={"known": spectra}
    )
    worst = min(known for _, known, _ in report.rows)
    assert worst > 0.95

    mass_spectra, mass_molecules = _mass_driven_dataset()
    novel_structures = {"m03", "m08", "m12"}
    train = [s for s in mass_spectra if s.structure_id not in novel_structures]
    novel = [s for s in mass_spectra if s.structure_id in novel_structures]
    assert (len(train), len(novel)) == (39, 9)

    cfg9 = EncoderConfig(
        d=32, layers=2, heads=4, inner_dim=32, dropout=0.0, max_fragments=16
    )
    budget = TrainConfig(epochs=200, batch_size=16, lr=1e-3, seed=0)
    _, _, transformer_report, _ = train_properties(
        train, mass_molecules, budget, cfg9, eval_sets={"novel": novel}
    )
    _, _, baseline_report, _ = train_properties(
        train,
        mass_molecules,
        budget,
        cfg9,
        eval_sets={"novel": novel},
        baseline=True,
        bin_width=0.1,
        bin_max_mz=1000.0,
    )
    transformer_avg = transformer_report.average[1]
    baseline_avg = baseline_report.average[1]
    assert transformer_avg >= baseline_avg


# ------------------------------------------------------------------
# criterion 10: input precision must matter when only fractional mass does
# ------------------------------------------------------------------

# Fragment m/z skeleton shared by every spectrum. Near 1800 Da the
# binary16 spacing is 1 Da, so casting wipes out any fractional offset
# and spectra of different structures become indistinguishable.
_BASE_INTEGERS = np.array([1150.0, 1263.0, 1371.0, 1488.0, 1592.0, 1704.0, 1817.0])


def _fractional_mass_dataset():
    """Five structures separated only by a fractional m/z offset."""
    rng = np.random.default_rng(3)
    molecules = {}
    spectra = []
    for i in range(5):
        sid = f"m{i}"
        frac = 0.1 + 0.2 * i
        fingerprint = np.zeros(40, np.uint8)
        fingerprint[: 8 * (i + 1)] = 1
        props = np.linspace(-1.0, 1.0, 10) * (i + 1)
        molecules[sid] = MoleculeRecord(sid, fingerprint, props)
        for k in range(6):
            mz = _BASE_INTEGERS + frac
            intensity = rng.uniform(0.2, 1.0, 7)
            fragments = tuple(
                Peak(float(m), float(v)) for m, v in zip(mz, intensity)
            )
            spec = Spectrum(
                id=f"s{i}_{k}",
                precursor=Peak(1950.5, 1.0),
                fragments=fragments,
                structure_id=sid,
                mz_decimals=(4,) * 8,
            )
            spectra.append(normalize_intensities(spec))
    return spectra, molecules


def test_criterion_10_precision_ablation():
    """With labels carried solely by fractional mass, binary64 inputs
    reach strictly lower held-out pair MSE than binary16 inputs on every
    one of three seeds."""
    spectra, molecules = _fractional_mass_dataset()
    held = [s for s in spectra if s.id.endswith("_5")]
    train = [s for s in spectra if not s.id.endswith("_5")]
    assert (len(train), len(held)) == (25, 5)

    cfg = EncoderConfig(
        d=32, layers=2, heads=4, inner_dim=32, dropout=0.0, max_fragments=16
    )
    known_col = 2  # columns: epoch, train_mse, known_mse, novel_mse, wall_time_s
    for seed in (0, 1, 2):
        finals = {}
        for bits in (64, 16):
            trn = TrainConfig(
                epochs=40,
                batch_size=32,
                lr=1e-3,
                seed=seed,
                pairs_per_epoch=96,
                eval_pairs=64,
            )
            _, log = train_siamese(
                train,
                molecules,
                trn,
                replace(cfg, precision=PrecisionMode(bits)),
                eval_sets={"known": held},
            )
            finals[bits] = log.rows[-1][known_col]
        assert finals[64] < finals[16], (
            f"seed {seed}: binary64 held-out MSE {finals[64]:.6f} "
            f"not below binary16's {finals[16]:.6f}"
        )


# ------------------------------------------------------------------
# criterion 11: byte-identical round trips and reruns
# ------------------------------------------------------------------


def test_criterion_11_round_trips(tmp_path):
    """MGF parse/serialize and checkpoint save/load round-trip byte for
    byte, and a fixed-seed training rerun reproduces the checkpoint and
    the log rows exactly."""
    spectra, _ = toy_dataset(4, 3, seed=9)
    text = serialize_mgf(spectra)
    assert serialize_mgf(parse_mgf(text)) == text
    first_mgf = tmp_path / "first.mgf"
    second_mgf = tmp_path / "second.mgf"
    save_mgf(first_mgf, spectra)
    save_mgf(second_mgf, load_mgf(first_mgf))
    assert first_mgf.read_bytes() == second_mgf.read_bytes()

    cfg = EncoderConfig(
        d=16, layers=1, heads=2, inner_dim=16, dropout=0.0, max_fragments=8
    )
    config_text = describe_config(cfg)
    weights = init_weights(cfg, seed=4)
    params = {name: t.data for name, t in weights.named().items()}
    first_ckpt = tmp_path / "first.ckpt"
    second_ckpt = tmp_path / "second.ckpt"
    save_checkpoint(first_ckpt, params, config_text)
    loaded, _ = load_checkpoint(first_ckpt, config_text)
    assert sorted(loaded) == sorted(params)
    for name in params:
        assert loaded[name].dtype == params[name].dtype
        assert np.array_equal(loaded[name], params[name])
    save_checkpoint(second_ckpt, loaded, config_text)
    assert first_ckpt.read_bytes() == second_ckpt.read_bytes()

    small_spectra, small_molecules = toy_dataset(3, 2, seed=21)
    small_cfg = EncoderConfig(
        d=8, layers=1, heads=2, inner_dim=8, dropout=0.1, max_fragments=16
    )
    trn = TrainConfig(
        epochs=2,
        batch_size=8,
        lr=1e-3,
        seed=13,
        pairs_per_epoch=16,
        eval_pairs=8,
    )
    runs = []
    for tag in ("one", "two"):
        w, log = train_siamese(small_spectra, small_molecules, trn, small_cfg)
        path = tmp_path / f"{tag}.ckpt"
        save_checkpoint(
            path,
            {name: t.data for name, t in w.named().items()},
            describe_config(small_cfg),
        )
        rows = np.array([row[:4] for row in log.rows])  # drop wall time
        runs.append((path.read_bytes(), rows))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1], equal_nan=True)
