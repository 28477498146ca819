"""Embedding search: index construction, ranking, tie-breaks and the
macro-averaged accuracy report."""

import dataclasses
import itertools
import os

import numpy as np
import pytest

from conftest import toy_dataset, toy_molecule, toy_spectrum
from mzembed.data import MoleculeRecord, Peak, Spectrum
from mzembed.embed import BINARY16, normalize_intensities
from mzembed.encoder import (
    EncoderConfig,
    encode_many,
    encode_spectrum,
    init_weights,
    load_table,
    parameter_shapes,
)
from mzembed.errors import ConfigError, DataError, DimensionError, NumericsError
from mzembed.search import (
    AccuracyReport,
    INDEX_MAGIC,
    EmbeddingIndex,
    build_index,
    cached_index,
    cosine_hits,
    evaluate_search,
    index_key,
    modified_cosine,
    search,
    search_embedding,
    summarize_hits,
    top_k,
    write_accuracy_report,
    write_search_audit,
)
from mzembed import search as search_module
from mzembed.siamese import tanimoto
from mzembed.tensor import load_checkpoint, save_checkpoint

def small_model(seed=0):
    cfg = EncoderConfig(d=8, layers=2, heads=2, inner_dim=8, dropout=0.0,
                        kind="sin", max_fragments=16)
    return cfg, init_weights(cfg, seed=seed)


class TestIndex:
    def test_rows_sorted_by_spectrum_id(self, rng):
        cfg, weights = small_model()
        spectra = [toy_spectrum(f"s{i:02d}", "m", rng) for i in (3, 0, 2, 1)]
        index = build_index(spectra, cfg, weights)
        assert index.spectrum_ids == ["s00", "s01", "s02", "s03"]
        assert len(index) == 4

    def test_rows_are_unit_norm(self, rng):
        cfg, weights = small_model()
        spectra = [toy_spectrum(f"s{i}", "m", rng) for i in range(5)]
        index = build_index(spectra, cfg, weights)
        norms = np.linalg.norm(index.matrix, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_same_inputs_same_index_bytes(self, rng):
        cfg, weights = small_model()
        spectra = [toy_spectrum(f"s{i}", "m", rng) for i in range(4)]
        a = build_index(spectra, cfg, weights)
        b = build_index(list(reversed(spectra)), cfg, weights)
        assert a.matrix.tobytes() == b.matrix.tobytes()
        assert a.spectrum_ids == b.spectrum_ids

    def test_empty_index_and_search_refusal(self):
        cfg, weights = small_model()
        index = build_index([], cfg, weights)
        assert len(index) == 0
        with pytest.raises(DataError):
            search_embedding(np.ones((1, 8)), index, 1, ["q"])

    def test_unencodable_spectrum_named(self, rng):
        # binary16 tops out at 65504, so this fragment m/z cannot be cast.
        cfg, weights = small_model()
        huge = normalize_intensities(
            Spectrum(id="huge", precursor=Peak(1000.0, 1.0), fragments=(Peak(70000.0, 1.0),))
        )
        spectra = [toy_spectrum("ok", "m", rng), huge]
        with pytest.raises(DataError) as info:
            build_index(spectra, dataclasses.replace(cfg, precision=BINARY16), weights)
        assert str(info.value) == (
            "failed to encode spectrum 'huge': m/z overflows binary16: max |value| 70000.0"
        )

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_row_named(self, rng, monkeypatch, value):
        # An inf row used to normalize to NaN and a NaN row to stay NaN.
        cfg, weights = small_model()
        spectra = [toy_spectrum(f"s{i}", "m", rng) for i in range(4)]
        encode = search_module.encode_many

        def spoiled(ordered, *args):
            raw = encode(ordered, *args)
            raw[2, 5] = value
            return raw

        monkeypatch.setattr(search_module, "encode_many", spoiled)
        with pytest.raises(NumericsError, match=f"spectrum 's2' has norm {value}"):
            build_index(spectra, cfg, weights)

    def test_misaligned_ids_rejected(self):
        with pytest.raises(DataError):
            EmbeddingIndex(
                matrix=np.eye(3), spectrum_ids=["a", "b"], structure_ids=[None, None, None],
                raw=np.eye(3),
            )
        with pytest.raises(DataError):
            EmbeddingIndex(
                matrix=np.eye(3), spectrum_ids=["a", "b", "c"], structure_ids=[None] * 3,
                raw=np.eye(2),
            )


class TestRanking:
    def make_index(self, raw, prefix="s"):
        matrix = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        n = matrix.shape[0]
        return EmbeddingIndex(
            matrix=matrix,
            spectrum_ids=[f"{prefix}{i}" for i in range(n)],
            structure_ids=[f"m{i}" for i in range(n)],
            raw=raw,
        )

    def test_matches_brute_force_cosine(self, rng):
        matrix = rng.normal(size=(20, 8))
        index = self.make_index(matrix)
        queries = rng.normal(size=(20, 8))
        results = search_embedding(queries, index, 5, [f"q{i}" for i in range(20)])
        assert [r.query_id for r in results] == [f"q{i}" for i in range(20)]
        for q, result in zip(queries, results):
            scores = index.matrix @ (q / np.linalg.norm(q))
            want = sorted(range(20), key=lambda r: (-scores[r], index.spectrum_ids[r]))[:5]
            got_ids = [h[0] for h in result.hits]
            assert got_ids == [f"s{r}" for r in want]
            for (sid, _, score), r in zip(result.hits, want):
                assert np.isclose(score, scores[r], atol=1e-12)

    def test_scores_descend(self, rng):
        matrix = rng.normal(size=(15, 8))
        index = self.make_index(matrix)
        (result,) = search_embedding(rng.normal(size=(1, 8)), index, 15, ["q"])
        scores = [h[2] for h in result.hits]
        assert scores == sorted(scores, reverse=True)

    def test_exact_ties_break_by_id(self):
        row = np.array([1.0, 0.0, 0.0, 0.0])
        matrix = np.stack([row, row, row])
        index = EmbeddingIndex(
            matrix=matrix,
            spectrum_ids=["s2", "s0", "s1"],
            structure_ids=["m", "m", "m"],
            raw=matrix,
        )
        (result,) = search_embedding(row[None, :], index, 3, ["q"])
        assert [h[0] for h in result.hits] == ["s0", "s1", "s2"]

    def test_top_k_ties_go_to_smaller_id_in_any_row_order(self):
        ids = ["s2", "s0", "s3", "s1", "s4"]
        scores = [0.5, 0.9, 0.9, 0.9, -1.0]
        for perm in itertools.permutations(range(len(ids))):
            (got,) = top_k([[scores[i] for i in perm]], [ids[i] for i in perm], 3)
            assert [ids[perm[r]] for r in got] == ["s0", "s1", "s3"]

    def test_block_rows_rank_as_alone(self, rng):
        # Each row of a block is scored by a matrix-vector product of its
        # own: its hits and score bits do not depend on the rest of the
        # block, and equal those of index.matrix @ q, the score of one
        # query. A numpy or BLAS build whose stacked product computes
        # otherwise fails here.
        index = self.make_index(rng.normal(size=(300, 256)))
        queries = rng.normal(size=(12, 256))
        ids = [f"q{i}" for i in range(12)]
        alone = [search_embedding(queries[i : i + 1], index, 7, ids[i : i + 1])[0] for i in range(12)]
        for query, result in zip(queries, alone):
            scores = index.matrix @ (query / np.sqrt(np.sum(query * query)))
            want = sorted(range(300), key=lambda r: (-scores[r], index.spectrum_ids[r]))[:7]
            assert result.hits == [(f"s{r}", f"m{r}", float(scores[r])) for r in want]
        for m in range(2, 13):
            start = int(rng.integers(0, 13 - m))
            block = search_embedding(queries[start : start + m], index, 7, ids[start : start + m])
            assert block == alone[start : start + m]

    def test_top_k_matches_the_key_sort(self, rng):
        # Duplicate ids, signed zeros, few distinct scores and k past n.
        def key_sort(row, ids, k):
            return sorted(range(len(ids)), key=lambda r: (-row[r], ids[r]))[:k]

        for trial in range(300):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 40))
            ids = [f"s{i}" for i in rng.integers(0, n // 2 + 1, n)]
            scores = rng.choice([-0.5, -0.0, 0.0, 0.25, 1.0], size=(m, n))
            k = int(rng.integers(1, n + 5))
            got = top_k(scores, ids, k)
            assert got.shape == (m, min(k, n)), trial
            assert got.tolist() == [key_sort(row, ids, k) for row in scores], trial

    def test_top_k_past_row_count_returns_every_row(self):
        got = top_k(np.array([[0.1, 0.3, 0.2], [0.2, 0.2, 0.1]]), ["a", "b", "c"], 10)
        assert got.tolist() == [[1, 2, 0], [0, 1, 2]]

    def test_k_truncates_to_index_size(self, rng):
        matrix = rng.normal(size=(4, 8))
        index = self.make_index(matrix)
        (result,) = search_embedding(rng.normal(size=(1, 8)), index, 10, ["q"])
        assert len(result.hits) == 4

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, rng, k):
        # k=0 used to return no hits and k=-1 every hit but the last.
        index = self.make_index(rng.normal(size=(4, 8)))
        with pytest.raises(ConfigError, match="k must be at least 1"):
            search_embedding(rng.normal(size=(1, 8)), index, k, ["q"])
        with pytest.raises(ConfigError):
            top_k(np.array([[0.1, 0.3, 0.2]]), ["a", "b", "c"], k)

    def test_zero_norm_query_rejected(self, rng):
        index = self.make_index(rng.normal(size=(4, 8)))
        with pytest.raises(NumericsError, match="query 'bad' has norm 0.0"):
            search_embedding(np.zeros((1, 8)), index, 1, ["bad"])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, rng, value):
        # A NaN query used to score every row nan and return them in id order.
        index = self.make_index(rng.normal(size=(4, 8)))
        queries = rng.normal(size=(2, 8))
        queries[1, 3] = value
        with pytest.raises(NumericsError, match="query 'bad' has norm"):
            search_embedding(queries, index, 1, ["ok", "bad"])

    def test_query_of_another_width_rejected(self, rng):
        index = self.make_index(rng.normal(size=(4, 8)))
        with pytest.raises(DimensionError, match="'q' has width 6, the index 8"):
            search_embedding(rng.normal(size=(2, 6)), index, 1, ["q", "r"])

    def test_query_ids_of_another_length_rejected(self, rng):
        index = self.make_index(rng.normal(size=(4, 8)))
        with pytest.raises(DataError, match="3 query embeddings given for 2 queries"):
            search_embedding(rng.normal(size=(3, 8)), index, 1, ["q", "r"])
        assert search_embedding(np.empty((0, 8)), index, 1, []) == []

    def test_spectrum_search_finds_itself(self, rng):
        cfg, weights = small_model(seed=3)
        spectra = [toy_spectrum(f"s{i}", f"m{i}", rng) for i in range(6)]
        index = build_index(spectra, cfg, weights)
        for s in spectra:
            result = search(s, index, 1, cfg, weights)
            hit_id, hit_structure, score = result.hits[0]
            assert hit_id == s.id
            assert abs(score - 1.0) <= 1e-9


def _with_fragment(spectrum, mz_delta=0.0, intensity_scale=1.0):
    first = spectrum.fragments[0]
    moved = Peak(first.mz + mz_delta, first.intensity * intensity_scale)
    return dataclasses.replace(spectrum, fragments=(moved, *spectrum.fragments[1:]))


def shuffle_fragments(spectrum, rng):
    """The spectrum with its fragments stored in a random order."""
    order = rng.permutation(len(spectrum.fragments))
    return dataclasses.replace(spectrum, fragments=tuple(spectrum.fragments[i] for i in order))


LIBRARY_EDITS = {
    "fragment_mz": lambda s: _with_fragment(s, mz_delta=1e-9),
    "fragment_intensity": lambda s: _with_fragment(s, intensity_scale=0.5),
    "precursor_mz": lambda s: dataclasses.replace(
        s, precursor=Peak(s.precursor.mz + 1e-9, s.precursor.intensity)
    ),
    "spectrum_id": lambda s: dataclasses.replace(s, id=s.id + "x"),
}


class TestIndexKey:
    """Every input the index matrix depends on moves the cache key."""

    @pytest.fixture
    def inputs(self, rng):
        cfg, weights = small_model()
        library = [toy_spectrum(f"s{i}", f"m{i}", rng) for i in range(4)]
        return library, cfg, weights.for_inference()

    @pytest.mark.parametrize("edit", sorted(LIBRARY_EDITS))
    def test_library_edit_moves_key(self, inputs, edit):
        library, cfg, weights = inputs
        edited = [*library[:2], LIBRARY_EDITS[edit](library[2]), library[3]]
        assert index_key(edited, cfg, weights) != index_key(library, cfg, weights)

    @pytest.mark.parametrize("change", [{"precision": BINARY16}, {"d": 16}])
    def test_config_edit_moves_key(self, inputs, change):
        library, cfg, weights = inputs
        other = dataclasses.replace(cfg, **change)
        assert index_key(library, other, weights) != index_key(library, cfg, weights)

    def test_checkpoint_bit_moves_key(self, inputs, tmp_path):
        """Weights loaded from a checkpoint with one payload bit flipped."""
        library, cfg, weights = inputs
        named = {k: v.data for k, v in small_model()[1].named().items()}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, named, "cfg\n")
        loaded = load_table(load_checkpoint(path)[0], parameter_shapes(cfg, None))
        assert index_key(library, cfg, loaded) == index_key(library, cfg, weights)
        data = bytearray(path.read_bytes())
        data[-5] ^= 1
        path.write_bytes(bytes(data))
        flipped = load_table(load_checkpoint(path)[0], parameter_shapes(cfg, None))
        assert index_key(library, cfg, flipped) != index_key(library, cfg, weights)

    def test_converted_weights_share_the_key(self, inputs):
        library, cfg, weights = inputs
        assert index_key(library, cfg, small_model()[1]) == index_key(library, cfg, weights)

    def test_input_order_leaves_key(self, inputs, rng):
        library, cfg, weights = inputs
        shuffled = [shuffle_fragments(library[i], rng) for i in (2, 0, 3, 1)]
        assert index_key(shuffled, cfg, weights) == index_key(library, cfg, weights)


class TestCachedIndex:
    @pytest.fixture
    def inputs(self, rng, tmp_path):
        cfg, weights = small_model()
        library = [toy_spectrum(f"s{i}", f"m{i}", rng) for i in range(5)]
        return tmp_path / "index.bin", library, cfg, weights

    def test_hit_returns_the_built_index(self, inputs):
        path, library, cfg, weights = inputs
        built = build_index(library, cfg, weights)
        for _ in range(2):  # the cold write, then the read
            index = cached_index(path, library, cfg, weights)
            assert index.matrix.tobytes() == built.matrix.tobytes()
            assert index.raw.tobytes() == built.raw.tobytes()
            assert (index.spectrum_ids, index.structure_ids) == (
                built.spectrum_ids, built.structure_ids,
            )
        # The file holds the raw encoder rows, not the normalized matrix.
        assert path.read_bytes() == (
            INDEX_MAGIC + index_key(library, cfg, weights) + built.raw.astype("<f8").tobytes()
        )

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_file_is_rebuilt(self, inputs, value):
        # The first row checks out and the key matches, but a stored row
        # no encoder row can be is a foreign file, not an index.
        path, library, cfg, weights = inputs
        built = cached_index(path, library, cfg, weights)
        good = path.read_bytes()
        spoiled = bytearray(good)
        spoiled[-8:] = np.array([value], dtype="<f8").tobytes()
        path.write_bytes(bytes(spoiled))
        index = cached_index(path, library, cfg, weights)
        assert index.matrix.tobytes() == built.matrix.tobytes()
        assert path.read_bytes() == good

    def test_failed_write_leaves_no_temporary_file(self, inputs, monkeypatch):
        path, library, cfg, weights = inputs

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            cached_index(path, library, cfg, weights)
        assert list(path.parent.iterdir()) == []


class TestEvaluate:
    def hand_macro(self, outcomes):
        """outcomes: {structure: [0/1 per query]} -> macro average."""
        per = [np.mean(v) for _, v in sorted(outcomes.items())]
        return float(np.mean(per))

    def test_macro_matches_hand_recompute(self, rng):
        spectra, molecules = toy_dataset(n_structures=4, spectra_per=3, seed=9)
        cfg, weights = small_model(seed=1)
        index = build_index(spectra, cfg, weights)
        queries = spectra[::2]
        report = evaluate_search(queries, index, molecules, cfg, weights, query_set="known")
        by_id = {s.id: s for s in spectra}
        exact_out, approx_out = {}, {}
        for query_id, hit_id, score, is_exact, sim in report.audit:
            q_struct = by_id[query_id].structure_id
            exact_out.setdefault(q_struct, []).append(float(is_exact))
            approx_out.setdefault(q_struct, []).append(float(sim >= 0.6))
        assert np.isclose(report.exact, self.hand_macro(exact_out), atol=1e-12)
        assert np.isclose(report.approximate, self.hand_macro(approx_out), atol=1e-12)
        assert report.n_structures == len(exact_out)
        assert len(report.audit) == len(queries)

    def test_audit_rows_equal_lone_search(self, rng):
        # Queries with equal peak counts share one encode batch; each row
        # must still rank exactly as a lone search() of that query does.
        # At d=32 a padded batch moves some scores in the last bit.
        cfg = EncoderConfig(d=32, layers=2, heads=4, inner_dim=32, dropout=0.0,
                            kind="sin", max_fragments=16)
        weights = init_weights(cfg, seed=6)
        spectra, molecules = toy_dataset(n_structures=4, spectra_per=3, seed=5)
        index = build_index(spectra, cfg, weights)
        queries = [
            toy_spectrum(f"q{i}", f"m{i % 4}", rng, n_peaks=(n, n + 1))
            for i, n in enumerate((7, 9, 7, 12, 7, 10, 9, 15))
        ]
        report = evaluate_search(queries, index, molecules, cfg, weights)
        assert len(report.audit) == len(queries)
        for query, (query_id, hit_id, score, _, _) in zip(queries, report.audit):
            lone = search(query, index, 1, cfg, weights).hits[0]
            assert (query_id, hit_id, score) == (query.id, lone[0], lone[2])

    def test_self_queries_give_perfect_exact(self, rng):
        spectra, molecules = toy_dataset(n_structures=3, spectra_per=2, seed=4)
        cfg, weights = small_model(seed=2)
        index = build_index(spectra, cfg, weights)
        report = evaluate_search(spectra, index, molecules, cfg, weights)
        assert report.exact == 1.0
        assert report.approximate == 1.0

    def test_include_exact_false_gives_none(self, rng):
        spectra, molecules = toy_dataset(n_structures=3, spectra_per=2, seed=4)
        cfg, weights = small_model(seed=2)
        index = build_index(spectra, cfg, weights)
        report = evaluate_search(
            spectra, index, molecules, cfg, weights,
            include_exact=False, query_set="novel",
        )
        assert report.exact is None
        assert report.query_set == "novel"

    def test_structureless_query_rejected(self, rng):
        spectra, molecules = toy_dataset(n_structures=3, spectra_per=2, seed=4)
        cfg, weights = small_model(seed=2)
        index = build_index(spectra, cfg, weights)
        orphan = toy_spectrum("orphan", "nope", rng)
        with pytest.raises(DataError):
            evaluate_search([orphan], index, molecules, cfg, weights)

    def test_given_embeddings_give_the_encoded_report(self, rng):
        spectra, molecules = toy_dataset(n_structures=4, spectra_per=3, seed=9)
        cfg, weights = small_model(seed=1)
        index = build_index(spectra[::2], cfg, weights)
        queries = spectra[1::2]
        encoded = evaluate_search(queries, index, molecules, cfg, weights, query_set="known")
        given = evaluate_search(
            queries, index, molecules, cfg, weights, query_set="known",
            embeddings=encode_many(queries, cfg, weights),
        )
        assert given == encoded

    def test_embeddings_of_another_length_rejected(self, rng):
        spectra, molecules = toy_dataset(n_structures=3, spectra_per=2, seed=4)
        cfg, weights = small_model(seed=2)
        index = build_index(spectra, cfg, weights)
        with pytest.raises(DataError, match="3 query embeddings given for 2 queries"):
            evaluate_search(
                spectra[:2], index, molecules, cfg, weights,
                embeddings=encode_many(spectra[:3], cfg, weights),
            )

    def test_embeddings_of_another_width_rejected(self, rng):
        spectra, molecules = toy_dataset(n_structures=3, spectra_per=2, seed=4)
        cfg, weights = small_model(seed=2)
        index = build_index(spectra, cfg, weights)
        embeddings = encode_many(spectra[:2], cfg, weights)[:, :-1]
        with pytest.raises(DimensionError, match=f"width {cfg.d - 1}, the index {cfg.d}"):
            evaluate_search(spectra[:2], index, molecules, cfg, weights, embeddings=embeddings)

    def test_empty_queries_rejected(self, rng):
        spectra, molecules = toy_dataset(n_structures=3, spectra_per=2, seed=4)
        cfg, weights = small_model(seed=2)
        index = build_index(spectra, cfg, weights)
        with pytest.raises(DataError):
            evaluate_search([], index, molecules, cfg, weights)

    def test_non_finite_given_embedding_named(self, rng):
        spectra, molecules = toy_dataset(n_structures=3, spectra_per=2, seed=4)
        cfg, weights = small_model(seed=2)
        index = build_index(spectra, cfg, weights)
        embeddings = encode_many(spectra[:2], cfg, weights)
        embeddings[1, 0] = np.nan
        with pytest.raises(NumericsError, match=f"query {spectra[1].id!r} has norm nan"):
            evaluate_search(spectra[:2], index, molecules, cfg, weights, embeddings=embeddings)

    def test_audit_scores_each_hit_pair(self):
        spectra, molecules = toy_dataset(n_structures=4, spectra_per=2, seed=6)
        hits = [(q, h.id, h.structure_id, 0.5) for q in spectra for h in spectra[::3]]
        report = summarize_hits(hits, molecules)
        want = [
            tanimoto(molecules[q.structure_id].fingerprint, molecules[s].fingerprint)
            for q, _, s, _ in hits
        ]
        assert [type(row[4]) for row in report.audit] == [float] * len(hits)
        assert [row[4].hex() for row in report.audit] == [t.hex() for t in want]
        # Every hit is resolved before any is scored.
        with pytest.raises(DataError, match="hit 'x' has no resolvable structure"):
            summarize_hits(hits + [(spectra[0], "x", "nope", 0.1)], molecules)

    def test_no_hits_rejected(self):
        # Averaging no hits used to give nan accuracies after numpy warnings.
        spectra, molecules = toy_dataset(n_structures=3, spectra_per=2, seed=4)
        with pytest.raises(DataError, match="no query hits to summarize"):
            summarize_hits([], molecules)
        with pytest.raises(DataError, match="no query hits to summarize"):
            summarize_hits(cosine_hits([], spectra), molecules)


class TestCosineHits:
    def test_best_pairwise_modified_cosine(self, rng):
        spectra, _ = toy_dataset(n_structures=4, spectra_per=3, seed=9)
        library, queries = spectra[1::2], spectra[::2]
        hits = cosine_hits(queries, library[::-1], 0.1)
        refs = sorted(library, key=lambda s: s.id)
        ids = [r.id for r in refs]
        assert [h[0] for h in hits] == queries
        for query, (_, hit_id, hit_structure, score) in zip(queries, hits):
            scores = [modified_cosine(query, r, 0.1) for r in refs]
            best = min(range(len(ids)), key=lambda r: (-scores[r], ids[r]))
            assert (hit_id, hit_structure, score) == (
                ids[best], refs[best].structure_id, scores[best],
            )

    def test_nonpositive_tolerance_rejected(self, rng):
        spectra, _ = toy_dataset(n_structures=2, spectra_per=2, seed=4)
        with pytest.raises(NumericsError):
            cosine_hits(spectra[:1], spectra, 0.0)

    def test_empty_library_rejected(self, rng):
        spectra, _ = toy_dataset(n_structures=2, spectra_per=2, seed=4)
        with pytest.raises(DataError, match="cannot search an empty library"):
            cosine_hits(spectra[:1], [], 0.1)


def tied_spectrum(spectrum_id, rng):
    """Ten fragments within 1 Da and two intensities: many candidate
    pairs within 0.1 Da, and many of equal weight."""
    mz = np.round(rng.uniform(100.0, 101.0, 10), 2)
    intensity = rng.choice([0.25, 1.0], 10)
    return Spectrum(
        id=spectrum_id,
        precursor=Peak(500.0, 2.0),
        fragments=tuple(Peak(float(m), float(v)) for m, v in zip(mz, intensity)),
    )


class TestFragmentOrder:
    """The cosine baseline scores the peak multiset: storing the
    fragments in another order leaves every score's bits."""

    def test_modified_cosine(self, rng):
        greedy = 0
        for trial in range(200):
            a, b = tied_spectrum("a", rng), tied_spectrum("b", rng)
            mz_a, mz_b = a.fragment_arrays()[0], b.fragment_arrays()[0]
            greedy += np.count_nonzero(np.abs(mz_a[:, None] - mz_b[None, :]) <= 0.1) > 12
            score = modified_cosine(a, b, 0.1)
            for _ in range(3):
                shuffled = modified_cosine(shuffle_fragments(a, rng), shuffle_fragments(b, rng), 0.1)
                assert shuffled == score, trial
        assert greedy > 100  # most pairs take the greedy matcher

    def test_cosine_hits(self, rng):
        library = [tied_spectrum(f"r{i}", rng) for i in range(20)]
        queries = [tied_spectrum(f"q{i}", rng) for i in range(20)]
        hits = cosine_hits(queries, library, 0.1)
        shuffled = cosine_hits(
            [shuffle_fragments(q, rng) for q in queries],
            [shuffle_fragments(r, rng) for r in library],
            0.1,
        )
        assert [h[1:] for h in shuffled] == [h[1:] for h in hits]


class TestReports:
    def sample_reports(self):
        return [
            AccuracyReport(
                query_set="known", exact=0.75, approximate=0.875, n_structures=4,
                audit=[("q1", "h1", 0.93, True, 1.0)],
            ),
            AccuracyReport(
                query_set="novel", exact=None, approximate=0.5, n_structures=2,
                audit=[("q2", "h2", 0.41, False, 0.62)],
            ),
        ]

    def test_accuracy_report_layout(self, tmp_path):
        path = tmp_path / "acc.tsv"
        write_accuracy_report(path, self.sample_reports())
        lines = path.read_text().splitlines()
        assert lines[0] == "query_set\tmatch\taccuracy\tn_structures"
        assert lines[1] == "known\texact\t0.750000\t4"
        assert lines[2] == "known\tapproximate\t0.875000\t4"
        # Novel has no exact row.
        assert lines[3] == "novel\tapproximate\t0.500000\t2"
        assert len(lines) == 4

    def test_audit_layout(self, tmp_path):
        path = tmp_path / "audit.tsv"
        write_search_audit(path, self.sample_reports())
        lines = path.read_text().splitlines()
        assert lines[0] == "query_set\tquery_id\thit_id\tscore\texact\ttanimoto"
        assert lines[1] == "known\tq1\th1\t0.930000\t1\t1.000000"
        assert lines[2] == "novel\tq2\th2\t0.410000\t0\t0.620000"
