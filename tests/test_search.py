"""Embedding search: index construction, ranking, tie-breaks and the
macro-averaged accuracy report."""

import itertools

import numpy as np
import pytest

from conftest import toy_dataset, toy_molecule, toy_spectrum
from mzembed.data import MoleculeRecord, Peak, Spectrum
from mzembed.embed import BINARY16, SinusoidalConfig, normalize_intensities
from mzembed.encoder import EncoderConfig, encode_spectrum, init_weights
from mzembed.errors import DataError, NumericsError
from mzembed.search import (
    AccuracyReport,
    EmbeddingIndex,
    build_index,
    evaluate_search,
    search,
    search_embedding,
    top_k,
    write_accuracy_report,
    write_search_audit,
)

SIN8 = SinusoidalConfig(d=8)


def small_model(seed=0):
    cfg = EncoderConfig(d=8, layers=2, heads=2, inner_dim=8, dropout=0.0,
                        kind="sin", max_fragments=16)
    return cfg, init_weights(cfg, seed=seed)


class TestIndex:
    def test_rows_sorted_by_spectrum_id(self, rng):
        cfg, weights = small_model()
        spectra = [toy_spectrum(f"s{i:02d}", "m", rng) for i in (3, 0, 2, 1)]
        index = build_index(spectra, cfg, weights, sin_cfg=SIN8)
        assert index.spectrum_ids == ["s00", "s01", "s02", "s03"]
        assert len(index) == 4

    def test_rows_are_unit_norm(self, rng):
        cfg, weights = small_model()
        spectra = [toy_spectrum(f"s{i}", "m", rng) for i in range(5)]
        index = build_index(spectra, cfg, weights, sin_cfg=SIN8)
        norms = np.linalg.norm(index.matrix, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_same_inputs_same_index_bytes(self, rng):
        cfg, weights = small_model()
        spectra = [toy_spectrum(f"s{i}", "m", rng) for i in range(4)]
        a = build_index(spectra, cfg, weights, sin_cfg=SIN8)
        b = build_index(list(reversed(spectra)), cfg, weights, sin_cfg=SIN8)
        assert a.matrix.tobytes() == b.matrix.tobytes()
        assert a.spectrum_ids == b.spectrum_ids

    def test_empty_index_and_search_refusal(self):
        cfg, weights = small_model()
        index = build_index([], cfg, weights, sin_cfg=SIN8)
        assert len(index) == 0
        with pytest.raises(DataError):
            search_embedding(np.ones(8), index, 1)

    def test_unencodable_spectrum_named(self, rng):
        # binary16 tops out at 65504, so this fragment m/z cannot be cast.
        cfg, weights = small_model()
        huge = normalize_intensities(
            Spectrum(id="huge", precursor=Peak(1000.0, 1.0), fragments=(Peak(70000.0, 1.0),))
        )
        spectra = [toy_spectrum("ok", "m", rng), huge]
        with pytest.raises(DataError) as info:
            build_index(spectra, cfg, weights, sin_cfg=SIN8, precision=BINARY16)
        assert str(info.value) == (
            "failed to encode spectrum 'huge': m/z overflows binary16: max |value| 70000.0"
        )

    def test_misaligned_ids_rejected(self):
        with pytest.raises(DataError):
            EmbeddingIndex(
                matrix=np.eye(3), spectrum_ids=["a", "b"], structure_ids=[None, None, None]
            )


class TestRanking:
    def make_index(self, matrix, prefix="s"):
        matrix = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
        n = matrix.shape[0]
        return EmbeddingIndex(
            matrix=matrix,
            spectrum_ids=[f"{prefix}{i}" for i in range(n)],
            structure_ids=[f"m{i}" for i in range(n)],
        )

    def test_matches_brute_force_cosine(self, rng):
        matrix = rng.normal(size=(20, 8))
        index = self.make_index(matrix)
        for trial in range(20):
            q = rng.normal(size=8)
            result = search_embedding(q, index, 5, query_id="q")
            scores = index.matrix @ (q / np.linalg.norm(q))
            want = sorted(range(20), key=lambda r: (-scores[r], index.spectrum_ids[r]))[:5]
            got_ids = [h[0] for h in result.hits]
            assert got_ids == [f"s{r}" for r in want]
            for (sid, _, score), r in zip(result.hits, want):
                assert np.isclose(score, scores[r], atol=1e-12)

    def test_scores_descend(self, rng):
        matrix = rng.normal(size=(15, 8))
        index = self.make_index(matrix)
        result = search_embedding(rng.normal(size=8), index, 15)
        scores = [h[2] for h in result.hits]
        assert scores == sorted(scores, reverse=True)

    def test_exact_ties_break_by_id(self):
        row = np.array([1.0, 0.0, 0.0, 0.0])
        matrix = np.stack([row, row, row])
        index = EmbeddingIndex(
            matrix=matrix,
            spectrum_ids=["s2", "s0", "s1"],
            structure_ids=["m", "m", "m"],
        )
        result = search_embedding(row, index, 3)
        assert [h[0] for h in result.hits] == ["s0", "s1", "s2"]

    def test_top_k_ties_go_to_smaller_id_in_any_row_order(self):
        ids = ["s2", "s0", "s3", "s1", "s4"]
        scores = [0.5, 0.9, 0.9, 0.9, -1.0]
        for perm in itertools.permutations(range(len(ids))):
            got = top_k([scores[i] for i in perm], [ids[i] for i in perm], 3)
            assert [ids[perm[r]] for r in got] == ["s0", "s1", "s3"]

    def test_top_k_past_row_count_returns_every_row(self):
        assert top_k(np.array([0.1, 0.3, 0.2]), ["a", "b", "c"], 10) == [1, 2, 0]

    def test_k_truncates_to_index_size(self, rng):
        matrix = rng.normal(size=(4, 8))
        index = self.make_index(matrix)
        result = search_embedding(rng.normal(size=8), index, 10)
        assert len(result.hits) == 4
        assert result.k == 10

    def test_zero_norm_query_rejected(self, rng):
        index = self.make_index(rng.normal(size=(4, 8)))
        with pytest.raises(NumericsError):
            search_embedding(np.zeros(8), index, 1, query_id="bad")

    def test_spectrum_search_finds_itself(self, rng):
        cfg, weights = small_model(seed=3)
        spectra = [toy_spectrum(f"s{i}", f"m{i}", rng) for i in range(6)]
        index = build_index(spectra, cfg, weights, sin_cfg=SIN8)
        for s in spectra:
            result = search(s, index, 1, cfg, weights, sin_cfg=SIN8)
            hit_id, hit_structure, score = result.hits[0]
            assert hit_id == s.id
            assert abs(score - 1.0) <= 1e-9


class TestEvaluate:
    def hand_macro(self, outcomes):
        """outcomes: {structure: [0/1 per query]} -> macro average."""
        per = [np.mean(v) for _, v in sorted(outcomes.items())]
        return float(np.mean(per))

    def test_macro_matches_hand_recompute(self, rng):
        spectra, molecules = toy_dataset(n_structures=4, spectra_per=3, seed=9)
        cfg, weights = small_model(seed=1)
        index = build_index(spectra, cfg, weights, sin_cfg=SIN8)
        queries = spectra[::2]
        report = evaluate_search(
            queries, index, molecules, cfg, weights, sin_cfg=SIN8,
            query_set="known",
        )
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
        weights, sin_cfg = init_weights(cfg, seed=6), SinusoidalConfig(d=32)
        spectra, molecules = toy_dataset(n_structures=4, spectra_per=3, seed=5)
        index = build_index(spectra, cfg, weights, sin_cfg=sin_cfg)
        queries = [
            toy_spectrum(f"q{i}", f"m{i % 4}", rng, n_peaks=(n, n + 1))
            for i, n in enumerate((7, 9, 7, 12, 7, 10, 9, 15))
        ]
        report = evaluate_search(queries, index, molecules, cfg, weights, sin_cfg=sin_cfg)
        assert len(report.audit) == len(queries)
        for query, (query_id, hit_id, score, _, _) in zip(queries, report.audit):
            lone = search(query, index, 1, cfg, weights, sin_cfg=sin_cfg).hits[0]
            assert (query_id, hit_id, score) == (query.id, lone[0], lone[2])

    def test_self_queries_give_perfect_exact(self, rng):
        spectra, molecules = toy_dataset(n_structures=3, spectra_per=2, seed=4)
        cfg, weights = small_model(seed=2)
        index = build_index(spectra, cfg, weights, sin_cfg=SIN8)
        report = evaluate_search(
            spectra, index, molecules, cfg, weights, sin_cfg=SIN8,
        )
        assert report.exact == 1.0
        assert report.approximate == 1.0

    def test_include_exact_false_gives_none(self, rng):
        spectra, molecules = toy_dataset(n_structures=3, spectra_per=2, seed=4)
        cfg, weights = small_model(seed=2)
        index = build_index(spectra, cfg, weights, sin_cfg=SIN8)
        report = evaluate_search(
            spectra, index, molecules, cfg, weights, sin_cfg=SIN8,
            include_exact=False, query_set="novel",
        )
        assert report.exact is None
        assert report.query_set == "novel"

    def test_structureless_query_rejected(self, rng):
        spectra, molecules = toy_dataset(n_structures=3, spectra_per=2, seed=4)
        cfg, weights = small_model(seed=2)
        index = build_index(spectra, cfg, weights, sin_cfg=SIN8)
        orphan = toy_spectrum("orphan", "nope", rng)
        with pytest.raises(DataError):
            evaluate_search([orphan], index, molecules, cfg, weights, sin_cfg=SIN8)

    def test_empty_queries_rejected(self, rng):
        spectra, molecules = toy_dataset(n_structures=3, spectra_per=2, seed=4)
        cfg, weights = small_model(seed=2)
        index = build_index(spectra, cfg, weights, sin_cfg=SIN8)
        with pytest.raises(DataError):
            evaluate_search([], index, molecules, cfg, weights, sin_cfg=SIN8)


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
