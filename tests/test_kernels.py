"""Modified-cosine kernel: brute-force matching oracle, bit-identity with
the loop kernel, greedy fallback behavior and the spectrum-level wrapper."""

import itertools
import math

import numpy as np
import pytest

from mzembed.data import Peak, Spectrum
from mzembed.errors import NumericsError
from mzembed.kernels import score_modified_cosine
from mzembed.kernels._reference import _exact_best
from mzembed.search import modified_cosine


def brute_force_score(mz_a, int_a, mz_b, int_b, prec_diff, tol):
    """Best one-to-one matching by exhaustive enumeration of injections."""
    n_a, n_b = len(mz_a), len(mz_b)
    pairable = [
        [
            abs(mz_a[i] - mz_b[j]) <= tol
            or abs(mz_a[i] - mz_b[j] - prec_diff) <= tol
            for j in range(n_b)
        ]
        for i in range(n_a)
    ]
    best = 0.0
    for r in range(min(n_a, n_b) + 1):
        for a_sub in itertools.combinations(range(n_a), r):
            for b_perm in itertools.permutations(range(n_b), r):
                if all(pairable[i][j] for i, j in zip(a_sub, b_perm)):
                    total = sum(
                        math.sqrt(int_a[i]) * math.sqrt(int_b[j])
                        for i, j in zip(a_sub, b_perm)
                    )
                    best = max(best, total)
    denom = math.sqrt(sum(int_a)) * math.sqrt(sum(int_b))
    if denom == 0.0:
        return 0.0
    return min(best / denom, 1.0)


def loop_score(mz_a, int_a, mz_b, int_b, prec_diff, tol, exact_limit=12):
    """The kernel as a plain double loop over (i, j): the reference its
    vectorised form must match bit for bit."""
    n_a, n_b = len(mz_a), len(mz_b)
    sum_a = 0.0
    for i in range(n_a):
        sum_a += int_a[i]
    sum_b = 0.0
    for j in range(n_b):
        sum_b += int_b[j]
    denom = math.sqrt(sum_a) * math.sqrt(sum_b)
    if denom == 0.0:
        return 0.0

    cand_w, cand_i, cand_j = [], [], []
    for i in range(n_a):
        for j in range(n_b):
            diff = mz_a[i] - mz_b[j]
            if abs(diff) <= tol or abs(diff - prec_diff) <= tol:
                cand_w.append(math.sqrt(int_a[i]) * math.sqrt(int_b[j]))
                cand_i.append(i)
                cand_j.append(j)
    if not cand_w:
        return 0.0

    w = np.array(cand_w, dtype=np.float64)
    ii = np.array(cand_i, dtype=np.int64)
    jj = np.array(cand_j, dtype=np.int64)
    order = np.lexsort((jj, ii, -w))
    w, ii, jj = w[order], ii[order], jj[order]
    n = w.shape[0]

    if n <= exact_limit:
        total = _exact_best(w, ii, jj, n)
    else:
        used_a = np.zeros(n_a, dtype=bool)
        used_b = np.zeros(n_b, dtype=bool)
        total = 0.0
        for k in range(n):
            if not used_a[ii[k]] and not used_b[jj[k]]:
                used_a[ii[k]] = True
                used_b[jj[k]] = True
                total += w[k]

    score = total / denom
    if score > 1.0:
        score = 1.0
    elif score < 0.0:
        score = 0.0
    return score


def random_peaks(rng, n, lo=80.0, hi=900.0):
    mz = np.sort(rng.uniform(lo, hi, size=n))
    intensity = rng.uniform(0.05, 1.0, size=n)
    return mz, intensity


class TestAgainstOracle:
    def test_random_small_pairs(self, rng):
        for trial in range(300):
            n_a = int(rng.integers(1, 7))
            n_b = int(rng.integers(1, 7))
            # Narrow m/z range so matches actually occur.
            mz_a, int_a = random_peaks(rng, n_a, 100.0, 120.0)
            mz_b, int_b = random_peaks(rng, n_b, 100.0, 120.0)
            prec_diff = float(rng.uniform(-5.0, 5.0))
            tol = float(rng.uniform(0.05, 2.0))
            got = score_modified_cosine(mz_a, int_a, mz_b, int_b, prec_diff, tol)
            want = brute_force_score(mz_a, int_a, mz_b, int_b, prec_diff, tol)
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), (
                trial, got, want)

    def test_dense_candidates_still_exact_within_limit(self, rng):
        # Everything pairs with everything: candidate count n_a*n_b <= 12.
        for trial in range(50):
            n_a, n_b = int(rng.integers(2, 4)), int(rng.integers(2, 5))
            mz_a = np.full(n_a, 100.0) + rng.uniform(-0.01, 0.01, n_a)
            mz_b = np.full(n_b, 100.0) + rng.uniform(-0.01, 0.01, n_b)
            int_a = rng.uniform(0.1, 1.0, n_a)
            int_b = rng.uniform(0.1, 1.0, n_b)
            got = score_modified_cosine(mz_a, int_a, mz_b, int_b, 0.0, 0.5)
            want = brute_force_score(mz_a, int_a, mz_b, int_b, 0.0, 0.5)
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


class TestScoreProperties:
    def test_self_score_is_one(self, rng):
        for trial in range(20):
            n = int(rng.integers(3, 12))
            # Separated peaks: only the diagonal pairs are candidates.
            mz = 100.0 + np.arange(n) * 10.0 + rng.uniform(-0.01, 0.01, n)
            intensity = rng.uniform(0.05, 1.0, n)
            score = score_modified_cosine(mz, intensity, mz, intensity, 0.0, 0.1)
            assert abs(score - 1.0) <= 1e-12

    def test_symmetry(self, rng):
        mz_a, int_a = random_peaks(rng, 5, 100.0, 110.0)
        mz_b, int_b = random_peaks(rng, 6, 100.0, 110.0)
        ab = score_modified_cosine(mz_a, int_a, mz_b, int_b, 1.5, 0.5)
        ba = score_modified_cosine(mz_b, int_b, mz_a, int_a, -1.5, 0.5)
        assert math.isclose(ab, ba, rel_tol=1e-12)

    def test_no_matches_scores_zero(self):
        score = score_modified_cosine(
            np.array([100.0]), np.array([1.0]),
            np.array([500.0]), np.array([1.0]), 0.0, 0.1,
        )
        assert score == 0.0

    def test_empty_side_scores_zero(self):
        score = score_modified_cosine(
            np.array([]), np.array([]),
            np.array([100.0]), np.array([1.0]), 0.0, 0.1,
        )
        assert score == 0.0

    def test_shifted_match_counts(self):
        # Fragments 18 Da apart pair through the precursor difference.
        score = score_modified_cosine(
            np.array([100.0]), np.array([1.0]),
            np.array([82.0]), np.array([1.0]), 18.0, 0.01,
        )
        assert abs(score - 1.0) <= 1e-12

    def test_tolerance_boundary_inclusive(self):
        at = score_modified_cosine(
            np.array([100.0]), np.array([1.0]),
            np.array([100.1]), np.array([1.0]), 0.0, 0.1,
        )
        beyond = score_modified_cosine(
            np.array([100.0]), np.array([1.0]),
            np.array([100.11]), np.array([1.0]), 0.0, 0.1,
        )
        assert at > 0.0
        assert beyond == 0.0

    def test_score_clamped_to_unit_interval(self, rng):
        for trial in range(200):
            n_a, n_b = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            mz_a, int_a = random_peaks(rng, n_a, 100.0, 105.0)
            mz_b, int_b = random_peaks(rng, n_b, 100.0, 105.0)
            score = score_modified_cosine(mz_a, int_a, mz_b, int_b, 0.0, 5.0)
            assert 0.0 <= score <= 1.0


class TestGreedyFallback:
    def test_greedy_can_underestimate(self, monkeypatch):
        # a0 pairs with both b peaks, a1 only with b0. Greedy grabs the
        # heaviest pair (a0,b0) and strands a1; the exact search takes
        # the two cross pairs instead.
        mz_a = np.array([100.0, 100.2])
        mz_b = np.array([100.0, 99.8])
        int_a = np.array([1.0, 0.81])
        int_b = np.array([1.0, 0.81])
        exact = score_modified_cosine(mz_a, int_a, mz_b, int_b, 0.2, 0.1)
        monkeypatch.setattr("mzembed.kernels._reference.EXACT_LIMIT", 0)
        greedy = score_modified_cosine(mz_a, int_a, mz_b, int_b, 0.2, 0.1)
        denom = math.sqrt(1.81) * math.sqrt(1.81)
        assert math.isclose(exact, 1.8 / denom, rel_tol=1e-12)
        assert math.isclose(greedy, 1.0 / denom, rel_tol=1e-12)
        assert greedy < exact

    def test_large_candidate_sets_use_greedy_deterministically(self, rng):
        # 6x6 all-pairable grid gives 36 candidates, past the default
        # exact limit. The score must still be reproducible.
        mz_a = np.full(6, 200.0) + rng.uniform(-0.01, 0.01, 6)
        mz_b = np.full(6, 200.0) + rng.uniform(-0.01, 0.01, 6)
        int_a = rng.uniform(0.1, 1.0, 6)
        int_b = rng.uniform(0.1, 1.0, 6)
        first = score_modified_cosine(mz_a, int_a, mz_b, int_b, 0.0, 0.5)
        second = score_modified_cosine(mz_a, int_a, mz_b, int_b, 0.0, 0.5)
        assert first == second
        assert 0.0 < first <= 1.0


class TestLoopParity:
    def test_bit_identical_to_loop_kernel(self, rng, monkeypatch):
        for trial in range(200):
            n_a = int(rng.integers(1, 15))
            n_b = int(rng.integers(1, 15))
            mz_a, int_a = random_peaks(rng, n_a, 100.0, 140.0)
            mz_b, int_b = random_peaks(rng, n_b, 100.0, 140.0)
            prec_diff = float(rng.uniform(-10.0, 10.0))
            tol = float(rng.uniform(0.05, 3.0))
            got = score_modified_cosine(mz_a, int_a, mz_b, int_b, prec_diff, tol)
            want = loop_score(mz_a, int_a, mz_b, int_b, prec_diff, tol)
            assert got == want, (trial, got, want)
        # Two intensity levels make many candidate weights equal, so the
        # (i, j) tie-break decides which pairs the greedy walk takes.
        # Odd trials send the small candidate sets to the exhaustive
        # search instead, with the same ties.
        for trial in range(200):
            n_a = int(rng.integers(2, 15))
            n_b = int(rng.integers(2, 15))
            mz_a = np.sort(rng.uniform(100.0, 110.0, n_a))
            mz_b = np.sort(rng.uniform(100.0, 110.0, n_b))
            int_a = rng.choice([0.25, 1.0], n_a)
            int_b = rng.choice([0.25, 1.0], n_b)
            prec_diff = float(rng.uniform(-3.0, 3.0))
            tol = float(rng.uniform(0.2, 2.0))
            limit = 12 * (trial % 2)
            monkeypatch.setattr("mzembed.kernels._reference.EXACT_LIMIT", limit)
            got = score_modified_cosine(mz_a, int_a, mz_b, int_b, prec_diff, tol)
            want = loop_score(mz_a, int_a, mz_b, int_b, prec_diff, tol, exact_limit=limit)
            assert got == want, (trial, got, want)


class TestSpectrumWrapper:
    def test_uses_fragments_not_precursor(self):
        frags = (Peak(100.0, 1.0), Peak(150.0, 0.5))
        a = Spectrum(id="a", precursor=Peak(400.0, 2.0), fragments=frags)
        b = Spectrum(id="b", precursor=Peak(400.0, 0.7), fragments=frags)
        # Same precursor m/z, different precursor intensity: the
        # intensity must not matter because precursors are not matched.
        assert abs(modified_cosine(a, b) - 1.0) <= 1e-12

    def test_precursor_difference_defines_shift(self):
        a = Spectrum(
            id="a", precursor=Peak(400.0, 2.0),
            fragments=(Peak(100.0, 1.0), Peak(200.0, 1.0)),
        )
        b = Spectrum(
            id="b", precursor=Peak(382.0, 2.0),
            fragments=(Peak(82.0, 1.0), Peak(182.0, 1.0)),
        )
        # All fragments are 18 Da apart, exactly the precursor delta.
        assert abs(modified_cosine(a, b, tol=0.01) - 1.0) <= 1e-12

    def test_bad_tolerance_rejected(self):
        s = Spectrum(id="a", precursor=Peak(400.0, 2.0), fragments=(Peak(100.0, 1.0),))
        with pytest.raises(NumericsError):
            modified_cosine(s, s, tol=0.0)
        with pytest.raises(NumericsError):
            modified_cosine(s, s, tol=-1.0)
