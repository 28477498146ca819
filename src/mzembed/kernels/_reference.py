"""Modified-cosine peak matching, vectorised with numpy.

Candidate pairs, their weights and their order come from whole-array
operations; only the matching itself walks the sorted candidates. The
floating-point operations and their order are those of the plain
double loop over (i, j) kept in the tests as the reference, so the
scores are bit-identical to it; tests assert that.
"""

from __future__ import annotations

import math

import numpy as np

# Matchings with at most this many candidate pairs are solved exactly.
EXACT_LIMIT = 12


def score_modified_cosine(mz_a, int_a, mz_b, int_b, prec_diff, tol):
    """Modified cosine score between two peak lists.

    Peaks i (from a) and j (from b) are pairable when their m/z
    difference, directly or shifted by the precursor mass difference
    prec_diff, is within tol. Each pair weighs sqrt(Ia)*sqrt(Ib); the
    score is the total weight of a maximal one-to-one matching divided
    by sqrt(sum Ia) * sqrt(sum Ib). Matchings with at most EXACT_LIMIT
    candidate pairs are solved exactly; larger ones greedily by
    descending weight with ties broken by (i, j).
    """
    mz_a = np.ascontiguousarray(mz_a, dtype=np.float64)
    int_a = np.ascontiguousarray(int_a, dtype=np.float64)
    mz_b = np.ascontiguousarray(mz_b, dtype=np.float64)
    int_b = np.ascontiguousarray(int_b, dtype=np.float64)
    n_a, n_b = mz_a.shape[0], mz_b.shape[0]

    # cumsum adds left to right; np.sum adds pairwise and can round differently.
    sum_a = float(np.cumsum(int_a)[-1]) if n_a else 0.0
    sum_b = float(np.cumsum(int_b)[-1]) if n_b else 0.0
    denom = math.sqrt(sum_a) * math.sqrt(sum_b)
    if denom == 0.0:
        return 0.0

    diff = mz_a[:, None] - mz_b[None, :]
    # Row-major, so candidates come in the (i, j) order of a double loop.
    ii, jj = np.nonzero((np.abs(diff) <= tol) | (np.abs(diff - prec_diff) <= tol))
    if ii.shape[0] == 0:
        return 0.0

    w = np.sqrt(int_a)[ii] * np.sqrt(int_b)[jj]
    order = np.lexsort((jj, ii, -w))
    w, ii, jj = w[order], ii[order], jj[order]
    n = w.shape[0]

    if n <= EXACT_LIMIT:
        total = _exact_best(w, ii, jj, n)
    else:
        used_a = [False] * n_a
        used_b = [False] * n_b
        total = 0.0
        for weight, i, j in zip(w.tolist(), ii.tolist(), jj.tolist()):
            if not used_a[i] and not used_b[j]:
                used_a[i] = True
                used_b[j] = True
                total += weight

    score = total / denom
    if score > 1.0:
        score = 1.0
    elif score < 0.0:
        score = 0.0
    return float(score)


def _exact_best(w, ii, jj, n):
    """Maximum-weight one-to-one matching over candidate pairs, by search.

    Candidates arrive sorted by descending weight. suffix[k] bounds what
    positions k.. can still add, pruning hopeless branches.
    """
    suffix = np.zeros(n + 1, dtype=np.float64)
    for k in range(n - 1, -1, -1):
        suffix[k] = suffix[k + 1] + w[k]

    best = [0.0]

    def walk(k, acc, used_a, used_b):
        if acc > best[0]:
            best[0] = acc
        if k == n or acc + suffix[k] <= best[0]:
            return
        i, j = int(ii[k]), int(jj[k])
        if i not in used_a and j not in used_b:
            used_a.add(i)
            used_b.add(j)
            walk(k + 1, acc + w[k], used_a, used_b)
            used_a.discard(i)
            used_b.discard(j)
        walk(k + 1, acc, used_a, used_b)

    walk(0, 0.0, set(), set())
    return best[0]
