"""Per-call times of the modified-cosine kernel on synthetic peak lists.

The sparse cases are typical library spectra over m/z 100-1000; the dense
case packs its peaks into 3 Da, which forces large candidate sets and the
exhaustive matcher. Times are for the active backend. Where the compiled
backend exists, its scores must be bit-identical to the pure-Python ones.
"""

from __future__ import annotations

import time

import numpy as np

TOLERANCE = 0.1
# (name, peaks per spectrum, m/z range)
CASES = (
    ("sparse8", 8, (100.0, 1000.0)),
    ("sparse16", 16, (100.0, 1000.0)),
    ("sparse32", 32, (100.0, 1000.0)),
    ("sparse64", 64, (100.0, 1000.0)),
    ("dense12", 12, (100.0, 103.0)),
)


def make_pairs(rng, n_peaks: int, count: int, mz_range):
    pairs = []
    for _ in range(count):
        mz_a = np.sort(rng.uniform(*mz_range, n_peaks))
        mz_b = np.sort(rng.uniform(*mz_range, n_peaks))
        int_a = rng.uniform(0.05, 1.0, n_peaks)
        int_b = rng.uniform(0.05, 1.0, n_peaks)
        pairs.append((mz_a, int_a, mz_b, int_b, float(rng.uniform(-20.0, 20.0))))
    return pairs


def _score_all(score, pairs) -> tuple[float, list[float]]:
    start = time.perf_counter()
    scores = [score(a, ia, b, ib, diff, TOLERANCE) for a, ia, b, ib, diff in pairs]
    return time.perf_counter() - start, scores


def run_cases(seed: int, trials: int) -> tuple[dict[str, float], str]:
    """Per-call times for the active backend, and the backend parity.

    Parity is "identical" or "differ" when the compiled backend exists,
    and "not checked" when it does not.
    """
    from mzembed.kernels import _reference, score_modified_cosine

    try:
        from mzembed.kernels import _matching
    except ImportError:
        _matching = None

    rng = np.random.default_rng([seed, 0x4B])
    metrics, parity = {}, "not checked" if _matching is None else "identical"
    for name, n_peaks, mz_range in CASES:
        pairs = make_pairs(rng, n_peaks, trials, mz_range)
        elapsed = _score_all(score_modified_cosine, pairs)[0]
        metrics[f"kernels.{name}.us_per_call"] = 1e6 * elapsed / trials
        if _matching is not None:
            reference = _score_all(_reference.score_modified_cosine, pairs)[1]
            compiled = _score_all(_matching.score_modified_cosine, pairs)[1]
            if reference != compiled:
                parity = "differ"
    return metrics, parity
