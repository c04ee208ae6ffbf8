import numpy as np
import pytest

from convergence_lab import LatticeMeasure, from_pairs, weighted_average


def random_measure(
    rng: np.random.Generator,
    max_span: int = 20,
    min_weight: float = 0.05,
    allow_offset: bool = True,
) -> LatticeMeasure:
    """Random probability measure with a bounded window and no tiny atoms.

    Weights are drawn away from zero so spectral-gap certificates on the
    corpus are well separated from the periodic boundary cases.
    """
    span = int(rng.integers(1, max_span + 1))
    w = min_weight + rng.random(span)
    # randomly knock out interior entries to vary the support pattern
    if span > 2:
        mask = rng.random(span) < 0.25
        mask[0] = mask[-1] = False
        w[mask] = 0.0
    w /= w.sum()
    offset = int(rng.integers(-max_span, max_span + 1)) if allow_offset else 0
    return LatticeMeasure(offset, w)


def random_symmetric_measure(rng: np.random.Generator, max_half: int = 10) -> LatticeMeasure:
    """Random measure symmetric about 0, hence with exactly zero expectation."""
    half = int(rng.integers(1, max_half + 1))
    right = rng.random(half)
    center = rng.random()
    w = np.concatenate([right[::-1], [center], right])
    w /= w.sum()
    return LatticeMeasure(-half, w)


def advance(sys, xs: np.ndarray, k: int) -> np.ndarray:
    """Apply tau^k to the states ``xs``; k may be negative (the shift is invertible)."""
    if sys.is_cyclic:
        return (np.asarray(xs, dtype=np.int64) + int(k)) % sys.q
    return (np.asarray(xs, dtype=float) + k * sys.alpha) % 1.0


def maximal_function(sys, mus, f, x) -> float:
    """max over the supplied prefixes of |mu_n f(x)|."""
    if not mus:
        raise ValueError("need at least one measure")
    return max(abs(weighted_average(sys, mu, f, x)) for mu in mus)


def l1_distance(a: LatticeMeasure, b: LatticeMeasure) -> float:
    """Sum of |a(k) - b(k)| over the union of the two windows."""
    lo = min(a.min_index, b.min_index)
    hi = max(a.max_index, b.max_index)
    wa = np.zeros(hi - lo + 1)
    wb = np.zeros(hi - lo + 1)
    wa[a.min_index - lo : a.min_index - lo + len(a.weights)] = a.weights
    wb[b.min_index - lo : b.min_index - lo + len(b.weights)] = b.weights
    return float(np.sum(np.abs(wa - wb)))


def condition(report, name: str):
    """The condition of ``report`` called ``name``."""
    for c in report.conditions:
        if c.name == name:
            return c
    raise KeyError(name)


def decomposition_error(spec, n: int) -> float:
    """l1 gap between the n-th factor and its reconstructed decomposition."""
    a, site, gamma = spec.decomposition(n)
    scaled = {site: a}
    for k, w in zip(gamma.support, gamma.weights[np.flatnonzero(gamma.weights)]):
        scaled[int(k)] = scaled.get(int(k), 0.0) + (1.0 - a) * float(w)
    return l1_distance(spec.measure_at(n), from_pairs(scaled))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)
