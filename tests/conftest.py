from typing import NamedTuple

import numpy as np
import pytest

from convergence_lab import (
    DEFAULT_GRID_SIZE,
    LatticeMeasure,
    TestFunction,
    fourier_eval,
    from_pairs,
    weighted_average,
)
from convergence_lab.measures import _chain_span, _prefix_stream
from convergence_lab.spectral import _NEAR_ZERO_WINDOW
from convergence_lab.sweepout import DissipativityRow, _window_max


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


#: Bound, in units of |scale|, on how far the trace that the cyclic recursion
#: reads off its vector of averages may lie from weighted_average on mu_n: the
#: two sum the same products in different orders.  Measured: at most
#: 1.3e-15 |scale| up to horizon 100 on the iid and inverse-square families.
RECURSION_TRACE_ATOL = 1e-13


def roll_average_all(sys, mu, f) -> np.ndarray:
    """mu f(x) over every state of a cyclic system, as the sum over the atoms
    k of mu, ascending from 0.0, of mu(k) times f rotated by k."""
    fvals = f.evaluate(sys, np.arange(sys.q, dtype=np.int64))
    out = np.zeros(sys.q)
    for k, w in zip(*mu.atoms()):
        out += w * np.roll(fvals, -int(k) % sys.q)
    return out


def table_chain(sys, spec, f, N) -> list[np.ndarray]:
    """mu_n f for n = 1..N by vals <- roll_average_all(sys, nu_n, table(vals))."""
    vals = roll_average_all(sys, spec.measure_at(1), f)
    chain = [vals]
    for n in range(2, N + 1):
        vals = roll_average_all(sys, spec.measure_at(n), TestFunction.table(vals))
        chain.append(vals)
    return chain


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


class PreconditionError(ValueError):
    """A checked hypothesis failed; carries the offending grid point."""

    def __init__(self, message: str, witness_t: float, witness_value: float):
        super().__init__(message)
        self.witness_t = witness_t
        self.witness_value = witness_value


def quadratic_minorant_check(
    mu: LatticeMeasure,
    b: float,
    c: float,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> bool:
    """Check |mu_hat(t)| <= 1 - ((1-c^2)/(8 b^2)) t^2 on |t| <= b.

    Preconditions, verified first: 0 < b < 1/4 and |mu_hat(t)| <= c < 1 on
    b <= |t| < 1/2.  A grid point of that region with |mu_hat| above c is a
    genuine violation and raises :class:`PreconditionError` carrying it (the
    sup is often attained exactly at |t| = b, so the precondition is checked
    at grid points rather than padded, which would reject equality cases).
    The quadratic bound itself is tested at all grid points with |t| <= b,
    tightened by the Lipschitz margin outside the near-zero window where
    the margin is informative.
    """
    if not 0.0 < b < 0.25:
        raise ValueError("b must lie in (0, 1/4)")
    if not 0.0 < c < 1.0:
        raise ValueError("c must lie in (0, 1)")
    profile = fourier_eval(mu, grid_size)
    ts = profile.grid
    absvals = np.abs(profile.values)
    h = profile.grid_step
    margin = profile.lipschitz_bound * h / 2.0

    region = np.abs(ts) >= b
    if np.any(absvals[region] > c + 1e-12):
        worst = int(np.argmax(absvals[region]))
        raise PreconditionError(
            "sup over b <= |t| < 1/2 exceeds c",
            witness_t=float(ts[region][worst]),
            witness_value=float(absvals[region][worst]),
        )

    q = (1.0 - c * c) / (8.0 * b * b)
    inner = np.abs(ts) <= b
    if np.any(absvals[inner] > 1.0 - q * ts[inner] ** 2 + 1e-12):
        return False
    tight = inner & (np.abs(ts) > _NEAR_ZERO_WINDOW)
    if np.any(tight):
        lhs = absvals[tight] + margin
        rhs = 1.0 - q * (np.abs(ts[tight]) + h / 2.0) ** 2
        if np.any(lhs > rhs + 1e-12):
            return False
    return True


class HolderWitness(NamedTuple):
    x: int
    y: int
    ratio: float


def holder_smoothness_check(
    mu: LatticeMeasure, alpha: float, C: float
) -> tuple[bool, HolderWitness]:
    """Exhaustive check of |mu(x+y) - mu(x)| <= C |y|^a / |x|^(1+a).

    Pairs run over 2|y| <= |x|, y != 0, with x in [-2 W, 2 W] for W the
    largest absolute support point; beyond that window both terms vanish.
    Returns the verdict and the worst pair with its ratio
    |mu(x+y) - mu(x)| |x|^(1+a) / |y|^a.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if C <= 0.0:
        raise ValueError("C must be positive")
    reach = 2 * max(abs(mu.min_index), abs(mu.max_index))
    worst = HolderWitness(0, 0, 0.0)
    for x in range(-reach, reach + 1):
        half = abs(x) // 2
        if half == 0:
            continue
        ys = np.arange(-half, half + 1, dtype=np.int64)
        ys = ys[ys != 0]
        diffs = np.abs(mu.weights_at(x + ys) - mu.weight(x))
        ratios = diffs * float(abs(x)) ** (1.0 + alpha) / np.abs(ys).astype(float) ** alpha
        i = int(np.argmax(ratios))
        if ratios[i] > worst.ratio:
            worst = HolderWitness(x, int(ys[i]), float(ratios[i]))
    return worst.ratio <= C, worst


def second_moment_floor(a_n: float, c: float, d: float) -> float:
    """Lower bound d c^2 / (1 - a_n) for the second moment of a centered
    atom-plus-remainder measure with atom weight a_n >= d and |site| >= c."""
    if not 0.0 < a_n < 1.0:
        raise ValueError("a_n must lie in (0, 1)")
    if c < 1.0:
        raise ValueError("c must be at least 1")
    if d <= 0.0:
        raise ValueError("d must be positive")
    return d * c * c / (1.0 - a_n)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)


def dense_factor(atoms: int, seed: int, offset: int = 0) -> LatticeMeasure:
    """``atoms`` random weights on consecutive sites from ``offset``: with more
    than 32 atoms, its product with a prefix of as many takes np.convolve."""
    w = np.random.default_rng(seed).random(atoms) + 1e-3
    return LatticeMeasure(offset, w / w.sum())


def full_dissipativity_trace(spec, K: int, N: int, prune_eps: float = 0.0) -> list:
    """Rows of dissipativity_trace read off the full chain: the window max
    of every prefix of the borrowed stream, each prefix whole."""
    prefixes = _prefix_stream(spec, N, prune_eps, _chain_span(spec, N))
    return [DissipativityRow(n, _window_max(mu, K)) for n, mu in enumerate(prefixes, start=1)]
