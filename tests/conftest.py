import math
from typing import NamedTuple, Optional

import numpy as np
import pytest

from convergence_lab import (
    DEFAULT_GRID_SIZE,
    LatticeMeasure,
    TestFunction,
    decay_constant,
    fourier_at,
    fourier_eval,
    from_pairs,
    moment,
    prefix_fourier_profiles,
    tv_shift_distance,
    weighted_average,
    weighted_average_all,
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


def dense_at(spec, n: int) -> LatticeMeasure:
    """nu_n as a dense window, straight from the spec's rule."""
    return spec.measure_at(n).dense()


def factor_at(spec, n: int):
    """The n-th factor of the spec's walk."""
    return list(spec.factors(n))[-1]


def decomposition(spec, n: int) -> tuple[float, int, dict]:
    """The split a delta_x + (1 - a) gamma of the n-th factor, read off its
    atoms: x the spec's atom site, a the factor's weight there, and gamma,
    as ``{site: weight}``, its other atoms scaled to mass 1."""
    nu, x = factor_at(spec, n), spec.atom_site
    a = nu.weight(x)
    gamma = {int(k): float(w) / (1.0 - a) for k, w in zip(*nu.atoms()) if k != x}
    return a, x, gamma


def decomposition_error(spec, n: int) -> float:
    """l1 gap between the n-th factor and its decomposition rebuilt as
    a delta_x + (1 - a) gamma; gamma must have mass 1."""
    a, site, gamma = decomposition(spec, n)
    assert abs(sum(gamma.values()) - 1.0) <= 1e-12
    scaled = {site: a}
    for k, w in gamma.items():
        scaled[k] = scaled.get(k, 0.0) + (1.0 - a) * w
    return l1_distance(factor_at(spec, n).dense(), from_pairs(scaled))


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
    """``atoms`` random weights on consecutive sites from ``offset``: a dense
    factor, whose products with prefixes of as many atoms or more loop over
    the factor's atoms."""
    w = np.random.default_rng(seed).random(atoms) + 1e-3
    return LatticeMeasure(offset, w / w.sum())


def full_dissipativity_trace(spec, K: int, N: int, prune_eps: float = 0.0) -> list:
    """Rows of dissipativity_trace read off the full chain: the window max
    of every prefix of the borrowed stream, each prefix whole."""
    prefixes = _prefix_stream(spec, N, prune_eps, _chain_span(spec, N))
    return [DissipativityRow(n, _window_max(mu, K)) for n, mu in enumerate(prefixes, start=1)]


# -- paper checks that the program does not read -------------------------------------
def wrap_to_fundamental(t: float) -> float:
    """Reduce t modulo 1 into [-1/2, 1/2)."""
    return (t + 0.5) % 1.0 - 0.5


def doubling_defect(mu: LatticeMeasure, t: float) -> float:
    """Slack in the frequency-doubling inequality at t.

    Returns ``4 (1 - |mu_hat(t)|^2) - (1 - |mu_hat(2t)|^2)``, which is
    nonnegative for every probability measure.
    """
    t1 = wrap_to_fundamental(t)
    t2 = wrap_to_fundamental(2.0 * t)
    v1, v2 = fourier_at(mu, np.array([t1, t2]))
    return 4.0 * (1.0 - abs(v1) ** 2) - (1.0 - abs(v2) ** 2)


def offzero_modulus_bound(mu: LatticeMeasure, grid_size: int = DEFAULT_GRID_SIZE) -> tuple[float, float]:
    """Certified upper bound for sup |mu_hat(t)| over |t| >= 1/16.

    Returns ``(bound, witness_t)``.  A bound < 1 certifies a spectral gap on
    that region; periodic measures always report a bound >= 1 because some
    unit-modulus point lies within half a cell of the grid.
    """
    profile = fourier_eval(mu, grid_size)
    h = profile.grid_step
    region = np.abs(profile.grid) >= _NEAR_ZERO_WINDOW - h / 2.0
    vals = np.abs(profile.values[region]) + profile.lipschitz_bound * h / 2.0
    i = int(np.argmax(vals))
    return float(vals[i]), float(profile.grid[region][i])


def two_atom_bound(delta: float, eta: float) -> float:
    """Exact maximum of |a1 z1 + a2 z2| over the constrained two-atom set.

    Over a1 + a2 = 1, a1, a2 >= delta, |z1| = |z2| = 1, |z1 - z2| >= eta the
    squared modulus is 1 - a1 a2 |z1 - z2|^2, maximized at the constraint
    corner, giving sqrt(1 - delta (1 - delta) eta^2).
    """
    if not 0.0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    if not 0.0 < eta <= 2.0:
        raise ValueError("eta must lie in (0, 2]")
    return math.sqrt(1.0 - delta * (1.0 - delta) * eta * eta)


def second_derivative_majorant_ratio(
    spec,
    N: int,
    grid_size: int = DEFAULT_GRID_SIZE,
    C: Optional[float] = None,
) -> float:
    """Worst ratio of |mu_n''(t)| to its two-term Gaussian majorant.

    The majorant is ``4 pi^2 phi(n) e^{-(n-1) C t^2}
    + 16 pi^4 phi(n)^2 e^{-(n-2) C t^2} t^2`` with phi(n) the cumulative
    second moment; it is valid whenever every factor is centered and has a
    certified decay constant at least C (by default the least over the
    distinct factors).  A return value <= 1 (up to rounding) confirms the
    bound chain at grid resolution for all n <= N.
    """
    factors = list(spec.factors(N))
    if C is None:
        C = min(decay_constant(nu.dense(), grid_size) for nu in {id(nu): nu for nu in factors}.values())
    if C <= 0.0:
        raise ValueError("majorant requires a positive decay constant")
    worst = 0.0
    phis = np.cumsum([moment(nu.dense(), 2.0) for nu in factors])
    profiles = prefix_fourier_profiles(spec, N, grid_size)
    for n, (profile, phi) in enumerate(zip(profiles, phis), start=1):
        t2 = profile.grid**2
        bound = (
            4.0 * math.pi**2 * phi * np.exp(-(n - 1) * C * t2)
            + 16.0 * math.pi**4 * phi * phi * np.exp(-max(n - 2, 0) * C * t2) * t2
        )
        worst = max(worst, float(np.max(np.abs(profile.d2) / bound)))
    return worst


def coboundary_bound_check(sys, mu: LatticeMeasure, g: TestFunction) -> tuple[float, float]:
    """Contrast ``sup_x |mu g(x) - mu(g o tau)(x)|`` with its shift bound.

    Returns ``(lhs, rhs)`` where rhs = tv_shift_distance(mu) * sup|g|; the
    lhs never exceeds the rhs (up to rounding).
    """
    direct = weighted_average_all(sys, mu, g)
    shifted = weighted_average_all(sys, LatticeMeasure(mu.min_index + 1, mu.weights, mu.mass_defect), g)
    lhs = float(np.max(np.abs(direct - shifted)))
    rhs = tv_shift_distance(mu) * g.sup_norm(sys)
    return lhs, rhs
