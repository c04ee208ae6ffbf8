"""The three-atom counterexample family and sweep-out diagnostics.

The family puts weight (1+2b)/(3+2b) at k=1 and 1/(3+2b) at k=-b and
k=-b-1, with b = floor(1/(1-a_n)) driven by a rate sequence a_n -> 1.
Each member is centered, and the mass splits as an atom at 1 plus a far
remainder, which drives both dissipativity of the running products and a
positive floor on |mu_n_hat| away from the trivial character.  The rule
hands out each member as its three atoms, once per run through the spec's
walk, and the spec names 1 as the atom site, so a_n is read off them.

The sweep-out simulation is a running max and min over the averages of
chi_B, read from ``dynamics._averages``, the one generator of averages
over every state: on a cyclic system without pruning it runs the
recursion mu_n chi_B = nu_n(mu_{n-1} chi_B), which forms no prefix, and
otherwise it reads the borrowed prefix stream of
:mod:`~convergence_lab.measures` through the state-averaging engine.  On
the stream its memory is the chain's one prefix buffer and, on the
rotation, the engine's table of state cells, each as wide as the widest
window the factors allow, both sized from the factors' windows before
the first convolution; past them, a step of the unpruned chain allocates
only small arrays, such as the vector of averages.

A dissipativity row reads mu_n only inside [-K, K].  Its one producer,
:func:`dissipativity_trace`, runs a chain of its own on each prefix cut
to its reachable window, the sites from which a later prefix can still
reach [-K, K]; for the sweep-out family that window is about K + N sites
on the left of 0, however wide the prefix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .measures import (
    DEFAULT_SUPPORT_CAP,
    Factor,
    LatticeMeasure,
    SequenceSpec,
    SupportCapError,
    _atom_products,
    convolve,
    prefix_windows,
    prune,
)
from .spectral import _product_rule, fourier_at
from .dynamics import DynSystem, TestFunction, _averages, _extremes

#: Reporting conventions for the simulation summaries.
HIGH_THRESHOLD = 0.9
LOW_THRESHOLD = 0.1


def example_measure(b: int) -> LatticeMeasure:
    """Three-atom centered measure with parameter b >= 1, as a dense window.

    Raises :class:`SupportCapError` before allocating when its diameter
    b + 2 exceeds the support cap.
    """
    return _example_factor(b).dense()


def _example_factor(b: int) -> Factor:
    """The atoms of :func:`example_measure`, held to its cap."""
    b = int(b)
    if b < 1:
        raise ValueError("b must be at least 1")
    if b + 2 > DEFAULT_SUPPORT_CAP:
        raise SupportCapError(f"factor diameter {b + 2} exceeds cap {DEFAULT_SUPPORT_CAP}")
    denom = 3 + 2 * b
    return Factor(np.array([-b - 1, -b, 1]), np.array([1.0 / denom, 1.0 / denom, (1 + 2 * b) / denom]))


@dataclass(frozen=True)
class SweepoutFamily:
    """Rate sequence a_n in [0, 1) with the derived three-atom measures."""

    name: str
    a_of: Callable[[int], float]

    def a_at(self, n: int) -> float:
        a = float(self.a_of(n))
        if a == 1.0:  # b_n = floor(1/(1 - a_n)) is unbounded
            raise SupportCapError(f"a_{n} rounds to 1.0, so b_{n} exceeds cap {DEFAULT_SUPPORT_CAP}")
        if not a < 1.0:
            raise ValueError(f"a_{n} = {a} must be below 1")
        return a

    def b_at(self, n: int) -> int:
        a = self.a_at(n)
        # Nudge before flooring: closed-form rates often make 1/(1-a) an
        # exact integer which float division lands a few ulps short of.
        b = math.floor(1.0 / (1.0 - a) + 1e-9)
        if b < 1:
            raise ValueError(f"a_{n} = {a} yields b < 1")
        return b

    def measure_at(self, n: int) -> Factor:
        return _example_factor(self.b_at(n))

    def to_spec(self) -> SequenceSpec:
        return SequenceSpec(name=self.name, measure_at=self.measure_at, atom_site=1)


def inverse_square_family(coeff: float = 1.0) -> SweepoutFamily:
    """Rates a_n = 1 - 1/(coeff n^2); the defect series is summable."""
    if coeff < 1.0:
        raise ValueError("coeff must be at least 1 so that b_1 >= 1")
    return SweepoutFamily(
        name=f"three_atom_inverse_square_{coeff:g}",
        a_of=lambda n: 1.0 - 1.0 / (coeff * n * n),
    )


def geometric_family(ratio: float = 0.5) -> SweepoutFamily:
    """Rates a_n = 1 - ratio^n with ratio in (0, 1)."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    return SweepoutFamily(
        name=f"three_atom_geometric_{ratio:g}",
        a_of=lambda n: 1.0 - ratio**n,
    )


# -- diagnostics -----------------------------------------------------------------------
class DissipativityRow(NamedTuple):
    n: int
    window_max: float


def dissipativity_trace(spec: SequenceSpec, K: int, N: int, prune_eps: float = 0.0) -> list[DissipativityRow]:
    """Rows (n, max_{|k| <= K} mu_n(k)) for the running products, pruned by
    ``prune_eps`` after each convolution as :func:`iter_prefixes` prunes them.

    The chain keeps each prefix only on its reachable window R_n, outside
    which no site of mu_n can reach [-K, K] by step N: with [lo_m, hi_m]
    the window of mu_m, R_n = [-K - up_n, K - dn_n] for up_n the largest
    hi_m - hi_n and dn_n the smallest lo_m - lo_n over n <= m <= N.  A site
    of mu_n outside R_n moves, at each step, to one outside the next
    window, so cutting it off changes no weight inside them; before each
    product the factor is cut likewise, to the atoms that carry the prefix
    into R_n.  A cut that leaves no mass makes this and every later row 0.0.
    A kept weight gets the terms it has on the full chain, which the kernel
    adds on both in ascending order of the factor's sites, so the rows are
    the full chain's bit for bit.
    """
    if K < 1 or N < 1:
        raise ValueError("K and N must be positive")
    if not 0.0 <= prune_eps <= 1e-8:
        raise ValueError("prune_eps must lie in [0, 1e-8]")
    factors = list(spec.factors(N))
    windows = list(prefix_windows(factors))
    # R_n from the extremes of the later windows' ends, the last prefix first.
    reach, top, bottom = [], windows[-1].hi, windows[-1].lo
    for w in reversed(windows):
        top, bottom = max(top, w.hi), min(bottom, w.lo)
        reach.append((w.hi - top - K, w.lo - bottom + K))
    reach.reverse()

    mu = _restrict(factors[0].dense(), *reach[0], 0.0)
    rows = [DissipativityRow(1, 0.0 if mu is None else _window_max(mu, K))]
    for n, nu in enumerate(factors[1:], start=2):
        if mu is not None:
            lo, hi = reach[n - 1]
            cut = _cut(nu, lo - mu.max_index, hi - mu.min_index)
            mu = None if cut is None else _restrict(convolve(mu, cut), lo, hi, prune_eps)
        rows.append(DissipativityRow(n, 0.0 if mu is None else _window_max(mu, K)))
    return rows


def _cut(nu: LatticeMeasure | Factor, lo: int, hi: int) -> LatticeMeasure | Factor | None:
    """The atoms of nu on [lo, hi] alone, the mass of the others joining
    the defect; nu itself when it loses none, None when none is left."""
    sites, ws = nu.atoms()
    i, j = np.searchsorted(sites, (lo, hi + 1)).tolist()
    if i >= j:
        return None
    if (i, j) == (0, len(sites)):
        return nu
    lost = float(np.sum(ws[:i])) + float(np.sum(ws[j:]))
    return Factor(sites[i:j], ws[i:j], nu.mass_defect + lost)


def _restrict(mu: LatticeMeasure, lo: int, hi: int, eps: float) -> Optional[LatticeMeasure]:
    """mu on [lo, hi] alone, pruned by ``eps``, with the mass it loses
    joining the defect as in :func:`prune`; None when no weight of at least
    ``eps`` is left there, or none at all."""
    i, j = max(lo - mu.min_index, 0), min(hi - mu.min_index + 1, len(mu.weights))
    inside = mu.weights[i:max(i, j)]
    top = float(np.max(inside, initial=0.0))
    if top == 0.0 or top < eps:
        return None
    if (i, j) != (0, len(mu.weights)):
        lost = float(np.sum(mu.weights[:i])) + float(np.sum(mu.weights[j:]))
        mu = LatticeMeasure(mu.min_index + i, inside, mu.mass_defect + lost)
    return prune(mu, eps)


def _window_max(mu: LatticeMeasure, K: int) -> float:
    """max_{|k| <= K} mu(k), read off the weights inside [-K, K] alone.

    A site of the window outside mu's carries 0.0, which the initial value
    of the maximum stands for: weights are nonnegative, so it changes
    nothing else, and it is the value when the window misses mu's.
    """
    lo, hi = max(-K, mu.min_index), min(K, mu.max_index)
    inside = mu.weights[lo - mu.min_index : max(lo, hi + 1) - mu.min_index]
    return float(np.max(inside, initial=0.0))


class ScanRow(NamedTuple):
    t: float
    floor_min: float
    product_bound: float


@dataclass(frozen=True)
class FloorScanResult:
    """Per-point floor of |mu_n_hat| on a tail window against the atom product."""

    rows: list[ScanRow]
    product_bound: float
    vacuous: bool
    window_start: int
    horizon: int

    @property
    def contract_margin(self) -> float:
        """min over points of (observed floor - product bound); the product
        bound is a proven lower bound, so this should never be below -1e-10."""
        return min(r.floor_min - r.product_bound for r in self.rows)


def scan_points(max_denominator: int = 8, uniform: int = 0) -> np.ndarray:
    """Low-denominator rationals in [-1/2, 1/2), optionally plus a uniform grid.

    The points are p / q for the integers 1 <= q <= Q = ``max_denominator``
    and -q <= 2p < q, each the correctly rounded float of p/q, so equal
    fractions such as 1/2 and 2/4 give one point, and distinct rationals,
    at least 1/Q^2 apart, give distinct floats.  A Q with Q^2 + 2Q above
    the support cap, or a ``uniform`` above it, raises
    :class:`SupportCapError` before the enumeration starts.
    """
    candidates = max_denominator * (max_denominator + 2)
    if max(candidates, uniform) > DEFAULT_SUPPORT_CAP:
        raise SupportCapError(
            f"floor scan of {candidates} candidates and {uniform} uniform points"
            f" exceeds cap {DEFAULT_SUPPORT_CAP}"
        )
    pts = {0.0}
    for q in range(1, max_denominator + 1):
        pts.update(p / q for p in range(-(q // 2), (q + 1) // 2))
    if uniform > 0:
        pts.update(-0.5 + j / uniform for j in range(uniform))
    return np.array(sorted(pts))


def fourier_floor_scan(spec: SequenceSpec, points: Sequence[float], N: int) -> FloorScanResult:
    """Floor of |mu_n_hat(t)| over a tail window against the product bound.

    The floor at each point is the minimum over n in the window
    [max(1, N//2), N], a finite-horizon proxy for tail behavior; the result
    reports its start as ``window_start``.
    The bound prod_l (2 a_l - 1) uses the factors' weights at the atom
    site; it is reported as vacuous (0) when the spec names no atom site or
    some atom weight is at most 1/2.  The transforms of the running products
    are pointwise products of the factor transforms, each summed over the
    atoms once per run of one factor, so no large convolutions are formed.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    ts = np.asarray(points, dtype=float)
    if np.any(ts < -0.5) or np.any(ts >= 0.5):
        raise ValueError("scan points must lie in [-1/2, 1/2)")
    window_start = max(1, N // 2)
    running = np.ones((1, len(ts)), dtype=complex)
    floor = np.full(len(ts), np.inf)
    prev = None
    for n, nu in enumerate(spec.factors(N), start=1):
        if nu is not prev:
            prev, g = nu, (fourier_at(nu, ts),)
        _product_rule(running, g)
        if n >= window_start:
            floor = np.minimum(floor, np.abs(running[0]))

    vacuous = spec.atom_site is None
    if not vacuous:
        _, factors, products = _atom_products(spec, N)
        vacuous = bool(np.any(factors <= 0.0))
    bound = 0.0 if vacuous else float(products[-1])
    rows = [ScanRow(float(t), float(f), bound) for t, f in zip(ts, floor)]
    return FloorScanResult(rows, bound, vacuous, window_start, N)


# -- simulation -------------------------------------------------------------------------
@dataclass(frozen=True)
class SweepoutSimulation:
    """Per-state running extrema of mu_n chi_B and their distribution summary.

    ``frac_high`` is the fraction of sampled states whose running max reached
    ``HIGH_THRESHOLD``; ``frac_low`` the fraction whose running min fell to
    ``LOW_THRESHOLD``.  These are finite-horizon reporting conventions, not
    limit claims.
    """

    sup_trace: np.ndarray
    inf_trace: np.ndarray
    frac_high: float
    frac_low: float
    horizon: int
    set_measure: float


def sweepout_simulation(
    sys: DynSystem,
    spec: SequenceSpec,
    B_measure: float,
    N: int,
    prune_eps: float = 0.0,
) -> SweepoutSimulation:
    """Running max/min of mu_n chi_B(x) over n <= N for every sampled state.

    B is the block {0, ..., round(B_measure q) - 1} on the cyclic system and
    the interval [0, B_measure) on the rotation.  The per-state values are
    sums of mu_n mass over the preimage of B, exact on the streamed prefixes;
    on a cyclic system without pruning they come from the recursion
    mu_n chi_B = nu_n(mu_{n-1} chi_B), which forms no prefix and sums the
    same products in another order, so they may differ in the last bits.
    """
    if not 0.0 <= B_measure <= 1.0:
        raise ValueError("B_measure must lie in [0, 1]")
    if N < 1:
        raise ValueError("N must be >= 1")
    if sys.is_cyclic:
        block_len = int(round(B_measure * sys.q))
        f, set_measure = TestFunction.indicator_block(0, block_len), block_len / sys.q
    else:
        f, set_measure = TestFunction.indicator_interval(0.0, B_measure), B_measure

    sup_trace, inf_trace = _extremes(vals for _, vals in _averages(sys, spec, f, N, prune_eps))
    frac_high = float(np.mean(sup_trace >= HIGH_THRESHOLD))
    frac_low = float(np.mean(inf_trace <= LOW_THRESHOLD))
    return SweepoutSimulation(
        sup_trace=sup_trace,
        inf_trace=inf_trace,
        frac_high=frac_high,
        frac_low=frac_low,
        horizon=N,
        set_measure=set_measure,
    )
