"""Fourier transforms of lattice measures and grid-certified bounds.

The transform convention is ``mu_hat(t) = sum_k mu(k) e^{2 pi i k t}`` on the
fundamental window ``t in [-1/2, 1/2)``.  All "for every t" statements are
checked on a uniform grid and extended between grid points by the Lipschitz
certificate ``|mu_hat(s) - mu_hat(t)| <= 2 pi m1(mu) |s - t|``, so boolean
verdicts are certificates at grid resolution rather than sampled guesses.

Uniform grids have two engines, both folding the coefficients by k mod n
and finishing with an FFT.  The full-grid engine, :func:`_grid_sums`, gives
the transform and both derivatives at every point -1/2 + j/n of the window,
as ``fourier_eval`` needs: complex coefficients, one complex FFT per order.
The second-derivative quadrature needs much less.  mu_hat'' has the real
coefficients -(2 pi k)^2 mu(k), so its modulus is even and only [0, 1/2]
is integrated, and each Simpson level adds only the odd multiples of 1/n.
:func:`_odd_frequency_sums` gives exactly those from one complex FFT of n/4
points, with no phase per atom.  Serving both from one engine would double
the quadrature's FFT length and add a complex phase per atom at every
level.  Direct sums remain only for arbitrary points (:func:`fourier_at`).
A deep level runs in place, in its fold by k mod n and one n/4-point
buffer: the level of n panels holds about 16n bytes, 24n while the root
table grows.

Running products nu_1 * ... * nu_n take their transforms from one engine,
:func:`_product_rule`, fed with factor transforms (``fourier_eval`` on the
grid, ``fourier_at`` at points) taken once per distinct factor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .measures import (
    Factor,
    LatticeMeasure,
    SequenceSpec,
    is_strictly_aperiodic,
    moment,
    variance,
)

TWO_PI = 2.0 * math.pi

#: Default size of the uniform Fourier grid on [-1/2, 1/2).
DEFAULT_GRID_SIZE = 4096

#: Cells with |t| <= this are governed by the curvature limit 2 pi^2 Var(mu)
#: rather than the (there useless) Lipschitz margin.
_NEAR_ZERO_WINDOW = 1.0 / 16.0

#: Direct sums build their phase matrix at most this many entries at a time.
_DIRECT_BLOCK = 1 << 20

#: The first Simpson level of the d2 quadrature has 2^_MIN_DEPTH panels.
_MIN_DEPTH = 4

#: Simpson levels of up to this many panels share one FFT.
_SHARED_LEVEL = 1 << 10

#: Root table of :func:`_unit_roots`, e^{2 pi i j / N} for j < N/2.
_roots = np.ones(1, dtype=complex)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to meet its target within the depth cap."""

    def __init__(self, message: str, last_two: tuple[float, float]):
        super().__init__(message)
        self.last_two = last_two


@dataclass(frozen=True)
class FourierProfile:
    """Grid evaluation of a transform with its first two derivatives.

    ``lipschitz_bound`` is valid for the undifferentiated transform:
    ``|mu_hat(s) - mu_hat(t)| <= lipschitz_bound * |s - t|``.
    """

    grid: np.ndarray
    values: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    lipschitz_bound: float

    #: Names of the :meth:`columns`.
    COLUMNS = ("t", "re", "im", "abs", "abs_d1", "abs_d2")

    @property
    def grid_step(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def columns(self) -> tuple[np.ndarray, ...]:
        """Grid, real and imaginary parts, and the moduli of the transform
        and of both derivatives.

        Moduli come from ``np.hypot``, which gives the scalar ``abs`` of
        each value to the last bit (a NaN may keep its sign); ``np.abs`` of
        a complex array can differ from it in the last bit.
        """
        return (
            self.grid,
            self.values.real,
            self.values.imag,
            *(np.hypot(z.real, z.imag) for z in (self.values, self.d1, self.d2)),
        )


def uniform_grid(grid_size: int) -> np.ndarray:
    """Uniform grid on [-1/2, 1/2); even sizes place 0 on the grid."""
    return -0.5 + np.arange(grid_size) / grid_size


def _grid_sums(mu: LatticeMeasure, n: int) -> list[np.ndarray]:
    """Sums sum_k w_k (2 pi i k)^m e^{2 pi i k t} for m = 0, 1, 2 on the
    grid -1/2 + j/n, j < n: the transform and its two derivatives.

    There ``e^{2 pi i k t_j} = e^{-pi i k} e^{2 pi i (k mod n) j / n}``, so
    the phased coefficients are folded by k mod n and one unscaled inverse
    FFT per order yields all n sums, in O(nnz + n log n).  The phase of the
    origin depends on k mod 2 only, so supports much wider than the grid
    keep full accuracy.
    """
    ks, ws = mu.atoms()
    phased = ws * np.exp((TWO_PI * 1j / 2) * (ks % 2))
    folds = ks % n
    out = []
    for m in (0, 1, 2):
        c = phased * (TWO_PI * 1j * ks) ** m
        folded = np.bincount(folds, c.real, n) + 1j * np.bincount(folds, c.imag, n)
        out.append(np.fft.ifft(folded, norm="forward"))
    return out


def _unit_roots(n: int) -> np.ndarray:
    """The roots e^{2 pi i j / n} for j < n/2, n a power of two.

    They are read by stride from one table for the largest n requested so
    far.  The angle 2 pi j / n is rounded once, and it scales exactly by
    powers of two, so a root is the same to the bit whichever table it is
    read from.  A larger request builds a new table, then swaps it in
    read-only; no published table is ever written.
    """
    global _roots
    table = _roots
    if 2 * len(table) < n:
        # Built in one array: j + 0i, then 0 + i j (2 pi / n), then exp in place.
        table = np.arange(n // 2, dtype=complex)
        np.multiply(table.real, TWO_PI / n, out=table.imag)
        table.real = 0.0
        np.exp(table, out=table)
        table.flags.writeable = False
        _roots = table
    return table[:: 2 * len(table) // n]


def _odd_frequency_sums(ks: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """Sums ``sum_k c_k e^{2 pi i k t}`` with real c_k at t = (2i+1)/n, i < n/4.

    These are the odd multiples of 1/n in (0, 1/2), for n >= 4 a power of
    two.  With the fold G_r = sum of c_k over k = r mod n, the sum at
    (2i+1)/n is sum_{r < n/2} H_r w^{r(2i+1)}, where H_r = G_r - G_{r+n/2}
    and w = e^{2 pi i/n}.  The even and odd H are packed as one complex
    sequence p_s = (H_{2s} + i H_{2s+1}) w^{2s} of n/4 points, whose inverse
    FFT P splits by conjugate symmetry, with q_i = conj(P_{n/4-1-i}), into
    the even part (P + q)/2 and the odd part (P - q)/2i; the odd part is
    twiddled by w^{2i+1}.

    In place: H is formed in the fold's lower half, then twiddled and
    transformed there as p, and P - q goes to its upper half, so q is the
    only other buffer.  The steps and their order, and so the bits, are the
    out-of-place formula's; ``odd *= 1j`` swaps the operands of ``1j * odd``.
    The result is a view of the fold.
    """
    folded = np.bincount(ks & (n - 1), c, n)
    roots = _unit_roots(n)
    low, high = folded[: n // 2], folded[n // 2 :]
    low -= high
    # The difference is contiguous, so its complex view is H_{2s} + i H_{2s+1}.
    p = low.view(complex)
    p *= roots[0::2]
    # ``out=`` on numpy.fft needs numpy 2.0, the floor pyproject.toml sets.
    np.fft.ifft(p, norm="forward", out=p)
    q = np.conj(p[::-1])
    odd = np.subtract(p, q, out=high.view(complex))
    odd *= roots[1::2]
    p += q
    odd *= 1j
    p -= odd
    p *= 0.5
    return p


def fourier_at(mu: LatticeMeasure | Factor, ts: np.ndarray) -> np.ndarray:
    """Pointwise transform values at arbitrary points, summed over the atoms.

    Each phase is one exp of the rounded product k t, so the error grows like
    eps |k t| over wide supports.  Points are taken in blocks that keep the
    phase matrix within ``_DIRECT_BLOCK`` entries.  Each block is a matrix
    product with the weights as one complex column: a 1-d product may take
    another BLAS routine, with other last bits.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    ks, ws = mu.atoms()
    ks = ks.astype(float)
    coeffs = ws.astype(complex)[:, None]
    out = np.empty((len(ts), 1), dtype=complex)
    rows = max(1, _DIRECT_BLOCK // len(ks))
    for start in range(0, len(ts), rows):
        phase = np.exp((TWO_PI * 1j) * np.outer(ts[start : start + rows], ks))
        out[start : start + rows] = phase @ coeffs
    return out[:, 0]


def fourier_eval(mu: LatticeMeasure, grid_size: int = DEFAULT_GRID_SIZE) -> FourierProfile:
    """Exact trigonometric sums for the transform and two derivatives.

    ``grid_size`` must be even and at least 16 so that t = 0 is a grid point.
    """
    grid_size = int(grid_size)
    if grid_size < 16:
        raise ValueError("grid_size must be at least 16")
    if grid_size % 2:
        raise ValueError("grid_size must be even so that t=0 is on the grid")
    vals, d1, d2 = _grid_sums(mu, grid_size)
    return FourierProfile(uniform_grid(grid_size), vals, d1, d2, TWO_PI * moment(mu, 1.0))


def decay_constant(mu: LatticeMeasure, grid_size: int = DEFAULT_GRID_SIZE) -> float:
    """Largest certified C with |mu_hat(t)| <= exp(-C t^2) on the window.

    Returns 0 for measures that are not strictly aperiodic, and when any
    nonzero grid point carries |mu_hat| >= 1 - 1e-12.  Away from zero the
    per-cell ratio -log|mu_hat|/t^2 is tightened by the Lipschitz margin so
    the bound holds between grid points; cells inside the near-zero window
    are governed by the curvature limit 2 pi^2 Var(mu) of the ratio.
    """
    if not is_strictly_aperiodic(mu):
        return 0.0
    profile = fourier_eval(mu, grid_size)
    absvals = np.abs(profile.values)
    ts = profile.grid
    off = ts != 0.0
    if np.any(absvals[off] >= 1.0 - 1e-12):
        return 0.0
    h = profile.grid_step
    margin = profile.lipschitz_bound * h / 2.0
    candidates = [2.0 * math.pi**2 * variance(mu)]

    near = off & (np.abs(ts) <= _NEAR_ZERO_WINDOW)
    if np.any(near):
        candidates.append(float(np.min(-np.log(absvals[near]) / ts[near] ** 2)))

    outer = np.abs(ts) > _NEAR_ZERO_WINDOW
    if np.any(outer):
        padded = absvals[outer] + margin
        if np.any(padded >= 1.0):
            return 0.0
        widened = (np.abs(ts[outer]) + h / 2.0) ** 2
        candidates.append(float(np.min(-np.log(padded) / widened)))

    return max(0.0, min(candidates))


# -- adaptive quadrature -----------------------------------------------------------
def _composite_simpson(ys: np.ndarray, h: float) -> float:
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * np.sum(ys[1:-1:2]) + 2.0 * np.sum(ys[2:-1:2])))


def _simpson_doubling(
    head: np.ndarray,
    refine: Callable[[int], np.ndarray],
    target: float,
    max_depth: int,
) -> float:
    """Composite Simpson of an even integrand over the window [-1/2, 1/2],
    with panel doubling and node reuse.

    The estimate at depth d is twice composite Simpson over [0, 1/2] with
    2^(d-1) panels, which is composite Simpson over the window with 2^d.
    ``head`` holds the integrand at the nodes j/2^_MIN_DEPTH of [0, 1/2], and
    ``refine(n)`` at the nodes that depth log2(n) adds, the odd multiples
    (2i+1)/n < 1/2.  Refines until two successive estimates differ by less
    than ``target``; raises :class:`QuadratureError` carrying the last two
    estimates otherwise, in order (second-to-last, last).
    """
    ys = head
    current = 2.0 * _composite_simpson(ys, 1.0 / 2**_MIN_DEPTH)
    for depth in range(_MIN_DEPTH + 1, max_depth + 1):
        n = 2**depth
        merged = np.empty(n // 2 + 1, dtype=float)
        merged[0::2] = ys
        # The previous level is freed before refine allocates.
        ys = merged
        ys[1::2] = refine(n)
        prev, current = current, 2.0 * _composite_simpson(ys, 1.0 / n)
        if abs(current - prev) < target:
            return current
    raise QuadratureError(
        f"no convergence to {target} within depth {max_depth}",
        last_two=(prev, current),
    )


def weighted_d2_integral(
    mu: LatticeMeasure,
    target: float = 1e-6,
    max_depth: int = 18,
) -> float:
    """Adaptive quadrature of ``int |mu_hat''(t)| |t| dt`` over the window.

    The integrand is smooth except for |.| kinks at zeros of the second
    derivative; the doubling refinement resolves those.  The coefficients
    g_k = -(2 pi k)^2 mu(k) of mu_hat'' are real, so the integrand is even
    and only nodes in [0, 1/2] are evaluated.  Levels of up to
    ``_SHARED_LEVEL`` panels read their nodes by stride from one real FFT of
    the fold by k mod ``_SHARED_LEVEL``; each deeper level takes its new
    nodes from :func:`_odd_frequency_sums`.  No level depends on
    ``max_depth``, which must exceed ``_MIN_DEPTH``.
    """
    if max_depth <= _MIN_DEPTH:
        raise ValueError(f"max_depth must exceed {_MIN_DEPTH}")
    ks, ws = mu.atoms()
    g = ws * -((TWO_PI * ks) ** 2)
    folded = np.bincount(ks & (_SHARED_LEVEL - 1), g, _SHARED_LEVEL)
    ts = np.arange(_SHARED_LEVEL // 2 + 1) / _SHARED_LEVEL
    # rfft sums with e^{-2 pi i k t}, the conjugates, which have the same modulus.
    shared = np.abs(np.fft.rfft(folded)) * ts

    def refine(n: int) -> np.ndarray:
        if n <= _SHARED_LEVEL:
            stride = _SHARED_LEVEL // n
            return shared[stride :: 2 * stride]
        # Scaled after the fold is freed; the odd integers 2i + 1 are exact.
        nodes = np.abs(_odd_frequency_sums(ks, g, n))
        nodes *= np.arange(1, n // 2, 2, dtype=float) / n
        return nodes

    return _simpson_doubling(shared[:: _SHARED_LEVEL >> _MIN_DEPTH], refine, target, max_depth)


# -- transforms of running products ----------------------------------------------------
def _product_rule(F: np.ndarray, g: tuple[np.ndarray, ...]) -> None:
    """Multiply the running transform ``F`` by a factor transform ``g`` in place.

    ``g`` is the factor's values, optionally with its first two derivatives,
    and ``F`` has as many rows: F g, F' g + F g', F'' g + 2 F' g' + F g''.
    In place, since numpy rounds a one-element complex product differently
    out of place, and a one-point floor scan keeps the rounding of F *= g.
    """
    if len(g) == 3:
        F[2] *= g[0]
        F[2] += 2.0 * F[1] * g[1]
        F[2] += F[0] * g[2]
        F[1] *= g[0]
        F[1] += F[0] * g[1]
    F[0] *= g[0]


def prefix_fourier_profiles(
    spec: SequenceSpec,
    N: int,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> Iterator[FourierProfile]:
    """Profiles of the running products via the product rule on the grid.

    Yields the profile of nu_1*...*nu_n for n = 1..N without ever forming
    the (large) convolutions, starting from the transform of delta(0);
    ``lipschitz_bound`` is the sum of the factors' bounds.
    """
    running = np.zeros((3, grid_size), dtype=complex)
    running[0] = 1.0
    lip, prev = 0.0, None
    for nu in spec.factors(N):
        if nu is not prev:
            prev, g = nu, fourier_eval(nu.dense(), grid_size)
        _product_rule(running, (g.values, g.d1, g.d2))
        lip += g.lipschitz_bound
        yield FourierProfile(g.grid, *running.copy(), lip)
