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
A deep level runs in place: in its fold by k mod n, a 256 KiB buffer
for one block pair, and the merged Simpson array, into which it writes its
nodes.  The level of n panels holds about 13n bytes, and 21n when the root
table grows at it.  The table grows before the fold is made, from the last
table.

Running products nu_1 * ... * nu_n take their transforms from one engine,
:func:`_product_rule`, fed with factor transforms (``fourier_eval`` on the
grid, ``fourier_at`` at points) taken once per distinct factor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided

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

#: Deep d2 levels combine and write their nodes this many at a time.
_LEVEL_BLOCK = 1 << 12

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
    read from.  A table grows from the last one, a doubling at a time: the
    old table fills the new one's even slots, since 2j (2 pi / 2N) is
    j (2 pi / N) exactly, and only the odd roots are computed, half the
    complex exps of a new table.  The new table is then swapped in
    read-only; no published table is ever written.
    """
    global _roots
    table = _roots
    while 2 * len(table) < n:
        grown = np.empty(2 * len(table), dtype=complex)
        grown[0::2] = table
        # The odd roots in place: j + 0i, then 0 + i j (2 pi / N), then exp.
        odd = grown[1::2]
        odd.real = np.arange(1, len(grown), 2)
        np.multiply(odd.real, TWO_PI / (2 * len(grown)), out=odd.imag)
        odd.real = 0.0
        np.exp(odd, out=odd)
        grown.flags.writeable = False
        _roots = table = grown
    return table[:: 2 * len(table) // n]


def _mirrored_rows(x: np.ndarray, a: int, b: int) -> np.ndarray:
    """x[a:b] and its mirror x[m-b:m-a], m = len(x), as the rows of one view.

    One ufunc call then serves both, so none runs on a lone element, whose
    in-place complex product numpy rounds differently.
    """
    m, step = len(x), x.strides[0]
    return as_strided(x[a:], (2, b - a), ((m - a - b) * step, step))


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

    In place: the roots are taken before the fold (8n bytes) is made, so a
    growing root table never coexists with it.  H is formed in the fold's
    lower half, then twiddled and transformed there as p.  The combine goes
    a block of ``_LEVEL_BLOCK`` points and its mirror at a time, and then
    the middle, at most two blocks wide, in one piece.  A block and its
    mirror are both conjugated into q before either is written, and q and
    the odd part share one 256 KiB buffer.  No other buffer is as long as the level, and
    the fold's upper half is only read: where no atom lands, its zeroed
    pages are never written.  The steps and their order, and so the bits,
    are the out-of-place formula's; ``odd *= 1j`` swaps the operands of
    ``1j * odd``.  The result is a view of the fold.
    """
    roots = _unit_roots(n)
    folded = np.bincount(ks & (n - 1), c, n)
    low, high = folded[: n // 2], folded[n // 2 :]
    low -= high
    # The difference is contiguous, so its complex view is H_{2s} + i H_{2s+1}.
    p = low.view(complex)
    p *= roots[0::2]
    # ``out=`` on numpy.fft needs numpy 2.0, the floor pyproject.toml sets.
    np.fft.ifft(p, norm="forward", out=p)
    m, odd_roots = n // 4, roots[1::2]
    scratch = np.empty((2, 2 * min(_LEVEL_BLOCK, m)), dtype=complex)
    a = 0
    while a < m - a:
        if m - 2 * a > 2 * _LEVEL_BLOCK:
            # A block and its mirror as two rows, q and the odd part in the
            # halves of the scratch rows: numpy buffers a call that mixes
            # contiguous and strided operands, and here none is contiguous.
            b = a + _LEVEL_BLOCK
            block, twiddles = _mirrored_rows(p, a, b), _mirrored_rows(odd_roots, a, b)
            q, odd = scratch[:, :_LEVEL_BLOCK], scratch[:, _LEVEL_BLOCK:]
            for row, mirror in zip(q, block[::-1]):
                np.conj(mirror[::-1], out=row)
        else:
            # The middle, at most two blocks wide, is its own mirror.
            b = m - a
            block, twiddles = p[a:b], odd_roots[a:b]
            q, odd = scratch[0, : b - a], scratch[1, : b - a]
            np.conj(block[::-1], out=q)
        np.subtract(block, q, out=odd)
        odd *= twiddles
        block += q
        odd *= 1j
        block -= odd
        block *= 0.5
        a = b
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
    refine: Callable[[int, np.ndarray], None],
    target: float,
    max_depth: int,
) -> float:
    """Composite Simpson of an even integrand over the window [-1/2, 1/2],
    with panel doubling and node reuse.

    The estimate at depth d is twice composite Simpson over [0, 1/2] with
    2^(d-1) panels, which is composite Simpson over the window with 2^d.
    ``head`` holds the integrand at the nodes j/2^_MIN_DEPTH of [0, 1/2], and
    ``refine(n, out)`` writes it into ``out`` at the nodes that depth log2(n)
    adds, the odd multiples (2i+1)/n < 1/2.  Refines until two successive
    estimates differ by less than ``target``; raises :class:`QuadratureError`
    carrying the last two estimates otherwise, in order (second-to-last, last).
    """
    ys = head
    current = 2.0 * _composite_simpson(ys, 1.0 / 2**_MIN_DEPTH)
    for depth in range(_MIN_DEPTH + 1, max_depth + 1):
        n = 2**depth
        merged = np.empty(n // 2 + 1, dtype=float)
        merged[0::2] = ys
        # The previous level is freed before refine allocates.
        ys = merged
        refine(n, ys[1::2])
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
    nodes from :func:`_odd_frequency_sums` and writes them, a block at a
    time, straight into the merged Simpson array.  No level depends on
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

    def refine(n: int, out: np.ndarray) -> None:
        if n <= _SHARED_LEVEL:
            stride = _SHARED_LEVEL // n
            out[:] = shared[stride :: 2 * stride]
            return
        sums = _odd_frequency_sums(ks, g, n)
        # |S| (2i + 1) / n into the odd slots of the merged array; the odd
        # integers are exact.
        for a in range(0, n // 4, _LEVEL_BLOCK):
            nodes = np.abs(sums[a : a + _LEVEL_BLOCK], out=out[a : a + _LEVEL_BLOCK])
            nodes *= np.arange(2 * a + 1, 2 * a + 2 * len(nodes), 2, dtype=float) / n

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
