"""Concrete measure-preserving systems and weighted averaging experiments.

Two systems are provided: the cyclic shift on Z_q with uniform measure
(exact arithmetic for level sets, the workhorse for quantitative checks)
and the circle rotation x -> x + alpha mod 1 with a deterministic
stratified state sample (qualitative demonstrations).

Every experiment over the running products mu_n = nu_1 * ... * nu_n reads
one generator, ``_averages``, which yields mu_n f over every state for
n = 1..N by one of two routes.  On a cyclic system without pruning it
forms no prefix: since mu_n = mu_{n-1} * nu_n, the averages obey
mu_n f = nu_n(mu_{n-1} f), so each step applies only the factor nu_n to the
previous vector of averages, at a cost of nnz(nu_n) * q instead of
nnz(mu_n) * q; the walk over the factors runs whole before the first
step, so a factor past the cap stops the run early.  The step runs in
place, ``_apply_factor``, through two q-length vectors that swap roles
and one scratch; it is the one cyclic atom sum, so
:func:`weighted_average_all` on a table of the previous averages gives
the same bits.  Anywhere else, on the rotation, whose state
sample is not closed under the dynamics, and on pruned chains, whose
prefixes are not the exact products, it reads the borrowed prefix stream
of :mod:`~convergence_lab.measures`, whose chain writes every prefix over
the one before it, in one buffer allocated once, as wide as the widest
window the factors allow; each prefix is read before the stream advances,
and none is kept.  The maximal function and the convergence trace at one
state x come from one pass over it, ``_averages_pass``: the recursion's
trace is its vector of averages read at x, and the stream's is
:func:`weighted_average` of the prefix at hand.  A caller that wants no
trace pays nothing for one.  The sweep-out simulation is the other pass
over it; both keep running extrema by one reduction, ``_extremes``.

Averages of a streamed prefix over every state have one engine,
``_state_averages``, which ``_averages`` builds beside the stream.  The
engine scatters an indicator's prefix mass by residue or by
rotation cell into a cell buffer and reads every state's average off one
cumulative sum.  The scatter adds the weights in window order.  On Z_q
it runs over chunks of at most ``_FILL_CHUNK`` sites, each chunk's
residues taken in place of its sites.  On the rotation it is one
``np.add.at`` straight from a table of the cells of one prefix window,
``_CellTable``: one buffer, in the smallest unsigned type that holds a
cell, sized before the first convolution, from the factors alone, to the
widest window the chain can yield, and never regrown.  That size,
``_chain_span``, read off the spec's walk over the factors, also sizes
the chain's buffer.  The table's memory is that of one widest window
whatever path the windows take, so a chain whose windows drift far from
0 costs no more than a centred one.  The engine's buffers are allocated
once and reused for every prefix, and only the returned vector and
chunk-sized temporaries are new.  They belong to the one call that built
the engine, so an engine is not shared across threads.  Any other
function is summed atom by atom by
:func:`weighted_average_all`, on a cyclic system through the step of the
recursion; the tests check it against a sum of rotated copies of f.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .measures import (
    Factor,
    LatticeMeasure,
    SequenceSpec,
    _chain_span,
    _prefix_stream,
)

#: Default rotation angle: an irrational surrogate with good equidistribution.
DEFAULT_ALPHA = math.sqrt(2.0) - 1.0

#: Default number of sampled states of the rotation.
DEFAULT_SAMPLES = 4096

State = Union[int, float]


_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _first_uniform(seed: int) -> float:
    """``float(np.random.default_rng(seed).random())`` for an integer seed >= 0,
    bit for bit, in exact integer arithmetic.

    The steps are numpy's: SeedSequence mixes the seed's 32-bit words, low
    word first, into a pool of four; ``generate_state(4, uint64)`` seeds
    PCG64's state and increment; one XSL-RR step gives 64 bits, whose top
    53 make the double.
    """
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # Only a seed past 2**128 has words left to mix in.
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_b, state = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * 0x58F38DED & _MASK32
        value = value * hash_b & _MASK32
        state.append(value ^ value >> 16)
    s_hi, s_lo, i_hi, i_lo = (state[j] | state[j + 1] << 32 for j in range(0, 8, 2))
    inc = (i_hi << 64 | i_lo) << 1 | 1
    # Seeding steps from state 0, adds the seed and steps again; the draw steps once more.
    x = inc + (s_hi << 64 | s_lo)
    for _ in range(2):
        x = (x * 0x2360ED051FC65DA44385DF649FCCF645 + inc) & _MASK128
    rot, bits = x >> 122, ((x >> 64) ^ x) & _MASK64
    return (((bits >> rot | bits << (64 - rot)) & _MASK64) >> 11) * 2.0**-53


@dataclass(frozen=True)
class DynSystem:
    """Cyclic shift on Z_q or circle rotation, with a fixed state sample.

    For the rotation, states are one point per stratum ``[i/samples,
    (i+1)/samples)``; the common in-stratum offset is drawn once from
    ``seed`` so the sample is deterministic and does not align with
    interval endpoints.  The draw is numpy's: the first double of
    ``np.random.default_rng(seed)`` (SeedSequence -> PCG64 -> first
    double), computed by :func:`_first_uniform` without importing
    ``numpy.random``.  Subset measure is exact (count/q) for the cyclic
    system and the sample fraction for the rotation.
    """

    kind: str
    q: int = 0
    alpha: float = 0.0
    samples: int = 0
    seed: int = 0

    @classmethod
    def cyclic(cls, q: int) -> "DynSystem":
        if q < 1:
            raise ValueError("q must be positive")
        return cls(kind="cyclic", q=int(q))

    @classmethod
    def rotation(
        cls, alpha: float = DEFAULT_ALPHA, samples: int = DEFAULT_SAMPLES, seed: int = 0
    ) -> "DynSystem":
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if samples < 1:
            raise ValueError("samples must be positive")
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        return cls(kind="rotation", alpha=float(alpha), samples=int(samples), seed=int(seed))

    @property
    def is_cyclic(self) -> bool:
        return self.kind == "cyclic"

    def states(self) -> np.ndarray:
        if self.is_cyclic:
            return np.arange(self.q, dtype=np.int64)
        offset = _first_uniform(self.seed)
        return ((np.arange(self.samples) + offset) / self.samples) % 1.0

    def measure_fraction(self, mask: np.ndarray) -> float:
        denom = self.q if self.is_cyclic else self.samples
        return float(np.count_nonzero(mask)) / float(denom)


@dataclass(frozen=True)
class TestFunction:
    """Observable on a system: indicator, single trigonometric mode, or table.

    ``indicator_block`` lives on cyclic systems (a block of residues),
    ``indicator_interval`` on the rotation (a subinterval of [0, 1)),
    ``trig`` on either, and ``table`` fixes one value per cyclic state.
    """

    __test__ = False  # not a test case despite the name

    kind: str
    start: int = 0
    length: int = 0
    a: float = 0.0
    b: float = 0.0
    freq: int = 0
    scale: float = 1.0
    values: Optional[np.ndarray] = None

    @classmethod
    def indicator_block(cls, start: int, length: int, scale: float = 1.0) -> "TestFunction":
        if length < 0:
            raise ValueError("length must be nonnegative")
        return cls(kind="indicator_block", start=int(start), length=int(length), scale=float(scale))

    @classmethod
    def indicator_interval(cls, a: float, b: float, scale: float = 1.0) -> "TestFunction":
        if not 0.0 <= a <= b <= 1.0:
            raise ValueError("need 0 <= a <= b <= 1")
        return cls(kind="indicator_interval", a=float(a), b=float(b), scale=float(scale))

    @classmethod
    def trig(cls, freq: int, scale: float = 1.0) -> "TestFunction":
        return cls(kind="trig", freq=int(freq), scale=float(scale))

    @classmethod
    def table(cls, values: Sequence[float]) -> "TestFunction":
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("table needs a nonempty 1-d value array")
        arr = arr.copy()
        arr.setflags(write=False)
        return cls(kind="table", values=arr)

    def evaluate(self, sys: DynSystem, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_1d(xs)
        if self.kind == "indicator_block":
            if not sys.is_cyclic:
                raise ValueError("indicator_block requires a cyclic system")
            hits = ((np.asarray(xs, dtype=np.int64) - self.start) % sys.q) < self.length
            return self.scale * hits.astype(float)
        if self.kind == "indicator_interval":
            if sys.is_cyclic:
                raise ValueError("indicator_interval requires a rotation system")
            u = np.asarray(xs, dtype=float) % 1.0
            return self.scale * ((u >= self.a) & (u < self.b)).astype(float)
        if self.kind == "trig":
            u = np.asarray(xs, dtype=float)
            angle = 2.0 * math.pi * self.freq * (u / sys.q if sys.is_cyclic else u)
            return self.scale * np.cos(angle)
        if self.kind == "table":
            if not sys.is_cyclic:
                raise ValueError("table requires a cyclic system")
            if len(self.values) != sys.q:
                raise ValueError("table length must equal q")
            return self.values[np.asarray(xs, dtype=np.int64) % sys.q]
        raise ValueError(f"unknown test function kind {self.kind!r}")

    def norm_l1(self, sys: DynSystem) -> float:
        """Mean of |f| over the state space (exact for cyclic systems)."""
        return float(np.mean(np.abs(self.evaluate(sys, sys.states()))))

    def sup_norm(self, sys: DynSystem) -> float:
        """Sup of |f| over the whole space, which on the rotation is more than
        the sampled states: there an interval gives |scale| unless empty."""
        if not sys.is_cyclic and self.kind in ("indicator_interval", "trig"):
            return abs(self.scale) if self.kind == "trig" or self.a < self.b else 0.0
        return float(np.max(np.abs(self.evaluate(sys, sys.states()))))


# -- weighted averaging --------------------------------------------------------------
def weighted_average(sys: DynSystem, mu: LatticeMeasure, f: TestFunction, x: State) -> float:
    """Exact finite sum ``sum_k mu(k) f(tau^k x)``."""
    ks, ws = mu.atoms()
    if sys.is_cyclic:
        pts = (int(x) + ks) % sys.q
    else:
        pts = (float(x) + ks * sys.alpha) % 1.0
    return float(np.dot(ws, f.evaluate(sys, pts)))


def weighted_average_all(sys: DynSystem, mu: LatticeMeasure | Factor, f: TestFunction) -> np.ndarray:
    """Vector of mu f(x) over every state, summed over the atoms of a measure
    or a factor; on a cyclic system by ``_apply_factor`` on the values of f."""
    if sys.is_cyclic:
        fvals = f.evaluate(sys, sys.states())
        return _apply_factor(mu, fvals, np.empty(sys.q), np.empty(sys.q))
    ks, ws = mu.atoms()
    xs = sys.states()
    out = np.zeros(len(xs))
    for k, w in zip(ks, ws):
        out += w * f.evaluate(sys, (xs + k * sys.alpha) % 1.0)
    return out


#: Points whose cells are computed at once when the rotation cell table fills,
#: and sites whose residues one call of the cyclic scatter adds.  It sizes
#: only temporaries, so it is kept small.
_FILL_CHUNK = 1 << 12


class _CellTable:
    """Cell of each lattice point k among the sorted state-set boundaries.

    The cell of k is the number of boundaries at or below the circle
    position p = k alpha mod 1, so the mass a prefix puts below boundary j
    is the cumulative sum of its mass per cell up to cell j.

    The cells live in one buffer of ``capacity`` points, of the smallest
    unsigned type that holds len(edges) (2 bytes a point below 32,768
    states), allocated once and never regrown: the capacity is the widest
    window the prefix chain can yield (see ``_chain_span``), so every
    window fits.  Point k sits at ``cells[k - offset]``, and the buffer is
    first placed at ``start``, the left end of the factors' hull.  The points [lo, hi) of the buffer hold
    computed cells, none at first.  A window inside the buffer computes
    only those of its points that are not yet held.  A window that leaves
    the buffer places it anew: at the window's left end when it left
    through the right, else with its right end at the window's right end.
    The cells the window shares with the held points move with it; the
    rest of the window is computed, and the other cells are forgotten.  A
    chain whose windows all fit the first placement, as when every factor
    straddles 0, never moves a cell.

    A point's cell is looked up by its bucket floor(p M) among M equal
    buckets of [0, 1], M a power of two at least 16 times the number of
    boundaries, so p M is exact.  A bucket with no boundary strictly inside
    has one cell, that of its left end; only points in the other buckets,
    at most one in 16 of the buckets, are searched among the boundaries.
    Those buckets hold the mark len(edges) + 1, which no cell reaches, and
    the bucket table is of the smallest unsigned type that holds it.
    """

    def __init__(self, alpha: float, edges: np.ndarray, start: int, capacity: int) -> None:
        self.alpha = alpha
        self.edges = edges
        n_buckets = 1 << (16 * len(edges) - 1).bit_length()
        self.scale = float(n_buckets)
        # Bucket b covers [b/M, (b+1)/M); bucket M holds p == 1.0 alone.  Its
        # left end's cell counts the edges e <= b/M, that is those with
        # ceil(e M) <= b, so cell j runs over the buckets from ceil(e_{j-1} M)
        # to ceil(e_j M): one repeat, with no search.
        scaled = edges * self.scale
        runs = np.diff(np.ceil(scaled).astype(np.intp), prepend=0, append=n_buckets + 1)
        self.split = len(edges) + 1
        bucket_cell = np.repeat(np.arange(self.split, dtype=np.min_scalar_type(self.split)), runs)
        inside = np.floor(scaled)
        bucket_cell[inside[scaled != inside].astype(np.intp)] = self.split
        self.bucket_cell = bucket_cell
        self.cells = np.empty(capacity, dtype=np.min_scalar_type(len(edges)))
        self.offset = self.lo = self.hi = start

    def _fill(self, lo: int, hi: int) -> None:
        for start in range(lo, hi, _FILL_CHUNK):
            stop = min(start + _FILL_CHUNK, hi)
            # p - floor(p) and p % 1.0 each round the exact fractional part of p
            # once (fmod is exact), so they agree bit for bit; the first is cheaper.
            positions = np.arange(start, stop, dtype=np.int64) * self.alpha
            positions -= np.floor(positions)
            cells = self.bucket_cell[(positions * self.scale).astype(np.intp)]
            split = np.flatnonzero(cells == self.split)
            cells[split] = np.searchsorted(self.edges, positions[split], side="right")
            self.cells[start - self.offset : stop - self.offset] = cells

    def window(self, mu: LatticeMeasure) -> np.ndarray:
        """Cells of mu's window [min_index, max_index], a view into the buffer."""
        lo, hi = mu.min_index, mu.max_index + 1
        size = len(self.cells)
        if lo < self.offset or hi > self.offset + size:
            # Keep only the held cells inside the window, moved to the new place.
            offset = lo if hi > self.offset + size else hi - size
            self.lo, self.hi = max(lo, self.lo), min(hi, self.hi)
            if self.lo < self.hi:
                self.cells[self.lo - offset : self.hi - offset] = self.cells[
                    self.lo - self.offset : self.hi - self.offset
                ]
            self.offset = offset
        if hi < self.lo or self.hi < lo:
            # The held cells and the window neither meet nor touch.
            self.lo = self.hi = lo
        if lo < self.lo:
            self._fill(lo, self.lo)
            self.lo = lo
        if self.hi < hi:
            self._fill(self.hi, hi)
            self.hi = hi
        return self.cells[lo - self.offset : hi - self.offset]


def _distinct_sorted(xs: np.ndarray) -> np.ndarray:
    """The distinct values of ``xs`` in ascending order, as ``np.unique`` gives
    them (the first of equal values after the same sort), without the import
    of ``numpy.ma`` that the first ``np.unique`` call in a process pays."""
    xs = np.sort(xs)
    keep = np.empty(len(xs), dtype=bool)
    keep[:1] = True
    np.not_equal(xs[1:], xs[:-1], out=keep[1:])
    return xs[keep]


def _state_averages(
    sys: DynSystem, f: TestFunction, span: tuple[int, int]
) -> Callable[[LatticeMeasure], np.ndarray]:
    """The map mu -> (mu f(x)) over every state x of the system.

    For an indicator on its own system, mu f(x) is scale times the mass mu
    puts on the points k whose residue, or circle position k alpha mod 1,
    lies in the state's arc [lo, hi), which may wrap past the top.  Any
    other f goes to :func:`weighted_average_all`.  The windows of the
    prefixes must fit ``span``, the (start, capacity) of their chain, as
    ``_chain_span`` gives it; on the rotation it places the cell table.
    """
    xs = sys.states()
    if f.kind == "indicator_block" and sys.is_cyclic:
        q = n_bins = sys.q
        width = min(f.length, q)
        il = (f.start - xs) % q
        wraps = il + width > q
        ih = np.where(wraps, il + width - q, il + width)

        def scatter(mu: LatticeMeasure) -> None:
            size = len(mu.weights)
            for start in range(0, size, _FILL_CHUNK):
                stop = min(start + _FILL_CHUNK, size)
                residues = np.arange(mu.min_index + start, mu.min_index + stop)
                residues %= q
                np.add.at(counts, residues, mu.weights[start:stop])

    elif f.kind == "indicator_interval" and not sys.is_cyclic:
        width = f.b - f.a
        lo = (f.a - xs) % 1.0 if width < 1.0 else np.zeros(len(xs))
        hi = lo + width
        # [lo, lo + width) wraps past 1 even where hi - 1 rounds back onto lo;
        # an empty arc never wraps, not even from lo == 1.0.
        wraps = (hi >= 1.0) & (0.0 < width < 1.0)
        hi = np.where(wraps, hi - 1.0, hi)
        edges = _distinct_sorted(np.concatenate((lo, hi)))
        # Mass strictly below boundary j sits in cells 0..j, hence at cs[j + 1].
        il = np.searchsorted(edges, lo) + 1
        ih = np.searchsorted(edges, hi) + 1
        table, n_bins = _CellTable(sys.alpha, edges, *span), len(edges) + 1

        def scatter(mu: LatticeMeasure) -> None:
            np.add.at(counts, table.window(mu), mu.weights)
    else:
        return lambda mu: weighted_average_all(sys, mu, f)

    # Mass per cell and its cumulative sum, cs[j] the mass in cells below j,
    # reused by every prefix: np.add.at adds each cell's weights in index
    # order from 0.0, chunk after chunk, as np.bincount does, so the sums are
    # the same bits.
    counts = np.empty(n_bins)
    cs = np.zeros(n_bins + 1)

    def averages(mu: LatticeMeasure) -> np.ndarray:
        counts.fill(0.0)
        scatter(mu)
        np.cumsum(counts, out=cs[1:])
        return f.scale * np.where(wraps, (cs[-1] - cs[il]) + cs[ih], cs[ih] - cs[il])

    return averages


def _averages(
    sys: DynSystem, spec: SequenceSpec, f: TestFunction, N: int, prune_eps: float
) -> Iterator[tuple[Optional[LatticeMeasure], np.ndarray]]:
    """Yield (mu_n, mu_n f over every state) for n = 1..N; each item is valid
    only until the next one is asked for.

    On a cyclic system without pruning mu_n is None: no prefix is formed,
    and the vector is the recursion's, mu_n f = nu_n(mu_{n-1} f), one of two
    q-length buffers that swap roles at every step.  Otherwise mu_n is
    borrowed from the stream and the vector is new.
    """
    if sys.is_cyclic and prune_eps == 0.0:
        first, *rest = spec.factors(N)
        vals = weighted_average_all(sys, first, f)
        yield None, vals
        nxt, scratch = np.empty(sys.q), np.empty(sys.q)
        for nu in rest:
            vals, nxt = _apply_factor(nu, vals, nxt, scratch), vals
            yield None, vals
        return
    span = _chain_span(spec, N)
    averages = _state_averages(sys, f, span)
    for mu in _prefix_stream(spec, N, prune_eps, span):
        yield mu, averages(mu)


def _extremes(vectors: Iterator[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The element-wise max and min of a nonempty run of vectors, kept in
    place in two copies of the first, so each vector is read before the
    next is asked for: the recursion's buffers may then be reused."""
    first = next(vectors)
    top, bottom = first.copy(), first.copy()
    for vals in vectors:
        np.maximum(top, vals, out=top)
        np.minimum(bottom, vals, out=bottom)
    return top, bottom


def _apply_factor(nu: LatticeMeasure | Factor, vals: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Write nu(vals)(x) = sum_k nu(k) vals[(x + k) mod q] for every x in Z_q,
    q = len(vals), into ``out`` and return it.

    The sum runs atom by atom, in ascending order of k, from 0.0; each
    atom's products, vals rotated by k, go into ``scratch`` in two slices.
    """
    q = len(vals)
    ks, ws = nu.atoms()
    out.fill(0.0)
    for k, w in zip(ks.tolist(), ws.tolist()):
        s = k % q
        np.multiply(vals[s:], w, out=scratch[: q - s])
        np.multiply(vals[:s], w, out=scratch[q - s :])
        out += scratch
    return out


class Weak11Row(NamedTuple):
    lam: float
    level_measure: float
    constant: float


def weak11_table(
    sys: DynSystem,
    spec: SequenceSpec,
    f: TestFunction,
    N: int,
    lambdas: Sequence[float],
    prune_eps: float = 0.0,
) -> list[Weak11Row]:
    """Empirical weak-(1,1) table for Mf = max_{n<=N} |mu_n f|.

    Each row is ``(lambda, m{Mf > lambda}, lambda * m{Mf > lambda} / ||f||_1)``;
    the last column is the empirical weak-type constant at that level.
    """
    return _weak11_rows(sys, f, lambdas)(maximal_function_all(sys, spec, f, N, prune_eps=prune_eps))


def _weak11_rows(
    sys: DynSystem, f: TestFunction, lambdas: Sequence[float]
) -> Callable[[np.ndarray], list[Weak11Row]]:
    """The map Mf -> rows of :func:`weak11_table`, after checking f and the
    levels, so that a bad request fails before any averaging."""
    norm = f.norm_l1(sys)
    if norm == 0.0:
        raise ValueError("test function has zero l1 norm")
    lams = [float(lam) for lam in lambdas]
    if any(lam <= 0 for lam in lams):
        raise ValueError("lambda levels must be positive")

    def rows(mf: np.ndarray) -> list[Weak11Row]:
        table = []
        for lam in lams:
            level = sys.measure_fraction(mf > lam)
            table.append(Weak11Row(lam, level, lam * level / norm))
        return table

    return rows


def maximal_function_all(
    sys: DynSystem,
    spec: SequenceSpec,
    f: TestFunction,
    N: int,
    prune_eps: float = 0.0,
) -> np.ndarray:
    """Vector of Mf over all states for the prefix products up to N.

    On a cyclic system with ``prune_eps == 0`` this runs the recursion
    mu_n f = nu_n(mu_{n-1} f) and never forms mu_n, so no support cap
    applies; otherwise it averages each prefix of the stream.
    """
    return _averages_pass(sys, spec, f, N, prune_eps)[0]


class ConvergenceTrace(NamedTuple):
    values: list[float]
    oscillation: float
    window_start: int


def _averages_pass(
    sys: DynSystem,
    spec: SequenceSpec,
    f: TestFunction,
    N: int,
    prune_eps: float,
    x: Optional[State] = None,
) -> tuple[np.ndarray, Optional[ConvergenceTrace]]:
    """Mf over every state, and the trace of :func:`convergence_trace` at
    ``x`` unless ``x`` is None, from one pass over mu_1..mu_N.

    On the recursion path the trace reads mu_n f(x) off the vector of
    averages, vals[int(x) mod q]: a sum in another order than
    :func:`weighted_average` on mu_n, so it may differ in the last bits.
    On the stream path it is :func:`weighted_average` on the prefix that
    the maximal function has just read, bit for bit as on its own chain.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    values: Optional[list[float]] = None if x is None else []

    def vectors() -> Iterator[np.ndarray]:
        for mu, vals in _averages(sys, spec, f, N, prune_eps):
            if values is not None:
                values.append(float(vals[int(x) % sys.q]) if mu is None else weighted_average(sys, mu, f, x))
            yield vals

    top, bottom = _extremes(vectors())
    # max_n |v_n| is the larger of |max_n v_n| and |min_n v_n|.
    mf = np.maximum(np.abs(top, out=top), np.abs(bottom, out=bottom), out=top)
    if values is None:
        return mf, None
    m = N // 2
    window = values[m - 1 :]
    return mf, ConvergenceTrace(values, float(max(window) - min(window)), m)


def convergence_trace(
    sys: DynSystem,
    spec: SequenceSpec,
    f: TestFunction,
    x: State,
    N: int,
    prune_eps: float = 0.0,
) -> ConvergenceTrace:
    """The series (mu_n f(x))_{n<=N} with its tail oscillation.

    The series comes from the pass of :func:`maximal_function_all`, with no
    chain of its own.  On a cyclic system with ``prune_eps == 0`` it is read
    off the recursion, so no prefix is formed and no support cap applies;
    each value then sums the products of :func:`weighted_average` on mu_n
    in another order and may differ from it in the last bits.  Otherwise it
    is :func:`weighted_average` on each streamed prefix.

    The oscillation is max - min over the window [N//2, N], whose start the
    result reports as ``window_start``; a small value is a finite-horizon
    stability diagnostic, never a convergence claim.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    return _averages_pass(sys, spec, f, N, prune_eps, x)[1]
