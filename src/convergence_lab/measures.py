"""Finitely supported probability measures on the integer lattice.

A measure is stored densely as a weight vector over a contiguous index
window ``[min_index, min_index + len(weights) - 1]``.  The ``mass_defect``
field records mass removed by pruning; pruned measures are never silently
renormalized, so stored weights plus the defect always account for total
mass 1.  All values are immutable after construction and every operation
here is a pure function.

Construction checks and trims the weights without full-size temporaries,
and copies them only when someone else could still write them: a
read-only array that owns its data, or a slice of one, is adopted as is;
any other array is copied, so a caller who later writes to their array
cannot change the measure.  Every convolution runs through one kernel,
``_convolve_into``, which writes the product into a buffer and hands it
over read-only: :func:`convolve` gives it a fresh one, so each convolution
allocates its output once.  The kernel sums shifted copies of a's
weights over the atoms of b, in ascending order of b's sites (in a chain,
the factor's), block by block over the output, from the top down, through
a block-sized accumulator and scratch that stay in cache.  So each weight
of a * b adds its terms in one order, whatever is cut off a and whatever
CPU runs it, and b is read only as its atoms: a chain builds no factor's
dense window.  Since a block reads a only below its own top, the kernel
can write a product over a when a lies in the same buffer.

The running products mu_n = nu_1 * ... * nu_n have one engine, a chain
that writes each product through the kernel, reading the factors from
the one walk that all their readers share, :meth:`SequenceSpec.factors`.
The experiments that reduce over the chain (maximal functions, traces,
the sweep-out simulation) read it borrowed, ``_prefix_stream`` with a
span: every product goes into one buffer, allocated once per chain
before the first convolution beside the kernel's block scratch, as wide
as the widest window the chain can yield.
That width is known from the factors alone, :func:`prefix_windows`:
running sums of their ends, capped at ``DEFAULT_SUPPORT_CAP``
(``_chain_span``).  nu_1 itself is never copied into the buffer; each
later product is written over the one before it, from where that one
starts, which fits whenever the width is not capped.  The buffer is
read-only while it is lent out, so a borrowed prefix is a valid measure,
but it lives only until the stream advances, when the next product
overwrites it.  So the unpruned chain's memory is one window whatever the
horizon, and each page of the buffer faults in once; a pruned chain runs
each product through :func:`prune`, which gives a product that loses
weights an array of its own.  A capped span lends nothing: its chain runs
as :func:`iter_prefixes` does, the chain for everyone else, in which each
product gets an array of its own, so every prefix may be kept.
:func:`convolve_prefixes` collects it into a list, for callers that index prefixes or walk them twice (spectra, hypothesis
checks); it returns a list, never a generator, so that wrappers that
iterate its result do not drain it before the caller sees it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from ._cells import csv_rows

#: Hard ceiling on the dense support length a convolution may produce.
DEFAULT_SUPPORT_CAP = 1_000_000

#: Tolerance for "weights plus defect sum to one" on exactly built measures.
PROBABILITY_TOL = 1e-12

#: Looser gate used at construction time; long convolution chains accumulate
#: a little rounding, which tests pin down case by case.
_CONSTRUCTION_TOL = 1e-9

#: First chunk length when scanning a weight vector for its support hull.
_TRIM_SCAN_CHUNK = 64

#: Output block of the shifted-add convolution, in doubles: the adds run one
#: block at a time through a scratch of this size, which stays in cache.
_CONVOLVE_BLOCK = 1 << 14


class SupportCapError(RuntimeError):
    """A convolution result would exceed the configured support cap."""


def _first_nonzero(w: np.ndarray) -> int:
    """Index of the first nonzero entry of ``w``, or ``len(w)`` if none.

    Scans in doubling chunks from the front: zero runs are short
    (underflowed tails), so this reads a few entries, not the whole array.
    """
    start, chunk = 0, _TRIM_SCAN_CHUNK
    while start < len(w):
        nz = np.flatnonzero(w[start : start + chunk])
        if nz.size:
            return start + int(nz[0])
        start += chunk
        chunk *= 2
    return len(w)


def _is_frozen(w: np.ndarray) -> bool:
    """True if the array owning ``w``'s memory is a read-only ndarray (views
    of it are read-only too), so no one can write ``w``'s data through it.

    One exception: the buffer lent by ``_prefix_stream`` passes this check,
    but the chain makes it writable again and rewrites it when the stream
    advances, so a caller that keeps such a prefix copies its weights.
    """
    owner = w if w.base is None else w.base
    return isinstance(owner, np.ndarray) and owner.flags.owndata and not owner.flags.writeable


@dataclass(frozen=True, eq=False)
class LatticeMeasure:
    """Nonnegative weights on a window of integers, summing to ~1.

    Invariants enforced at construction:

    * all weights are finite and nonnegative;
    * the first and last stored weights are strictly positive (the window
      is trimmed to the support hull);
    * ``sum(weights) + mass_defect`` is 1 up to rounding;
    * ``mass_defect >= 0``.

    ``weights`` is adopted without a copy when it, and the array owning its
    memory, are read-only (a read-only owned array, or a slice of one);
    otherwise the trimmed window is copied and made read-only.  The weights
    of a prefix borrowed from ``_prefix_stream`` are read-only too, yet are
    rewritten when the stream advances: a measure kept past that is built
    on a copy of them.
    """

    min_index: int
    weights: np.ndarray
    mass_defect: float = 0.0

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        # min >= 0 fails on NaN; past it, a finite sum of the trimmed window
        # proves every weight finite, so the weights are scanned one by one
        # only when that sum is not finite, to tell which fault it is.
        if not w.min() >= 0.0:
            if not np.all(np.isfinite(w)):
                raise ValueError("weights must be finite")
            raise ValueError("weights must be nonnegative")
        first = _first_nonzero(w)
        if first == len(w):
            raise ValueError("measure carries no mass")
        w = w[first : len(w) - _first_nonzero(w[::-1])]
        mass = float(np.sum(w))
        if not math.isfinite(mass) and not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if not _is_frozen(w):
            w = w.copy()
            w.setflags(write=False)
        defect = float(self.mass_defect)
        if defect < -PROBABILITY_TOL:
            raise ValueError(f"mass_defect must be nonnegative, got {defect}")
        defect = max(defect, 0.0)
        total = mass + defect
        if abs(total - 1.0) > _CONSTRUCTION_TOL:
            raise ValueError(
                f"weights plus mass_defect must sum to 1, got {total!r}"
            )
        object.__setattr__(self, "min_index", int(self.min_index) + first)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "mass_defect", defect)

    # -- geometry ------------------------------------------------------------
    @property
    def max_index(self) -> int:
        return self.min_index + len(self.weights) - 1

    @property
    def diameter(self) -> int:
        """Distance between the extreme support points."""
        return len(self.weights) - 1

    @property
    def support(self) -> np.ndarray:
        """Indices carrying strictly positive weight."""
        return self.atoms()[0]

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.weights))

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """The support points, ascending, and the weight at each."""
        nz = np.flatnonzero(self.weights)
        return self.min_index + nz, self.weights[nz]

    def dense(self) -> "LatticeMeasure":
        """The measure itself, a dense window already, as :class:`Factor` builds one."""
        return self

    # -- pointwise access ----------------------------------------------------
    def weight(self, k: int) -> float:
        i = int(k) - self.min_index
        if 0 <= i < len(self.weights):
            return float(self.weights[i])
        return 0.0

    def weights_at(self, ks: np.ndarray) -> np.ndarray:
        """Vectorized weight lookup, zero outside the stored window."""
        ks = np.asarray(ks, dtype=np.int64)
        idx = ks - self.min_index
        inside = (idx >= 0) & (idx < len(self.weights))
        out = np.zeros(ks.shape, dtype=float)
        out[inside] = self.weights[idx[inside]]
        return out

    def __repr__(self) -> str:
        return (
            f"LatticeMeasure(min_index={self.min_index}, "
            f"support_len={len(self.weights)}, nnz={self.nnz}, "
            f"mass_defect={self.mass_defect:.3e})"
        )

    # -- serialization ---------------------------------------------------------
    def to_text(self) -> str:
        """Plain-text form: header ``offset <min_index>``, one weight per line."""
        return f"offset {self.min_index}\n" + b"".join(csv_rows([(self.weights,)])).decode()

    @classmethod
    def from_text(cls, text: str) -> "LatticeMeasure":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("offset"):
            raise ValueError("expected header line 'offset <min_index>'")
        parts = lines[0].split()
        if len(parts) != 2:
            raise ValueError(f"malformed header line: {lines[0]!r}")
        offset = int(parts[1])
        weights = np.array([float(x) for x in lines[1:]], dtype=float)
        # The text format carries weights only; any missing mass is treated
        # as recorded defect so the probability invariant survives a round trip.
        defect = max(0.0, 1.0 - float(np.sum(weights)))
        return cls(offset, weights, defect)


class Factor(NamedTuple):
    """A factor nu_n as its atoms: ascending sites, positive weights and the
    mass defect.  It answers what the readers of factors ask of a
    :class:`LatticeMeasure`; :meth:`dense` builds its window at each call."""

    sites: np.ndarray
    weights: np.ndarray
    mass_defect: float = 0.0

    @property
    def min_index(self) -> int:
        return int(self.sites[0])

    @property
    def max_index(self) -> int:
        return int(self.sites[-1])

    @property
    def nnz(self) -> int:
        return len(self.sites)

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        return self.sites, self.weights

    def weight(self, k: int) -> float:
        return float(np.sum(self.weights[self.sites == k]))

    def dense(self) -> LatticeMeasure:
        w = np.zeros(self.max_index - self.min_index + 1)
        w[self.sites - self.min_index] = self.weights
        w.setflags(write=False)
        return LatticeMeasure(self.min_index, w, self.mass_defect)


# -- constructors --------------------------------------------------------------
def delta(k: int) -> LatticeMeasure:
    """Point mass at ``k``."""
    return LatticeMeasure(int(k), np.array([1.0]))


def from_pairs(pairs: dict[int, float]) -> LatticeMeasure:
    """Build a measure, with no mass defect, from a sparse ``{index: weight}``
    mapping."""
    if not pairs:
        raise ValueError("empty weight mapping")
    lo = min(pairs)
    hi = max(pairs)
    w = np.zeros(hi - lo + 1, dtype=float)
    for k, v in pairs.items():
        w[k - lo] += float(v)
    w.setflags(write=False)
    return LatticeMeasure(lo, w)


# -- algebra ---------------------------------------------------------------------
def convolve(a: LatticeMeasure, b: LatticeMeasure) -> LatticeMeasure:
    """Convolution (a*b)(k) = sum_j a(k-j) b(j).

    The output window is the Minkowski sum of the input windows.  One wider
    than ``DEFAULT_SUPPORT_CAP`` raises :class:`SupportCapError` before
    anything is allocated, instead of truncating.  The result owns its
    weights.  It costs about nnz(b) * len(a) multiply-adds, one shifted
    copy of a per atom of b, so the operand with fewer atoms goes second.
    """
    return _convolve_into(a, b, None, None)


def _convolve_into(
    a: LatticeMeasure, b: LatticeMeasure | Factor, buf: Optional[np.ndarray], work: Optional[np.ndarray]
) -> LatticeMeasure:
    """a * b on a read-only view of ``buf``.

    ``buf`` owns its data and is at least as long as the product's window;
    ``None`` allocates one of that length once the cap check has passed.
    It is writable only while the product is written, so the product
    adopts it without a copy, and it must not be written again while the
    product is in use.  When the weights of ``a`` are a view of ``buf`` (a
    prefix the chain lent out), the product is written over them, from
    where they start, and must fit there.  ``work`` is the shifted adds'
    two rows of block scratch, or ``None`` to allocate them for this call.
    The shifted adds run over the atoms of ``b``, a measure or a
    :class:`Factor`, and sum a(k - j) b(j) in ascending order of j.
    """
    out_len = len(a.weights) + b.max_index - b.min_index
    if out_len > DEFAULT_SUPPORT_CAP:
        raise SupportCapError(f"convolution support {out_len} exceeds cap {DEFAULT_SUPPORT_CAP}")
    start = 0
    if buf is None:
        buf = np.empty(out_len)
    buf.setflags(write=True)
    if a.weights.base is buf:
        start = (a.weights.__array_interface__["data"][0] - buf.__array_interface__["data"][0]) // buf.itemsize
    _shifted_adds(b, a.weights, buf[start : start + out_len], work)
    buf.setflags(write=False)
    # Combined defect: mass reaching the output is (1-da)(1-db).
    defect = a.mass_defect + b.mass_defect - a.mass_defect * b.mass_defect
    # Sliced after the lock, so the view is read-only too.
    return LatticeMeasure(a.min_index + b.min_index, buf[start : start + out_len], defect)


def _shifted_adds(s: LatticeMeasure | Factor, d: np.ndarray, out: np.ndarray, work: Optional[np.ndarray]) -> None:
    """Write into ``out`` the sum of the shifts ``w * d`` to offset
    ``k - s.min_index`` over the atoms (k, w) of ``s``, a measure or a
    factor, in ascending order of k; ``out`` is as long as s's window plus
    ``len(d) - 1``.

    The first atom sits at offset 0: its shift, covering [0, len(d)), is
    stored with 0.0 past its reach, and the others are added, the sums of
    a zeroed buffer (0 + x == x), so the block size changes no bit.

    ``out`` may start where ``d`` starts, in the same buffer.  The output
    runs in blocks from the top down, each summed in ``work[0]``
    (``work[1]`` holds one shifted copy) and then stored: block [b0, b1)
    reads ``d`` only below b1, where no block has been stored yet.
    """
    L, out_len, block = len(d), len(out), _CONVOLVE_BLOCK
    sites, ws = s.atoms()
    (_, w0), *atoms = zip((sites - s.min_index).tolist(), ws.tolist())
    if work is None:
        work = np.empty((2, min(block, out_len)))
    for b0 in range((out_len - 1) // block * block, -1, -block):
        b1 = min(b0 + block, out_len)
        acc, hi = work[0, : b1 - b0], max(min(b1, L), b0)
        np.multiply(d[b0:hi], w0, out=acc[: hi - b0])
        acc[hi - b0 :] = 0.0
        for i, w in atoms:
            lo, hi = max(b0, i), min(b1, i + L)
            if lo < hi:
                part = np.multiply(d[lo - i : hi - i], w, out=work[1, : hi - lo])
                np.add(acc[lo - b0 : hi - b0], part, out=acc[lo - b0 : hi - b0])
        out[b0:b1] = acc


def prune(mu: LatticeMeasure, eps: float) -> LatticeMeasure:
    """Drop weights strictly below ``eps``; removed mass joins the defect."""
    if eps <= 0:
        return mu
    keep = mu.weights >= eps
    if not np.any(keep):
        raise ValueError("pruning removed all mass")
    removed = float(np.sum(mu.weights[~keep]))
    if removed == 0.0:
        return mu
    w = np.where(keep, mu.weights, 0.0)
    w.setflags(write=False)
    return LatticeMeasure(mu.min_index, w, mu.mass_defect + removed)


def expectation(mu: LatticeMeasure) -> float:
    """First raw moment sum_k k mu(k)."""
    ks = np.arange(mu.min_index, mu.max_index + 1, dtype=float)
    return float(np.dot(ks, mu.weights))


def moment(mu: LatticeMeasure, p: float) -> float:
    """Absolute p-th moment sum_k |k|^p mu(k), p > 0."""
    if p <= 0:
        raise ValueError("moment order must be positive")
    ks = np.abs(np.arange(mu.min_index, mu.max_index + 1, dtype=float))
    return float(np.dot(ks**p, mu.weights))


def variance(mu: LatticeMeasure) -> float:
    e = expectation(mu)
    return moment(mu, 2.0) - e * e


def tv_shift_distance(mu: LatticeMeasure) -> float:
    """l1 distance between mu and its unit shift: sum_k |mu(k) - mu(k-1)|."""
    padded = np.concatenate(([0.0], mu.weights, [0.0]))
    return float(np.sum(np.abs(np.diff(padded))))


class CosetMass(NamedTuple):
    rho: float
    beta: int
    residue: int


def coset_mass_sup(nu: LatticeMeasure) -> CosetMass:
    """Largest mass the measure puts on a proper coset ``beta*Z + r``.

    Only beta >= 2 counts: beta in {0, +-1} covers the whole group.  A
    stride that divides no difference of two support points puts at most
    one atom in each coset, so it cannot beat the largest atom, which the
    search starts from (with the stride diameter + 1 as its witness).  The
    search then runs, in ascending order, over the strides from 2 to the
    diameter that divide some difference.
    """
    ks, ws = nu.atoms()
    if len(ks) == 1:
        # Whole mass in the one-point coset {k}.
        return CosetMass(1.0, 0, int(ks[0]))
    diam = int(ks[-1] - ks[0])
    atom = int(np.argmax(ws))
    best = CosetMass(float(ws[atom]), diam + 1, int(ks[atom] % (diam + 1)))
    for beta in _difference_divisors(ks).tolist():
        masses = np.bincount(ks % beta, weights=ws, minlength=beta)
        r = int(np.argmax(masses))
        if masses[r] > best.rho:
            best = CosetMass(float(masses[r]), beta, r)
    return best


def _difference_divisors(ks: np.ndarray) -> np.ndarray:
    """Ascending divisors >= 2 of the differences of two points of ``ks``.

    ``ks`` is sorted and has at least two points.  Each difference d has
    its divisors in pairs (r, d / r) with r <= sqrt(d), so trial divisors
    up to the square root of the diameter find them all.
    """
    marked = np.zeros(int(ks[-1] - ks[0]) + 1, dtype=bool)
    for i in range(len(ks) - 1):
        marked[ks[i + 1 :] - ks[i]] = True
    diffs = np.flatnonzero(marked)
    # Each difference divides itself; mark the other divisors beside them.
    for r in range(2, math.isqrt(int(diffs[-1])) + 1):
        multiples = diffs[diffs % r == 0]
        if multiples.size:
            marked[r] = True
            marked[multiples // r] = True
    return np.flatnonzero(marked[2:]) + 2


def is_strictly_aperiodic(nu: LatticeMeasure) -> bool:
    """True iff the support lies in no coset ``r + d*Z`` with d >= 2.

    Equivalent to the pairwise support differences having gcd 1.  A point
    mass is not strictly aperiodic (it sits inside every coset).
    """
    ks = nu.support
    if len(ks) < 2:
        return False
    g = int(np.gcd.reduce(ks - ks[0]))
    return g == 1


# -- measure sequences -----------------------------------------------------------
@dataclass(frozen=True)
class SequenceSpec:
    """Rule producing the n-th factor of a convolution product.

    ``measure_at`` is 1-based and gives nu_n as a :class:`LatticeMeasure`
    or a :class:`Factor`.  ``atom_site`` optionally names the site x of an
    atom-plus-remainder split a_n delta_x + (1 - a_n) gamma_n of every
    factor, a_n its weight there; sweep-out diagnostics need it.
    """

    name: str
    measure_at: Callable[[int], LatticeMeasure | Factor]
    atom_site: Optional[int] = None
    _walked: list = field(default_factory=list, init=False, repr=False, compare=False)

    @classmethod
    def iid(cls, measure: LatticeMeasure, name: str = "iid") -> "SequenceSpec":
        return cls(name=name, measure_at=lambda n: measure)

    @classmethod
    def from_measures(cls, measures: Sequence[LatticeMeasure], name: str = "list") -> "SequenceSpec":
        ms = list(measures)

        def at(n: int) -> LatticeMeasure:
            if not 1 <= n <= len(ms):
                raise IndexError(f"sequence {name!r} holds factors 1..{len(ms)}, not {n}")
            return ms[n - 1]

        return cls(name=name, measure_at=at)

    def factors(self, N: int) -> Iterator[LatticeMeasure | Factor]:
        """Yield nu_1, ..., nu_N, one at a time.  The spec keeps them, so
        its rule builds each nu_n once, and only when a walk reaches it; so
        walks of one spec must not run at once on two threads."""
        walked = self._walked
        for n in range(1, N + 1):
            if n > len(walked):
                walked.append(self.measure_at(n))
            yield walked[n - 1]


def _atom_products(spec: SequenceSpec, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weights a_n of nu_1..nu_N at the spec's atom site, read off its
    walk, the factors 2 a_n - 1, and their partial products prod_{l <= n},
    taken in order."""
    a = np.array([nu.weight(spec.atom_site) for nu in spec.factors(N)])
    factors = 2.0 * a - 1.0
    return a, factors, np.cumprod(factors)


class PrefixWindow(NamedTuple):
    """Where mu_n = nu_1 * ... * nu_n may put mass, from the factors alone.

    ``lo`` and ``hi`` are the running sums of the factors' ``min_index`` and
    ``max_index``: mu_n's window is [lo, hi], and pruning only narrows it.
    ``left`` and ``right`` are the ends of the hull of the windows of
    mu_1..mu_n.  Windows only widen along a chain, so mu_n's is the widest.
    """

    lo: int
    hi: int
    left: int
    right: int

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    @property
    def reach(self) -> int:
        """Largest |k| in the windows of mu_1..mu_n."""
        return max(0, -self.left, self.right)


def prefix_windows(factors: Iterable[LatticeMeasure | Factor]) -> Iterator[PrefixWindow]:
    """Yield the :class:`PrefixWindow` of mu_n after each factor nu_n, taking
    the factors one at a time, so a caller may stop before the next is built."""
    lo = hi = 0
    left = right = None
    for nu in factors:
        lo, hi = lo + nu.min_index, hi + nu.max_index
        left = lo if left is None else min(left, lo)
        right = hi if right is None else max(right, hi)
        yield PrefixWindow(lo, hi, left, right)


def _chain_span(spec: SequenceSpec, N: int) -> tuple[int, int]:
    """The left end of the factors' hull for the prefix chain of ``spec`` up
    to N, and the widest window the chain can yield: where a rotation cell
    table is placed, and how large the chain's buffer and the table are.

    The factors are walked only until the running width passes the support
    cap.  The unpruned chain raises there, so the walk builds no factor
    that the chain would not; and past the first prefix, nu_1 itself, no
    window of the chain, pruned or not, is wider than the cap.
    """
    for n, w in enumerate(prefix_windows(spec.factors(N)), start=1):
        if w.width > DEFAULT_SUPPORT_CAP:
            return w.left, w.width if n == 1 else DEFAULT_SUPPORT_CAP
    return w.left, w.width


def iter_prefixes(spec: SequenceSpec, N: int, prune_eps: float = 0.0) -> Iterator[LatticeMeasure]:
    """Stream the running products nu_1, nu_1*nu_2, ..., nu_1*...*nu_N.

    After each convolution, weights below ``prune_eps`` are removed and
    accumulated into the mass defect (never renormalized away); the first
    prefix is nu_1 itself, untouched.  ``N`` and ``prune_eps`` are checked
    here, before the first prefix is asked for; a product wider than
    ``DEFAULT_SUPPORT_CAP`` raises :class:`SupportCapError` when it is reached.
    Every prefix owns its weights, so a caller may keep any of them.
    """
    return _prefix_stream(spec, N, prune_eps, None)


def _prefix_stream(
    spec: SequenceSpec, N: int, prune_eps: float, span: Optional[tuple[int, int]]
) -> Iterator[LatticeMeasure]:
    """The prefixes of :func:`iter_prefixes`, borrowed when ``span`` is given.

    ``span`` is the chain's ``_chain_span``.  Past nu_1, each prefix then
    lies in one buffer as wide as the span and is valid until the stream
    advances: a caller that keeps one copies its weights, since a measure
    built on them would adopt the lent buffer.  Without ``span``, or with
    one that reaches ``DEFAULT_SUPPORT_CAP`` (a capped span, or one no
    narrower than the cap), every product gets an array of its own.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not 0.0 <= prune_eps <= 1e-8:
        raise ValueError("prune_eps must lie in [0, 1e-8]")
    return _chain(spec, N, prune_eps, span)


def _chain(
    spec: SequenceSpec, N: int, prune_eps: float, span: Optional[tuple[int, int]]
) -> Iterator[LatticeMeasure]:
    factors = spec.factors(N)
    current = next(factors).dense()
    yield current
    buf = work = None
    if span is not None and N > 1 and span[1] < DEFAULT_SUPPORT_CAP:
        buf, work = np.empty(span[1]), np.empty((2, min(span[1], _CONVOLVE_BLOCK)))
    for nu in factors:
        current = prune(_convolve_into(current, nu, buf, work), prune_eps)
        yield current


def convolve_prefixes(spec: SequenceSpec, N: int, prune_eps: float = 0.0) -> list[LatticeMeasure]:
    """The prefixes of :func:`iter_prefixes`, all held at once in a list."""
    return list(iter_prefixes(spec, N, prune_eps=prune_eps))
