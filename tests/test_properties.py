"""Property-based checks of the structural invariants.

Strategies build small random probability measures directly, so shrinking
produces readable counterexamples (a handful of atoms near the origin).
"""
import itertools
import math
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convergence_lab import (
    DynSystem,
    LatticeMeasure,
    SequenceSpec,
    TestFunction,
    convolve,
    convolve_prefixes,
    delta,
    dissipativity_trace,
    expectation,
    fourier_at,
    fourier_eval,
    fourier_floor_scan,
    from_pairs,
    geometric_family,
    inverse_square_family,
    iter_prefixes,
    maximal_function_all,
    moment,
    prefix_fourier_profiles,
    scan_points,
    sweepout_simulation,
    tv_shift_distance,
    weighted_average,
    weighted_average_all,
)
from convergence_lab import _cells, dynamics, measures
from convergence_lab._cells import csv_rows
from convergence_lab.cli import _rows_block, _write_csv
from convergence_lab.dynamics import (
    _apply_factor,
    _averages_pass,
    _CellTable,
    _distinct_sorted,
    _first_uniform,
    _state_averages,
)
from convergence_lab.measures import _chain_span, prefix_windows
from convergence_lab.spectral import _grid_sums, _odd_frequency_sums
from convergence_lab.sweepout import _example_factor
from conftest import (
    RECURSION_TRACE_ATOL,
    dense_factor,
    doubling_defect,
    full_dissipativity_trace,
    l1_distance,
    roll_average_all,
    table_chain,
    two_atom_bound,
)


@st.composite
def lattice_measures(draw, max_span=8, max_offset=6):
    span = draw(st.integers(min_value=1, max_value=max_span))
    raw = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=span,
            max_size=span,
        )
    )
    w = np.asarray(raw) + 1e-3  # keep endpoints positive and mass nonzero
    w /= w.sum()
    offset = draw(st.integers(min_value=-max_offset, max_value=max_offset))
    return LatticeMeasure(offset, w)


@given(lattice_measures(), lattice_measures())
@settings(max_examples=60, deadline=None)
def test_convolution_commutes(a, b):
    assert l1_distance(convolve(a, b), convolve(b, a)) <= 1e-12


@st.composite
def tiny_ended_measures(draw, max_span):
    """Gapped weights whose end weights may be near 1e-200, so that the
    extreme products of two of them underflow to zero."""
    span = draw(st.integers(min_value=1, max_value=max_span))
    body = draw(st.lists(st.sampled_from([0.0, 0.2, 1.0, 3.0]), min_size=span, max_size=span))
    ends = st.sampled_from([1.0, 1e-200, 3e-201])
    w = np.array([draw(ends), *body, 1.0, draw(ends)])
    defect = draw(st.sampled_from([0.0, 1e-3]))
    w *= (1.0 - defect) / w.sum()
    offset = draw(st.integers(min_value=-6, max_value=6))
    return LatticeMeasure(offset, w, defect)


def _shifted_add_oracle(a, b):
    """Zeroed output, then out[j:j+L] += b(j) * a per atom j of b in
    ascending order, as the kernel runs over b's atoms."""
    L = len(a.weights)
    out = np.zeros(len(a.weights) + len(b.weights) - 1)
    for j in np.flatnonzero(b.weights):
        out[j : j + L] += b.weights[j] * a.weights
    nz = np.flatnonzero(out)
    return a.min_index + b.min_index + int(nz[0]), out[nz[0] : nz[-1] + 1]


@given(tiny_ended_measures(max_span=29), tiny_ended_measures(max_span=60), st.booleans())
# The first operand has fewer atoms, and its weight at 2 has three terms,
# which ascending in a's sites would sum in another order.
@example(from_pairs({0: 0.1, 1: 0.2, 2: 0.7}), from_pairs({0: 0.1, 1: 0.3, 2: 0.2, 3: 0.4}), False)
@settings(max_examples=120, deadline=None)
def test_sparse_convolution_is_bit_exact(a, b, swap):
    # Shifted adds run over b's atoms, however many a has, and sum
    # each weight in ascending order of b's sites.
    if swap:
        a, b = b, a
    min_index, weights = _shifted_add_oracle(a, b)
    conv = convolve(a, b)
    assert conv.min_index == min_index
    assert np.array_equal(conv.weights, weights)
    assert conv.mass_defect == a.mass_defect + b.mass_defect - a.mass_defect * b.mass_defect


@st.composite
def spread_atoms(draw):
    """At most 32 atoms scattered over a window up to 150 wide, offsets down to -60."""
    width = draw(st.integers(min_value=1, max_value=150))
    atoms = [0, width - 1, *draw(st.lists(st.integers(min_value=0, max_value=width - 1), max_size=30))]
    w = np.zeros(width)
    w[atoms] = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1))).random(len(atoms)) + 1e-3
    offset = draw(st.integers(min_value=-60, max_value=60))
    return LatticeMeasure(offset, w / w.sum())


@given(spread_atoms(), tiny_ended_measures(max_span=60), st.integers(min_value=1, max_value=16), st.booleans())
@settings(max_examples=120, deadline=None)
def test_blocked_convolution_is_bit_exact_across_blocks(a, b, block, swap):
    # Blocks of 1..16 doubles: outputs up to ~210 wide span many blocks, and
    # each atom's shifted copy of the dense side straddles block edges.
    if swap:
        a, b = b, a
    min_index, weights = _shifted_add_oracle(a, b)
    with mock.patch.object(measures, "_CONVOLVE_BLOCK", block):
        conv = convolve(a, b)
    assert conv.min_index == min_index
    assert np.array_equal(conv.weights, weights)


@pytest.mark.parametrize("block", [1, 7, 8, 9, 1 << 14])
def test_blocked_convolution_atoms_on_block_edges(block):
    # Atoms at, just before and just after multiples of 8, far past the
    # dense side's reach, with negative offsets on both sides.
    s = np.zeros(49)
    s[[0, 7, 8, 9, 16, 31, 40, 48]] = np.arange(1.0, 9.0)
    sparse = LatticeMeasure(-17, s / s.sum())
    d = np.random.default_rng(5).random(37) + 1e-3
    dense = LatticeMeasure(-30, d / d.sum())
    with mock.patch.object(measures, "_CONVOLVE_BLOCK", block):
        for a, b in ((sparse, dense), (dense, sparse)):
            min_index, weights = _shifted_add_oracle(a, b)
            conv = convolve(a, b)
            assert conv.min_index == min_index
            assert np.array_equal(conv.weights, weights)


@given(lattice_measures(), lattice_measures(), lattice_measures())
@settings(max_examples=40, deadline=None)
def test_convolution_associates(a, b, c):
    assert l1_distance(convolve(convolve(a, b), c), convolve(a, convolve(b, c))) <= 1e-12


@given(lattice_measures())
@settings(max_examples=40, deadline=None)
def test_delta_is_neutral(mu):
    assert l1_distance(convolve(mu, delta(0)), mu) <= 1e-15


@given(lattice_measures(), lattice_measures())
@settings(max_examples=60, deadline=None)
def test_expectation_is_additive(a, b):
    got = expectation(convolve(a, b))
    assert abs(got - expectation(a) - expectation(b)) <= 1e-10


@given(lattice_measures(), lattice_measures())
@settings(max_examples=40, deadline=None)
def test_second_moment_cross_term(a, b):
    # m2(a*b) = m2(a) + m2(b) + 2 E(a) E(b)
    got = moment(convolve(a, b), 2.0)
    want = moment(a, 2.0) + moment(b, 2.0) + 2.0 * expectation(a) * expectation(b)
    assert abs(got - want) <= 1e-9


@given(lattice_measures(), st.floats(min_value=-0.5, max_value=0.5, exclude_max=True))
@settings(max_examples=80, deadline=None)
def test_doubling_defect_nonnegative(mu, t):
    assert doubling_defect(mu, t) >= -1e-12


@given(lattice_measures())
@settings(max_examples=40, deadline=None)
def test_shift_distance_is_l1_gap_to_shift(mu):
    assert abs(tv_shift_distance(mu) - l1_distance(mu, convolve(mu, delta(1)))) <= 1e-12


@given(lattice_measures(), st.floats(min_value=-0.5, max_value=0.5, exclude_max=True))
@settings(max_examples=60, deadline=None)
def test_transform_stays_in_unit_disk(mu, t):
    assert abs(complex(fourier_at(mu, np.array([t]))[0])) <= 1.0 + 1e-12


@given(
    st.floats(min_value=1e-3, max_value=0.5),
    st.floats(min_value=1e-3, max_value=2.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=2 * np.pi),
)
@settings(max_examples=120, deadline=None)
def test_two_atom_bound_dominates_feasible_points(delta_, eta, a_frac, psi):
    rho = two_atom_bound(delta_, eta)
    a1 = delta_ + a_frac * (1.0 - 2.0 * delta_)
    chord = 2.0 * abs(np.sin(psi / 2.0))
    if chord < eta:
        return  # outside the constrained set
    val = abs(a1 + (1.0 - a1) * np.exp(1j * psi))
    assert val <= rho + 1e-12


@st.composite
def wide_gapped_measures(draw):
    """Measures up to 300 wide with offsets down to -300 and knocked-out atoms."""
    span = draw(st.integers(min_value=1, max_value=300))
    offset = draw(st.integers(min_value=-300, max_value=300))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    w = rng.random(span) + 1e-3
    w[rng.random(span) < draw(st.floats(min_value=0.0, max_value=0.9))] = 0.0
    w[0] = w[-1] = 0.5
    return LatticeMeasure(offset, w / w.sum())


@given(wide_gapped_measures())
@settings(max_examples=80, deadline=None)
def test_atoms_are_the_support_and_its_weights(mu):
    ks, ws = mu.atoms()
    assert ks.dtype == mu.support.dtype and np.array_equal(ks, mu.support)
    assert np.array_equal(ws, mu.weights[np.flatnonzero(mu.weights)])


def _direct_sums(mu, ts, orders):
    """sum_k w_k (2 pi i k)^m e^{2 pi i k t} at each point t, for each order m."""
    ks, ws = mu.atoms()
    phase = np.exp(2j * np.pi * np.outer(ts, ks))
    return [phase @ (ws * (2j * np.pi * ks) ** m) for m in orders]


def _direct_sum_tolerance(mu, m, n):
    # Rounding of sum_k |w_k| (2 pi |k|)^m, times the direct sums' phase
    # error eps |2 pi k t| <= eps pi |k| and the FFT's eps log2(n).
    ks = np.abs(mu.support).astype(float)
    ws = mu.weights[np.flatnonzero(mu.weights)]
    scale = ws * (2.0 * np.pi * ks) ** m
    return 2.0 * np.finfo(float).eps * float(np.sum(scale * (np.pi * ks + math.log2(n) + 4.0)))


# Grids of the fourier_eval kind (origin -1/2, any even size); many are
# narrower than the support, so the fold by k mod n wraps.
@given(wide_gapped_measures(), st.integers(min_value=8, max_value=128).map(lambda h: 2 * h))
@settings(max_examples=80, deadline=None)
def test_grid_engine_matches_direct_sums(mu, n):
    ts = -0.5 + np.arange(n) / n
    fast = _grid_sums(mu, n)
    direct = [fourier_at(mu, ts), *_direct_sums(mu, ts, (1, 2))]
    for m in (0, 1, 2):
        assert np.max(np.abs(fast[m] - direct[m])) <= _direct_sum_tolerance(mu, m, n)


# The nodes a Simpson level of the d2 quadrature adds, (2i+1)/n in (0, 1/2),
# for the real coefficients of the transform (m = 0) and of its second
# derivative (m = 2); the folds of the wide levels wrap too.
@given(wide_gapped_measures(), st.integers(min_value=2, max_value=12))
@settings(max_examples=80, deadline=None)
def test_odd_frequency_sums_match_direct_sums(mu, depth):
    n = 2**depth
    ts = (2.0 * np.arange(n // 4) + 1.0) / n
    ks = mu.support
    ws = mu.weights[np.flatnonzero(mu.weights)]
    direct = _direct_sums(mu, ts, (0, 2))
    for m, d in zip((0, 2), direct):
        fast = _odd_frequency_sums(ks, (ws * (2j * np.pi * ks) ** m).real, n)
        assert np.max(np.abs(fast - d)) <= _direct_sum_tolerance(mu, m, n)


# -- the prefix stream and the reductions over it ---------------------------------
@st.composite
def gapped_measures(draw):
    """Up to 7 atoms wide, offsets down to -6, interior atoms knocked out."""
    span = draw(st.integers(min_value=1, max_value=7))
    w = np.asarray(
        draw(st.lists(st.sampled_from([0.0, 0.1, 0.3, 1.0, 2.5]), min_size=span, max_size=span))
    )
    w[0] = w[-1] = 1.0
    offset = draw(st.integers(min_value=-6, max_value=6))
    return LatticeMeasure(offset, w / w.sum())


@st.composite
def specs(draw, max_n=8):
    """An iid spec or a list spec, with the horizon N it is driven to."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    if draw(st.booleans()):
        return SequenceSpec.iid(draw(gapped_measures())), n
    return SequenceSpec.from_measures(draw(st.lists(gapped_measures(), min_size=n, max_size=n))), n


@st.composite
def systems(draw, cyclic_only=False):
    seed = draw(st.integers(min_value=0, max_value=2**16))
    if cyclic_only or draw(st.booleans()):
        return DynSystem.cyclic(draw(st.integers(min_value=1, max_value=48)))
    alpha = draw(st.floats(min_value=0.01, max_value=0.99))
    return DynSystem.rotation(alpha=alpha, samples=draw(st.integers(min_value=1, max_value=48)), seed=seed)


def _test_function(sys, seed):
    if sys.is_cyclic:
        return TestFunction.table(np.random.default_rng(seed).random(sys.q) * 2.0 - 1.0)
    return TestFunction.indicator_interval(0.0, 0.3)


def _maximal_oracle(sys, spec, f, N, prune_eps=0.0):
    averages = [weighted_average_all(sys, mu, f) for mu in convolve_prefixes(spec, N, prune_eps)]
    return np.max(np.abs(np.vstack(averages)), axis=0)


def _robust_levels(values):
    # Midpoints between well-separated values: no rounding moves a value across.
    u = np.unique(values)
    keep = np.diff(u) > 1e-9 * max(1.0, float(np.max(np.abs(u))))
    return (u[:-1][keep] + u[1:][keep]) / 2.0


@given(specs(), systems(cyclic_only=True), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=60, deadline=None)
def test_cyclic_recursion_matches_per_prefix_maximal_function(spec_n, sys, seed):
    spec, N = spec_n
    f = _test_function(sys, seed)
    fast = maximal_function_all(sys, spec, f, N)
    oracle = _maximal_oracle(sys, spec, f, N)
    np.testing.assert_allclose(fast, oracle, rtol=1e-12, atol=1e-12 * f.sup_norm(sys))
    for lam in _robust_levels(oracle):
        assert np.count_nonzero(fast > lam) == np.count_nonzero(oracle > lam)


@given(specs(), systems(cyclic_only=True), st.integers(min_value=0, max_value=2**16), st.sampled_from([1e-9, 1e-8]))
@settings(max_examples=60, deadline=None)
def test_streamed_maximal_function_matches_per_prefix(spec_n, sys, seed, prune_eps):
    # A pruned cyclic chain with a table f averages each streamed prefix atom by atom.
    spec, N = spec_n
    f = _test_function(sys, seed)
    fast = maximal_function_all(sys, spec, f, N, prune_eps=prune_eps)
    assert np.array_equal(fast, _maximal_oracle(sys, spec, f, N, prune_eps))


@pytest.mark.parametrize(
    "sys, f",
    [
        (DynSystem.rotation(alpha=0.3, samples=64, seed=2), TestFunction.indicator_interval(0.1, 0.45)),
        (DynSystem.cyclic(16), TestFunction.table(np.random.default_rng(5).random(16) * 2.0 - 1.0)),
    ],
    ids=["rotation", "cyclic"],
)
def test_maximal_function_prunes_a_chain_that_loses_mass(sys, f):
    # Outer atoms of 1e-5 give mu_2 atoms of 1e-10, below prune_eps, and pruning
    # moves the averages by ~1e-9; the rotation's binning matches the oracle to 1e-12.
    spec = SequenceSpec.iid(from_pairs({-1: 1e-5, 0: 1.0 - 2e-5, 1: 1e-5}))
    fast = maximal_function_all(sys, spec, f, 4, prune_eps=1e-8)
    assert np.max(np.abs(fast - _maximal_oracle(sys, spec, f, 4, 1e-8))) <= 1e-12
    assert np.max(np.abs(fast - _maximal_oracle(sys, spec, f, 4))) > 1e-12


@st.composite
def indicators(draw, sys):
    """An indicator on ``sys`` with a drawn position, size and scale."""
    scale = draw(st.sampled_from([1.0, 0.5, 3.0, 4096.0]))
    if sys.is_cyclic:
        start = draw(st.integers(min_value=-2 * sys.q, max_value=2 * sys.q))
        length = draw(st.integers(min_value=0, max_value=2 * sys.q + 1))
        return TestFunction.indicator_block(start, length, scale)
    ends = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0))
    a, b = sorted((draw(ends), draw(ends)))
    return TestFunction.indicator_interval(a, b, scale)


@st.composite
def indicator_cases(draw, max_n=8):
    sys = draw(systems())
    return sys, draw(indicators(sys)), draw(specs(max_n))


@given(indicator_cases(), st.sampled_from([0.0, 1e-9, 1e-8]), st.integers(min_value=-100, max_value=100))
@settings(max_examples=60, deadline=None)
def test_binned_maximal_function_matches_per_prefix(case, prune_eps, x):
    # The rotation, and any pruned chain, bins each streamed prefix by state cell.
    sys, f, (spec, N) = case
    if sys.is_cyclic and prune_eps == 0.0:
        prune_eps = 1e-8
    fast = maximal_function_all(sys, spec, f, N, prune_eps=prune_eps)
    oracle = _maximal_oracle(sys, spec, f, N, prune_eps)
    # sup|f| is the scale; the sampled states may all miss the interval.
    np.testing.assert_allclose(fast, oracle, rtol=0, atol=1e-12 * abs(f.scale))
    for lam in _robust_levels(oracle):
        assert np.count_nonzero(fast > lam) == np.count_nonzero(oracle > lam)
    # The same pass sums the trace at x over each borrowed prefix, to the bit.
    x = x if sys.is_cyclic else x / 16.0
    mf, trace = _averages_pass(sys, spec, f, N, prune_eps, x)
    assert np.array_equal(_bits(mf), _bits(fast))
    want = [weighted_average(sys, mu, f, x) for mu in iter_prefixes(spec, N, prune_eps)]
    assert np.array_equal(_bits(np.array(trace.values)), _bits(np.array(want)))


_CYC, _ROT = DynSystem.cyclic(5), DynSystem.rotation(0.3, 8, 1)
# Just below the one state x, (a - x) % 1 rounds up to 1.0: the arc starts at the top.
_TOP = DynSystem.rotation(0.3, 1, 3)
_BELOW_STATE = float(np.nextafter(_TOP.states()[0], 0.0))
_block, _interval = TestFunction.indicator_block, TestFunction.indicator_interval


def _iid_case(sys, f, k=1, N=3):
    return sys, f, (SequenceSpec.iid(delta(k)), N)


@st.composite
def drifting_rotation_cases(draw, max_n=8):
    """An indicator on the rotation under an iid spec whose factor sits up to
    10**5 from 0, so that each prefix window lies far past the previous one."""
    sys = DynSystem.rotation(
        alpha=draw(st.floats(min_value=0.01, max_value=0.99)),
        samples=draw(st.integers(min_value=1, max_value=48)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )
    nu = draw(gapped_measures())
    shift = draw(st.one_of(st.sampled_from([-(10**5), 10**5]), st.integers(min_value=-(10**5), max_value=10**5)))
    spec = SequenceSpec.iid(LatticeMeasure(nu.min_index + shift, nu.weights))
    return sys, draw(indicators(sys)), (spec, draw(st.integers(min_value=1, max_value=max_n)))


@given(st.one_of(indicator_cases(), drifting_rotation_cases()))
# Cyclic: start != 0, length 0, length q, length > q, scale != 1.
@example(_iid_case(_CYC, _block(3, 0, 2.0), 2, 1))
@example(_iid_case(_CYC, _block(-7, 5), 1, 2))
@example(_iid_case(_CYC, _block(4, 9, 0.5), -3, 1))
# Rotation: a > 0, a == b, b == 1, [0, 1].
@example(_iid_case(_ROT, _interval(0.25, 0.75)))
@example(_iid_case(_ROT, _interval(0.4, 0.4, 3.0)))
@example(_iid_case(_ROT, _interval(0.6, 1.0)))
@example(_iid_case(_ROT, _interval(0.0, 1.0, 0.5)))
@example(_iid_case(_TOP, _interval(_BELOW_STATE, _BELOW_STATE)))
# There an empty arc must not wrap: the atom at -1 sits at (-1e-20) % 1 == 1.0.
@example(_iid_case(DynSystem.rotation(1e-20, 1, 3), _interval(_BELOW_STATE, _BELOW_STATE), -1, 1))
@example(_iid_case(_TOP, _interval(_BELOW_STATE, 0.3)))
# Just below 1, lo + b - 1 rounds back onto lo: the interval still wraps.
@example(_iid_case(DynSystem.rotation(0.5, 1, 0), _interval(0.0, 1.0 - 2.0**-53), 0, 1))
@settings(max_examples=100, deadline=None)
def test_state_averages_match_atom_sums(case):
    sys, f, (spec, N) = case
    averages = _state_averages(sys, f, _chain_span(spec, N))
    for mu in convolve_prefixes(spec, N):
        np.testing.assert_allclose(
            averages(mu), weighted_average_all(sys, mu, f), rtol=0, atol=1e-12 * abs(f.scale)
        )


@given(
    specs(),
    systems(),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
)
# Just below 1, (lo + B) % 1 rounds back onto lo: the interval still wraps.
@example((SequenceSpec.iid(delta(0)), 1), DynSystem.rotation(alpha=0.5, samples=1, seed=0), 1.0 - 2.0**-53)
@settings(max_examples=80, deadline=None)
def test_windowed_binning_matches_direct_averages(spec_n, sys, B):
    spec, N = spec_n
    sim = sweepout_simulation(sys, spec, B, N)
    if sys.is_cyclic:
        f = TestFunction.indicator_block(0, int(round(B * sys.q)))
    else:
        f = TestFunction.indicator_interval(0.0, B)
    direct = np.vstack([weighted_average_all(sys, mu, f) for mu in convolve_prefixes(spec, N)])
    np.testing.assert_allclose(sim.sup_trace, direct.max(axis=0), rtol=0, atol=1e-12)
    np.testing.assert_allclose(sim.inf_trace, direct.min(axis=0), rtol=0, atol=1e-12)


@st.composite
def random_steps(draw, atoms, max_span, offsets):
    """A factor with ``atoms`` drawn atoms in a window up to ``max_span`` wide
    and weights drawn away from 0, so that sums in different orders differ."""
    span = draw(st.integers(min_value=atoms, max_value=max_span))
    sites = draw(st.lists(st.integers(0, span - 1), min_size=atoms, max_size=atoms, unique=True))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=atoms, max_size=atoms)))
    offset = draw(st.integers(*offsets))
    return from_pairs({offset + k: float(x) for k, x in zip(sites, w / w.sum())})


@st.composite
def dissipativity_cases(draw):
    """A spec and horizon N: a sweep-out family, an iid step that drifts off
    0, steps of 2-5 random atoms, iid or not, or an iid step of 40 or 45
    atoms, whose prefixes have as many atoms as the step or more, so that
    the kernel loops over the step's atoms."""
    kind = draw(st.sampled_from(["inverse_square", "geometric", "drift", "few", "many"]))
    # Each family up to a horizon at which the full chain stays under the cap.
    if kind == "inverse_square":
        coeff, top = draw(st.sampled_from([(1.0, 130), (3.0, 90)]))
        return inverse_square_family(coeff).to_spec(), draw(st.integers(1, top))
    if kind == "geometric":
        ratio, top = draw(st.sampled_from([(0.5, 18), (0.9, 60)]))
        return geometric_family(ratio).to_spec(), draw(st.integers(1, top))
    N = draw(st.integers(1, 130))
    if kind == "drift":
        offsets = draw(st.sampled_from([(1, 4), (-10, -3)]))
        return SequenceSpec.iid(draw(random_steps(draw(st.integers(2, 3)), 4, offsets))), N
    if kind == "few":
        steps = st.integers(2, 5).flatmap(lambda a: random_steps(a, 8, (-8, 5)))
        if draw(st.booleans()):
            return SequenceSpec.iid(draw(steps)), N
        return SequenceSpec.from_measures(draw(st.lists(steps, min_size=N, max_size=N))), N
    atoms = draw(st.sampled_from([40, 45]))
    return SequenceSpec.iid(draw(random_steps(atoms, atoms + 10, (-60, 20)))), min(N, 60)


@given(
    dissipativity_cases(),
    st.one_of(st.integers(1, 10), st.sampled_from([50, 500, 5000])),
    st.sampled_from([0.0, 1e-12, 1e-8]),
)
# The rows of the simulate-export workload's sweepout step.
@example((inverse_square_family(1.0).to_spec(), 120), 50, 0.0)
# Each kept prefix has three sites, fewer than the full chain's; the kernel
# runs over the factor's atoms in both, so both sum in the factor's order.
@example((SequenceSpec.iid(from_pairs({0: 0.21, 1: 0.33, 2: 0.46})), 60), 2, 0.0)
# A dense 40-atom step, whose prefixes are cut to their reachable windows.
@example((SequenceSpec.iid(dense_factor(40, 1, -10)), 30), 2, 0.0)
@settings(max_examples=100, deadline=None)
def test_windowed_rows_match_the_full_chain(case, K, prune_eps):
    spec, N = case
    got = dissipativity_trace(spec, K, N, prune_eps)
    want = full_dissipativity_trace(spec, K, N, prune_eps)
    assert [(n, repr(v)) for n, v in got] == [(n, repr(v)) for n, v in want]


@given(dissipativity_cases(), st.sampled_from([0.0, 1e-8]))
# A factor of 40 atoms, whose atoms the kernel loops over, held either way.
@example((SequenceSpec.iid(dense_factor(40, 1, -10)), 12), 0.0)
@settings(max_examples=60, deadline=None)
def test_factors_held_as_atoms_match_their_dense_windows_to_the_bit(case, prune_eps):
    # The readers of the walk give the same bits whether each factor comes as
    # a Factor of its atoms or as its dense window, a LatticeMeasure.
    spec, N = case
    N = min(N, 40)
    dense = SequenceSpec("dense", lambda n: spec.measure_at(n).dense(), spec.atom_site)
    atoms = SequenceSpec("atoms", lambda n: measures.Factor(*dense.measure_at(n).atoms()), spec.atom_site)
    for a, b in zip(iter_prefixes(dense, N, prune_eps), iter_prefixes(atoms, N, prune_eps), strict=True):
        assert (a.min_index, a.weights.tobytes(), a.mass_defect) == (b.min_index, b.weights.tobytes(), b.mass_defect)
    assert repr(dissipativity_trace(atoms, 3, N, prune_eps)) == repr(dissipativity_trace(dense, 3, N, prune_eps))
    ts = scan_points(5)
    assert repr(fourier_floor_scan(atoms, ts, N)) == repr(fourier_floor_scan(dense, ts, N))
    sys, f = DynSystem.cyclic(64), TestFunction.indicator_block(0, 5)
    assert np.array_equal(_bits(maximal_function_all(sys, atoms, f, N)), _bits(maximal_function_all(sys, dense, f, N)))


# Few distinct values, so duplicates are common, with both signs of zero.
few_values = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0 - 2.0**-53, 1.0, 1.5])


@given(st.lists(few_values | st.floats(0.0, 2.0), min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_distinct_sorted_matches_unique_to_the_bit(values):
    xs = np.array(values)
    got, want = _distinct_sorted(xs), np.unique(xs)
    assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


# -- allocation-free averaging kernels ---------------------------------------------
def _bits(xs):
    return np.asarray(xs, dtype=float).view(np.int64)


@given(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.lists(st.integers(min_value=-(2**53), max_value=2**53), min_size=1, max_size=60),
)
@example(1e-20, [-1, 0, 1, -(2**53), 2**53])
@example(float(np.sqrt(2.0) - 1.0), [-(2**53), -(2**53) + 1, -(2**52) - 1, 2**52 + 1, 2**53 - 1])
@example(5e-324, [-1, -(2**53)])
@settings(max_examples=200, deadline=None)
def test_fractional_part_by_floor_matches_remainder(alpha, ks):
    # The rotation cell table takes p - floor(p) for the circle position p % 1.0.
    # -0.0 and tiny negative products, which round up to 1.0, ride along.
    p = np.concatenate((np.array(ks, dtype=np.int64) * alpha, [0.0, -0.0, -1e-20, -(2.0**-54), -5e-324]))
    got = p.copy()
    got -= np.floor(got)
    want = p % 1.0
    assert np.array_equal(_bits(got), _bits(want))
    assert want[-3:].tolist() == [1.0, 1.0, 1.0]


scatter_weights = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308),
    st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.1, 1.0 - 2.0**-53]),
)


@given(
    st.integers(min_value=1, max_value=16),
    st.lists(st.lists(st.tuples(st.integers(min_value=0, max_value=15), scatter_weights), max_size=80), min_size=1, max_size=3),
    st.sampled_from([np.uint8, np.uint16]),
)
@settings(max_examples=200, deadline=None)
def test_scatter_into_reused_cells_matches_bincount(n_bins, passes, dtype):
    # _state_averages fills one pair of cell buffers per engine and reuses them
    # for every prefix; each pass here is one prefix.  Few bins make repeats
    # common.  The cells are a compact table's, scattered straight through
    # np.add.at as the engine scatters a rotation window.
    counts, cs = np.empty(n_bins), np.zeros(n_bins + 1)
    for pairs in passes:
        bins = np.array([b % n_bins for b, _ in pairs], dtype=dtype)
        ws = np.array([w for _, w in pairs], dtype=float)
        counts.fill(0.0)
        np.add.at(counts, bins, ws)
        np.cumsum(counts, out=cs[1:])
        want = np.concatenate(([0.0], np.cumsum(np.bincount(bins, weights=ws, minlength=n_bins))))
        assert np.array_equal(_bits(cs), _bits(want))


def _bincount_averages(sys, f, mu):
    """mu f over every state from one np.bincount over mu's whole window,
    its residues or rotation cells computed afresh (0 < b - a < 1)."""
    xs, ks = sys.states(), np.arange(mu.min_index, mu.max_index + 1)
    if sys.is_cyclic:
        lo = (f.start - xs) % sys.q
        hi = lo + min(f.length, sys.q)
        wraps = hi > sys.q
        il, ih = lo, np.where(wraps, hi - sys.q, hi)
        cells, n_bins = ks % sys.q, sys.q
    else:
        lo = (f.a - xs) % 1.0
        hi = lo + (f.b - f.a)
        wraps = hi >= 1.0
        hi = np.where(wraps, hi - 1.0, hi)
        edges = np.unique(np.concatenate((lo, hi)))
        p = ks * sys.alpha
        cells, n_bins = np.searchsorted(edges, p - np.floor(p), side="right"), len(edges) + 1
        il, ih = np.searchsorted(edges, lo) + 1, np.searchsorted(edges, hi) + 1
    cs = np.concatenate(([0.0], np.cumsum(np.bincount(cells, weights=mu.weights, minlength=n_bins))))
    return f.scale * np.where(wraps, (cs[-1] - cs[il]) + cs[ih], cs[ih] - cs[il])


@pytest.mark.parametrize("chunk", [1, 2, 7])
@pytest.mark.parametrize(
    "sys, f, spec, prune_eps",
    [
        (
            DynSystem.rotation(samples=16, seed=3),
            TestFunction.indicator_interval(0.2, 0.7, 1.5),
            inverse_square_family(1.0).to_spec(),
            0.0,
        ),
        (
            DynSystem.cyclic(7),
            TestFunction.indicator_block(5, 4, 2.0),
            inverse_square_family(10.0).to_spec(),
            1e-8,
        ),
    ],
    ids=["rotation", "pruned-cyclic"],
)
def test_chunked_state_averages_match_a_bincount_oracle(monkeypatch, chunk, sys, f, spec, prune_eps):
    # The cyclic scatter and the rotation's cell fill run chunk by chunk;
    # chunks run in window order, so every cell adds its weights as one
    # bincount over the window does.  Beside the chain's prefixes, one
    # window crosses chunk boundaries off a multiple of the chunk and one is
    # shorter than a chunk.
    monkeypatch.setattr(dynamics, "_FILL_CHUNK", chunk)
    N = 8
    span = _chain_span(spec, N)
    weights = np.random.default_rng(5).random(24)
    extra = [LatticeMeasure(-9, weights[:23] / weights[:23].sum()), LatticeMeasure(40, weights[23:] / weights[23])]
    mus = [*iter_prefixes(spec, N, prune_eps), *extra]
    assert max(len(mu.weights) for mu in mus) <= span[1]
    averages = _state_averages(sys, f, span)
    for mu in mus:
        assert np.array_equal(_bits(averages(mu)), _bits(_bincount_averages(sys, f, mu))), mu.min_index


@given(st.integers(min_value=0, max_value=2**63 - 1))
@example(0)
@example(2**32 - 1)
@example(2**32)
@example(2**64 - 1)
@example(2**64)
@example(2**128 - 1)
@example(2**128)
@example(2**200 + 12345)
@settings(max_examples=300, deadline=None)
def test_first_uniform_is_numpys_first_double(seed):
    # The rotation's state offset; only seeds past 2**128 have words left
    # for SeedSequence's extra mixing loop.
    assert _bits(_first_uniform(seed)) == _bits(float(np.random.default_rng(seed).random()))


@st.composite
def cyclic_chains(draw, max_n=8):
    """Z_q, q = 1 among them, with a spec whose sites fall below 0, at or past
    q and on multiples of q, its horizon N and a table, block or trig test
    function."""
    q = draw(st.one_of(st.just(1), st.integers(min_value=1, max_value=40)))

    def factor():
        span = draw(st.integers(min_value=1, max_value=6))
        w = np.asarray(draw(st.lists(st.sampled_from([0.0, 0.1, 0.3, 1.0, 2.5]), min_size=span, max_size=span)))
        w[0] = w[-1] = 1.0
        offset = draw(
            st.one_of(
                st.integers(min_value=-3 * q - 6, max_value=3 * q + 6),
                st.integers(min_value=-3, max_value=3).map(lambda m: m * q),
            )
        )
        return LatticeMeasure(offset, w / w.sum())

    n = draw(st.integers(min_value=1, max_value=max_n))
    if draw(st.booleans()):
        spec = SequenceSpec.iid(factor())
    else:
        spec = SequenceSpec.from_measures([factor() for _ in range(n)])
    sys = DynSystem.cyclic(q)
    kind = draw(st.sampled_from(["table", "indicator_block", "trig"]))
    if kind == "indicator_block":
        f = draw(indicators(sys))
    elif kind == "trig":
        freq = draw(st.integers(min_value=0, max_value=2 * q))
        f = TestFunction.trig(freq, draw(st.sampled_from([1.0, -0.5, 3.0])))
    else:
        f = _test_function(sys, draw(st.integers(min_value=0, max_value=2**16)))
    return sys, spec, n, f


@given(cyclic_chains())
@settings(max_examples=150, deadline=None)
def test_cyclic_average_all_matches_the_roll_oracle(chain):
    # On Z_q weighted_average_all is the recursion's step on f's values:
    # bit for bit the sum of rotated copies of f, on every factor and prefix.
    sys, spec, N, f = chain
    for mu in (*map(spec.measure_at, range(1, N + 1)), *iter_prefixes(spec, N)):
        assert np.array_equal(_bits(weighted_average_all(sys, mu, f)), _bits(roll_average_all(sys, mu, f)))


@given(cyclic_chains(), st.integers(min_value=-100, max_value=100))
@example((DynSystem.cyclic(1), SequenceSpec.iid(from_pairs({-2: 0.5, 3: 0.5})), 3, TestFunction.table([0.7])), -1)
@example((DynSystem.cyclic(4), SequenceSpec.from_measures([delta(8), delta(-4), from_pairs({-5: 0.3, 7: 0.7})]), 3, TestFunction.table([1.0, -2.0, 0.5, 0.25])), 6)
@settings(max_examples=150, deadline=None)
def test_in_place_recursion_matches_table_chain_to_the_bit(chain, x):
    sys, spec, N, f = chain
    oracle = table_chain(sys, spec, f, N)
    # Every step, through buffers that swap roles as in maximal_function_all.
    vals = oracle[0].copy()
    nxt, scratch = np.full(sys.q, np.nan), np.full(sys.q, np.nan)
    for n in range(2, N + 1):
        vals, nxt = _apply_factor(spec.measure_at(n), vals, nxt, scratch), vals
        assert np.array_equal(_bits(vals), _bits(oracle[n - 1])), n
    mf = np.abs(oracle[0])
    for vals in oracle[1:]:
        mf = np.maximum(mf, np.abs(vals))
    assert np.array_equal(_bits(maximal_function_all(sys, spec, f, N)), _bits(mf))
    # The trace the same pass reads at x, also below 0 and past q, against
    # the atom-by-atom sum over each prefix: the same products in another order.
    fast, trace = _averages_pass(sys, spec, f, N, 0.0, x)
    assert np.array_equal(_bits(fast), _bits(mf))
    want = np.array([weighted_average(sys, mu, f, x) for mu in iter_prefixes(spec, N)])
    got = np.array(trace.values)
    np.testing.assert_allclose(got, want, rtol=0, atol=RECURSION_TRACE_ATOL * abs(f.scale))
    # An f of one sign cannot cancel: either sum is 0 just where no atom of
    # mu_n meets its support.  A signed f may cancel to 0 in one order only.
    fvals = f.evaluate(sys, sys.states())
    if np.all(fvals >= 0.0) or np.all(fvals <= 0.0):
        assert np.array_equal(got == 0.0, want == 0.0)


@pytest.mark.parametrize(
    "sys, f",
    [
        (DynSystem.cyclic(16), TestFunction.indicator_block(3, 5, 2.0)),
        (DynSystem.rotation(alpha=0.3, samples=64, seed=2), TestFunction.indicator_interval(0.1, 0.45)),
    ],
    ids=["cyclic", "rotation"],
)
def test_state_averages_return_a_fresh_vector_per_call(sys, f):
    # The cell buffers are reused; the vector a call returns is not, so the
    # sweep-out simulation may keep the first one as its running extremum.
    first_mu, second_mu = from_pairs({0: 0.5, 1: 0.5}), from_pairs({-7: 0.25, 2: 0.25, 9: 0.5})
    span = (-7, 17)  # a table over [-7, 9] holds both windows
    averages = _state_averages(sys, f, span)
    first = averages(first_mu)
    kept = first.copy()
    second = averages(second_mu)
    assert not np.array_equal(first, second)
    assert np.array_equal(_bits(first), _bits(kept)) and not np.shares_memory(first, second)
    # Nothing carries over between calls: a fresh engine gives the same bits.
    assert np.array_equal(_bits(second), _bits(_state_averages(sys, f, span)(second_mu)))
    assert np.array_equal(_bits(averages(first_mu)), _bits(kept))


@st.composite
def window_walks(draw):
    """A cell table's (start, capacity) and a walk of windows, none wider
    than the capacity, that grow at both ends, shrink, drift by up to three
    capacities either way and jump anywhere within 10**5 of 0."""
    capacity = draw(st.integers(min_value=1, max_value=40))
    start = draw(st.integers(min_value=-(10**5), max_value=10**5))
    lo, width, windows = start + draw(st.integers(min_value=0, max_value=capacity - 1)), 1, []
    steps = st.sampled_from(["grow", "shrink", "drift", "jump"])
    for step in draw(st.lists(steps, min_size=1, max_size=12)):
        if step == "grow":
            left = draw(st.integers(min_value=0, max_value=capacity - width))
            right = draw(st.integers(min_value=0, max_value=capacity - width - left))
            lo, width = lo - left, width + left + right
        elif step == "shrink":
            cut = draw(st.integers(min_value=0, max_value=width - 1))
            lo, width = lo + draw(st.integers(min_value=0, max_value=cut)), width - cut
        elif step == "drift":
            lo += draw(st.integers(min_value=-3 * capacity - 5, max_value=3 * capacity + 5))
        else:
            lo = draw(st.integers(min_value=-(10**5), max_value=10**5))
        windows.append((lo, width))
    return start, capacity, windows


@given(
    window_walks(),
    st.one_of(st.sampled_from([0.5, 3 / 128, 1e-20]), st.floats(min_value=1e-3, max_value=0.999)),
    st.lists(st.one_of(few_values.filter(lambda v: 0.0 <= v <= 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=12),
)
@settings(max_examples=200, deadline=None)
def test_cell_table_holds_each_window_in_one_buffer(walk, alpha, raw_edges):
    start, capacity, windows = walk
    edges = np.unique(raw_edges)
    table = _CellTable(alpha, edges, start, capacity)
    buffer = table.cells
    for lo, width in windows:
        p = np.arange(lo, lo + width, dtype=np.int64) * alpha
        want = np.searchsorted(edges, p - np.floor(p), side="right")
        got = table.window(LatticeMeasure(lo, np.full(width, 1.0 / width)))
        assert np.array_equal(got, want), (lo, width)
        assert table.cells is buffer and len(buffer) == capacity


@given(specs(max_n=10), st.sampled_from([0.0, 1e-9, 1e-8]))
@settings(max_examples=60, deadline=None)
def test_prefix_windows_bound_every_prefix(spec_n, prune_eps):
    spec, N = spec_n
    windows = list(prefix_windows(map(spec.measure_at, range(1, N + 1))))
    assert _chain_span(spec, N) == (min(w.lo for w in windows), windows[-1].width)
    for n, (w, mu) in enumerate(zip(windows, iter_prefixes(spec, N, prune_eps)), start=1):
        # Unpruned, mu_n fills its window: no product of these weights underflows.
        if prune_eps == 0.0:
            assert (mu.min_index, mu.max_index) == (w.lo, w.hi)
        assert w.lo <= mu.min_index and mu.max_index <= w.hi
        assert (w.left, w.right) == (min(v.lo for v in windows[:n]), max(v.hi for v in windows[:n]))
        assert w.reach == max(0, max(max(-v.lo, v.hi) for v in windows[:n]))


@given(specs(max_n=12), st.sampled_from([0.0, 1e-12, 1e-8]))
@settings(max_examples=60, deadline=None)
def test_prefix_stream_matches_prefix_list(spec_n, prune_eps):
    spec, N = spec_n
    listed = convolve_prefixes(spec, N, prune_eps)
    assert type(listed) is list
    streamed = list(iter_prefixes(spec, N, prune_eps))
    assert len(streamed) == len(listed) == N
    for a, b in zip(streamed, listed):
        assert a.min_index == b.min_index
        assert np.array_equal(a.weights, b.weights)
        assert a.mass_defect == b.mass_defect


@st.composite
def chain_factors(draw):
    """Two to seven factors, each sparse (at most 9 atoms, with end weights
    that may underflow or be pruned) or dense (33 to 48 atoms, so that a
    dense prefix meets it and the kernel loops over the factor's atoms)."""
    n = draw(st.integers(min_value=2, max_value=7))
    factors = []
    for _ in range(n):
        if draw(st.booleans()):
            factors.append(draw(tiny_ended_measures(max_span=6)))
        else:
            span = draw(st.integers(min_value=33, max_value=48))
            w = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1))).random(span) + 1e-3
            factors.append(LatticeMeasure(draw(st.integers(min_value=-20, max_value=20)), w / w.sum()))
    return factors


def _chain_oracle(factors, prune_eps):
    """mu_1 = nu_1, then mu_n = mu_{n-1} * nu_n, each product summed in
    ascending order of nu's sites, and pruned by masking."""
    mus = [factors[0]]
    for nu in factors[1:]:
        mu = mus[-1]
        lo, w = _shifted_add_oracle(mu, nu)
        defect = mu.mass_defect + nu.mass_defect - mu.mass_defect * nu.mass_defect
        keep = w >= prune_eps
        removed = float(np.sum(w[~keep])) if prune_eps > 0.0 else 0.0
        if removed != 0.0:
            w, defect = np.where(keep, w, 0.0), defect + removed
        mus.append(LatticeMeasure(lo, w, defect))
    return mus


def _same_measure(got, want):
    return (
        got.min_index == want.min_index
        and np.array_equal(got.weights, want.weights)
        and got.mass_defect == want.mass_defect
    )


def _check_borrowed_chain(factors, prune_eps):
    """Every prefix of the borrowed chain is the oracle's, bit for bit, when
    it is yielded; unpruned, every product past nu_1 lies in one buffer, so
    each is overwritten by the next and lives only until the stream advances."""
    spec, N = SequenceSpec.from_measures(factors), len(factors)
    want = _chain_oracle(factors, prune_eps)
    owners = []
    for n, mu in enumerate(measures._prefix_stream(spec, N, prune_eps, _chain_span(spec, N))):
        assert _same_measure(mu, want[n]) and not mu.weights.flags.writeable
        if n:
            owners.append(mu.weights.base)
    if prune_eps == 0.0:
        assert all(owner is owners[0] for owner in owners)
    return spec, N, want


@given(chain_factors(), st.sampled_from([0.0, 1e-12, 1e-8]), st.sampled_from([1, 5, 16, 1 << 14]))
@settings(max_examples=80, deadline=None)
def test_prefix_chain_matches_a_brute_force_chain(factors, prune_eps, block):
    # Blocks of 1..16 doubles make the in-place products span many blocks.
    with mock.patch.object(measures, "_CONVOLVE_BLOCK", block):
        spec, N, want = _check_borrowed_chain(factors, prune_eps)
    # Owned: every prefix of iter_prefixes keeps its weights after the chain
    # has run past it, and convolve_prefixes shares no memory between prefixes.
    kept = []
    for mu in iter_prefixes(spec, N, prune_eps):
        kept.append((mu, mu.weights.copy()))
    for (mu, snapshot), w in zip(kept, want):
        assert _same_measure(mu, w) and np.array_equal(mu.weights, snapshot)
    listed = convolve_prefixes(spec, N, prune_eps)
    assert all(_same_measure(mu, w) for mu, w in zip(listed, want))
    for i, a in enumerate(listed):
        assert not a.weights.flags.writeable
        assert not any(np.shares_memory(a.weights, b.weights) for b in listed[i + 1 :])


@pytest.mark.parametrize("block", [1, 3, 1 << 14])
@pytest.mark.parametrize("prune_eps", [0.0, 1e-8])
@pytest.mark.parametrize(
    "factors",
    [
        [from_pairs({0: 0.5, 3: 0.5}), from_pairs({0: 0.5, 1: 0.5}), dense_factor(40, 1)],
        [from_pairs({-2: 0.25, 0: 0.5, 5: 0.25}), from_pairs({0: 0.5, 9: 0.5}), dense_factor(33, 2, -7),
         from_pairs({1: 0.75, 4: 0.25}), dense_factor(48, 3, 5)],
        [delta(4), from_pairs({0: 0.5, 100: 0.5}), dense_factor(64, 4, -30)],
    ],
)
def test_lent_prefix_on_the_sparse_side(factors, prune_eps, block):
    # A lent prefix with fewer atoms than its factor, the sparser operand, is
    # still the one the kernel shifts, and the product is written over it.
    prefixes = list(iter_prefixes(SequenceSpec.from_measures(factors), len(factors)))
    assert any(mu.nnz < nu.nnz for mu, nu in zip(prefixes[1:], factors[2:]))
    with mock.patch.object(measures, "_CONVOLVE_BLOCK", block):
        _check_borrowed_chain(factors, prune_eps)


def _underflowing_factor(body):
    """Ends of 1e-200, so that the ends of a product of two underflow and
    every prefix is trimmed at both ends of its window."""
    w = np.array([1e-200, *body, 1e-200])
    return LatticeMeasure(-len(body) // 2, w / w.sum())


#: 41 atoms from exp(-1.7 k^2), |k| <= 20, ending near 1e-296: products of
#: dense prefixes by it underflow over ever more of their windows' ends.
_STEEP = np.exp(-1.7 * np.arange(-20, 21) ** 2)


@pytest.mark.parametrize("block", [1, 2, 3, 1 << 14])
@pytest.mark.parametrize(
    "nu",
    [_underflowing_factor([1.0]), _underflowing_factor([0.2, 1.0, 0.0, 3.0]), LatticeMeasure(-20, _STEEP / _STEEP.sum())],
)
def test_capped_chain_lends_no_buffer(monkeypatch, nu, block):
    # Products lose points to underflow, so past some step the factors'
    # windows pass a cap that every product still fits: the span is capped,
    # and the chain runs owned, as iter_prefixes does, with every prefix's bits.
    N = 30
    spec = SequenceSpec.iid(nu)
    owned = list(iter_prefixes(spec, N))
    cap = max(len(mu.weights) for mu in owned) + len(nu.weights) - 1
    monkeypatch.setattr(measures, "DEFAULT_SUPPORT_CAP", cap)
    monkeypatch.setattr(measures, "_CONVOLVE_BLOCK", block)
    left, width = _chain_span(spec, N)
    assert width == cap < list(prefix_windows([nu] * N))[-1].width
    got = list(measures._prefix_stream(spec, N, 0.0, (left, width)))
    for mu, want in zip(got, owned, strict=True):
        assert _same_measure(mu, want)
    assert not any(np.shares_memory(a.weights, b.weights) for a, b in itertools.combinations(got[1:], 2))


@pytest.mark.parametrize("N, prune_eps", [(0, 0.0), (-3, 0.0), (4, -1e-12), (4, 2e-8)])
def test_prefix_stream_rejects_bad_arguments_when_called(N, prune_eps):
    spec = SequenceSpec.iid(delta(1))
    with pytest.raises(ValueError):
        iter_prefixes(spec, N, prune_eps)


# -- transforms of running products from factor transforms --------------------------
@st.composite
def repeating_specs(draw, max_n=8):
    """An iid spec, or a list spec that may hand out one object on
    consecutive steps, with the horizon N it is driven to."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    if draw(st.booleans()):
        return SequenceSpec.iid(draw(gapped_measures())), n
    ms = [draw(gapped_measures())]
    for repeat in draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)):
        ms.append(ms[-1] if repeat else draw(gapped_measures()))
    return SequenceSpec.from_measures(ms), n


@given(repeating_specs(), st.sampled_from([16, 128]))
@settings(max_examples=60, deadline=None)
def test_product_rule_profiles_match_convolved_prefixes(spec_n, grid):
    # The tolerances of TestPrefixProfiles, applied to both derivatives.
    spec, N = spec_n
    profiles = list(prefix_fourier_profiles(spec, N, grid))
    assert len(profiles) == N
    for prof, mu in zip(profiles, iter_prefixes(spec, N)):
        direct = fourier_eval(mu, grid)
        assert np.max(np.abs(prof.values - direct.values)) <= 1e-11
        for got, want in ((prof.d1, direct.d1), (prof.d2, direct.d2)):
            assert np.max(np.abs(got - want)) <= 1e-7 * max(1.0, np.max(np.abs(want)))


@given(repeating_specs(), st.sampled_from([0, 12]))
@settings(max_examples=60, deadline=None)
def test_floor_scan_matches_convolved_prefixes(spec_n, uniform):
    spec, N = spec_n
    ts = scan_points(6, uniform=uniform)
    scan = fourier_floor_scan(spec, ts, N)
    assert scan.window_start == max(1, N // 2)
    moduli = [np.abs(fourier_at(mu, ts)) for mu in iter_prefixes(spec, N)]
    oracle = np.min(moduli[scan.window_start - 1 :], axis=0)
    np.testing.assert_allclose([r.floor_min for r in scan.rows], oracle, rtol=0, atol=1e-12)


@given(repeating_specs(max_n=12))
@settings(max_examples=60, deadline=None)
def test_factor_reuse_calls_once_per_run_of_one_object(spec_n):
    spec, N = spec_n
    measures = [spec.measure_at(n) for n in range(1, N + 1)]
    starts = [i == 0 or nu is not measures[i - 1] for i, nu in enumerate(measures)]
    calls = []
    rule = spec.measure_at
    walked = SequenceSpec(spec.name, lambda n: calls.append(n) or rule(n))
    # The rule runs once per n however often, and however far, the factors
    # are walked; the walk hands out the rule's objects, so per-factor work
    # that skips a repeated object runs once per run of one object.
    assert list(walked.factors(0)) == [] and calls == []
    factors = list(walked.factors(N))
    assert all(a is b for a, b in zip(walked.factors(N), factors)) and calls == list(range(1, N + 1))
    assert all(nu is mu and nu.dense() is mu for nu, mu in zip(factors, measures))
    assert [i == 0 or nu is not factors[i - 1] for i, nu in enumerate(factors)] == starts


@given(st.integers(min_value=1, max_value=measures.DEFAULT_SUPPORT_CAP - 2))
@example(1)
@example(measures.DEFAULT_SUPPORT_CAP - 2)
@settings(max_examples=60, deadline=None)
def test_family_factor_window_is_the_three_atom_measure_to_the_bit(b):
    # The family's factor holds three atoms; the window built from them is
    # the measure from the pairs of its closed form, and the weight at the
    # atom site 1 is a = (1 + 2b)/(3 + 2b) of a delta_1 + (1 - a) gamma.
    denom = 3 + 2 * b
    oracle = from_pairs({1: (1 + 2 * b) / denom, -b: 1.0 / denom, -b - 1: 1.0 / denom})
    nu = _example_factor(b)
    window = nu.dense()
    assert nu.nnz == 3 and (nu.min_index, nu.max_index) == (-b - 1, 1)
    assert window.min_index == oracle.min_index and window.weights.tobytes() == oracle.weights.tobytes()
    assert nu.weight(1) == (1 + 2 * b) / denom and nu.weight(0) == 0.0
    assert all(np.array_equal(x, y) for x, y in zip(nu.atoms(), oracle.atoms()))


# -- CSV cell formatting ------------------------------------------------------------
def oracle_rows(*columns: np.ndarray) -> bytes:
    """The rows of ``columns`` by the per-cell formatter the cell engine
    replaced: ``repr`` of each value of a float64 column, ``str`` of each
    value of any other."""
    cells = (map(repr if c.dtype == np.float64 else str, c.tolist()) for c in columns)
    return "".join(",".join(row) + "\n" for row in zip(*cells)).encode()


def engine_rows(*columns: np.ndarray) -> bytes:
    return b"".join(csv_rows([columns]))


csv_floats = st.one_of(
    st.floats(),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.integers(min_value=-(2**60), max_value=2**60).map(float),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 2.0**53 + 2, 0.1]),
)


@given(st.lists(csv_floats, max_size=40), st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=40))
@settings(max_examples=100, deadline=None)
def test_column_formatter_matches_repr_and_str(floats, ints):
    for col in (np.array(floats, dtype=np.float64), np.array(ints, dtype=np.int64)):
        assert engine_rows(col) == oracle_rows(col)


def test_cell_engine_matches_repr_on_edge_floats():
    # Every subnormal with a fraction below 2^16 (the shortest digits of the
    # smallest ones have one or two digits), every power of two and of ten,
    # the neighbours of the bounds of the positional layout, zeros and the
    # values written by repr per cell.
    subnormals = np.arange(1, 2**16, dtype=np.uint64).view(np.float64)
    bounds = [x for v in (1e-5, 1e-4, 1e16, 1e17) for x in (np.nextafter(v, 0.0), v, np.nextafter(v, math.inf))]
    col = np.concatenate(
        [
            subnormals,
            -subnormals,
            2.0 ** np.arange(-1074, 1024),
            [float(f"1e{e}") for e in range(-323, 309)],
            bounds,
            [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 2.0**53 + 2, 0.1, 123.0, -0.001],
        ]
    )
    assert engine_rows(col) == oracle_rows(col)


def test_cell_engine_matches_repr_on_random_bit_patterns():
    rng = np.random.default_rng(2020)
    for _ in range(16):
        col = rng.integers(0, 2**64, 2**16, dtype=np.uint64).view(np.float64)
        assert engine_rows(col) == oracle_rows(col)


def test_cell_engine_matches_str_on_integers_and_other_columns():
    ints = np.array([-(2**63), -(2**63) + 1, -(10**18), -10001, -1, 0, 1, 9, 10, 9999, 10**4, 10**18, 2**63 - 1])
    assert ints.dtype == np.int64 and engine_rows(ints) == oracle_rows(ints)
    for col in (
        np.array([0, 1, 10**19, 2**64 - 1], dtype=np.uint64),
        np.array([7, -7], dtype=np.int8),
        np.array([1.5, 0.1, -3e-40], dtype=np.float32),
        np.array([True, False]),
        np.array(["a", "b\u00e9", ""]),
        np.array([10**30, None, 2.5], dtype=object),
    ):
        assert engine_rows(col) == oracle_rows(col)
    assert engine_rows(ints, np.arange(len(ints)) / 7, ints.astype(str)) == oracle_rows(
        ints, np.arange(len(ints)) / 7, ints.astype(str)
    )


def test_chunks_cut_long_blocks_and_join_short_ones():
    # Rows are formatted a chunk at a time: a block several chunks long is
    # cut, and short blocks are joined up to a chunk.  Either way the bytes
    # are those of the rows one by one, and a block of another dtype is
    # written as its own.
    rng = np.random.default_rng(7)
    rows = 3 * _cells._CHUNK_CELLS + 17
    ks = rng.integers(-(10**6), 10**6, rows)
    xs = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
    want = oracle_rows(ks, xs)
    assert engine_rows(ks, xs) == want
    cuts = [0, *np.sort(rng.choice(np.arange(1, rows), 300, replace=False)).tolist(), rows, rows]
    blocks = [(ks[a:b], xs[a:b]) for a, b in zip(cuts, cuts[1:])]
    chunks = list(csv_rows(blocks))
    assert b"".join(chunks) == want
    per_chunk = _cells._CHUNK_CELLS  # rows of one float column
    assert len(chunks) == -(-rows // per_chunk) and all(c.count(b"\n") <= per_chunk for c in chunks)
    mixed = [(ks[:2], xs[:2]), (ks[:1].astype(float), xs[:1]), (ks[2:3], xs[2:3])]
    assert b"".join(csv_rows(mixed)) == b"".join(oracle_rows(*block) for block in mixed)


@given(st.lists(st.tuples(st.integers(min_value=-(2**63), max_value=2**63 - 1), csv_floats), max_size=40))
@settings(max_examples=100, deadline=None)
def test_numpy_scalar_rows_write_the_bytes_of_python_rows(rows):
    # Row blocks become numpy columns, so a row of numpy scalars is written as
    # the numbers it holds, byte for byte as a row of Python ints and floats.
    scalar_rows = [(np.int64(k), np.float64(x)) for k, x in rows]
    texts = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        for block in (rows, scalar_rows):
            _write_csv(path, SimpleNamespace(echo=[]), "test", ("k", "x"), [_rows_block(block)])
            texts.append(path.read_bytes())
    assert texts[0] == texts[1]
    assert texts[0].endswith(("k,x\n" + "".join(f"{k},{x!r}\n" for k, x in rows)).encode())


# -- complex moduli -----------------------------------------------------------------
modulus_parts = st.one_of(
    st.floats(),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308, 1e200, -1e-200]),
)


@given(st.lists(st.tuples(modulus_parts, modulus_parts), min_size=1, max_size=40))
@example([(3.0, 4.0), (1e308, 1e308), (5e-324, 5e-324), (math.nan, math.inf), (-math.inf, math.nan), (-0.0, 0.0)])
@settings(max_examples=200, deadline=None)
def test_hypot_matches_scalar_abs(parts):
    # FourierProfile takes its moduli from np.hypot a column at a time; the
    # CSV must read as if each were the scalar abs of its complex value.
    z = np.array([complex(re, im) for re, im in parts])
    with np.errstate(over="ignore"):
        got = np.hypot(z.real, z.imag)
        want = np.array([float(abs(v)) for v in z])
    assert [repr(x) for x in got.tolist()] == [repr(x) for x in want.tolist()]
    finite = ~np.isnan(want)
    assert np.array_equal(got[finite].view(np.int64), want[finite].view(np.int64))
