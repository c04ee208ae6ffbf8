"""Property-based checks of the structural invariants.

Strategies build small random probability measures directly, so shrinking
produces readable counterexamples (a handful of atoms near the origin).
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from convergence_lab import (
    LatticeMeasure,
    convolve,
    delta,
    doubling_defect,
    expectation,
    fourier_at,
    l1_distance,
    moment,
    tv_shift_distance,
    two_atom_bound,
)
from convergence_lab.spectral import _grid_sums, _transform_sums


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


# A grid of the fourier_eval kind (origin -1/2, any even size) or a Simpson
# midpoint level (origin -1/2 + 1/N, N/2 points); many are narrower than the
# support, so the fold by k mod n wraps.
uniform_grids = st.one_of(
    st.integers(min_value=8, max_value=128).map(lambda h: (-0.5, 2 * h)),
    st.integers(min_value=5, max_value=11).map(lambda d: (-0.5 + 1.0 / 2**d, 2 ** (d - 1))),
)


@given(wide_gapped_measures(), uniform_grids)
@settings(max_examples=80, deadline=None)
def test_grid_engine_matches_direct_sums(mu, grid):
    t0, n = grid
    ts = t0 + np.arange(n) / n
    fast = _grid_sums(mu, t0, n, (0, 1, 2))
    direct = [fourier_at(mu, ts), *_transform_sums(mu, ts, (1, 2))]
    ks = np.abs(mu.support).astype(float)
    ws = mu.weights[np.flatnonzero(mu.weights)]
    for m in (0, 1, 2):
        # Rounding of sum_k |w_k| (2 pi |k|)^m, times the direct sums' phase
        # error eps |2 pi k t| <= eps pi |k| and the FFT's eps log2(n).
        scale = ws * (2.0 * np.pi * ks) ** m
        tol = 2.0 * np.finfo(float).eps * float(np.sum(scale * (np.pi * ks + math.log2(n) + 4.0)))
        assert np.max(np.abs(fast[m] - direct[m])) <= tol
