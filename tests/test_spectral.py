import gc
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convergence_lab import (
    FourierProfile,
    LatticeMeasure,
    QuadratureError,
    SequenceSpec,
    convolve,
    convolve_prefixes,
    decay_constant,
    delta,
    expectation,
    fourier_at,
    fourier_eval,
    from_pairs,
    inverse_square_family,
    is_strictly_aperiodic,
    moment,
    prefix_fourier_profiles,
    weighted_d2_integral,
)
from convergence_lab import spectral
from convergence_lab.cli import _write_csv, main
from conftest import (
    PreconditionError,
    doubling_defect,
    holder_smoothness_check,
    offzero_modulus_bound,
    quadratic_minorant_check,
    random_measure,
    random_symmetric_measure,
    two_atom_bound,
    wrap_to_fundamental,
)

CENTERED_TRIPLE = from_pairs({-1: 0.25, 0: 0.5, 1: 0.25})


@st.composite
def sparse_wide_measures(draw):
    """Up to 3,000 wide, offsets down to -3,000, most interior atoms knocked out.

    Wider than the quadrature's shared level grid (1,024) and than its first
    deeper levels, so their folds by k mod n wrap.
    """
    span = draw(st.integers(min_value=1, max_value=3000))
    offset = draw(st.integers(min_value=-3000, max_value=100))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    w = rng.random(span) + 1e-3
    w[rng.random(span) < draw(st.floats(min_value=0.5, max_value=0.999))] = 0.0
    w[0] = w[-1] = 0.5
    return LatticeMeasure(offset, w / w.sum())


def invert_by_grid_sum(profile, k: int) -> complex:
    """Quadrature oracle: mu(k) = int mu_hat(t) e^{-2 pi i k t} dt."""
    ts = profile.grid
    return complex(np.mean(profile.values * np.exp(-2j * np.pi * k * ts)))


def direct_sum_d2(mu, ts):
    """Direct sums of mu_hat''(t) = sum_k mu(k) (2 pi i k)^2 e^{2 pi i k t}.

    The support window is cut into blocks k = k0 + j, j < block ~ sqrt(width),
    and each phase factored as e^{2 pi i k0 t} e^{2 pi i j t}, so a point costs
    about 2 sqrt(width) exponentials instead of one per atom.
    """
    block = math.isqrt(len(mu.weights) - 1) + 1
    blocks = -(-len(mu.weights) // block)
    ks = mu.min_index + np.arange(blocks * block)
    ws = np.zeros(blocks * block)
    ws[: len(mu.weights)] = mu.weights
    coeffs = (ws * -((2.0 * np.pi * ks) ** 2)).reshape(blocks, block).T
    out = np.empty(len(ts), dtype=complex)
    for start in range(0, len(ts), 4096):
        t = ts[start : start + 4096]
        inner = np.exp(2j * np.pi * np.outer(t, np.arange(block))) @ coeffs
        out[start : start + 4096] = np.sum(np.exp(2j * np.pi * np.outer(t, ks[::block])) * inner, axis=1)
    return out


def simpson_doubling(ys, estimate, odd_nodes, target, max_depth, min_depth):
    """Simpson doubling from the nodes ys of 2^min_depth panels: each level
    of n panels puts ``odd_nodes(n)`` between the previous nodes and stops
    once two ``estimate(ys, n)`` differ by less than target.

    Returns the estimate and False, or the last two estimates and True when
    the depth cap is reached.
    """
    current = estimate(ys, 2**min_depth)
    for depth in range(min_depth + 1, max_depth + 1):
        n = 2**depth
        merged = np.empty(2 * len(ys) - 1)
        merged[0::2] = ys
        merged[1::2] = odd_nodes(n)
        ys = merged
        prev, current = current, estimate(ys, n)
        if abs(current - prev) < target:
            return current, False
    return (prev, current), True


def direct_sum_simpson_d2(mu, target, max_depth, min_depth=4):
    """Reference for weighted_d2_integral: the same Simpson doubling on
    [-1/2, 1/2], every node evaluated by direct sums."""

    def f(ts):
        return np.abs(direct_sum_d2(mu, ts)) * np.abs(ts)

    def simpson(ys, n):
        h = 1.0 / n
        return h / 3.0 * (ys[0] + ys[-1] + 4.0 * np.sum(ys[1:-1:2]) + 2.0 * np.sum(ys[2:-1:2]))

    def odd_nodes(n):
        return f(-0.5 + (2.0 * np.arange(n // 2) + 1.0) / n)

    ys = f(np.linspace(-0.5, 0.5, 2**min_depth + 1))
    return simpson_doubling(ys, simpson, odd_nodes, target, max_depth, min_depth)


def unit_roots_oracle(n):
    """Reference for the root table: e^{2 pi i j / n}, j < n/2, out of place."""
    return np.exp(1j * (np.arange(n // 2) * (spectral.TWO_PI / n)))


def odd_frequency_sums_oracle(ks, c, n):
    """Reference for ``_odd_frequency_sums``: the same arithmetic in the same
    order, with a new array for each intermediate."""
    folded = np.bincount(ks & (n - 1), c, n)
    roots = unit_roots_oracle(n)
    p = np.fft.ifft((folded[: n // 2] - folded[n // 2 :]).view(complex) * roots[0::2], norm="forward")
    q = np.conj(p[::-1])
    odd = p - q
    odd *= roots[1::2]
    p += q
    p -= 1j * odd
    p *= 0.5
    return p


def out_of_place_d2(mu, target=1e-6, max_depth=18):
    """Reference for weighted_d2_integral: its levels on [0, 1/2] with a new
    array for each intermediate, the deep nodes from
    :func:`odd_frequency_sums_oracle`."""
    shared_n, min_depth = spectral._SHARED_LEVEL, spectral._MIN_DEPTH
    ks, ws = mu.atoms()
    g = ws * -((spectral.TWO_PI * ks) ** 2)
    folded = np.bincount(ks & (shared_n - 1), g, shared_n)
    shared = np.abs(np.fft.rfft(folded)) * (np.arange(shared_n // 2 + 1) / shared_n)

    def odd_nodes(n):
        if n <= shared_n:
            stride = shared_n // n
            return shared[stride :: 2 * stride]
        return np.abs(odd_frequency_sums_oracle(ks, g, n)) * ((2.0 * np.arange(n // 4) + 1.0) / n)

    def estimate(ys, n):
        return 2.0 * spectral._composite_simpson(ys, 1.0 / n)

    return simpson_doubling(shared[:: shared_n >> min_depth], estimate, odd_nodes, target, max_depth, min_depth)


@st.composite
def odd_level_atoms(draw):
    """Sites, d2 coefficients -(2 pi k)^2 w_k and n = 2^depth, depth 2..16.

    The support is up to 4n wide, so the fold by k mod n wraps once it is
    wider than n/2, and sits at offsets up to +-10^6, or puts an atom at
    k = 0, whose coefficient is -0.0.
    """
    n = 2 ** draw(st.integers(min_value=2, max_value=16))
    width = draw(st.integers(min_value=1, max_value=4 * n))
    count = draw(st.integers(min_value=1, max_value=200))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    sites = np.unique(np.concatenate(([0, width - 1], rng.integers(0, width, size=count))))
    if draw(st.booleans()):
        offset = -int(sites[rng.integers(len(sites))])
    else:
        offset = draw(st.integers(min_value=-(10**6), max_value=10**6))
    ks = offset + sites
    return ks, (rng.random(len(ks)) + 1e-3) * -((spectral.TWO_PI * ks) ** 2), n


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestFourierEval:
    def test_point_mass_at_zero(self):
        prof = fourier_eval(delta(0), 64)
        np.testing.assert_allclose(prof.values, 1.0, atol=1e-14)
        np.testing.assert_allclose(prof.d1, 0.0, atol=1e-14)

    def test_symmetric_pair_is_cosine(self):
        prof = fourier_eval(from_pairs({-1: 0.5, 1: 0.5}), 256)
        np.testing.assert_allclose(prof.values, np.cos(2 * np.pi * prof.grid), atol=1e-12)
        assert abs(prof.values[0]) == pytest.approx(1.0, abs=1e-12)  # t = -1/2

    def test_centered_triple_is_squared_cosine(self):
        prof = fourier_eval(CENTERED_TRIPLE, 256)
        np.testing.assert_allclose(prof.values, np.cos(np.pi * prof.grid) ** 2, atol=1e-12)

    def test_grid_layout(self):
        prof = fourier_eval(delta(0), 32)
        assert prof.grid[0] == -0.5
        assert prof.grid[16] == 0.0
        assert prof.grid[-1] < 0.5

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            fourier_eval(delta(0), 8)
        with pytest.raises(ValueError):
            fourier_eval(delta(0), 33)

    def test_profile_invariants(self, rng):
        for _ in range(25):
            mu = random_measure(rng, max_span=25)
            prof = fourier_eval(mu, 512)
            assert np.max(np.abs(prof.values)) <= 1.0 + 1e-12
            i0 = 256
            assert prof.values[i0] == pytest.approx(1.0 - mu.mass_defect, abs=1e-12)
            assert prof.d1[i0] == pytest.approx(2j * np.pi * expectation(mu), abs=1e-10)
            m2 = moment(mu, 2.0)
            assert prof.d2[i0].real == pytest.approx(-4 * np.pi**2 * m2, rel=1e-8)

    def test_derivative_sup_bounds(self, rng):
        for _ in range(25):
            mu = random_measure(rng)
            prof = fourier_eval(mu, 256)
            assert np.max(np.abs(prof.d1)) <= 2 * np.pi * moment(mu, 1.0) * (1 + 1e-9) + 1e-12
            assert np.max(np.abs(prof.d2)) <= 4 * np.pi**2 * moment(mu, 2.0) * (1 + 1e-9) + 1e-12

    def test_centered_first_derivative_linear_bound(self, rng):
        for _ in range(25):
            mu = random_symmetric_measure(rng)
            prof = fourier_eval(mu, 256)
            bound = 4 * np.pi**2 * moment(mu, 2.0) * np.abs(prof.grid) + 1e-10
            assert np.all(np.abs(prof.d1) <= bound)

    def test_multiplicativity(self, rng):
        for _ in range(20):
            a, b = random_measure(rng), random_measure(rng)
            pa = fourier_eval(a, 128)
            pb = fourier_eval(b, 128)
            pab = fourier_eval(convolve(a, b), 128)
            assert np.max(np.abs(pab.values - pa.values * pb.values)) <= 1e-10

    def test_inversion_round_trip(self, rng):
        for _ in range(20):
            mu = random_measure(rng, max_span=30)
            prof = fourier_eval(mu, 512)
            for k in mu.support:
                got = invert_by_grid_sum(prof, int(k))
                assert abs(got - mu.weight(int(k))) <= 1e-8

    def test_csv_columns(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("[family]\nkind = iid\n\n[run]\nhorizon = 1\ngrid_size = 16\n")
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        text = (tmp_path / "spectrum_mu_0001.csv").read_text()
        header = next(ln for ln in text.splitlines() if not ln.startswith("#"))
        assert header == ",".join(FourierProfile.COLUMNS) == "t,re,im,abs,abs_d1,abs_d2"

    def test_csv_rows_match_scalar_format(self, tmp_path):
        prof = fourier_eval(from_pairs({-3: 0.2, 0: 0.5, 7: 0.3}), 64)
        path = tmp_path / "prof.csv"
        _write_csv(path, SimpleNamespace(echo=[]), "spectrum", prof.COLUMNS, [prof.columns()])
        expected = [
            f"{float(t)!r},{float(v.real)!r},{float(v.imag)!r},"
            f"{float(abs(v))!r},{float(abs(a))!r},{float(abs(b))!r}"
            for t, v, a, b in zip(prof.grid, prof.values, prof.d1, prof.d2)
        ]
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        assert lines[1:] == expected


class TestWrap:
    def test_wraps_into_window(self):
        assert wrap_to_fundamental(0.75) == -0.25
        assert wrap_to_fundamental(-0.5) == -0.5
        assert wrap_to_fundamental(0.5) == -0.5
        assert wrap_to_fundamental(0.2) == pytest.approx(0.2)


class TestDecayConstant:
    def test_periodic_pair_is_zero(self):
        assert decay_constant(from_pairs({-1: 0.5, 1: 0.5})) == 0.0

    def test_point_mass_is_zero(self):
        assert decay_constant(delta(0)) == 0.0

    def test_centered_triple_near_pi_squared(self):
        # closed-form oracle: -log(cos^2(pi t))/t^2 decreases to pi^2 as t -> 0
        got = decay_constant(CENTERED_TRIPLE, 4096)
        assert got == pytest.approx(math.pi**2, abs=0.2)

    def test_certificate_holds_pointwise(self, rng):
        for _ in range(15):
            mu = random_measure(rng, max_span=10)
            C = decay_constant(mu, 2048)
            prof = fourier_eval(mu, 2048)
            assert np.all(np.abs(prof.values) <= np.exp(-C * prof.grid**2) + 1e-12)

    def test_zero_iff_periodic_on_corpus(self, rng):
        agree = 0
        for _ in range(50):
            mu = random_measure(rng, max_span=12)
            assert (decay_constant(mu, 4096) > 0.0) == is_strictly_aperiodic(mu)
            agree += 1
        assert agree == 50


class TestDoublingDefect:
    def test_point_mass_vanishes(self):
        for t in (0.0, 0.1, 0.3, -0.45):
            assert doubling_defect(delta(0), t) == pytest.approx(0.0, abs=1e-12)

    def test_fair_coin_quarter(self):
        assert doubling_defect(from_pairs({0: 0.5, 1: 0.5}), 0.25) == pytest.approx(1.0, abs=1e-12)

    def test_nonnegative_on_random_pairs(self, rng):
        for _ in range(500):
            mu = random_measure(rng, max_span=12)
            t = float(rng.uniform(-0.5, 0.5))
            assert doubling_defect(mu, t) >= -1e-12


class TestQuadraticMinorant:
    def test_centered_triple(self):
        c = math.cos(0.2 * math.pi) ** 2
        assert quadratic_minorant_check(CENTERED_TRIPLE, 0.2, c) is True

    def test_point_mass_fails_precondition(self):
        with pytest.raises(PreconditionError) as err:
            quadratic_minorant_check(delta(0), 0.2, 0.9)
        assert err.value.witness_value == pytest.approx(1.0, abs=1e-12)

    def test_fair_coin_with_tight_c(self):
        mu = from_pairs({0: 0.5, 1: 0.5})
        c = abs(complex(fourier_at(mu, np.array([0.2]))[0]))
        assert quadratic_minorant_check(mu, 0.2, c) is True

    def test_rejects_bad_b(self):
        with pytest.raises(ValueError):
            quadratic_minorant_check(CENTERED_TRIPLE, 0.3, 0.5)


class TestWeightedD2Integral:
    def test_point_mass_at_zero(self):
        assert weighted_d2_integral(delta(0)) == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_at_one(self):
        # |mu_hat''| is constant 4 pi^2, so the integral is pi^2 exactly
        assert weighted_d2_integral(delta(1)) == pytest.approx(math.pi**2, abs=1e-6)

    def test_trace_is_bounded(self):
        spec = SequenceSpec.iid(CENTERED_TRIPLE)
        mus = convolve_prefixes(spec, 40)
        vals = [weighted_d2_integral(mu) for mu in mus[1:]]
        assert max(vals) <= 3.0

    @pytest.mark.parametrize(
        "spec, N, cap_hits",
        [(SequenceSpec.iid(CENTERED_TRIPLE), 40, 0), (inverse_square_family(1.0).to_spec(), 14, 1)],
        ids=["iid_triple", "inverse_square"],
    )
    def test_matches_direct_sum_simpson(self, monkeypatch, spec, N, cap_hits):
        # These are the benchmark's check workload prefixes.  From a fresh
        # root table they also match the out-of-place oracle to the bit.
        monkeypatch.setattr(spectral, "_roots", np.ones(1, dtype=complex))
        fast_caps = direct_caps = 0
        for mu in convolve_prefixes(spec, N):
            try:
                fast, capped = weighted_d2_integral(mu), False
            except QuadratureError as exc:
                fast, capped = exc.last_two, True
            fast_caps += capped
            direct, direct_capped = direct_sum_simpson_d2(mu, target=1e-6, max_depth=18)
            direct_caps += direct_capped
            np.testing.assert_allclose(fast, direct, rtol=1e-12, atol=0.0)
            want, want_capped = out_of_place_d2(mu)
            assert capped == want_capped and bits(fast) == bits(want)
        assert fast_caps == direct_caps == cap_hits

    @given(
        sparse_wide_measures(),
        st.sampled_from([1e-6, 1.0, 1e4]),
        st.integers(min_value=5, max_value=13),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_sum_simpson_on_wrapping_folds(self, mu, target, max_depth):
        try:
            fast, fast_capped = weighted_d2_integral(mu, target=target, max_depth=max_depth), False
        except QuadratureError as exc:
            fast, fast_capped = exc.last_two, True
        direct, capped = direct_sum_simpson_d2(mu, target=target, max_depth=max_depth)
        assert fast_capped == capped
        np.testing.assert_allclose(fast, direct, rtol=1e-12, atol=0.0)
        want, want_capped = out_of_place_d2(mu, target=target, max_depth=max_depth)
        assert want_capped == capped and bits(fast) == bits(want)

    @pytest.mark.parametrize("max_depth", [-1, 0, 4])
    def test_rejects_depth_without_two_levels(self, max_depth):
        with pytest.raises(ValueError, match="max_depth"):
            weighted_d2_integral(delta(1), max_depth=max_depth)

    def test_result_does_not_depend_on_root_table_size(self, monkeypatch):
        # Converges at a level above the shared FFT, so it reads roots.
        mu = inverse_square_family(1.0).to_spec().measure_at(9)
        monkeypatch.setattr(spectral, "_roots", np.ones(1, dtype=complex))
        before = weighted_d2_integral(mu, target=1e-3)
        small = len(spectral._roots)
        with pytest.raises(QuadratureError):
            weighted_d2_integral(mu, target=0.0, max_depth=20)
        assert 2**10 <= small < len(spectral._roots) == 2**19
        assert weighted_d2_integral(mu, target=1e-3) == before

    @given(odd_level_atoms())
    @settings(max_examples=80, deadline=None)
    def test_odd_frequency_sums_match_their_oracle_to_the_bit(self, case):
        ks, c, n = case
        assert spectral._odd_frequency_sums(ks, c, n).tobytes() == odd_frequency_sums_oracle(ks, c, n).tobytes()

    @pytest.mark.parametrize("block", [1, 3, 1000])
    @given(case=odd_level_atoms())
    @example(case=(np.array([-3, 0, 2]), np.array([-1.5, -0.0, -2.5]), 4))
    @settings(max_examples=40, deadline=None)
    def test_odd_frequency_sums_match_their_oracle_across_block_seams(self, block, case):
        # Blocks of 1 and 3 points, and of 1,000, which divides no n/8: many
        # mirrored pairs, then a middle up to two blocks wide, which is its
        # own mirror; at n = 4 the middle is one point.
        ks, c, n = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral, "_LEVEL_BLOCK", block)
            fast = spectral._odd_frequency_sums(ks, c, n)
        assert fast.tobytes() == odd_frequency_sums_oracle(ks, c, n).tobytes()

    def test_root_table_matches_its_oracle_to_the_bit(self, monkeypatch):
        for depth in range(2, 21):
            n = 2**depth
            monkeypatch.setattr(spectral, "_roots", np.ones(1, dtype=complex))
            table = spectral._unit_roots(n)
            assert not table.flags.writeable
            assert table.tobytes() == unit_roots_oracle(n).tobytes()

    def test_root_table_grown_from_the_last_matches_its_oracle_to_the_bit(self, monkeypatch):
        # One table, grown a doubling at a time as the deep levels ask for it.
        monkeypatch.setattr(spectral, "_roots", np.ones(1, dtype=complex))
        for depth in range(2, 21):
            n = 2**depth
            last = spectral._roots
            published = last.tobytes()
            table = spectral._unit_roots(n)
            assert len(spectral._roots) == n // 2 and last.tobytes() == published
            assert not table.flags.writeable
            assert table.tobytes() == unit_roots_oracle(n).tobytes()
        for depth in range(2, 21):
            assert spectral._unit_roots(2**depth).tobytes() == unit_roots_oracle(2**depth).tobytes()

    @pytest.mark.parametrize("fresh, bound", [(True, 22.5), (False, 14)], ids=["fresh_table", "warm_table"])
    def test_deepest_level_holds_its_named_buffers(self, monkeypatch, fresh, bound):
        # The depth-cap hit of the check workload reaches n = 2^18 panels.
        # Its level holds the merged Simpson array (4n bytes), which takes the
        # nodes in place, the fold (8n), whose lower half holds the packed
        # sequence, the buffer of q and the odd part for one mirrored block
        # pair (n) and, when it grew at this level, the root table (8n).  The
        # table grows before the fold is made, so the old table is gone by
        # then.
        n = 2**18
        mu = convolve_prefixes(inverse_square_family(1.0).to_spec(), 14)[-1]
        monkeypatch.setattr(spectral, "_roots", np.ones(1, dtype=complex))
        if not fresh:
            spectral._unit_roots(n)
        gc.collect()
        tracemalloc.start()
        try:
            with pytest.raises(QuadratureError):
                weighted_d2_integral(mu, max_depth=18)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * n

    def test_depth_cap_raises_with_estimates(self):
        with pytest.raises(QuadratureError) as err:
            weighted_d2_integral(CENTERED_TRIPLE, target=1e-16, max_depth=6)
        with pytest.raises(QuadratureError) as shallower:
            weighted_d2_integral(CENTERED_TRIPLE, target=1e-16, max_depth=5)
        # (second-to-last, last): depth 5's last estimate precedes depth 6's.
        second_to_last, last = err.value.last_two
        assert second_to_last == shallower.value.last_two[1] != last


class TestHolderSmoothness:
    def test_point_mass_has_no_visible_pairs(self):
        ok, worst = holder_smoothness_check(delta(0), 1.0, 2.0)
        assert ok
        assert worst.ratio == 0.0

    def test_formula_instantiation(self, rng):
        mu = random_measure(rng, max_span=8, allow_offset=False)
        _, _ = holder_smoothness_check(mu, 1.0, 1.0)
        expected = abs(mu.weight(5) - mu.weight(4)) * 4.0**2
        ys = 1.0
        ratio = expected / ys
        # recompute the (x, y) = (4, 1) entry directly from the definition
        assert abs(mu.weight(4 + 1) - mu.weight(4)) * abs(4) ** 2 / abs(1) == ratio

    def test_single_constant_across_smoothing_products(self):
        spec = SequenceSpec.iid(CENTERED_TRIPLE)
        worst = 0.0
        for mu in convolve_prefixes(spec, 50):
            ok, wit = holder_smoothness_check(mu, 1.0, 1.0)
            worst = max(worst, wit.ratio)
            assert ok
        assert worst == pytest.approx(1.0, abs=1e-12)


def brute_force_two_atom(delta_: float, eta: float, n_a=60, n_psi=4000) -> float:
    """Grid oracle over the constrained pairs, corners included.

    By rotation invariance |a1 z1 + a2 z2| = |a1 + a2 e^{i psi}| with
    psi the angle between the atoms; the chord constraint reads
    2 |sin(psi/2)| >= eta.
    """
    psi_min = 2.0 * math.asin(min(1.0, eta / 2.0))
    psis = np.linspace(psi_min, 2.0 * math.pi - psi_min, n_psi)
    a1 = np.linspace(delta_, 1.0 - delta_, n_a)[:, None]
    vals = np.abs(a1 + (1.0 - a1) * np.exp(1j * psis[None, :]))
    return float(np.max(vals))


class TestTwoAtomBound:
    def test_antipodal_equal_weights(self):
        assert two_atom_bound(0.5, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_limit(self):
        assert two_atom_bound(1e-12, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_quarter_one(self):
        assert two_atom_bound(0.25, 1.0) == pytest.approx(math.sqrt(13) / 4.0, abs=1e-12)
        assert two_atom_bound(0.25, 1.0) == pytest.approx(brute_force_two_atom(0.25, 1.0), abs=1e-4)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            two_atom_bound(0.0, 1.0)
        with pytest.raises(ValueError):
            two_atom_bound(0.25, 2.5)

    def test_bounds_random_constrained_points(self, rng):
        for _ in range(200):
            d = float(rng.uniform(0.05, 0.5))
            e = float(rng.uniform(0.05, 2.0))
            rho = two_atom_bound(d, e)
            a1 = float(rng.uniform(d, 1.0 - d)) if d < 0.5 else 0.5
            psi_min = 2.0 * math.asin(min(1.0, e / 2.0))
            psi = float(rng.uniform(psi_min, 2.0 * math.pi - psi_min))
            val = abs(a1 + (1.0 - a1) * np.exp(1j * psi))
            assert val <= rho + 1e-12


class TestOffzeroModulusBound:
    def test_periodic_measure_reports_no_gap(self):
        bound, _ = offzero_modulus_bound(from_pairs({-3: 0.5, 3: 0.5}), 4096)
        assert bound >= 1.0

    def test_aperiodic_corpus_has_gap(self, rng):
        for _ in range(25):
            mu = random_measure(rng, max_span=12)
            if is_strictly_aperiodic(mu):
                bound, _ = offzero_modulus_bound(mu, 4096)
                assert bound < 1.0


class TestPrefixProfiles:
    def test_matches_direct_evaluation(self):
        spec = SequenceSpec.iid(CENTERED_TRIPLE)
        mus = convolve_prefixes(spec, 12)
        for n, prof in enumerate(prefix_fourier_profiles(spec, 12, 128), start=1):
            direct = fourier_eval(mus[n - 1], 128)
            assert np.max(np.abs(prof.values - direct.values)) <= 1e-11
            assert np.max(np.abs(prof.d2 - direct.d2)) <= 1e-7 * max(1.0, np.max(np.abs(direct.d2)))
