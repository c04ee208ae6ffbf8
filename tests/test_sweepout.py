import gc
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from convergence_lab import (
    DEFAULT_SUPPORT_CAP,
    DynSystem,
    LatticeMeasure,
    SequenceSpec,
    SupportCapError,
    TestFunction,
    convolve_prefixes,
    delta,
    dissipativity_trace,
    example_measure,
    expectation,
    fourier_at,
    fourier_floor_scan,
    from_pairs,
    geometric_family,
    inverse_square_family,
    iter_prefixes,
    moment,
    scan_points,
    sweepout_simulation,
    weighted_average_all,
)
from convergence_lab.dynamics import _CellTable, _state_averages
from convergence_lab import dynamics, measures
from convergence_lab.measures import _chain_span, prefix_windows
from convergence_lab.sweepout import HIGH_THRESHOLD, LOW_THRESHOLD, _example_factor
from conftest import (
    RECURSION_TRACE_ATOL,
    decomposition,
    decomposition_error,
    dense_factor,
    full_dissipativity_trace,
)

INV_SQ = inverse_square_family(1.0)


class TestExampleMeasure:
    def test_b_one_atoms(self):
        nu = example_measure(1)
        assert nu.weight(1) == pytest.approx(3 / 5)
        assert nu.weight(-1) == pytest.approx(1 / 5)
        assert nu.weight(-2) == pytest.approx(1 / 5)
        assert expectation(nu) == pytest.approx(0.0, abs=1e-15)
        assert moment(nu, 2.0) == pytest.approx(8 / 5, abs=1e-15)

    def test_b_two_moments(self):
        nu = example_measure(2)
        assert nu.weight(1) == pytest.approx(5 / 7)
        assert moment(nu, 2.0) == pytest.approx(18 / 7, abs=1e-14)

    def test_closed_forms_across_b(self):
        for b in range(1, 101):
            nu = example_measure(b)
            assert abs(float(np.sum(nu.weights)) - 1.0) <= 1e-12
            assert abs(expectation(nu)) <= 1e-12
            formula = (2 * b * b + 4 * b + 2) / (3 + 2 * b)
            assert abs(moment(nu, 2.0) - formula) <= 1e-12

    def test_decomposition_reconstructs(self):
        # a delta_1 + (1 - a)/2 (delta_{-b} + delta_{-b-1}), read off the
        # atoms of the family's factor with b_n = b.
        spec = SequenceSpec("b = n", _example_factor, atom_site=1)
        for b in (1, 2, 7, 50, 100):
            a, site, gamma = decomposition(spec, b)
            assert (a, site) == ((1 + 2 * b) / (3 + 2 * b), 1)
            assert gamma.keys() == {-b, -b - 1} and all(w == pytest.approx(0.5, abs=1e-15) for w in gamma.values())
            assert decomposition_error(spec, b) <= 1e-12

    def test_rejects_bad_b(self):
        with pytest.raises(ValueError):
            example_measure(0)

    def test_build_holds_one_window(self):
        # from_pairs hands its window over read-only, so the measure adopts it
        # instead of copying it.
        window = 8 * (10**5 + 2)
        tracemalloc.start()
        try:
            nu = example_measure(10**5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * window
        assert not nu.weights.flags.writeable

    def test_diameter_over_cap_raises_before_allocating(self):
        assert example_measure(DEFAULT_SUPPORT_CAP - 2).max_index == 1
        for b in (DEFAULT_SUPPORT_CAP - 1, 10**10, 2**64):
            with pytest.raises(SupportCapError):
                example_measure(b)


class TestFamilies:
    def test_inverse_square_b_values_are_exact_squares(self):
        for n in range(1, 30):
            assert INV_SQ.b_at(n) == n * n

    @pytest.mark.xfail(
        strict=True,
        reason="b_at floors 1/(1 - a_n) after a 1e-9 nudge, which the rounding of a_n = 1 - 1/n^2 outgrows "
        "from n = 72 on: b is n^2 - 1 for 419 of the n <= 1000 (FOUND note on SweepoutFamily.b_at in CHANGES.md)",
    )
    def test_inverse_square_b_values_are_exact_squares_up_to_1000(self):
        assert [n for n in range(1, 1001) if inverse_square_family(1).b_at(n) != n * n] == []

    def test_geometric_b_values(self):
        fam = geometric_family(0.5)
        for n in range(1, 12):
            assert fam.b_at(n) == 2**n

    def test_family_rejects_rates_at_or_above_one(self):
        from convergence_lab import SweepoutFamily

        # A rate of exactly 1.0 leaves b = floor(1/(1 - a)) unbounded, past
        # any cap; a rate above 1, or NaN, is no rate at all.
        with pytest.raises(SupportCapError, match="a_1 rounds to 1.0"):
            SweepoutFamily("one", lambda n: 1.0).measure_at(1)
        for bad in (1.5, math.nan):
            with pytest.raises(ValueError):
                SweepoutFamily("bad", lambda n: bad).measure_at(1)

    def test_spec_carries_decomposition(self):
        spec = INV_SQ.to_spec()
        assert spec.atom_site == 1
        for n in (1, 5, 20):
            assert decomposition_error(spec, n) <= 1e-12


class TestDissipativityTrace:
    def test_pure_translation_leaves_window(self):
        spec = SequenceSpec.iid(delta(1))
        rows = dissipativity_trace(spec, 5, 8)
        assert [r.window_max for r in rows[:5]] == [1.0] * 5
        assert [r.window_max for r in rows[5:]] == [0.0, 0.0, 0.0]

    def test_lazy_point_mass_is_not_dissipative(self):
        spec = SequenceSpec.iid(delta(0))
        rows = dissipativity_trace(spec, 3, 6)
        assert all(r.window_max == 1.0 for r in rows)

    def test_family_disperses_below_two_percent(self):
        # frozen oracle horizon: window max 0.01802 at N=60, K=50
        rows = dissipativity_trace(INV_SQ.to_spec(), 50, 60)
        assert rows[-1].window_max < 0.02

    def test_rejects_bad_arguments(self):
        spec = INV_SQ.to_spec()
        for K, N, prune_eps in ((0, 20, 0.0), (50, 0, 0.0), (50, 20, -1e-9), (50, 20, 1e-7)):
            with pytest.raises(ValueError):
                dissipativity_trace(spec, K, N, prune_eps)

    def test_rows_cut_to_the_reachable_window(self, monkeypatch):
        # The kernel sums each weight in ascending order of the factor's sites,
        # however many sites the prefix keeps, so every step runs windowed:
        # each prefix the kernel reads lies in its reachable window R_m.  For
        # a drifting three-atom step, whose kept prefix has three sites, that
        # is [-2 - 2(N - m), 2]; for a dense 40-atom step
        # on [-10, 29] it is [-2 - 29(N - m), 2 + 10(N - m)], inside which
        # mu_m's window [-10m, 29m] is cut from m = 8 on.
        calls = []
        kernel = measures._convolve_into
        monkeypatch.setattr(measures, "_convolve_into", lambda *a: calls.append(a[:2]) or kernel(*a))
        drift, N = SequenceSpec.iid(from_pairs({0: 0.2, 1: 0.3, 2: 0.5})), 30
        rows = dissipativity_trace(drift, 2, N)
        assert len(calls) == N - 1
        assert all(-2 - 2 * (N - m) <= mu.min_index and mu.max_index <= 2 for m, (mu, _) in enumerate(calls, start=1))
        assert rows == full_dissipativity_trace(drift, 2, N)

        calls.clear()
        dense = SequenceSpec.iid(dense_factor(40, 1, -10))
        rows = dissipativity_trace(dense, 2, N)
        assert len(calls) == N - 1
        for m, (mu, _) in enumerate(calls, start=1):
            assert -2 - 29 * (N - m) <= mu.min_index and mu.max_index <= 2 + 10 * (N - m)
        assert rows == full_dissipativity_trace(dense, 2, N)

    @pytest.mark.parametrize("K", [1, 3, 50, 500, 10_000])
    @pytest.mark.parametrize(
        "step", [from_pairs({-1: 0.25, 0: 0.5, 1: 0.25}), from_pairs({2: 0.5, 5: 0.5}), delta(-3)]
    )
    def test_rows_read_the_window_as_lookups_do(self, K, step):
        # Windows inside the prefixes, reaching past them, and missing them
        # to the right or the left (the drifting steps leave [-K, K]).
        spec, N = SequenceSpec.iid(step), 40
        window = np.arange(-K, K + 1)
        want = [float(np.max(mu.weights_at(window))) for mu in iter_prefixes(spec, N)]
        assert [r.window_max for r in dissipativity_trace(spec, K, N)] == want

    def test_window_past_every_prefix_allocates_no_window(self):
        # 2 * 10^7 + 1 sites would take 160 MB; the rows read the prefixes.
        spec = INV_SQ.to_spec()
        tracemalloc.start()
        try:
            rows = dissipativity_trace(spec, 10**7, 12)
            pruned = dissipativity_trace(spec, 10**7, 12, prune_eps=1e-8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert rows == dissipativity_trace(spec, 1000, 12)
        assert pruned == full_dissipativity_trace(spec, 1000, 12, 1e-8)
        assert rows[0].window_max == 0.6

    def test_family_trace_is_nonincreasing(self):
        rows = dissipativity_trace(INV_SQ.to_spec(), 50, 60)
        vals = [r.window_max for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def fraction_scan_points(max_denominator: int, uniform: int) -> np.ndarray:
    """The scan points enumerated as exact fractions p/q, |p| <= q <= Q, kept
    in [-1/2, 1/2) and rounded to floats, then merged with the uniform grid."""
    pts = {Fraction(0)}
    for q in range(1, max_denominator + 1):
        for p in range(-q, q + 1):
            f = Fraction(p, q)
            if Fraction(-1, 2) <= f < Fraction(1, 2):
                pts.add(f)
    out = sorted(float(f) for f in pts)
    if uniform > 0:
        out = sorted(set(out) | {-0.5 + j / uniform for j in range(uniform)})
    return np.array(out)


class TestScanPoints:
    @pytest.mark.parametrize("uniform", [0, 1, 7, 64, 1000])
    def test_points_match_the_exact_fractions(self, uniform):
        for Q in (*range(1, 41), 64, 100, 150):
            got, want = scan_points(Q, uniform), fraction_scan_points(Q, uniform)
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), Q

    def test_low_denominator_rationals(self):
        pts = scan_points(4)
        for expected in (-0.5, -0.25, 0.0, 1 / 3, 0.25):
            assert np.any(np.isclose(pts, expected))
        assert np.all((pts >= -0.5) & (pts < 0.5))

    def test_uniform_augmentation(self):
        pts = scan_points(1, uniform=8)
        assert len(pts) == 8

    def test_enumeration_is_capped_before_it_starts(self, monkeypatch):
        # Q = 8 enumerates Q^2 + 2Q = 80 candidates; the cap bounds that count
        # and the uniform points alike.
        from convergence_lab import sweepout

        monkeypatch.setattr(sweepout, "DEFAULT_SUPPORT_CAP", 80)
        assert len(scan_points(8, uniform=80)) > 80
        for args in ((9, 0), (1, 81)):
            with pytest.raises(SupportCapError, match="exceeds cap 80"):
                scan_points(*args)
        monkeypatch.undo()
        with pytest.raises(SupportCapError):
            scan_points(100_000)


class TestFourierFloorScan:
    def test_family_floor_dominates_product(self):
        spec = INV_SQ.to_spec()
        scan = fourier_floor_scan(spec, scan_points(8), 100)
        assert not scan.vacuous
        # frozen oracle: prod_{l<=100} (2 a_l - 1)
        assert scan.product_bound == pytest.approx(0.060001652604285804, rel=1e-12)
        assert scan.contract_margin >= -1e-10

    def test_trivial_character_row(self):
        spec = INV_SQ.to_spec()
        scan = fourier_floor_scan(spec, [0.0], 20)
        assert scan.rows[0].floor_min == pytest.approx(1.0, abs=1e-12)

    def test_window_is_configurable(self):
        spec = INV_SQ.to_spec()
        tail = fourier_floor_scan(spec, [0.25], 20)
        assert tail.window_start == 10
        moduli = [abs(fourier_at(mu, [0.25])[0]) for mu in iter_prefixes(spec, 20)]
        assert tail.rows[0].floor_min == pytest.approx(min(moduli[9:]), abs=1e-12)

    def test_smoothing_family_floor_collapses(self):
        # |mu_n_hat(t)| = cos^{2n}(pi t) -> 0 off the trivial character
        spec = SequenceSpec.iid(from_pairs({-1: 0.25, 0: 0.5, 1: 0.25}))
        scan = fourier_floor_scan(spec, [0.125, 0.25], 100)
        assert scan.vacuous
        assert scan.product_bound == 0.0
        for row in scan.rows:
            assert row.floor_min < 1e-3
        assert scan.contract_margin >= -1e-10

    def test_rejects_points_outside_window(self):
        with pytest.raises(ValueError):
            fourier_floor_scan(INV_SQ.to_spec(), [0.75], 10)

    def test_half_weight_atom_reports_vacuous_bound(self):
        nu = from_pairs({1: 0.5, -1: 0.25, 0: 0.25})
        spec = SequenceSpec("half_atom", lambda n: nu, atom_site=1)
        scan = fourier_floor_scan(spec, [0.25], 10)
        assert scan.vacuous
        assert scan.product_bound <= 0.0
        assert scan.contract_margin >= -1e-10

    def test_partial_products_converge_iff_defects_summable(self):
        # compare partial products at N and N/2 for the summable rate
        a = np.array([(1 + 2 * n * n) / (3 + 2 * n * n) for n in range(1, 10001)])
        partial = np.cumprod(2 * a - 1)
        assert abs(partial[-1] / partial[4999] - 1.0) < 1e-3
        # harmonic (non-summable) defect: the same comparison fails wide
        a_bad = np.array([1 - 1 / (4 * n) for n in range(1, 10001)])
        partial_bad = np.cumprod(2 * a_bad - 1)
        assert abs(partial_bad[-1] / partial_bad[4999] - 1.0) > 0.1


def _peak_report(steps, peak, snapshot):
    """Which interval between kernel calls held the traced peak, and the
    largest allocation sites of ``snapshot``."""
    # steps[i] ends at the kernel's call for n = i + 2; the last interval
    # runs from its call for n = N to the end.
    peaks = [p for _, p in steps] + [peak]
    worst = int(np.argmax(peaks))
    where = f"before the kernel's call for n = {worst + 2}" if worst < len(steps) else "after its last call"
    lines = [f"traced peak {peaks[worst]} bytes {where}; interval peaks {peaks}"]
    if snapshot is not None:
        lines += [str(stat) for stat in snapshot.statistics("lineno")[:10]]
    return "\n".join(lines)


class TestSweepoutSimulation:
    def test_whole_space(self):
        sim = sweepout_simulation(DynSystem.cyclic(64), INV_SQ.to_spec(), 1.0, 5)
        np.testing.assert_allclose(sim.sup_trace, 1.0, atol=1e-12)
        np.testing.assert_allclose(sim.inf_trace, 1.0, atol=1e-12)
        assert sim.frac_high == 1.0
        assert sim.frac_low == 0.0

    def test_empty_set(self):
        sim = sweepout_simulation(DynSystem.cyclic(64), INV_SQ.to_spec(), 0.0, 5)
        assert np.all(sim.sup_trace == 0.0)
        assert sim.frac_high == 0.0
        assert sim.frac_low == 1.0

    def test_cyclic_matches_direct_averages(self):
        q, N = 128, 6
        sysq = DynSystem.cyclic(q)
        spec = INV_SQ.to_spec()
        sim = sweepout_simulation(sysq, spec, 0.25, N)
        block = TestFunction.indicator_block(0, int(round(0.25 * q)))
        mus = convolve_prefixes(spec, N)
        direct = np.vstack([weighted_average_all(sysq, mu, block) for mu in mus])
        np.testing.assert_allclose(sim.sup_trace, direct.max(axis=0), atol=1e-12)
        np.testing.assert_allclose(sim.inf_trace, direct.min(axis=0), atol=1e-12)

    def test_rotation_matches_direct_averages(self):
        sysr = DynSystem.rotation(samples=64, seed=4)
        spec = INV_SQ.to_spec()
        N = 5
        sim = sweepout_simulation(sysr, spec, 0.3, N)
        interval = TestFunction.indicator_interval(0.0, 0.3)
        mus = convolve_prefixes(spec, N)
        direct = np.vstack([weighted_average_all(sysr, mu, interval) for mu in mus])
        np.testing.assert_allclose(sim.sup_trace, direct.max(axis=0), atol=1e-10)
        np.testing.assert_allclose(sim.inf_trace, direct.min(axis=0), atol=1e-10)

    def test_slow_rate_caps_running_max_at_first_atom(self):
        # frozen oracle: with rates 1 - 1/n^2 the largest running max over
        # n <= 60 is exactly the first factor's atom weight 3/5, so no state
        # comes near the high threshold
        sim = sweepout_simulation(
            DynSystem.rotation(samples=1024, seed=1), INV_SQ.to_spec(), 0.05, 60
        )
        assert sim.frac_high == 0.0
        assert float(sim.sup_trace.max()) == pytest.approx(0.6, abs=1e-3)
        assert sim.frac_low == 1.0

    def test_fast_rate_shows_full_signature(self):
        # rates 1 - 1/(100 n^2): the atom product stays above 0.98 and the
        # orbit of the atom visits the target interval for every state
        spec = inverse_square_family(100.0).to_spec()
        sim = sweepout_simulation(
            DynSystem.rotation(samples=1024, seed=1), spec, 0.05, 40, prune_eps=1e-8
        )
        assert sim.frac_high == 1.0
        assert sim.frac_low == 1.0

    def test_memory_is_one_buffer_and_the_cell_table(self, monkeypatch):
        # Rotation, horizon 60: windows up to 73,931 points.  The chain's one
        # buffer, the cell table and the scatter's index scratch are allocated
        # once, so the peak stays below two windows plus the table, at its own
        # itemsize, plus the scratch, and a step from one convolution to the
        # next allocates less than its own window.  At this width the 64Ki-site
        # scratch outweighs what the compact table saves, so the older bound,
        # two windows plus an 8-byte table, caps the new one.
        N, steps, tables = 60, [], []

        class Recording(dynamics._CellTable):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(self)

        monkeypatch.setattr(dynamics, "_CellTable", Recording)
        kernel = measures._convolve_into

        def convolve_into(*args):
            current, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            steps.append((current, peak))
            return kernel(*args)

        monkeypatch.setattr(measures, "_convolve_into", convolve_into)
        spec = INV_SQ.to_spec()
        _, width = _chain_span(INV_SQ.to_spec(), N)
        window, scratch = 8 * width, 8 * min(dynamics._FILL_CHUNK, width)
        # Garbage of earlier tests is collected first, so that no finalizer of
        # it runs inside the traced region.
        gc.collect()
        tracemalloc.start()
        try:
            sweepout_simulation(DynSystem.rotation(samples=256, seed=1), spec, 0.05, N)
            _, last = tracemalloc.get_traced_memory()
            # Each kernel call resets the traced peak, so the run's peak is
            # the largest over the intervals between calls and the last one.
            peak = max([p for _, p in steps] + [last])
            table = sum(t.cells.nbytes for t in tables)
            bound = 2 * window + min(table + scratch, 8 * width)
            # Taken only on a failure: what is still allocated at the end.
            snapshot = tracemalloc.take_snapshot() if peak >= bound else None
        finally:
            tracemalloc.stop()
        assert width == 73_931
        assert len(tables) == 1 and tables[0].cells.dtype == np.uint16
        assert table == 2 * width
        assert peak < bound, _peak_report(steps, last, snapshot)
        # The kernel runs for n = 2..N, and the step between its calls for n
        # and n + 1 forms mu_n and reads it.  Below two blocks of the shifted
        # adds the scratch is as wide as the window itself.
        windows = [8 * w.width for w in prefix_windows(spec.factors(N))][1:]
        grown = [(b[1] - a[0], w) for a, b, w in zip(steps, steps[1:], windows)]
        wide = [g < w for g, w in grown if w > 2 * 8 * measures._CONVOLVE_BLOCK]
        assert len(steps) == N - 1 and len(wide) > 10 and all(wide)

    def test_support_cap_surfaces(self):
        # The cyclic recursion forms no prefix; the cap is met by nu_20 itself.
        spec = geometric_family(0.5).to_spec()
        with pytest.raises(SupportCapError, match="factor diameter"):
            sweepout_simulation(DynSystem.cyclic(64), spec, 0.1, 25)

    def test_cyclic_recursion_matches_the_stream(self):
        # The recursion sums each average's products in another order than the
        # streamed prefixes do, within the bound of the recursion's trace.  With
        # rates 1 - 1/(10 n^2) the running max reaches the high threshold on
        # the states within about |B| + N of B, so both fractions are proper.
        sysq, spec, N = DynSystem.cyclic(1024), inverse_square_family(10.0).to_spec(), 40
        sim = sweepout_simulation(sysq, spec, 0.05, N)
        f = TestFunction.indicator_block(0, int(round(0.05 * 1024)))
        averages = _state_averages(sysq, f, _chain_span(spec, N))
        stream = np.array([averages(mu) for mu in iter_prefixes(spec, N)])
        np.testing.assert_allclose(sim.sup_trace, stream.max(axis=0), rtol=0, atol=RECURSION_TRACE_ATOL)
        np.testing.assert_allclose(sim.inf_trace, stream.min(axis=0), rtol=0, atol=RECURSION_TRACE_ATOL)
        assert sim.frac_high == float(np.mean(stream.max(axis=0) >= HIGH_THRESHOLD))
        assert sim.frac_low == float(np.mean(stream.min(axis=0) <= LOW_THRESHOLD))
        assert 0.0 < sim.frac_high < sim.frac_low < 1.0


class TestCellTable:
    ALPHA = np.sqrt(2.0) - 1.0
    EDGES = np.sort(np.random.default_rng(3).random(9))

    @staticmethod
    def _uniform(lo, hi):
        return LatticeMeasure(lo, np.full(hi - lo + 1, 1.0 / (hi - lo + 1)))

    def test_cells_of_every_window(self):
        table = _CellTable(self.ALPHA, self.EDGES, -1000, 6001)
        # left, right, both sides, inside, the whole buffer, then past it both ways
        for lo, hi in [(0, 4), (-9, 4), (-9, 17), (-30, 40), (-5, 2), (-1000, 41), (-1000, 5000), (3, 3),
                       (4000, 9000), (-7000, -2000)]:
            ks = np.arange(lo, hi + 1, dtype=np.int64)
            expected = np.searchsorted(self.EDGES, (ks * self.ALPHA) % 1.0, side="right")
            assert np.array_equal(table.window(self._uniform(lo, hi)), expected)

    @staticmethod
    def _assert_cells(alpha, edges, lo, hi):
        table = _CellTable(alpha, edges, lo, hi - lo + 1)
        ks = np.arange(lo, hi + 1, dtype=np.int64)
        positions = (ks * alpha) % 1.0
        got = table.window(TestCellTable._uniform(lo, hi))
        assert np.array_equal(got, np.searchsorted(edges, positions, side="right"))
        return table, positions

    def test_edges_on_bucket_boundaries_and_positions_on_edges(self):
        # 5 edges give 128 buckets; every edge is some j/128, and alpha = 3/128
        # puts positions exactly on edges and on bucket boundaries.
        edges = np.array([0.0, 1 / 128, 0.5, 77 / 128, 127 / 128])
        table, positions = self._assert_cells(3 / 128, edges, -300, 300)
        assert table.scale == 128.0
        assert np.isin(positions, edges).sum() > 20

    def test_position_one(self):
        # (-1e-20) % 1.0 rounds to 1.0, past every bucket of [0, 1).
        for edges in (np.array([0.2, 0.7]), np.array([0.0, 0.2, 1.0])):
            _, positions = self._assert_cells(1e-20, edges, -3, 3)
            assert positions[2] == 1.0

    def test_single_edge(self):
        for edge in (0.0, 0.3, 0.5, 1.0):
            self._assert_cells(self.ALPHA, np.array([edge]), -500, 500)

    def test_edges_denser_than_buckets(self):
        # 60 edges (1024 buckets) clustered inside one bucket and across a
        # few, so that many points fall where a bucket holds several edges.
        cluster = 0.5 + np.linspace(1e-6, 1 / 1024 - 1e-6, 30)
        spread = 0.25 + np.linspace(0.0, 4 / 1024, 30)
        edges = np.unique(np.concatenate((cluster, spread)))
        _, positions = self._assert_cells(self.ALPHA, edges, -20000, 20000)
        assert np.count_nonzero((positions > cluster[0]) & (positions < cluster[-1])) > 10

    def test_growing_chain_never_moves_a_cell(self):
        # Every factor straddles 0, so the hull is the last window: each window
        # is a view into the one buffer, and only its new points are computed.
        spec = INV_SQ.to_spec()
        start, capacity = _chain_span(spec, 120)
        table = _CellTable(self.ALPHA, self.EDGES, start, capacity)
        buffer = table.cells
        for mu in iter_prefixes(spec, 120):
            cells = table.window(mu)
            assert table.cells is buffer and table.offset == start
            assert np.shares_memory(cells, buffer) and (table.lo, table.hi) == (mu.min_index, mu.max_index + 1)
        # Underflowed end weights trim the prefixes inside the factors' hull.
        assert start < mu.min_index and mu.max_index < start + capacity
        assert capacity == 583_442 and len(mu.weights) == 570_024

    def test_span_walk_stops_where_the_chain_passes_the_cap(self):
        family, built = geometric_family(0.5), []
        spec = SequenceSpec("geometric", lambda n: built.append(n) or family.measure_at(n))
        start, capacity = _chain_span(spec, 30)
        # The running width first passes the cap at n = 19, where the chain raises.
        assert built == list(range(1, 20)) and capacity == DEFAULT_SUPPORT_CAP
        assert start == sum(family.measure_at(n).min_index for n in range(1, 20))
        # The first prefix is nu_1 itself, held to no cap.
        width = DEFAULT_SUPPORT_CAP + 1
        wide = LatticeMeasure(-3, np.full(width, 1.0 / width))
        assert _chain_span(SequenceSpec.from_measures([wide, delta(0)]), 2) == (-3, width)
