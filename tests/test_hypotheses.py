import hashlib
import math
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from convergence_lab import (
    DEFAULT_GRID_SIZE,
    QuadratureError,
    SequenceSpec,
    check_convergence_hypotheses,
    check_sweepout_hypotheses,
    convolve_prefixes,
    coset_mass_sup,
    decay_constant,
    example_measure,
    expectation,
    from_pairs,
    geometric_family,
    inverse_square_family,
    moment,
    tv_shift_distance,
    weighted_d2_integral,
)
from convergence_lab import hypotheses
from convergence_lab.cli import _rows_block, _write_csv
from conftest import condition, dense_at, second_derivative_majorant_ratio, second_moment_floor

CENTERED_TRIPLE = from_pairs({-1: 0.25, 0: 0.5, 1: 0.25})
IID_TRIPLE = SequenceSpec.iid(CENTERED_TRIPLE, name="iid_triple")


class TestConvergenceReport:
    def test_centered_triple_passes_all(self):
        report = check_convergence_hypotheses(IID_TRIPLE, 100)
        assert condition(report, "zero_expectation").ok
        assert condition(report, "zero_expectation").witness == 0.0
        assert condition(report, "moment_growth").ok
        assert condition(report, "moment_growth").witness == pytest.approx(0.5, abs=1e-12)
        assert condition(report, "gaussian_decay").ok
        assert condition(report, "gaussian_decay").witness == pytest.approx(math.pi**2, abs=0.2)
        assert condition(report, "strict_aperiodicity").ok
        assert condition(report, "coset_rho").ok
        assert condition(report, "coset_rho").witness == pytest.approx(0.5, abs=1e-12)
        assert report.overall_ok

    def test_fair_coin_fails_zero_expectation(self):
        spec = SequenceSpec.iid(from_pairs({0: 0.5, 1: 0.5}), name="fair_coin")
        report = check_convergence_hypotheses(spec, 12)
        cond = condition(report, "zero_expectation")
        assert not cond.ok
        assert cond.witness == pytest.approx(0.5, abs=1e-12)
        assert not report.overall_ok

    def test_fast_atom_family_fails_moment_growth(self, monkeypatch):
        # second moments grow like the inverse of the defect rate; the d2
        # quadrature hits its (reduced) depth cap on these wide supports,
        # which the report records without aborting
        monkeypatch.setattr(hypotheses, "weighted_d2_integral", partial(weighted_d2_integral, max_depth=12))
        spec = geometric_family(0.5).to_spec()
        report = check_convergence_hypotheses(spec, 10)
        assert condition(report, "zero_expectation").ok
        assert not condition(report, "moment_growth").ok
        assert not report.overall_ok
        assert len(report.d2_depth_cap_n) > 0

    def test_cap_hit_row_holds_the_last_estimate(self, monkeypatch):
        tight = partial(weighted_d2_integral, target=1e-16, max_depth=6)
        monkeypatch.setattr(hypotheses, "weighted_d2_integral", tight)
        report = check_convergence_hypotheses(IID_TRIPLE, 4)
        cap_ns = report.d2_depth_cap_n
        assert cap_ns
        mus = convolve_prefixes(IID_TRIPLE, 4)
        for n in cap_ns:
            with pytest.raises(QuadratureError) as err:
                weighted_d2_integral(mus[n - 1], target=1e-16, max_depth=6)
            second_to_last, last = err.value.last_two
            assert second_to_last != last
            assert report.rows[n - 1][7] == last

    def test_rows_have_pinned_header(self, tmp_path):
        report = check_convergence_hypotheses(IID_TRIPLE, 4)
        assert report.row_header == (
            "n", "E", "m1", "m2", "phi_over_n", "decay_C", "rho", "d2_integral", "shift_tv",
        )
        assert len(report.rows) == 4
        path = tmp_path / "rows.csv"
        _write_csv(path, SimpleNamespace(echo=[]), "check", report.row_header, [_rows_block(report.rows)])
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == ",".join(report.row_header)

    def test_failures_persist_at_larger_horizon(self, monkeypatch):
        monkeypatch.setattr(hypotheses, "weighted_d2_integral", partial(weighted_d2_integral, max_depth=12))
        spec = geometric_family(0.5).to_spec()
        small = check_convergence_hypotheses(spec, 8)
        large = check_convergence_hypotheses(spec, 12)
        for cond in small.conditions:
            if not cond.ok:
                assert not condition(large, cond.name).ok

    def test_deterministic(self):
        a = check_convergence_hypotheses(IID_TRIPLE, 10)
        b = check_convergence_hypotheses(IID_TRIPLE, 10)
        assert a.rows == b.rows
        assert a.conditions == b.conditions

    def test_summary_names_failures(self):
        spec = SequenceSpec.iid(from_pairs({0: 0.5, 1: 0.5}), name="fair_coin")
        text = check_convergence_hypotheses(spec, 6).summary_text()
        assert "[FAIL] zero_expectation" in text

    def test_rejects_tiny_horizon(self):
        with pytest.raises(ValueError):
            check_convergence_hypotheses(IID_TRIPLE, 1)

    @pytest.mark.parametrize(
        "spec, N, cap_ns, digest",
        [
            (IID_TRIPLE, 40, (), "2b9f7ecd1426ba1a6ea5c619131b44e96190daa178b3c629d83478f1450aba05"),
            (
                inverse_square_family(1.0).to_spec(),
                14,
                (14,),
                "3c62a959dd33e483a6c72ad4997c20ba95e22a1b994d1165b752c7221e56c01c",
            ),
        ],
        ids=["iid_triple_40", "inverse_square_14"],
    )
    def test_one_pass_report_matches_two_walks(self, spec, N, cap_ns, digest):
        # Rows from each factor's metrics by index and from two walks over the
        # prefixes, one for d2 and one for the shift distance.
        report = check_convergence_hypotheses(spec, N)
        mus = convolve_prefixes(spec, N)
        d2s = []
        for mu in mus:
            try:
                d2s.append(weighted_d2_integral(mu, target=1e-6, max_depth=18))
            except QuadratureError as exc:
                d2s.append(exc.last_two[1])
        shifts = [tv_shift_distance(mu) for mu in mus]
        nus = [dense_at(spec, n) for n in range(1, N + 1)]
        m2s = [moment(nu, 2.0) for nu in nus]
        phis = np.cumsum(m2s)
        rows = [
            (
                n,
                expectation(nus[n - 1]),
                moment(nus[n - 1], 1.0),
                m2s[n - 1],
                float(phis[n - 1] / n),
                decay_constant(nus[n - 1], DEFAULT_GRID_SIZE),
                coset_mass_sup(nus[n - 1]).rho,
                d2s[n - 1],
                shifts[n - 1],
            )
            for n in range(1, N + 1)
        ]
        assert report.rows == rows
        assert report.d2_depth_cap_n == cap_ns
        # Rows, conditions and cap hits as the two-walk report gave them.
        frozen = repr((report.rows, report.conditions, report.d2_depth_cap_n))
        assert hashlib.sha256(frozen.encode()).hexdigest() == digest


class TestSweepoutReport:
    def test_inverse_square_family(self):
        spec = inverse_square_family(1.0).to_spec()
        report = check_sweepout_hypotheses(spec, 100)
        cond = condition(report, "defect_summability")
        assert cond.ok  # last-half tail below 1e-2
        assert condition(report, "atom_sites_nonzero").ok
        assert condition(report, "atom_sites_nonzero").witness == 1.0
        drift = condition(report, "site_sum_drift")
        assert drift.ok
        assert drift.witness == 100.0
        prod = condition(report, "product_lower_bound")
        assert prod.ok
        # oracle value of prod_{l<=100} (2 a_l - 1) with a_l = (1+2l^2)/(3+2l^2)
        assert prod.witness == pytest.approx(0.060001652604285804, rel=1e-12)
        assert report.overall_ok

    def test_half_atom_weight_degenerates(self):
        nu = from_pairs({1: 0.5, -1: 0.25, 0: 0.25})
        spec = SequenceSpec("half_atom", lambda n: nu, atom_site=1)
        report = check_sweepout_hypotheses(spec, 40)
        prod = condition(report, "product_lower_bound")
        assert not prod.ok
        assert prod.witness == 0.0
        assert not condition(report, "defect_summability").ok

    def test_atom_at_zero_fails_drift(self):
        # One site names the atom of every factor, so x_n is constant: the
        # partial sums of x_n drift unless the site is 0.
        spec = SequenceSpec("at_zero", lambda n: CENTERED_TRIPLE, atom_site=0)
        report = check_sweepout_hypotheses(spec, 40)
        assert not condition(report, "site_sum_drift").ok
        assert not condition(report, "atom_sites_nonzero").ok
        assert [row[1] for row in report.rows] == [0.5] * 40
        left = check_sweepout_hypotheses(SequenceSpec("at_minus_one", lambda n: CENTERED_TRIPLE, atom_site=-1), 40)
        assert condition(left, "site_sum_drift").ok and condition(left, "site_sum_drift").witness == -40.0

    def test_requires_decomposition(self):
        with pytest.raises(ValueError, match="names no atom site"):
            check_sweepout_hypotheses(IID_TRIPLE, 10)

    def test_product_bound_holds_on_grid(self):
        # |mu_n_hat(t)| >= prod (2 a_l - 1) pointwise when all a_l > 1/2
        from convergence_lab import prefix_fourier_profiles

        spec = inverse_square_family(1.0).to_spec()
        N = 30
        report = check_sweepout_hypotheses(spec, N)
        bound = condition(report, "product_lower_bound").witness
        for prof in prefix_fourier_profiles(spec, N, 256):
            assert np.all(np.abs(prof.values) >= bound - 1e-10)


class TestSecondMomentFloor:
    def test_formula_instantiation(self):
        assert second_moment_floor(0.5, 1.0, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_monotone_in_atom_weight(self):
        values = [second_moment_floor(a, 1.0, 0.5) for a in (0.5, 0.9, 0.99, 0.999)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_family_moments_dominate_floor(self):
        # measured m2 = (2b^2+4b+2)/(3+2b) exceeds a c^2/(1-a) with the
        # family's own atom weight as both the weight and its floor d
        for b in range(1, 101):
            nu = example_measure(b)
            a = (1 + 2 * b) / (3 + 2 * b)
            floor = second_moment_floor(a, 1.0, a)
            assert moment(nu, 2.0) >= floor - 1e-12

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            second_moment_floor(1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            second_moment_floor(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            second_moment_floor(0.5, 1.0, 0.0)


class TestMajorantChain:
    def test_holds_for_centered_triple(self):
        ratio = second_derivative_majorant_ratio(IID_TRIPLE, 30, 1024)
        assert ratio <= 1.0 + 1e-6

    def test_requires_positive_decay(self):
        periodic = SequenceSpec.iid(from_pairs({-1: 0.5, 1: 0.5}))
        with pytest.raises(ValueError):
            second_derivative_majorant_ratio(periodic, 5, 256)
