import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import convergence_lab
from convergence_lab import (
    DynSystem,
    SequenceSpec,
    TestFunction,
    convergence_trace,
    convolve,
    convolve_prefixes,
    delta,
    from_pairs,
    inverse_square_family,
    maximal_function_all,
    tv_shift_distance,
    weak11_table,
    weighted_average,
    weighted_average_all,
)
from conftest import advance, coboundary_bound_check, maximal_function, random_measure

CENTERED_TRIPLE = from_pairs({-1: 0.25, 0: 0.5, 1: 0.25})
IID_TRIPLE = SequenceSpec.iid(CENTERED_TRIPLE, name="iid_triple")


class TestDynSystem:
    def test_cyclic_advance_is_bijective(self):
        sysq = DynSystem.cyclic(8)
        xs = sysq.states()
        assert sorted(advance(sysq, xs, 3)) == list(range(8))
        assert sorted(advance(sysq, xs, -3)) == list(range(8))

    def test_rotation_states_are_stratified(self):
        sysr = DynSystem.rotation(samples=64, seed=3)
        xs = sysr.states()
        assert len(xs) == 64
        assert np.all((xs >= 0) & (xs < 1))
        # one point per stratum
        assert sorted(set((xs * 64).astype(int))) == list(range(64))

    def test_rotation_states_deterministic_in_seed(self):
        a = DynSystem.rotation(samples=32, seed=5).states()
        b = DynSystem.rotation(samples=32, seed=5).states()
        c = DynSystem.rotation(samples=32, seed=6).states()
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_cyclic_measure_is_exact_counting(self):
        sysq = DynSystem.cyclic(10)
        mask = np.array([True] * 3 + [False] * 7)
        assert sysq.measure_fraction(mask) == pytest.approx(0.3)

    def test_measure_preservation_cyclic(self):
        sysq = DynSystem.cyclic(64)
        f = TestFunction.table(np.random.default_rng(0).random(64))
        xs = sysq.states()
        assert np.sum(f.evaluate(sysq, advance(sysq, xs, 1))) == pytest.approx(
            np.sum(f.evaluate(sysq, xs)), abs=1e-12
        )

    def test_measure_preservation_rotation_within_stratified_error(self):
        sysr = DynSystem.rotation(samples=512, seed=0)
        f = TestFunction.indicator_interval(0.2, 0.5)
        xs = sysr.states()
        direct = float(np.mean(f.evaluate(sysr, xs)))
        shifted = float(np.mean(f.evaluate(sysr, advance(sysr, xs, 1))))
        # each stratified mean is within TV(f)/samples of the integral
        assert abs(direct - shifted) <= 4.0 / 512


class TestTestFunction:
    def test_block_indicator(self):
        sysq = DynSystem.cyclic(8)
        f = TestFunction.indicator_block(6, 3)
        vals = f.evaluate(sysq, np.arange(8))
        assert list(vals) == [1, 0, 0, 0, 0, 0, 1, 1]
        assert f.norm_l1(sysq) == pytest.approx(3 / 8)

    def test_interval_indicator(self):
        sysr = DynSystem.rotation(samples=1000, seed=0)
        f = TestFunction.indicator_interval(0.25, 0.75)
        assert f.norm_l1(sysr) == pytest.approx(0.5, abs=2e-3)

    def test_trig_norms(self):
        sysq = DynSystem.cyclic(256)
        f = TestFunction.trig(1)
        assert f.sup_norm(sysq) == pytest.approx(1.0, abs=1e-12)

    def test_rotation_sup_norm_runs_over_the_whole_circle(self):
        # The one sampled state lies outside [0, 1/2) and off the peaks of the cosine.
        sysr = DynSystem.rotation(alpha=0.5, samples=1, seed=0)
        assert TestFunction.indicator_interval(0.0, 0.5, scale=-2.0).sup_norm(sysr) == 2.0
        assert TestFunction.indicator_interval(0.3, 0.3, scale=2.0).sup_norm(sysr) == 0.0
        assert TestFunction.trig(3, scale=-1.5).sup_norm(sysr) == 1.5

    def test_kind_system_mismatch(self):
        with pytest.raises(ValueError):
            TestFunction.indicator_block(0, 1).evaluate(DynSystem.rotation(), np.array([0.5]))


class TestWeightedAverage:
    def test_identity_operator(self, rng):
        sysq = DynSystem.cyclic(32)
        f = TestFunction.table(rng.random(32))
        for x in (0, 7, 31):
            assert weighted_average(sysq, delta(0), f, x) == pytest.approx(
                float(f.values[x]), abs=1e-14
            )

    def test_two_point_average(self):
        sysq = DynSystem.cyclic(4)
        f = TestFunction.indicator_block(0, 1)
        got = weighted_average(sysq, from_pairs({0: 0.5, 1: 0.5}), f, 0)
        assert got == pytest.approx(0.5)

    def test_full_orbit_average_is_mean(self, rng):
        q = 16
        sysq = DynSystem.cyclic(q)
        f = TestFunction.table(rng.random(q))
        uniform = from_pairs({k: 1.0 / q for k in range(q)})
        for x in range(0, q, 5):
            assert weighted_average(sysq, uniform, f, x) == pytest.approx(
                float(np.mean(f.values)), abs=1e-12
            )

    def test_positivity_and_l1_contraction(self, rng):
        sysq = DynSystem.cyclic(64)
        f = TestFunction.table(rng.random(64))
        mu = random_measure(rng)
        vals = weighted_average_all(sysq, mu, f)
        assert np.all(vals >= -1e-15)
        assert np.mean(np.abs(vals)) <= f.norm_l1(sysq) + 1e-12

    def test_negative_support_is_honored(self, rng):
        sysq = DynSystem.cyclic(16)
        f = TestFunction.table(rng.random(16))
        mu = from_pairs({-3: 0.5, 2: 0.5})
        got = weighted_average(sysq, mu, f, 5)
        assert got == pytest.approx(0.5 * f.values[2] + 0.5 * f.values[7], abs=1e-14)

    def test_operator_composition_matches_convolution(self, rng):
        sysq = DynSystem.cyclic(64)
        g = TestFunction.table(rng.random(64))
        a, b = random_measure(rng), random_measure(rng)
        inner = TestFunction.table(weighted_average_all(sysq, b, g))
        composed = weighted_average_all(sysq, a, inner)
        direct = weighted_average_all(sysq, convolve(a, b), g)
        assert np.max(np.abs(composed - direct)) <= 1e-10

    def test_rotation_average_matches_direct_sum(self, rng):
        sysr = DynSystem.rotation(samples=128, seed=2)
        f = TestFunction.indicator_interval(0.0, 0.3)
        mu = random_measure(rng, max_span=6)
        x = 0.37
        expected = sum(
            mu.weight(int(k)) * (((x + int(k) * sysr.alpha) % 1.0) < 0.3)
            for k in mu.support
        )
        assert weighted_average(sysr, mu, f, x) == pytest.approx(expected, abs=1e-12)


class TestMaximalFunction:
    def test_single_measure(self, rng):
        sysq = DynSystem.cyclic(16)
        f = TestFunction.table(rng.random(16) - 0.5)
        mu = random_measure(rng)
        assert maximal_function(sysq, [mu], f, 3) == pytest.approx(
            abs(weighted_average(sysq, mu, f, 3))
        )

    def test_constants_are_fixed(self):
        sysq = DynSystem.cyclic(32)
        ones = TestFunction.trig(0)
        mus = convolve_prefixes(IID_TRIPLE, 5)
        assert maximal_function(sysq, mus, ones, 11) == pytest.approx(1.0, abs=1e-12)

    def test_fair_coin_prefix_enumeration(self):
        # oracle: mu_n f(0) = 2^-n for f = chi_{0}, so the max is 1/2
        sysq = DynSystem.cyclic(8)
        spec = SequenceSpec.iid(from_pairs({0: 0.5, 1: 0.5}))
        mus = convolve_prefixes(spec, 3)
        f = TestFunction.indicator_block(0, 1)
        vals = [weighted_average(sysq, mu, f, 0) for mu in mus]
        assert vals == [pytest.approx(0.5), pytest.approx(0.25), pytest.approx(0.125)]
        assert maximal_function(sysq, mus, f, 0) == pytest.approx(0.5)

    def test_monotone_in_horizon(self, rng):
        sysq = DynSystem.cyclic(64)
        f = TestFunction.table(rng.random(64))
        prev = None
        for N in (1, 2, 4, 8, 16):
            mf = maximal_function_all(sysq, IID_TRIPLE, f, N)
            if prev is not None:
                assert np.all(mf >= prev - 1e-15)
            prev = mf

    def test_rotation_indicator_is_binned_not_summed(self, monkeypatch):
        import convergence_lab.dynamics as dynamics_mod

        def unreachable(*args, **kwargs):
            raise AssertionError("indicator averaged atom by atom")

        sysr = DynSystem.rotation(samples=256, seed=1)
        f = TestFunction.indicator_interval(0.0, 1.0 / 256, scale=256.0)
        expected = maximal_function_all(sysr, IID_TRIPLE, f, 12)
        monkeypatch.setattr(dynamics_mod, "weighted_average_all", unreachable)
        assert np.array_equal(maximal_function_all(sysr, IID_TRIPLE, f, 12), expected)


class TestWeak11Table:
    def test_constant_function_never_exceeds_two(self):
        sysq = DynSystem.cyclic(64)
        ones = TestFunction.trig(0)
        rows = weak11_table(sysq, IID_TRIPLE, ones, 8, [2.0])
        assert rows[0].level_measure == 0.0
        assert rows[0].constant == 0.0

    def test_level_above_max_is_empty(self, rng):
        sysq = DynSystem.cyclic(64)
        f = TestFunction.table(rng.random(64))
        mf = maximal_function_all(sysq, IID_TRIPLE, f, 8)
        rows = weak11_table(sysq, IID_TRIPLE, f, 8, [float(mf.max()) + 1.0])
        assert rows[0].level_measure == 0.0

    def test_rows_match_direct_level_counts(self):
        q = 256
        sysq = DynSystem.cyclic(q)
        f = TestFunction.indicator_block(0, 1, scale=float(q))
        mf = maximal_function_all(sysq, IID_TRIPLE, f, 16)
        rows = weak11_table(sysq, IID_TRIPLE, f, 16, [1.0, 4.0])
        for row in rows:
            assert row.level_measure == pytest.approx(np.mean(mf > row.lam))
            assert row.constant == pytest.approx(row.lam * row.level_measure / 1.0)

    def test_rejects_nonpositive_level(self):
        sysq = DynSystem.cyclic(16)
        f = TestFunction.indicator_block(0, 1)
        with pytest.raises(ValueError):
            weak11_table(sysq, IID_TRIPLE, f, 4, [0.0])

    @pytest.mark.parametrize(
        "f, lambdas",
        [(TestFunction.trig(0), [-1.0]), (TestFunction.trig(0, scale=0.0), [1.0])],
    )
    def test_validates_before_averaging(self, monkeypatch, f, lambdas):
        import convergence_lab.dynamics as dynamics_mod

        def unreachable(*args, **kwargs):
            raise AssertionError("maximal function computed before validation")

        monkeypatch.setattr(dynamics_mod, "maximal_function_all", unreachable)
        with pytest.raises(ValueError):
            weak11_table(DynSystem.cyclic(64), IID_TRIPLE, f, 2000, lambdas)


class TestCoboundaryBound:
    def test_point_mass_indicator(self):
        sysq = DynSystem.cyclic(4)
        lhs, rhs = coboundary_bound_check(sysq, delta(0), TestFunction.indicator_block(0, 1))
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(2.0)

    def test_rotation_bound_covers_unsampled_points(self):
        # The sampled state misses [0, 1/2) while its shift by alpha hits it.
        sysr = DynSystem.rotation(alpha=0.5, samples=1, seed=0)
        lhs, rhs = coboundary_bound_check(sysr, delta(1), TestFunction.indicator_interval(0.0, 0.5))
        assert lhs == 1.0
        assert lhs <= rhs

    def test_constant_function_gives_zero(self):
        sysq = DynSystem.cyclic(16)
        lhs, _ = coboundary_bound_check(sysq, CENTERED_TRIPLE, TestFunction.trig(0))
        assert lhs == pytest.approx(0.0, abs=1e-12)

    def test_smoothing_product_at_n100(self):
        # oracle values: rhs = tv_shift(mu_100) = 0.11269..., lhs well below
        sysq = DynSystem.cyclic(256)
        mu = convolve_prefixes(IID_TRIPLE, 100)[-1]
        lhs, rhs = coboundary_bound_check(sysq, mu, TestFunction.indicator_block(0, 1))
        assert lhs <= rhs + 1e-10
        assert rhs == pytest.approx(tv_shift_distance(mu), abs=1e-12)
        assert rhs < 0.12
        assert lhs < 0.05

    def test_bound_on_random_pairs(self, rng):
        sysq = DynSystem.cyclic(128)
        for _ in range(30):
            mu = random_measure(rng)
            g = TestFunction.table(rng.random(128) * 2 - 1)
            lhs, rhs = coboundary_bound_check(sysq, mu, g)
            assert lhs <= rhs + 1e-10


class TestConvergenceTrace:
    def test_constant_function_is_flat(self):
        sysq = DynSystem.cyclic(32)
        tr = convergence_trace(sysq, IID_TRIPLE, TestFunction.trig(0), 5, 20)
        assert tr.oscillation == pytest.approx(0.0, abs=1e-12)
        assert all(v == pytest.approx(1.0, abs=1e-12) for v in tr.values)

    def test_smoothing_family_stabilizes(self):
        # oracle run: tail oscillation 0.0082 at N=200 on the q/8 block
        sysq = DynSystem.cyclic(1024)
        f = TestFunction.indicator_block(0, 128)
        tr = convergence_trace(sysq, IID_TRIPLE, f, 0, 200)
        assert tr.window_start == 100
        assert tr.oscillation < 0.05

    def test_sweepout_family_keeps_oscillating(self):
        # block transitions keep the trace swinging; oracle value 0.798
        sysq = DynSystem.cyclic(256)
        f = TestFunction.indicator_block(0, 32)
        fam = inverse_square_family(1.0).to_spec()
        tr_fam = convergence_trace(sysq, fam, f, 0, 60)
        tr_iid = convergence_trace(sysq, IID_TRIPLE, f, 0, 60)
        assert tr_fam.oscillation > 0.5
        assert tr_fam.oscillation > 10 * tr_iid.oscillation

    def test_requires_two_steps(self):
        sysq = DynSystem.cyclic(8)
        with pytest.raises(ValueError):
            convergence_trace(sysq, IID_TRIPLE, TestFunction.trig(0), 0, 1)

    def test_window_is_configurable(self):
        sysq = DynSystem.cyclic(64)
        f = TestFunction.indicator_block(0, 8)
        tail = convergence_trace(sysq, IID_TRIPLE, f, 0, 30)
        assert tail.window_start == 15
        window = tail.values[14:]
        assert tail.oscillation == max(window) - min(window)


def test_rotation_sweepout_does_not_import_numpy_ma(tmp_path):
    # The first np.unique call in a process imports numpy.ma (about 20 ms); the
    # rotation's state-cell boundaries are found without it.
    cfg = tmp_path / "r.cfg"
    cfg.write_text(
        "[family]\nkind = sweepout\n\n[system]\nkind = rotation\nsamples = 256\n\n[run]\nhorizon = 12\n"
    )
    script = (
        "import sys\n"
        "from convergence_lab.cli import main\n"
        f"assert main(['sweepout', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'o')!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(convergence_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False"
