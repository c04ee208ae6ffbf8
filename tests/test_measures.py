import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convergence_lab import (
    DEFAULT_SUPPORT_CAP,
    LatticeMeasure,
    SequenceSpec,
    SupportCapError,
    convolve,
    convolve_prefixes,
    coset_mass_sup,
    delta,
    expectation,
    from_pairs,
    is_strictly_aperiodic,
    moment,
    prune,
    tv_shift_distance,
)
from convergence_lab.cli import main
from convergence_lab.measures import CosetMass
from conftest import decomposition_error, l1_distance, random_measure


def brute_force_convolve(a: LatticeMeasure, b: LatticeMeasure) -> LatticeMeasure:
    """Independent double-loop oracle for the convolution."""
    acc: dict[int, float] = {}
    for i, wa in enumerate(a.weights):
        for j, wb in enumerate(b.weights):
            k = (a.min_index + i) + (b.min_index + j)
            acc[k] = acc.get(k, 0.0) + float(wa) * float(wb)
    return from_pairs(acc)


class TestLatticeMeasure:
    def test_trims_zero_margins(self):
        mu = LatticeMeasure(3, np.array([0.0, 0.0, 1.0, 0.0]))
        assert mu.min_index == 5
        assert len(mu.weights) == 1

    def test_trims_zero_runs_longer_than_one_scan_chunk(self):
        w = np.zeros(1000 + 3 + 700)
        w[1000:1003] = [0.25, 0.0, 0.75]
        mu = LatticeMeasure(-7, w)
        assert mu.min_index == -7 + 1000
        assert list(mu.weights) == [0.25, 0.0, 0.75]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_weights(self, bad):
        with pytest.raises(ValueError, match="weights must be finite"):
            LatticeMeasure(0, np.array([0.5, bad, 0.5]))

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([np.inf], "weights must be finite"),
            ([np.nan], "weights must be finite"),
            ([-1.0, np.inf], "weights must be finite"),
            ([-1.0], "weights must be nonnegative"),
            ([0.0, np.inf, 0.0], "weights must be finite"),
            # Finite weights whose sum overflows fail the total, not finiteness.
            ([1e308, 1e308], "must sum to 1, got inf"),
        ],
    )
    def test_rejection_messages(self, weights, message):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=message):
            LatticeMeasure(0, np.array(weights))

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            LatticeMeasure(0, np.array([0.5, -0.1, 0.6]))

    def test_rejects_wrong_total(self):
        with pytest.raises(ValueError):
            LatticeMeasure(0, np.array([0.5, 0.2]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="carries no mass"):
            LatticeMeasure(0, np.array([0.0, 0.0]))

    def test_weights_are_immutable(self):
        mu = delta(0)
        with pytest.raises(ValueError):
            mu.weights[0] = 2.0

    def test_writeable_source_is_copied(self):
        src = np.array([0.0, 0.25, 0.5, 0.25])
        mu = LatticeMeasure(0, src)
        src[1:] = [1.0, 0.0, 0.0]
        assert list(mu.weights) == [0.25, 0.5, 0.25]
        # A read-only view still lets the caller write through the source.
        view = src[:]
        view.setflags(write=False)
        src[:] = [0.0, 0.5, 0.0, 0.5]
        nu = LatticeMeasure(0, view)
        src[:] = [0.0, 1.0, 0.0, 0.0]
        assert list(nu.weights) == [0.5, 0.0, 0.5]

    def test_frozen_source_is_adopted(self):
        src = np.array([0.0, 0.25, 0.5, 0.25, 0.0])
        src.setflags(write=False)
        mu = LatticeMeasure(0, src)
        assert mu.min_index == 1
        assert np.shares_memory(mu.weights, src)
        again = LatticeMeasure(mu.min_index, mu.weights)
        assert np.shares_memory(again.weights, src)

    def test_weight_lookup(self):
        mu = from_pairs({-1: 0.25, 0: 0.5, 1: 0.25})
        assert mu.weight(0) == 0.5
        assert mu.weight(7) == 0.0
        assert list(mu.weights_at(np.array([-2, -1, 5]))) == [0.0, 0.25, 0.0]

    def test_text_round_trip(self, rng):
        mu = random_measure(rng)
        again = LatticeMeasure.from_text(mu.to_text())
        assert again.min_index == mu.min_index
        assert l1_distance(mu, again) == 0.0

    def test_prune_holds_one_window(self):
        # prune hands its new window over read-only, so the measure adopts it.
        mu = from_pairs({0: 0.5, 10**5: 0.5 - 1e-10, 7: 1e-10})
        tracemalloc.start()
        try:
            pruned = prune(mu, 1e-9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pruned.mass_defect == 1e-10 and pruned.weight(7) == 0.0
        assert peak < 1.5 * mu.weights.nbytes

    def test_text_round_trip_preserves_pruned_mass(self):
        mu = prune(from_pairs({0: 0.9999999999, 5: 1e-10}), 1e-9)
        again = LatticeMeasure.from_text(mu.to_text())
        assert abs(float(np.sum(again.weights)) + again.mass_defect - 1.0) <= 1e-12

    def test_csv_export(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("[family]\nkind = iid\nweights = 0.5,0,0.5\noffset = 2\n\n[run]\nhorizon = 1\n")
        assert main(["convolve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        text = (tmp_path / "prefixes.csv").read_text()
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert lines[0] == "n,k,weight"
        assert lines[1].startswith("1,2,")
        assert len(lines) == 4  # header + window of length 3


class TestDelta:
    def test_delta_zero(self):
        mu = delta(0)
        assert mu.weight(0) == 1.0
        assert mu.mass_defect == 0.0

    def test_group_inverse(self):
        assert l1_distance(convolve(delta(1), delta(-1)), delta(0)) == 0.0

    def test_point_mass_expectation(self):
        assert expectation(delta(5)) == 5.0


class TestConvolve:
    def test_two_coin_flips(self):
        fair = from_pairs({0: 0.5, 1: 0.5})
        out = convolve(fair, fair)
        assert out.min_index == 0
        np.testing.assert_allclose(out.weights, [0.25, 0.5, 0.25], atol=1e-15)

    def test_identity_element(self, rng):
        for _ in range(20):
            mu = random_measure(rng)
            assert l1_distance(convolve(delta(0), mu), mu) <= 1e-15

    def test_commutativity(self, rng):
        for _ in range(50):
            a, b = random_measure(rng), random_measure(rng)
            assert l1_distance(convolve(a, b), convolve(b, a)) <= 1e-12

    def test_associativity(self, rng):
        for _ in range(50):
            a, b, c = (random_measure(rng, max_span=12) for _ in range(3))
            left = convolve(convolve(a, b), c)
            right = convolve(a, convolve(b, c))
            assert l1_distance(left, right) <= 1e-12

    def test_matches_brute_force(self, rng):
        for _ in range(100):
            a, b = random_measure(rng), random_measure(rng)
            assert l1_distance(convolve(a, b), brute_force_convolve(a, b)) <= 1e-12

    def test_support_is_minkowski_sum(self, rng):
        a, b = random_measure(rng), random_measure(rng)
        out = convolve(a, b)
        assert out.min_index == a.min_index + b.min_index
        assert out.max_index == a.max_index + b.max_index

    def test_support_cap(self):
        # Mass only at both ends of 500,001 points: the product's window has
        # 1,000,001 points, one past the cap, and is refused before allocation.
        ends = from_pairs({0: 0.5, 500_000: 0.5})
        assert 2 * len(ends.weights) - 1 == DEFAULT_SUPPORT_CAP + 1
        tracemalloc.start()
        try:
            with pytest.raises(SupportCapError, match=f"convolution support {DEFAULT_SUPPORT_CAP + 1} exceeds cap"):
                convolve(ends, ends)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        # One point fewer fits.
        assert len(convolve(ends, from_pairs({0: 0.5, 499_999: 0.5})).weights) == DEFAULT_SUPPORT_CAP

    def test_defect_combines(self):
        a = prune(from_pairs({0: 0.999999999, 9: 1e-9}), 5e-9)
        b = from_pairs({0: 1.0})
        out = convolve(a, b)
        assert out.mass_defect == pytest.approx(a.mass_defect, abs=1e-15)


class TestMoments:
    def test_counterexample_member_moments(self):
        # three atoms 3/5 @ 1, 1/5 @ -1, 1/5 @ -2
        nu = from_pairs({1: 3 / 5, -1: 1 / 5, -2: 1 / 5})
        assert expectation(nu) == pytest.approx(0.0, abs=1e-15)
        assert moment(nu, 2.0) == pytest.approx(8 / 5, abs=1e-15)

    def test_point_mass(self):
        assert expectation(delta(-3)) == -3.0
        assert moment(delta(-3), 2.0) == 9.0

    def test_symmetric_two_atoms(self):
        assert moment(from_pairs({-1: 0.5, 1: 0.5}), 2.0) == 1.0

    def test_expectation_additive_under_convolution(self, rng):
        for _ in range(30):
            a, b = random_measure(rng), random_measure(rng)
            got = expectation(convolve(a, b))
            assert got == pytest.approx(expectation(a) + expectation(b), abs=1e-10)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            moment(delta(0), 0.0)


class TestConvolvePrefixes:
    def test_translation_composition(self):
        spec = SequenceSpec.iid(delta(1))
        mus = convolve_prefixes(spec, 3)
        assert [m.min_index for m in mus] == [1, 2, 3]
        assert all(m.nnz == 1 for m in mus)

    def test_two_fold_coin(self):
        spec = SequenceSpec.iid(from_pairs({0: 0.5, 1: 0.5}))
        mus = convolve_prefixes(spec, 2)
        np.testing.assert_allclose(mus[1].weights, [0.25, 0.5, 0.25], atol=1e-15)

    def test_mass_conserved_without_pruning(self):
        spec = SequenceSpec.iid(from_pairs({-1: 0.25, 0: 0.5, 1: 0.25}))
        mus = convolve_prefixes(spec, 120, prune_eps=0.0)
        assert mus[-1].mass_defect == 0.0
        assert abs(float(np.sum(mus[-1].weights)) - 1.0) <= 1e-12

    def test_pruning_tracks_defect(self):
        spec = SequenceSpec.iid(from_pairs({-1: 0.25, 0: 0.5, 1: 0.25}))
        mus = convolve_prefixes(spec, 60, prune_eps=1e-9)
        final = mus[-1]
        assert final.mass_defect > 0.0
        assert abs(float(np.sum(final.weights)) + final.mass_defect - 1.0) <= 1e-12

    def test_rejects_bad_prune_eps(self):
        spec = SequenceSpec.iid(delta(0))
        with pytest.raises(ValueError):
            convolve_prefixes(spec, 2, prune_eps=1e-3)


class TestTvShiftDistance:
    def test_point_mass(self):
        assert tv_shift_distance(delta(0)) == 2.0

    @pytest.mark.parametrize("m", [1, 2, 5, 17, 100])
    def test_uniform_block_telescopes(self, m):
        mu = from_pairs({k: 1.0 / m for k in range(m)})
        assert tv_shift_distance(mu) == pytest.approx(2.0 / m, abs=1e-14)

    def test_matches_convolution_with_shift(self, rng):
        for _ in range(20):
            mu = random_measure(rng)
            assert tv_shift_distance(mu) == pytest.approx(
                l1_distance(mu, convolve(mu, delta(1))), abs=1e-13
            )

    def test_decreases_along_smoothing_products(self):
        spec = SequenceSpec.iid(from_pairs({-1: 0.25, 0: 0.5, 1: 0.25}))
        mus = convolve_prefixes(spec, 200)
        tvs = [tv_shift_distance(mu) for mu in mus]
        assert all(tvs[n] <= tvs[n - 1] + 1e-12 for n in range(20, 200))
        # local-limit scaling: the oracle value at n=200 is 2*C(400,200)/4^200
        assert tvs[-1] == pytest.approx(0.07973860392758586, abs=1e-12)


def brute_force_coset_sup(nu: LatticeMeasure) -> float:
    """Exhaustive oracle over all strides up to diameter + 1."""
    ks = nu.support
    ws = [nu.weight(int(k)) for k in ks]
    best = 0.0
    diam = int(ks[-1] - ks[0]) if len(ks) > 1 else 0
    for beta in range(2, diam + 2):
        for r in range(beta):
            best = max(best, sum(w for k, w in zip(ks, ws) if k % beta == r))
    return best if len(ks) > 1 else 1.0


def all_strides_coset_sup(nu: LatticeMeasure) -> CosetMass:
    """Oracle for coset_mass_sup: the same search over every stride 2..diameter."""
    ks = nu.support
    ws = nu.weights[np.flatnonzero(nu.weights)]
    if len(ks) == 1:
        return CosetMass(1.0, 0, int(ks[0]))
    diam = int(ks[-1] - ks[0])
    atom = int(np.argmax(ws))
    best = CosetMass(float(ws[atom]), diam + 1, int(ks[atom] % (diam + 1)))
    for beta in range(2, diam + 1):
        masses = np.bincount(ks % beta, weights=ws, minlength=beta)
        r = int(np.argmax(masses))
        if masses[r] > best.rho:
            best = CosetMass(float(masses[r]), beta, r)
    return best


@st.composite
def sparse_measures(draw):
    """Up to 400 wide with offsets down to -400; few atoms, equal weights common."""
    span = draw(st.integers(min_value=1, max_value=400))
    atoms = draw(st.lists(st.integers(min_value=0, max_value=span - 1), max_size=12))
    w = np.zeros(span)
    w[0] = w[-1] = 1.0
    w[atoms] = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=len(atoms), max_size=len(atoms)))
    offset = draw(st.integers(min_value=-400, max_value=400))
    return LatticeMeasure(offset, w / w.sum())


class TestCosetMassSup:
    @given(sparse_measures())
    @settings(max_examples=200, deadline=None)
    def test_matches_search_over_every_stride(self, nu):
        got, want = coset_mass_sup(nu), all_strides_coset_sup(nu)
        assert (got.beta, got.residue) == (want.beta, want.residue)
        assert got.rho.hex() == want.rho.hex()

    def test_fair_coin(self):
        rho, beta, _ = coset_mass_sup(from_pairs({0: 0.5, 1: 0.5}))
        assert rho == pytest.approx(0.5)
        assert beta == 2

    def test_point_mass(self):
        rho, _, _ = coset_mass_sup(delta(0))
        assert rho == 1.0

    def test_centered_triple(self):
        # even and odd cosets each carry 1/2, as does the largest atom;
        # value confirmed by the exhaustive oracle below
        nu = from_pairs({-1: 0.25, 0: 0.5, 1: 0.25})
        rho, _, _ = coset_mass_sup(nu)
        assert rho == pytest.approx(brute_force_coset_sup(nu), abs=1e-15)
        assert rho == pytest.approx(0.5, abs=1e-15)

    def test_matches_oracle_on_corpus(self, rng):
        for _ in range(60):
            nu = random_measure(rng, max_span=14)
            got = coset_mass_sup(nu)
            assert got.rho == pytest.approx(brute_force_coset_sup(nu), abs=1e-12)

    def test_bounds(self, rng):
        for _ in range(30):
            nu = random_measure(rng)
            got = coset_mass_sup(nu)
            assert float(np.max(nu.weights)) - 1e-15 <= got.rho <= 1.0 + 1e-15

    def test_witness_is_consistent(self, rng):
        for _ in range(30):
            nu = random_measure(rng)
            rho, beta, r = coset_mass_sup(nu)
            if beta >= 2:
                mass = sum(
                    nu.weight(int(k)) for k in nu.support if int(k) % beta == r
                )
                assert mass == pytest.approx(rho, abs=1e-12)


class TestStrictAperiodicity:
    def test_fair_coin_is_aperiodic(self):
        assert is_strictly_aperiodic(from_pairs({0: 0.5, 1: 0.5}))

    def test_even_support_is_periodic(self):
        assert not is_strictly_aperiodic(from_pairs({-1: 0.5, 1: 0.5}))

    def test_point_mass_is_periodic(self):
        assert not is_strictly_aperiodic(delta(7))

    @given(st.integers(min_value=2, max_value=9), st.integers(min_value=-5, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_dilated_supports_are_periodic(self, d, r):
        nu = from_pairs({r: 0.3, r + d: 0.3, r + 3 * d: 0.4})
        assert not is_strictly_aperiodic(nu)


class TestSequenceSpec:
    def test_iid_measures(self):
        spec = SequenceSpec.iid(delta(1))
        assert spec.measure_at(1) is spec.measure_at(5)

    def test_from_measures_indexing(self):
        spec = SequenceSpec.from_measures([delta(0), delta(1)])
        assert spec.measure_at(2).min_index == 1

    @pytest.mark.parametrize("n", [0, -1, 3])
    def test_from_measures_rejects_index_outside_list(self, n):
        spec = SequenceSpec.from_measures([delta(0), delta(1)])
        with pytest.raises(IndexError, match="factors 1..2"):
            spec.measure_at(n)

    def test_missing_decomposition_raises(self):
        from convergence_lab import check_sweepout_hypotheses

        spec = SequenceSpec.iid(delta(0))
        assert spec.atom_site is None
        with pytest.raises(ValueError, match="names no atom site"):
            check_sweepout_hypotheses(spec, 2)

    def test_decomposition_reconstructs(self):
        from convergence_lab import example_measure

        spec = SequenceSpec(name="family", measure_at=lambda n: example_measure(n), atom_site=1)
        for n in range(1, 12):
            assert decomposition_error(spec, n) <= 1e-12


class TestMomentAdditivity:
    def test_zero_expectation_second_moments_add(self, rng):
        from conftest import random_symmetric_measure

        for _ in range(60):
            a = random_symmetric_measure(rng)
            b = random_symmetric_measure(rng)
            got = moment(convolve(a, b), 2.0)
            assert got == pytest.approx(moment(a, 2.0) + moment(b, 2.0), abs=1e-10)
