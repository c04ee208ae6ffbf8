"""Acceptance suite: one test per criterion, one printed verdict line each.

Expected values marked "oracle" were computed by the independent oracles in
this module (brute-force enumeration, closed forms, grid search) or by a
recorded run of the deterministic pipeline, then frozen.  Run with -s to see
the verdict lines live.
"""
import math
import time

import numpy as np
import pytest

from convergence_lab import (
    DynSystem,
    SequenceSpec,
    TestFunction,
    convolve,
    convolve_prefixes,
    decay_constant,
    dissipativity_trace,
    example_measure,
    expectation,
    fourier_eval,
    fourier_floor_scan,
    from_pairs,
    inverse_square_family,
    is_strictly_aperiodic,
    moment,
    scan_points,
    sweepout_simulation,
    tv_shift_distance,
    weak11_table,
    weighted_d2_integral,
)
from convergence_lab.cli import EXIT_OK, main as cli_main
from conftest import (
    coboundary_bound_check,
    doubling_defect,
    offzero_modulus_bound,
    random_measure,
    random_symmetric_measure,
    second_derivative_majorant_ratio,
    two_atom_bound,
)

CENTERED_TRIPLE = from_pairs({-1: 0.25, 0: 0.5, 1: 0.25})
IID_TRIPLE = SequenceSpec.iid(CENTERED_TRIPLE, name="iid_triple")

# oracle: max over n = 2..200 of the weighted second-derivative integral
# for the centered triple's running products (attained at n = 2)
D2_TRACE_BOUND = 2.9707

# oracle: weak-(1,1) empirical constants for f = q * chi_{0}, N = 64
WEAK11_FROZEN = {
    10: [0.0322265625, 0.060546875, 0.10546875, 0.1796875],
    12: [0.009033203125, 0.01708984375, 0.0322265625, 0.060546875],
}

# oracle: sweep-out simulation for rates 1 - 1/n^2 at B = 0.05 tops out at
# the first factor's atom weight 3/5, so the high-threshold fraction is 0
SIMULATION_FRAC_HIGH_FROZEN = 0.0


def report(tag: str, ok: bool, detail: str = "") -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def brute_force_convolve_dict(a, b) -> dict[int, float]:
    acc: dict[int, float] = {}
    for i, wa in enumerate(a.weights):
        if wa == 0.0:
            continue
        for j, wb in enumerate(b.weights):
            if wb == 0.0:
                continue
            k = (a.min_index + i) + (b.min_index + j)
            acc[k] = acc.get(k, 0.0) + float(wa) * float(wb)
    return acc


def test_criterion_01_convolution_oracle_equivalence(rng):
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        a = random_measure(rng, max_span=20)
        b = random_measure(rng, max_span=20)
        got = convolve(a, b)
        oracle = brute_force_convolve_dict(a, b)
        err = sum(
            abs(got.weight(k) - oracle.get(k, 0.0))
            for k in range(got.min_index, got.max_index + 1)
        )
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    report("accept-01", ok, f"worst l1 gap {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_02_moment_additivity(rng):
    worst = 0.0
    for _ in range(200):
        a = random_symmetric_measure(rng)
        b = random_symmetric_measure(rng)
        gap = abs(moment(convolve(a, b), 2.0) - moment(a, 2.0) - moment(b, 2.0))
        worst = max(worst, gap)
    report("accept-02", worst <= 1e-10, f"worst additivity gap {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_03_fourier_inversion_and_multiplicativity(rng):
    worst_inv = 0.0
    for _ in range(100):
        mu = random_measure(rng, max_span=30)
        prof = fourier_eval(mu, 512)
        for k in mu.support:
            rec = complex(np.mean(prof.values * np.exp(-2j * np.pi * int(k) * prof.grid)))
            worst_inv = max(worst_inv, abs(rec - mu.weight(int(k))))
    worst_mult = 0.0
    for _ in range(40):
        a, b = random_measure(rng), random_measure(rng)
        pa, pb = fourier_eval(a, 256), fourier_eval(b, 256)
        pab = fourier_eval(convolve(a, b), 256)
        worst_mult = max(worst_mult, float(np.max(np.abs(pab.values - pa.values * pb.values))))
    ok = worst_inv <= 1e-8 and worst_mult <= 1e-10
    report("accept-03", ok, f"inversion {worst_inv:.3e}, multiplicativity {worst_mult:.3e}")
    assert worst_inv <= 1e-8
    assert worst_mult <= 1e-10


def test_criterion_04_doubling_inequality(rng):
    worst = math.inf
    for _ in range(500):
        mu = random_measure(rng, max_span=15)
        for t in rng.uniform(-0.5, 0.5, size=20):
            worst = min(worst, doubling_defect(mu, float(t)))
    report("accept-04", worst >= -1e-12, f"min defect {worst:.3e} over 10^4 pairs")
    assert worst >= -1e-12


def test_criterion_05_counterexample_closed_forms():
    worst_e = 0.0
    worst_m2 = 0.0
    for b in range(1, 101):
        nu = example_measure(b)
        worst_e = max(worst_e, abs(expectation(nu)))
        formula = (2 * b * b + 4 * b + 2) / (3 + 2 * b)
        worst_m2 = max(worst_m2, abs(moment(nu, 2.0) - formula))
    ok = worst_e <= 1e-12 and worst_m2 <= 1e-12
    report("accept-05", ok, f"max |E| {worst_e:.3e}, max m2 gap {worst_m2:.3e}")
    assert worst_e <= 1e-12
    assert worst_m2 <= 1e-12


def test_criterion_06_decay_constant_of_centered_triple():
    got = decay_constant(CENTERED_TRIPLE, 4096)
    gap = abs(got - math.pi**2)
    report("accept-06", gap <= 0.2, f"decay constant {got:.4f} vs pi^2 (gap {gap:.4f})")
    assert gap <= 0.2


def test_criterion_07_d2_integral_bounded_and_majorant_chain():
    mus = convolve_prefixes(IID_TRIPLE, 200)
    worst = max(weighted_d2_integral(mu) for mu in mus[1:])
    C = decay_constant(CENTERED_TRIPLE, 4096)
    ratio = second_derivative_majorant_ratio(IID_TRIPLE, 200, 4096, C=C)
    ok = worst <= D2_TRACE_BOUND and ratio <= 1.0 + 1e-6
    report(
        "accept-07",
        ok,
        f"max d2 integral {worst:.6f} (bound {D2_TRACE_BOUND}), majorant ratio {ratio:.9f}",
    )
    assert worst <= D2_TRACE_BOUND
    assert ratio <= 1.0 + 1e-6


def test_criterion_08_shift_distance_decay():
    start = time.perf_counter()
    mus = convolve_prefixes(IID_TRIPLE, 200)
    tvs = [tv_shift_distance(mu) for mu in mus]
    elapsed = time.perf_counter() - start
    nonincreasing = all(tvs[n] <= tvs[n - 1] + 1e-12 for n in range(20, 200))
    final = tvs[-1]
    ok = nonincreasing and elapsed < 30.0 and final < 0.05
    report(
        "accept-08",
        ok,
        f"tv at n=200 is {final:.6f} (required < 0.05), nonincreasing={nonincreasing}, {elapsed:.2f}s",
    )
    assert nonincreasing
    assert elapsed < 30.0
    # The exact value is 2*C(400,200)/4^200 = 0.079738... > 0.05; the stated
    # threshold is not attainable at this horizon.  See the decisions ledger.
    assert final < 0.05


def test_criterion_09_coboundary_bound(rng):
    sysq = DynSystem.cyclic(256)
    worst = -math.inf
    for _ in range(100):
        mu = random_measure(rng)
        g = TestFunction.table(rng.random(256) * 2.0 - 1.0)
        lhs, rhs = coboundary_bound_check(sysq, mu, g)
        worst = max(worst, lhs - rhs)
    report("accept-09", worst <= 1e-10, f"max lhs-rhs {worst:.3e} over 100 pairs")
    assert worst <= 1e-10


def test_criterion_10_weak11_stability():
    lambdas = [1.0, 2.0, 4.0, 8.0]
    constants = {}
    for logq in (10, 12):
        q = 2**logq
        sysq = DynSystem.cyclic(q)
        f = TestFunction.indicator_block(0, 1, scale=float(q))
        rows = weak11_table(sysq, IID_TRIPLE, f, 64, lambdas)
        constants[logq] = [r.constant for r in rows]
        for got, frozen in zip(constants[logq], WEAK11_FROZEN[logq]):
            assert got == pytest.approx(frozen, rel=1e-12)
    ratios = [
        max(a, b) / min(a, b) for a, b in zip(constants[10], constants[12])
    ]
    worst_ratio = max(ratios)
    ok = worst_ratio <= 1.5
    report(
        "accept-10",
        ok,
        f"cross-q ratios {['%.3f' % r for r in ratios]} (required <= 1.5)",
    )
    # At fixed horizon N=64 the normalized level measures scale like 1/q
    # while the level counts are what stabilize; the stated factor is not
    # attainable for the pinned table semantics.  See the decisions ledger.
    assert worst_ratio <= 1.5


def test_criterion_11_sweepout_signatures():
    start = time.perf_counter()
    spec = inverse_square_family(1.0).to_spec()

    rows = dissipativity_trace(spec, 50, 60)
    final_max = rows[-1].window_max
    ok_a = final_max < 0.02
    report("accept-11a", ok_a, f"window max {final_max:.6f} at horizon 60 (required < 0.02)")

    scan = fourier_floor_scan(spec, scan_points(8), 100)
    margin = scan.contract_margin
    ok_b = margin >= -1e-10
    report(
        "accept-11b",
        ok_b,
        f"floor scan margin {margin:.3e} against product {scan.product_bound:.6f}",
    )

    sim = sweepout_simulation(
        DynSystem.rotation(samples=1024, seed=1), spec, 0.05, 60
    )
    elapsed = time.perf_counter() - start
    ok_c = sim.frac_high > 0.5
    report(
        "accept-11c",
        ok_c,
        f"running-max fraction {sim.frac_high:.4f} (required > 0.5), "
        f"running-min fraction {sim.frac_low:.4f}, combined {elapsed:.1f}s",
    )
    assert ok_a
    assert ok_b
    assert elapsed < 60.0
    assert sim.frac_high == pytest.approx(SIMULATION_FRAC_HIGH_FROZEN, abs=1e-12)
    # With rates 1 - 1/n^2 the atom-weight product caps every running max
    # near 0.6 for an interval target set, so the stated fraction is not
    # attainable.  See the decisions ledger.
    assert sim.frac_high > 0.5


def test_criterion_12_two_atom_bound_lattice():
    worst = 0.0
    for d in np.linspace(0.05, 0.5, 10):
        for e in np.linspace(0.2, 2.0, 10):
            closed = two_atom_bound(float(d), float(e))
            psi_min = 2.0 * math.asin(min(1.0, e / 2.0))
            psis = np.linspace(psi_min, 2.0 * math.pi - psi_min, 4001)
            a1 = np.linspace(d, 1.0 - d, 81)[:, None]
            brute = float(np.max(np.abs(a1 + (1.0 - a1) * np.exp(1j * psis[None, :]))))
            worst = max(worst, abs(closed - brute))
    report("accept-12", worst <= 1e-4, f"max closed-form vs grid gap {worst:.2e}")
    assert worst <= 1e-4


def test_criterion_13_aperiodicity_cross_check(rng):
    mismatches = 0
    cases = [random_measure(rng, max_span=12) for _ in range(50)]
    cases.append(from_pairs({-1: 0.5, 1: 0.5}))
    cases.append(from_pairs({-3: 0.5, 3: 0.5}))
    for nu in cases:
        combinatorial = is_strictly_aperiodic(nu)
        bound, _ = offzero_modulus_bound(nu, 4096)
        if combinatorial != (bound < 1.0):
            mismatches += 1
    report("accept-13", mismatches == 0, f"{mismatches} mismatches on {len(cases)} measures")
    assert mismatches == 0


def test_criterion_14_deterministic_outputs(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[family]\nkind = iid\nweights = 0.25,0.5,0.25\noffset = -1\n"
        "[system]\nkind = cyclic\nq = 128\n"
        "[run]\nhorizon = 12\ngrid_size = 128\nlambdas = 1,2,4\n"
    )
    fam = tmp_path / "fam.cfg"
    fam.write_text(
        "[family]\nkind = sweepout\na_rule = inverse_square\ncoeff = 1.0\n"
        "[system]\nkind = rotation\nsamples = 256\nseed = 1\n"
        "[run]\nhorizon = 12\nwindow_k = 8\nb_measure = 0.05\nscan_max_denominator = 5\n"
    )
    outputs = {}
    for run, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / run
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(out), "--threads", threads]) == EXIT_OK
        assert cli_main(["spectrum", "--config", str(cfg), "--out", str(out), "--threads", threads]) == EXIT_OK
        assert cli_main(["sweepout", "--config", str(fam), "--out", str(out), "--threads", threads]) == EXIT_OK
        outputs[run] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    same = outputs["a"] == outputs["b"] == outputs["c"]
    report("accept-14", same, f"{len(outputs['a'])} files byte-compared across runs and threads 1/4")
    assert same
