"""Machine-checkable reports on the convergence and sweep-out hypotheses.

Asymptotic statements (O(n) growth, summability, divergence of partial sums)
cannot be decided from finitely many terms.  Every verdict here is a
finite-horizon statement: the report records the empirical bound together
with a trend diagnostic comparing second-half to first-half behavior, and
never claims more than that.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .measures import (
    SequenceSpec,
    _atom_products,
    convolve_prefixes,
    coset_mass_sup,
    expectation,
    is_strictly_aperiodic,
    moment,
    tv_shift_distance,
)
from .spectral import (
    DEFAULT_GRID_SIZE,
    QuadratureError,
    decay_constant,
    weighted_d2_integral,
)

#: Absolute tolerance for "the expectation vanishes".
ZERO_EXPECTATION_TOL = 1e-10

#: A second-half/first-half increment ratio above this fails the trend test.
TREND_RATIO_LIMIT = 1.5

#: Cauchy-tail threshold used for "the defect series looks summable".
SUMMABILITY_TAIL_TOL = 1e-2


class Condition(NamedTuple):
    name: str
    ok: bool
    witness: float
    detail: str = ""


@dataclass(frozen=True)
class HypothesisReport:
    """Structured verdicts plus the per-index table behind them.

    ``rows`` is a list of per-n tuples whose layout is given by
    ``row_header``; ``conditions`` maps hypothesis names to verdicts with
    witness numbers.  Verdict booleans are monotone in the horizon: they
    aggregate via max/min/all, so a failure at a small horizon persists.
    ``d2_depth_cap_n`` holds the prefix indices n whose second-derivative
    quadrature hit its depth cap.
    """

    kind: str
    spec_name: str
    horizon: int
    conditions: tuple[Condition, ...]
    row_header: tuple[str, ...]
    rows: list[tuple]
    d2_depth_cap_n: tuple[int, ...] = ()

    @property
    def overall_ok(self) -> bool:
        return all(c.ok for c in self.conditions)

    def summary_text(self) -> str:
        lines = [
            f"report: {self.kind} hypotheses for {self.spec_name!r} at horizon N={self.horizon}",
        ]
        for c in self.conditions:
            mark = "pass" if c.ok else "FAIL"
            detail = f" ({c.detail})" if c.detail else ""
            lines.append(f"  [{mark}] {c.name}: witness={c.witness!r}{detail}")
        lines.append(f"  overall: {'pass' if self.overall_ok else 'FAIL'}")
        return "\n".join(lines)


def _trend_ratio(values: Sequence[float]) -> float:
    """Second-half average against first-half average, guarded at zero."""
    xs = np.asarray(values, dtype=float)
    m = len(xs) // 2
    first = float(np.mean(xs[:m])) if m else 0.0
    second = float(np.mean(xs[m:]))
    if first <= 0.0:
        return math.inf if second > 0.0 else 1.0
    return second / first


def check_convergence_hypotheses(
    spec: SequenceSpec,
    N: int,
    grid_size: int = DEFAULT_GRID_SIZE,
    prune_eps: float = 0.0,
) -> HypothesisReport:
    """Evaluate the positive-direction hypotheses for n <= N.

    Per factor: zero expectation, moment growth phi(n)/n, per-measure decay
    constant, strict aperiodicity, proper-coset mass, first moment.  Per
    running product: the weighted second-derivative integral and the shift
    distance.  Rows carry (n, E, m1, m2, phi_over_n, decay_C, rho,
    d2_integral, shift_tv).

    When the second-derivative integrand oscillates at the scale of a fast
    growing support, its quadrature (at the defaults of
    :func:`weighted_d2_integral`) can hit the depth cap; the row then
    records the last estimate and its prefix index n joins
    ``d2_depth_cap_n``, instead of aborting the report.
    """
    if N < 2:
        raise ValueError("N must be >= 2")

    def factor_metrics(nu):
        return (
            expectation(nu),
            moment(nu, 1.0),
            moment(nu, 2.0),
            decay_constant(nu, grid_size),
            coset_mass_sup(nu).rho,
            is_strictly_aperiodic(nu),
        )

    factors, prev = [], None
    for nu in spec.factors(N):
        if nu is not prev:
            prev, metrics = nu, factor_metrics(nu.dense())
        factors.append(metrics)
    _, _, m2s, _, _, aperiodic = zip(*factors)
    phis = np.cumsum(m2s)
    rows, d2_cap_ns = [], []
    prefixes = convolve_prefixes(spec, N, prune_eps=prune_eps)
    for n, (mu, (e, m1, m2, decay, rho, _), phi) in enumerate(zip(prefixes, factors, phis), start=1):
        try:
            d2 = weighted_d2_integral(mu)
        except QuadratureError as exc:
            d2_cap_ns.append(n)
            d2 = exc.last_two[1]
        rows.append((n, e, m1, m2, float(phi / n), decay, rho, d2, tv_shift_distance(mu)))
    _, expectations, m1s, _, phi_over_n, decays, rhos, d2s, shifts = zip(*rows)

    max_abs_e = float(np.max(np.abs(expectations)))
    phi_trend = _trend_ratio(np.diff(np.concatenate(([0.0], phis))))
    min_decay = float(np.min(decays))
    rho_max = float(np.max(rhos))
    m1_trend = _trend_ratio(m1s)
    d2_trend = _trend_ratio(d2s)

    mid = max(1, N // 2)
    conditions = (
        Condition(
            "zero_expectation",
            max_abs_e <= ZERO_EXPECTATION_TOL,
            max_abs_e,
            "max |E(nu_n)|",
        ),
        Condition(
            "moment_growth",
            phi_trend <= TREND_RATIO_LIMIT,
            float(np.max(phi_over_n)),
            f"max phi(n)/n; increment trend ratio {phi_trend:.4g}",
        ),
        Condition(
            "gaussian_decay",
            min_decay > 0.0,
            min_decay,
            "min over n of the certified decay constant",
        ),
        Condition(
            "strict_aperiodicity",
            all(aperiodic),
            float(sum(1 for a in aperiodic if not a)),
            "count of non-aperiodic factors",
        ),
        Condition(
            "coset_rho",
            rho_max < 1.0,
            rho_max,
            "max over n of the proper-coset mass",
        ),
        Condition(
            "first_moment_bound",
            m1_trend <= TREND_RATIO_LIMIT,
            float(np.max(m1s)),
            f"max m1(nu_n); trend ratio {m1_trend:.4g}",
        ),
        Condition(
            "d2_integral_sup",
            d2_trend <= TREND_RATIO_LIMIT,
            float(np.max(d2s)),
            f"max over n of int |mu_n''||t| dt; trend ratio {d2_trend:.4g}",
        ),
        Condition(
            "shift_distance",
            shifts[-1] <= shifts[mid - 1] + 1e-12,
            shifts[-1],
            f"value at N against value at N/2 = {shifts[mid - 1]!r}",
        ),
    )
    return HypothesisReport(
        kind="convergence",
        spec_name=spec.name,
        horizon=N,
        conditions=conditions,
        row_header=("n", "E", "m1", "m2", "phi_over_n", "decay_C", "rho", "d2_integral", "shift_tv"),
        rows=rows,
        d2_depth_cap_n=tuple(d2_cap_ns),
    )


def check_sweepout_hypotheses(spec: SequenceSpec, N: int) -> HypothesisReport:
    """Evaluate the sweep-out hypotheses of the atom-plus-remainder family.

    Requires the sequence to name its atom site x_n = ``spec.atom_site``;
    a_n is each factor's weight there.  Reports the partial sums of the
    defect series 1 - a_n with a Cauchy-tail estimate over the last half,
    the minimum |x_n|, the drift of the partial sums of x_n, and the
    product lower bound prod (2 a_l - 1).
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    if spec.atom_site is None:
        raise ValueError(f"sequence {spec.name!r} names no atom site")
    a, factors, product_partials = _atom_products(spec, N)
    # Every x_n is the one site x, so its partial sums are n x.
    x = int(spec.atom_site)

    defect_partial = np.cumsum(1.0 - a)
    tail = float(defect_partial[-1] - defect_partial[N // 2 - 1])
    min_abs_x = float(abs(x))
    mid = N // 2
    s_N = float(N * x)
    half_drift = float((N - mid) * x)
    drift_ok = abs(half_drift) >= (N - mid) / 2.0 and half_drift * s_N > 0.0
    product = float(product_partials[-1])

    rows = [
        (
            n,
            float(a[n - 1]),
            x,
            float(defect_partial[n - 1]),
            float(n * x),
            float(product_partials[n - 1]),
        )
        for n in range(1, N + 1)
    ]
    conditions = (
        Condition(
            "defect_summability",
            tail < SUMMABILITY_TAIL_TOL,
            float(defect_partial[-1]),
            f"partial sum of (1 - a_n); last-half tail {tail:.4g}",
        ),
        Condition(
            "atom_sites_nonzero",
            min_abs_x >= 1.0,
            min_abs_x,
            "min |x_n|",
        ),
        Condition(
            "site_sum_drift",
            bool(drift_ok),
            s_N,
            f"sum of x_n at N; second-half drift {half_drift:+.4g}",
        ),
        Condition(
            "product_lower_bound",
            product > 0.0 and bool(np.all(factors > 0.0)),
            product,
            "prod (2 a_l - 1); vacuous when <= 0",
        ),
    )
    return HypothesisReport(
        kind="sweepout",
        spec_name=spec.name,
        horizon=N,
        conditions=conditions,
        row_header=("n", "a_n", "x_n", "defect_partial_sum", "site_partial_sum", "product_partial"),
        rows=rows,
    )
