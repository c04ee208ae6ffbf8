"""Convolution products of lattice probability measures, their Fourier-side
certificates, and the weighted ergodic averaging experiments they drive."""

from .measures import (
    DEFAULT_SUPPORT_CAP,
    CosetMass,
    Factor,
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
    iter_prefixes,
    moment,
    prune,
    tv_shift_distance,
    variance,
)
from .spectral import (
    DEFAULT_GRID_SIZE,
    FourierProfile,
    QuadratureError,
    decay_constant,
    fourier_at,
    fourier_eval,
    prefix_fourier_profiles,
    uniform_grid,
    weighted_d2_integral,
)
from .hypotheses import (
    Condition,
    HypothesisReport,
    check_convergence_hypotheses,
    check_sweepout_hypotheses,
)
from .dynamics import (
    DEFAULT_ALPHA,
    DEFAULT_SAMPLES,
    ConvergenceTrace,
    DynSystem,
    TestFunction,
    Weak11Row,
    convergence_trace,
    maximal_function_all,
    weak11_table,
    weighted_average,
    weighted_average_all,
)
from .sweepout import (
    FloorScanResult,
    SweepoutFamily,
    SweepoutSimulation,
    dissipativity_trace,
    example_measure,
    fourier_floor_scan,
    geometric_family,
    inverse_square_family,
    scan_points,
    sweepout_simulation,
)

__version__ = "0.1.0"
