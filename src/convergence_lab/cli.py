"""Experiment runner: bind flat config files to the library and emit CSV.

Config files are INI-style ``key = value`` text with three sections
([family], [system], [run]).  Unknown keys are rejected.  Every output is
written atomically (temp file, then rename) and carries a ``#``-prefixed
header block echoing the configuration, so reruns with the same config are
byte-identical.

Exit codes: 0 success, 2 config error or an output directory that cannot
be made, 3 resource cap exceeded (a support cap, or an array too large to
allocate), 4 internal contract failure (a proven inequality observed
violated).
"""
from __future__ import annotations

import argparse
import configparser
import itertools
import math
import os
import sys as _sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from ._cells import csv_rows
from .dynamics import DEFAULT_ALPHA, DEFAULT_SAMPLES, DynSystem, TestFunction, _averages_pass, _weak11_rows
from .hypotheses import check_convergence_hypotheses, check_sweepout_hypotheses
from .measures import (
    LatticeMeasure,
    SequenceSpec,
    SupportCapError,
    convolve_prefixes,
    prefix_windows,
)
from .spectral import DEFAULT_GRID_SIZE, fourier_eval
from .sweepout import (
    HIGH_THRESHOLD,
    LOW_THRESHOLD,
    dissipativity_trace,
    fourier_floor_scan,
    geometric_family,
    inverse_square_family,
    scan_points,
    sweepout_simulation,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_CONTRACT = 4

_FLOOR_CONTRACT_TOL = 1e-10

#: Largest |k| a prefix window may reach: up to it every site is exactly a
#: float, as moments and transforms take it.
_MAX_SITE = 2**53


class ConfigError(ValueError):
    """Invalid experiment configuration; carries all diagnostics."""

    def __init__(self, diagnostics: Sequence[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = list(diagnostics)


def _parse_weights(text: str) -> np.ndarray:
    try:
        vals = np.array([float(x) for x in text.split(",") if x.strip() != ""])
    except ValueError as exc:
        raise ConfigError([f"family.weights: {exc}"])
    if vals.size == 0:
        raise ConfigError(["family.weights: empty list"])
    return vals


def _parse_levels(text: str) -> list[float]:
    diags: list[str] = []
    levels: list[float] = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            lam = float(tok)
        except ValueError:
            diags.append(f"run.lambdas: cannot parse {tok!r}")
            continue
        if lam <= 0:
            diags.append(f"run.lambdas: levels must be positive (got {tok})")
        elif not math.isfinite(lam):
            diags.append(f"run.lambdas: levels must be finite (got {tok})")
        levels.append(lam)
    if not levels:
        diags.append("run.lambdas: at least one level required")
    if diags:
        raise ConfigError(diags)
    return levels


def _one_of(*choices: str) -> tuple:
    """Parser, check and message of a key whose value is one of ``choices``."""
    return str, set(choices).__contains__, f"must be {', '.join(choices[:-1])} or {choices[-1]}"


class _Key(NamedTuple):
    """One config key: its default text and how its value is read.

    ``parse`` turns the text into a value; a ``ValueError`` means "cannot
    parse" and a :class:`ConfigError` carries its own diagnostics.  The value
    must then pass ``check``, else ``message`` is reported, and a float must
    be finite.  Without ``parse`` the text itself is the value.
    """

    section: str
    key: str
    default: str = ""
    parse: Optional[Callable[[str], object]] = None
    check: Callable[[object], bool] = lambda v: True
    message: str = ""


_SECTIONS = ("family", "system", "run")

#: Every accepted key.  [system] and [run] keys are read in this order, so
#: their diagnostics come in it; [family] keys are read by the code of the
#: family kind, which supplies their defaults, after them.
_KEYS = {
    (k.section, k.key): k
    for k in (
        _Key("family", "kind", "", *_one_of("iid", "sweepout", "list")),
        _Key("family", "weights", "", _parse_weights),
        _Key("family", "offset", "", int),
        _Key("family", "a_rule", "", *_one_of("inverse_square", "geometric")),
        _Key("family", "coeff", "", float, lambda v: v >= 1.0, "must be >= 1"),
        _Key("family", "ratio", "", float, lambda v: 0.0 < v < 1.0, "must lie in (0,1)"),
        _Key("family", "measures_file"),
        _Key("system", "q", "1024", int, lambda v: v >= 1, "must be a positive integer"),
        _Key("system", "alpha", repr(DEFAULT_ALPHA), float, lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
        _Key("system", "samples", str(DEFAULT_SAMPLES), int, lambda v: v >= 1, "must be positive"),
        _Key("system", "seed", "0", int, lambda v: v >= 0, "must be >= 0"),
        _Key("system", "kind", "cyclic", *_one_of("cyclic", "rotation")),
        _Key("run", "horizon", "64", int, lambda v: v >= 1, "must be >= 1"),
        _Key("run", "grid_size", str(DEFAULT_GRID_SIZE), int, lambda v: v >= 16 and v % 2 == 0, "must be even and >= 16"),
        _Key("run", "prune_eps", "0", float, lambda v: 0.0 <= v <= 1e-8, "must lie in [0, 1e-8]"),
        _Key("run", "b_measure", "0.05", float, lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
        _Key("run", "window_k", "50", int, lambda v: v >= 1, "must be >= 1"),
        _Key("run", "scan_max_denominator", "8", int, lambda v: v >= 1, "must be >= 1"),
        _Key("run", "scan_uniform", "0", int, lambda v: v >= 0, "must be >= 0"),
        _Key("run", "block_fraction", "0.125", float, lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),
        _Key("run", "trig_freq", "1", int, lambda v: v >= 0, "must be >= 0"),
        _Key("run", "trace_state", "0", float),
        _Key("run", "test_function", "point_mass", *_one_of("point_mass", "block", "trig")),
        _Key("run", "lambdas", "1,2,4,8", _parse_levels),
        _Key("run", "out"),
    )
}


@dataclass
class ExperimentConfig:
    """Validated experiment parameters plus the raw key/value echo.

    ``system`` and ``spec`` are built from the [system] and [family]
    sections; every other field is the value of the [run] key of its name.
    """

    system: DynSystem
    spec: SequenceSpec
    echo: list[tuple[str, str]]
    horizon: int
    grid_size: int
    prune_eps: float
    b_measure: float
    window_k: int
    scan_max_denominator: int
    scan_uniform: int
    block_fraction: float
    trig_freq: int
    trace_state: float
    test_function: str
    lambdas: list[float]
    out: str


def load_config(path: str | os.PathLike) -> ExperimentConfig:
    """Parse and fully validate a config file.

    Raises OSError for I/O problems and :class:`ConfigError` (with every
    violated constraint listed) for content problems.
    """
    parser = configparser.ConfigParser(interpolation=None)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            parser.read_file(fh, source=str(path))
        except configparser.Error as exc:
            raise ConfigError([f"parse error: {exc}"])

    diags: list[str] = []
    for section in parser.sections():
        if section not in _SECTIONS:
            diags.append(f"unknown section [{section}]")
            continue
        for key in parser[section]:
            if (section, key) not in _KEYS:
                diags.append(f"unknown key {section}.{key}")
    if "family" not in parser:
        diags.append("missing section [family]")

    def get(section: str, key: str) -> str:
        if section in parser and key in parser[section]:
            return parser[section][key]
        return _KEYS[section, key].default

    def read(section: str, key: str, fallback: str = ""):
        """The checked value of a key (``fallback`` stands in for empty text),
        or None after a diagnostic."""
        entry = _KEYS[section, key]
        raw = get(section, key) or fallback
        if entry.parse is None:
            return raw
        try:
            val = entry.parse(raw)
        except ConfigError as exc:
            diags.extend(exc.diagnostics)
            return None
        except ValueError:
            diags.append(f"{section}.{key}: cannot parse {raw!r}")
            return None
        if not entry.check(val):
            problem = entry.message
        elif isinstance(val, float) and not math.isfinite(val):
            problem = "must be finite"
        else:
            return val
        diags.append(f"{section}.{key}: {problem} (got {repr(raw) if isinstance(val, str) else raw})")
        return None

    sysv = {key: read(section, key) for section, key in _KEYS if section == "system"}
    run = {key: read(section, key) for section, key in _KEYS if section == "run"}

    horizon = run["horizon"] or 0
    family_kind = read("family", "kind")
    spec: Optional[SequenceSpec] = None
    # Once known, what reads the [family] keys and which keys it reads.
    reader: Optional[str] = None
    used: set[str] = set()
    # Largest |k| of the prefix windows up to the horizon.
    reach = 0
    if family_kind == "iid":
        reader, used = "kind = iid", {"kind", "weights", "offset"}
        weights = read("family", "weights", "0.25,0.5,0.25")
        offset = read("family", "offset", "-1")
        if weights is not None:
            total = float(np.sum(weights))
            if abs(total - 1.0) > 1e-9:
                diags.append(f"family.weights: must sum to 1 (got {total!r})")
            elif not np.all(np.isfinite(weights)):
                diags.append(f"family.weights: must be finite (got {get('family', 'weights')})")
            elif np.any(weights < 0):
                diags.append("family.weights: must be nonnegative")
            elif offset is not None:
                nu = LatticeMeasure(offset, weights)
                spec = SequenceSpec.iid(nu, name="iid")
                # The window of nu^{*n} is n times nu's.
                reach = horizon * _site_reach([nu])
    elif family_kind == "sweepout":
        a_rule = read("family", "a_rule", "inverse_square")
        if a_rule is not None:
            key, fallback, make = (
                ("coeff", "1.0", inverse_square_family)
                if a_rule == "inverse_square"
                else ("ratio", "0.5", geometric_family)
            )
            reader, used = f"kind = sweepout, a_rule = {a_rule}", {"kind", "a_rule", key}
            param = read("family", key, fallback)
            if param is not None:
                spec = make(param).to_spec()
    elif family_kind == "list":
        reader, used = "kind = list", {"kind", "measures_file"}
        mpath = get("family", "measures_file")
        if not mpath:
            diags.append("family.measures_file: required for kind = list")
        else:
            mfile = Path(mpath)
            if not mfile.is_absolute():
                mfile = Path(path).parent / mfile
            try:
                blocks = [b for b in mfile.read_text().split("\n\n") if b.strip()]
                measures = [LatticeMeasure.from_text(b) for b in blocks]
                if not measures:
                    diags.append(f"family.measures_file: no measures in {mpath}")
                elif horizon > len(measures):
                    diags.append(f"run.horizon: {horizon} exceeds the {len(measures)} measures in {mpath}")
                else:
                    spec = SequenceSpec.from_measures(measures, name=f"list:{mfile.name}")
                    reach = _site_reach(measures[:horizon])
            except OSError as exc:
                raise ConfigError([f"family.measures_file: cannot read ({exc})"])
            except ValueError as exc:
                diags.append(f"family.measures_file: {exc}")
    if reach > _MAX_SITE:
        key = "offset" if family_kind == "iid" else "measures_file"
        diags.append(f"family.{key}: prefix windows up to n = {horizon} reach |k| = {reach}, past 2**53")
    if reader is not None:
        for section, key in _KEYS:
            if section == "family" and key not in used and get(section, key) != "":
                diags.append(f"family.{key}: not read by {reader} (got {get(section, key)!r})")

    if diags:
        raise ConfigError(diags)

    system = (
        DynSystem.cyclic(sysv["q"])
        if sysv["kind"] == "cyclic"
        else DynSystem.rotation(alpha=sysv["alpha"], samples=sysv["samples"], seed=sysv["seed"])
    )
    echo = [
        (f"{section}.{key}", get(section, key))
        for section, key in sorted(_KEYS, key=lambda sk: (_SECTIONS.index(sk[0]), sk[1]))
        if get(section, key) != ""
    ]
    config = ExperimentConfig(system=system, spec=spec, echo=echo, **run)
    # On Z_q every test function is nonzero at state 0; on the rotation the
    # point mass covers the first state's stratum [0, 1/samples), and a cosine
    # has no zero among floats.  So only a block on the rotation can miss every
    # sampled state, and only it is summed here: loading any other config
    # draws no state sample.
    if config.test_function == "block" and not system.is_cyclic:
        if _make_test_function(config).norm_l1(system) == 0.0:
            raise ConfigError(["run.test_function: block has zero l1 norm over the system's states"])
    return config


def _site_reach(factors: Iterable[LatticeMeasure]) -> int:
    """Largest |k| in the windows of the running products of ``factors``."""
    return max((w.reach for w in prefix_windows(factors)), default=0)


def validate_config(path: str | os.PathLike) -> list[str]:
    """Full validation without running; returns the list of diagnostics."""
    try:
        load_config(path)
    except ConfigError as exc:
        return exc.diagnostics
    return []


# -- output helpers ------------------------------------------------------------------
def _atomic_write(path: Path, parts: Iterable[bytes]) -> None:
    """Write the concatenated ``parts`` to ``path``, in an existing directory,
    through a temp file and a rename.

    The temp file is created as ``open`` would create ``path``, with mode
    0666 less the umask, under a fresh random name beside it.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    for _ in range(tempfile.TMP_MAX):
        tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}"
        try:
            fd = os.open(tmp, flags, 0o666)
            break
        except FileExistsError:
            continue
    else:
        raise FileExistsError(f"no unused temporary name beside {path}")
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header(config: ExperimentConfig, subcommand: str, extra: Iterable[tuple[str, str]] = ()) -> str:
    lines = [f"# convergence-lab {subcommand}"]
    for key, val in config.echo:
        lines.append(f"# config {key}={val}")
    for key, val in extra:
        lines.append(f"# {key}={val}")
    return "\n".join(lines) + "\n"


def _rows_block(rows: Iterable[Sequence]) -> tuple[np.ndarray, ...]:
    """The columns of a list of rows as numpy arrays, one block for
    :func:`_write_csv`."""
    return tuple(map(np.array, zip(*rows)))


def _write_csv(
    path: Path,
    config: ExperimentConfig,
    subcommand: str,
    columns: Sequence[str],
    blocks: Iterable[Sequence[np.ndarray]],
    extra: Iterable[tuple[str, str]] = (),
) -> None:
    """Write a CSV of ``columns`` whose rows come in ``blocks`` of equal-length
    columns.  Each cell reads as ``repr`` of a float64 value and ``str`` of
    any other.  Rows are formatted and written a bounded chunk at a time:
    a long block is cut, and short blocks are joined."""
    header = _header(config, subcommand, extra) + ",".join(columns) + "\n"
    _atomic_write(path, itertools.chain([header.encode()], csv_rows(blocks)))


def _make_test_function(config: ExperimentConfig) -> TestFunction:
    sysm = config.system
    if config.test_function == "point_mass":
        if sysm.is_cyclic:
            # normalized point mass: ||f||_1 = 1 exactly
            return TestFunction.indicator_block(0, 1, scale=float(sysm.q))
        return TestFunction.indicator_interval(0.0, 1.0 / sysm.samples, scale=float(sysm.samples))
    if config.test_function == "block":
        if sysm.is_cyclic:
            length = max(1, int(round(config.block_fraction * sysm.q)))
            return TestFunction.indicator_block(0, length)
        return TestFunction.indicator_interval(0.0, config.block_fraction)
    return TestFunction.trig(config.trig_freq)


# -- subcommands -------------------------------------------------------------------------
def _cmd_convolve(config: ExperimentConfig, out: Path) -> int:
    mus = convolve_prefixes(config.spec, config.horizon, prune_eps=config.prune_eps)
    blocks = (
        (
            np.full(len(mu.weights), n),
            np.arange(mu.min_index, mu.max_index + 1),
            mu.weights,
        )
        for n, mu in enumerate(mus, start=1)
    )
    _write_csv(
        out / "prefixes.csv",
        config,
        "convolve",
        ("n", "k", "weight"),
        blocks,
        extra=[("final_mass_defect", repr(mus[-1].mass_defect))],
    )
    return EXIT_OK


def _cmd_spectrum(config: ExperimentConfig, out: Path) -> int:
    ladder = sorted({2**j for j in range(0, config.horizon.bit_length()) if 2**j <= config.horizon} | {config.horizon})
    mus = convolve_prefixes(config.spec, config.horizon, prune_eps=config.prune_eps)
    for n in ladder:
        prof = fourier_eval(mus[n - 1], config.grid_size)
        _write_csv(
            out / f"spectrum_mu_{n:04d}.csv",
            config,
            "spectrum",
            prof.COLUMNS,
            [prof.columns()],
            extra=[("prefix_n", str(n)), ("lipschitz_bound", repr(prof.lipschitz_bound))],
        )
    return EXIT_OK


def _cmd_check(config: ExperimentConfig, out: Path) -> int:
    report = check_convergence_hypotheses(
        config.spec,
        config.horizon,
        grid_size=config.grid_size,
        prune_eps=config.prune_eps,
    )
    _write_csv(
        out / "hypothesis_rows.csv", config, "check", report.row_header, [_rows_block(report.rows)]
    )
    summary = report.summary_text()
    if config.spec.atom_site is not None:
        sweep = check_sweepout_hypotheses(config.spec, config.horizon)
        _write_csv(
            out / "sweepout_rows.csv", config, "check", sweep.row_header, [_rows_block(sweep.rows)]
        )
        summary += "\n" + sweep.summary_text()
    _atomic_write(out / "hypothesis_summary.txt", [(_header(config, "check") + summary + "\n").encode()])
    print(summary)
    cap_ns = report.d2_depth_cap_n
    if cap_ns:
        print(
            f"d2 quadrature hit its depth cap {len(cap_ns)} time(s), at prefix n = "
            + ",".join(map(str, cap_ns))
            + "; those rows hold the last estimate",
            file=_sys.stderr,
        )
    return EXIT_OK


def _cmd_simulate(config: ExperimentConfig, out: Path) -> int:
    f = _make_test_function(config)
    norm = f.norm_l1(config.system)
    # One pass gives both results before any file, so a support-cap hit
    # writes nothing.
    weak11_rows = _weak11_rows(config.system, f, config.lambdas)
    x0 = int(config.trace_state) % config.system.q if config.system.is_cyclic else config.trace_state
    mf, trace = _averages_pass(config.system, config.spec, f, config.horizon, config.prune_eps, x0)
    rows = weak11_rows(mf)
    _write_csv(
        out / "weak11.csv",
        config,
        "simulate",
        ("lambda", "level_measure", "empirical_constant"),
        [_rows_block(rows)],
        extra=[("f_l1_norm", repr(norm))],
    )
    _write_csv(
        out / "convergence_trace.csv",
        config,
        "simulate",
        ("n", "value"),
        [_rows_block(enumerate(trace.values, start=1))],
        extra=[
            ("oscillation_window_start", str(trace.window_start)),
            ("tail_oscillation", repr(trace.oscillation)),
        ],
    )
    return EXIT_OK


def _cmd_sweepout(config: ExperimentConfig, out: Path) -> int:
    # Every result comes before any file, so a support-cap hit writes nothing;
    # the scan points come first, as their cap is checked before any work.
    # The simulation averages the prefixes (on a cyclic system without
    # pruning, through the recursion that forms none); the dissipativity
    # rows come from a chain of their own, cut to the reachable window.
    pts = scan_points(config.scan_max_denominator, config.scan_uniform)
    sim = sweepout_simulation(
        config.system, config.spec, config.b_measure, config.horizon, prune_eps=config.prune_eps
    )
    rows = dissipativity_trace(config.spec, config.window_k, config.horizon, prune_eps=config.prune_eps)
    scan = fourier_floor_scan(config.spec, pts, config.horizon)

    _write_csv(
        out / "dissipativity.csv",
        config,
        "sweepout",
        ("n", "window_max"),
        [_rows_block(rows)],
        extra=[("window_k", str(config.window_k))],
    )
    _write_csv(
        out / "floor_scan.csv",
        config,
        "sweepout",
        ("t", "floor_min", "product_bound"),
        [_rows_block(scan.rows)],
        extra=[
            ("window", f"[{scan.window_start},{scan.horizon}]"),
            ("product_bound_vacuous", str(scan.vacuous).lower()),
            ("scan_max_denominator", str(config.scan_max_denominator)),
            ("scan_uniform", str(config.scan_uniform)),
        ],
    )

    _write_csv(
        out / "sweepout_simulation.csv",
        config,
        "sweepout",
        ("state_index", "running_max", "running_min"),
        [(np.arange(len(sim.sup_trace)), sim.sup_trace, sim.inf_trace)],
        extra=[
            ("set_measure", repr(sim.set_measure)),
            ("high_threshold", repr(HIGH_THRESHOLD)),
            ("low_threshold", repr(LOW_THRESHOLD)),
            ("frac_running_max_high", repr(sim.frac_high)),
            ("frac_running_min_low", repr(sim.frac_low)),
        ],
    )

    if scan.contract_margin < -_FLOOR_CONTRACT_TOL:
        print(
            f"floor-scan contract violated: margin {scan.contract_margin!r}",
            file=_sys.stderr,
        )
        return EXIT_CONTRACT
    return EXIT_OK


_SUBCOMMANDS = {
    "convolve": _cmd_convolve,
    "spectrum": _cmd_spectrum,
    "check": _cmd_check,
    "simulate": _cmd_simulate,
    "sweepout": _cmd_sweepout,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convergence-lab",
        description="Convolution-measure experiments: hypothesis checks, averaging simulations, sweep-out diagnostics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in (*_SUBCOMMANDS, "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the experiment config file")
        p.add_argument(
            "--out",
            default=None,
            help="output directory (default: the config's run.out, else ./out)",
        )
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="accepted for compatibility (must be >= 1); every subcommand runs on one thread",
        )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        print("--threads must be at least 1", file=_sys.stderr)
        return EXIT_CONFIG

    # validate reports its diagnostics on stdout, the subcommands on stderr.
    validate = args.subcommand == "validate"
    try:
        config = load_config(args.config)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        for d in exc.diagnostics:
            print(d, file=_sys.stdout if validate else _sys.stderr)
        return EXIT_CONFIG
    if validate:
        print("config ok")
        return EXIT_OK
    if config.horizon < 2 and args.subcommand in ("check", "simulate"):
        print(f"run.horizon: must be >= 2 for {args.subcommand} (got {config.horizon})", file=_sys.stderr)
        return EXIT_CONFIG

    out = Path(args.out if args.out is not None else (config.out or "out"))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    try:
        return _SUBCOMMANDS[args.subcommand](config, out)
    except (SupportCapError, MemoryError) as exc:
        print(f"resource cap: {str(exc) or 'out of memory'}", file=_sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    raise SystemExit(main())
