"""The pinned workloads: their configs, derived from a seed, and their steps.

A workload is a list of CLI steps, each ``convergence-lab <subcommand>
--config <file> --out <dir>``, driven in-process through
``convergence_lab.cli.main``.  The seed reaches the program only through
the generated config values named by ``Workload.seeded``.
"""
from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Seed whose outputs are committed under ``perfbench/reference``.
DEFAULT_SEED = 0

#: One thread per process: on two cores, unpinned OpenBLAS raised CPU time
#: well above wall time without any wall-time gain.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

IID_TRIPLE = {"kind": "iid", "weights": "0.25,0.5,0.25", "offset": "-1"}
INVERSE_SQUARE = {"kind": "sweepout", "a_rule": "inverse_square", "coeff": "1"}


@dataclass(frozen=True)
class Workload:
    name: str
    #: config file name -> section -> key -> value
    configs: dict[str, dict[str, dict[str, str]]]
    #: (subcommand, config file name), run in order
    steps: tuple[tuple[str, str], ...]
    #: seed -> {"section.key": value} written into every config file
    seeded: Callable[[int], dict[str, str]] = lambda seed: {}
    #: output files whose body, not only the config echo, depends on the seed
    seeded_files: frozenset[str] = field(default_factory=frozenset)

    def step_dirs(self) -> list[str]:
        return [f"{i}-{sub}" for i, (sub, _) in enumerate(self.steps)]

    def config_texts(self, seed: int) -> dict[str, str]:
        out = {}
        for fname, sections in self.configs.items():
            merged = {s: dict(kv) for s, kv in sections.items()}
            for dotted, value in self.seeded(seed).items():
                section, key = dotted.split(".")
                merged.setdefault(section, {})[key] = value
            out[fname] = "".join(
                f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items()) + "\n"
                for s, kv in merged.items()
            )
        return out


def _simulate_export_values(seed: int) -> dict[str, str]:
    rng = random.Random(seed)
    # A trace state below the horizon, so that the convergence trace is not all zeros.
    return {"run.trace_state": str(rng.randrange(64)), "system.seed": str(rng.randrange(2**31))}


# Two workloads rather than one per subcommand: on a shared host the speed
# of the small-array steps (the iid check, the cyclic simulation) drifts by
# 20-50 % over minutes, so alone their run medians spread by up to 35 %
# over ten runs, past the largest bound a metric may have.  Each is paired
# with a steadier large-array step; the per-layer trace still separates
# their layers.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="check",
            configs={
                "iid.ini": {
                    "family": IID_TRIPLE,
                    "system": {"kind": "cyclic", "q": "1024"},
                    "run": {"horizon": "40", "grid_size": "2048"},
                },
                "sweep.ini": {"family": INVERSE_SQUARE, "run": {"horizon": "14"}},
            },
            steps=(("check", "iid.ini"), ("spectrum", "iid.ini"), ("check", "sweep.ini")),
        ),
        Workload(
            name="simulate-export",
            configs={
                "cyclic.ini": {
                    "family": IID_TRIPLE,
                    "system": {"kind": "cyclic", "q": "32768"},
                    "run": {"horizon": "64", "lambdas": "1,2,4,8", "test_function": "point_mass"},
                },
                **{
                    name: {
                        "family": INVERSE_SQUARE,
                        "system": {"kind": "rotation", "samples": "4096"},
                        "run": {
                            "horizon": horizon,
                            "window_k": "50",
                            "b_measure": "0.05",
                            "scan_max_denominator": "8",
                        },
                    }
                    for name, horizon in (("sweepout.ini", "120"), ("convolve.ini", "24"))
                },
            },
            steps=(("simulate", "cyclic.ini"), ("sweepout", "sweepout.ini"), ("convolve", "convolve.ini")),
            seeded=_simulate_export_values,
            seeded_files=frozenset({"convergence_trace.csv", "sweepout_simulation.csv"}),
        ),
    )
}


def program_env() -> dict[str, str]:
    """Environment for a child interpreter that imports the program from SRC."""
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_cli():
    """Import ``convergence_lab.cli`` from this checkout's source tree.

    Exits with a nonzero status when the source tree is absent or another
    copy of the package would be imported instead.
    """
    if not (SRC / "convergence_lab").is_dir():
        sys.exit(f"perfbench: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    from convergence_lab import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: imported {cli.__file__}, not the checkout under {SRC}")
    return cli


def write_inputs(workload: Workload, seed: int, workdir: Path) -> None:
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    for fname, text in workload.config_texts(seed).items():
        (workdir / fname).write_text(text)


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    #: per step: None, or why the step failed (nonzero exit or an exception)
    failures: list


def run_pass(cli, workload: Workload, workdir: Path, out_root: Path) -> PassResult:
    """Run every step once; only the ``main`` calls are timed."""
    outs = [out_root / d for d in workload.step_dirs()]
    for out in outs:
        if out.exists():
            shutil.rmtree(out)
    failures = []
    wall = time.perf_counter()
    cpu = time.process_time()
    for (sub, cfg), out in zip(workload.steps, outs):
        argv = [sub, "--config", str(workdir / cfg), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                rc = cli.main(argv)
                failure = None if rc == 0 else f"exit {rc}: {err.getvalue().strip()[:300]}"
            except Exception as exc:  # a traceback fails the step, not the benchmark
                failure = f"raised {type(exc).__name__}: {exc}"
        failures.append(failure and f"{sub}: {failure}")
    return PassResult(time.perf_counter() - wall, time.process_time() - cpu, failures)
