"""Output checks: committed reference outputs and pass-to-pass byte identity.

References hold every file the steps write at ``DEFAULT_SEED``, gzipped,
under ``reference/<workload>/<step dir>/``.  A file matches its reference
when all text outside numbers is identical and every number agrees within
``REL_TOL`` (relative) or ``ABS_TOL`` (absolute, for values that should be
zero).  At any other seed the config echo is compared against the seeded
values, and files listed in ``Workload.seeded_files`` are compared on their
text alone, since their numbers depend on the seed.
"""
from __future__ import annotations

import gzip
import hashlib
import math
import re
from pathlib import Path
from typing import Optional

from workloads import DEFAULT_SEED, Workload

REFERENCE = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9
ABS_TOL = 1e-12

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def digest(out: Path) -> str:
    """Hash of every file name and byte under ``out``."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def text_mismatch(actual: str, expected: str, numbers: bool = True) -> Optional[str]:
    """First difference between two outputs, or None when they match."""
    a_text, e_text = _NUMBER.split(actual), _NUMBER.split(expected)
    if a_text != e_text:
        i = next((i for i, (a, e) in enumerate(zip(a_text, e_text)) if a != e), min(len(a_text), len(e_text)))
        return f"text differs near number {i}: {a_text[i:i + 1]!r} vs {e_text[i:i + 1]!r}"
    if numbers:
        for a, e in zip(_NUMBER.findall(actual), _NUMBER.findall(expected)):
            if not math.isclose(float(a), float(e), rel_tol=REL_TOL, abs_tol=ABS_TOL):
                return f"number {a} differs from reference {e}"
    return None


def reference_mismatch(workload: Workload, seed: int, step_dir: str, out: Path) -> Optional[str]:
    """Why the files of one step differ from the reference, or None."""
    ref_dir = REFERENCE / workload.name / step_dir
    ref_files = sorted(p.name[: -len(".gz")] for p in ref_dir.glob("*.gz"))
    out_files = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
    if not ref_files:
        return f"no reference under {ref_dir}"
    if out_files != ref_files:
        return f"files {out_files} differ from reference files {ref_files}"
    echo = [
        (f"# config {key}={old}\n", f"# config {key}={workload.seeded(seed)[key]}\n")
        for key, old in workload.seeded(DEFAULT_SEED).items()
    ]
    for name in out_files:
        expected = gzip.decompress((ref_dir / f"{name}.gz").read_bytes()).decode()
        for old, new in echo:
            expected = expected.replace(old, new)
        numbers = seed == DEFAULT_SEED or name not in workload.seeded_files
        why = text_mismatch((out / name).read_text(), expected, numbers)
        if why:
            return f"{step_dir}/{name}: {why}"
    return None


def write_reference(workload: Workload, out_root: Path) -> None:
    for step_dir in workload.step_dirs():
        ref_dir = REFERENCE / workload.name / step_dir
        ref_dir.mkdir(parents=True, exist_ok=True)
        for old in ref_dir.glob("*.gz"):
            old.unlink()
        for path in sorted((out_root / step_dir).iterdir()):
            (ref_dir / f"{path.name}.gz").write_bytes(gzip.compress(path.read_bytes(), mtime=0))
