"""Benchmark of the convergence-lab CLI on pinned workloads.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload is a list of CLI steps.  A pass runs them once, in order, in
a fresh interpreter that drives ``convergence_lab.cli.main`` in-process on
one thread and times only those calls (``probe.py``).  A run writes the
workload's configs from the seed, then starts passes one after another for
``--seconds``.  The first pass's outputs are checked against the committed
reference, and every later pass must write the same bytes.  A step that
exits nonzero, raises, or fails a check is a failed step, and its pass is
left out of the timings.

``--trace 0`` reports the end-to-end metrics: the medians over passes of
wall time, CPU time and peak resident memory, and the median start-up time
of fresh interpreters (import plus ``load_config``).  ``--trace 1``
alternates untraced and traced passes and reports per-layer self times
(medians over traced passes), work counts and the tracing overhead; the
spans of the last traced pass are in ``.perfbench_work/<workload>/spans.json``.
Human-readable lines come first; the last line of standard output is one
JSON object.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from outputs import reference_mismatch
from tracer import SPANS
from workloads import ROOT, WORK, WORKLOADS, Workload, program_env, write_inputs

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
PROBE = Path(__file__).resolve().with_name("probe.py")

#: Per-layer metrics that are work counts: they must repeat exactly.
COUNT_METRICS = (
    "measures.convolve_prefixes.calls",
    "measures.prefix_weights_total",
    "spectral.weighted_d2_integral.calls",
    "spectral.d2_cap_hits",
    "spectral.transform_terms",
    "dynamics.weighted_average_all.calls",
    "dynamics.state_atom_products",
)


def _probe(workload: Workload, workdir: Path, mode: str, *args: str) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(PROBE), mode, workload.name, str(workdir), *args],
        cwd=ROOT,
        env=program_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"perfbench: {mode} probe failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return elapsed, proc.stdout


def _metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK / workload.name
    write_inputs(workload, seed, workdir)
    step_dirs = workload.step_dirs()
    failures: list[str] = []
    attempted = failed = 0

    def tally(found: list) -> bool:
        nonlocal attempted, failed
        attempted += len(found)
        failed += sum(1 for f in found if f)
        failures.extend(f for f in found if f)
        return not any(found)

    metrics: dict[str, dict] = {}
    if not trace:
        setup = [_probe(workload, workdir, "setup")[0] for _ in range(SETUP_SAMPLES)]
        metrics["setup_s"] = _metric(statistics.median(setup), "s", len(setup))

    plain: list[dict] = []
    traced: list[dict] = []
    expected: list[str] = []
    deadline = time.perf_counter() + seconds
    passes, last = 0, 0.0
    # Start no pass that the previous one suggests would end past the deadline.
    while passes < 1 + trace or time.perf_counter() + last < deadline:
        passes += 1
        is_traced = trace and passes % 2 == 0
        out = workdir / ("first" if passes == 1 else "out")
        last, stdout = _probe(workload, workdir, "pass", str(out), str(int(is_traced)))
        result = json.loads(stdout.splitlines()[-1])
        if passes == 1:
            # The first pass is checked against the reference; every later
            # one must reproduce it byte for byte.
            found = [
                fail or reference_mismatch(workload, seed, d, out / d)
                for d, fail in zip(step_dirs, result["failures"])
            ]
            expected = result["digests"]
            bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        else:
            found = [
                fail or (None if got == want else f"{d}: output differs from the first pass")
                for d, fail, got, want in zip(step_dirs, result["failures"], result["digests"], expected)
            ]
        if tally(found):
            (traced if is_traced else plain).append(result)

    def median(samples: list[dict], key: str) -> float:
        return statistics.median(s[key] for s in samples)

    if not plain:
        failures.append("no untraced pass succeeded")
    elif not trace:
        for key, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB")):
            metrics[key] = _metric(median(plain, key), unit, len(plain))
    elif not traced:
        failures.append("no traced pass succeeded")
    else:
        n = len(traced)
        for mod, funcs in SPANS.items():
            for func in funcs:
                name = f"{mod}.{func}"
                value = statistics.median(s["self_times"].get(name, 0.0) for s in traced)
                metrics[f"{name}.self_s"] = _metric(value, "s", n)
        counts = traced[0]["counts"]
        if any(s["counts"] != counts for s in traced):
            failures.append("work counts differ between traced passes")
        for name in COUNT_METRICS:
            metrics[name] = _metric(counts.get(name, 0), "count", n)
        metrics["cli.bytes_written"] = _metric(bytes_written, "bytes", 1)
        traced_wall = median(traced, "wall_s")
        coverage = statistics.median(sum(s["self_times"].values()) / s["wall_s"] for s in traced)
        metrics["traced_wall_s"] = _metric(traced_wall, "s", n)
        metrics["trace_overhead_s"] = _metric(traced_wall - median(plain, "wall_s"), "s", n)
        metrics["span_coverage"] = _metric(coverage, "ratio", n)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "failures": failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        frac = result["failed"] / result["attempted"]
        print(f"{name} failed_frac {frac} ({result['failed']} of {result['attempted']} steps)")
        for why in result["failures"][:5]:
            print(f"{name}   failed: {why}")
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']} (n={m['samples']})")
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        total["metrics"].update(
            {prefix + k: {"value": m["value"], "unit": m["unit"]} for k, m in result["metrics"].items()}
        )
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
