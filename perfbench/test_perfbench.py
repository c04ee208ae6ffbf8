"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import gzip
import json
import os
import shutil

import pytest

import outputs
import run
from tracer import SPANS, Tracer
from workloads import ROOT, THREAD_PINS, WORK, WORKLOADS, import_cli, run_pass, write_inputs

os.environ.update(THREAD_PINS)
CLI = import_cli()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def work(monkeypatch):
    path = WORK / f"test-{os.getpid()}"
    monkeypatch.setattr(run, "WORK", path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_work_counts_repeat_between_traced_runs(work, name):
    first = run.measure(WORKLOADS[name], 7, 0.0, trace=True)
    second = run.measure(WORKLOADS[name], 7, 0.0, trace=True)
    assert first["correct"] and second["correct"], first["failures"] + second["failures"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [k for k, m in first["metrics"].items() if m["unit"] in ("count", "bytes")]
    assert len(counts) == len(run.COUNT_METRICS) + 1
    for key in counts:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
    assert first["metrics"]["span_coverage"]["value"] > 0.9


def test_untraced_run_reports_every_end_to_end_metric(work):
    result = run.measure(WORKLOADS["simulate-export"], 3, 0.0, trace=False)
    assert result["correct"], result["failures"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_reference_fails_the_step(work, monkeypatch):
    name = "simulate-export"
    reference = work / "reference"
    shutil.copytree(outputs.REFERENCE / name, reference / name)
    target = reference / name / "0-simulate" / "weak11.csv.gz"
    lines = gzip.decompress(target.read_bytes()).decode().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.startswith("2.0,"))
    lam, level, constant = lines[row].rstrip("\n").split(",")
    lines[row] = f"{lam},{level},{float(constant) * (1 + 1e-6)!r}\n"
    target.write_bytes(gzip.compress("".join(lines).encode()))
    monkeypatch.setattr(outputs, "REFERENCE", reference)

    result = run.measure(WORKLOADS[name], 0, 0.0, trace=True)
    assert not result["correct"]
    assert result["failed"] == 1
    assert "weak11.csv" in result["failures"][0]


def test_nonzero_exit_is_a_failed_step(work):
    workload = WORKLOADS["simulate-export"]
    write_inputs(workload, 0, work)
    cfg = work / "cyclic.ini"
    cfg.write_text(cfg.read_text().replace("horizon = 64", "horizon = 0"))
    result = run_pass(CLI, workload, work, work / "out")
    assert result.failures[0].startswith("simulate: exit 2")


def test_numbers_compare_within_tolerance_and_text_exactly():
    assert outputs.text_mismatch("a,1.0000000001\n", "a,1.0\n") is None
    assert outputs.text_mismatch("a,1.00001\n", "a,1.0\n") is not None
    assert outputs.text_mismatch("b,1.0\n", "a,1.0\n") is not None
    assert outputs.text_mismatch("a,9\n", "a,1\n", numbers=False) is None


def test_every_span_is_patched_everywhere_and_restored():
    from convergence_lab import cli, hypotheses, measures

    original = measures.convolve_prefixes
    with Tracer() as tracer:
        assert hypotheses.convolve_prefixes is measures.convolve_prefixes is not original
        assert {name for _, name, _ in tracer._patched} >= {f for fs in SPANS.values() for f in fs}
    assert hypotheses.convolve_prefixes is measures.convolve_prefixes is original
    assert cli.main is CLI.main and not hasattr(cli.main, "__wrapped__")
