import configparser
import os
import platform
import re
import stat
import subprocess
from sys import executable as PYTHON
from pathlib import Path

import numpy as np
import pytest

from convergence_lab import (
    DynSystem,
    SweepoutFamily,
    TestFunction,
    convolve_prefixes,
    iter_prefixes,
    maximal_function_all,
    weighted_average,
    weighted_average_all,
)
from convergence_lab.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RESOURCE,
    load_config,
    main,
    validate_config,
)
from conftest import RECURSION_TRACE_ATOL, full_dissipativity_trace, table_chain

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"

IID_CFG = """\
[family]
kind = iid
weights = 0.25,0.5,0.25
offset = -1

[system]
kind = cyclic
q = 128

[run]
horizon = 12
grid_size = 128
lambdas = 1,2,4
"""

SWEEPOUT_CFG = """\
[family]
kind = sweepout
a_rule = inverse_square
coeff = 1.0

[system]
kind = rotation
samples = 256
seed = 1

[run]
horizon = 12
window_k = 8
b_measure = 0.05
scan_max_denominator = 5
"""


ROTATION = "kind = rotation\nsamples = 256\nseed = 1"
CYCLIC_64 = "kind = cyclic\nq = 64"


def write(tmp_path: Path, name: str, text: str) -> str:
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture
def convolutions(monkeypatch) -> list:
    """The arguments (a, b, buf, work) of each call of the convolution kernel
    that every chain runs; ``buf`` is None where the product gets a fresh array."""
    import convergence_lab.measures as measures_mod

    calls = []
    kernel = measures_mod._convolve_into
    monkeypatch.setattr(measures_mod, "_convolve_into", lambda *a: calls.append(a) or kernel(*a))
    return calls


class TestValidateConfig:
    def test_well_formed(self, tmp_path):
        assert validate_config(write(tmp_path, "a.cfg", IID_CFG)) == []

    def test_zero_q_named(self, tmp_path):
        cfg = IID_CFG.replace("q = 128", "q = 0")
        diags = validate_config(write(tmp_path, "a.cfg", cfg))
        assert any("system.q" in d for d in diags)

    def test_unknown_key_named(self, tmp_path):
        cfg = IID_CFG + "\nbogus_key = 1\n"
        diags = validate_config(write(tmp_path, "a.cfg", cfg))
        assert any("bogus_key" in d for d in diags)

    def test_all_violations_listed(self, tmp_path):
        cfg = IID_CFG.replace("q = 128", "q = 0").replace("horizon = 12", "horizon = 0")
        diags = validate_config(write(tmp_path, "a.cfg", cfg))
        assert len(diags) >= 2

    def test_weights_must_sum_to_one(self, tmp_path):
        cfg = IID_CFG.replace("0.25,0.5,0.25", "0.25,0.5")
        diags = validate_config(write(tmp_path, "a.cfg", cfg))
        assert any("weights" in d for d in diags)

    def test_parse_error_reported(self, tmp_path):
        diags = validate_config(write(tmp_path, "a.cfg", "not an ini file at all\n"))
        assert any("parse error" in d for d in diags)

    def test_io_error_distinct(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "missing.cfg")


class TestLoadConfig:
    def test_iid_family(self, tmp_path):
        cfg = load_config(write(tmp_path, "a.cfg", IID_CFG))
        assert cfg.spec.measure_at(1) is cfg.spec.measure_at(7)
        assert cfg.system.is_cyclic
        assert cfg.lambdas == [1.0, 2.0, 4.0]

    def test_list_family_round_trip(self, tmp_path):
        from convergence_lab import delta, from_pairs

        blocks = "\n\n".join(
            m.to_text() for m in (delta(1), from_pairs({0: 0.5, 1: 0.5}))
        )
        (tmp_path / "measures.txt").write_text(blocks)
        cfg_text = IID_CFG.replace(
            "kind = iid\nweights = 0.25,0.5,0.25\noffset = -1",
            "kind = list\nmeasures_file = measures.txt",
        ).replace("horizon = 12", "horizon = 2")
        cfg = load_config(write(tmp_path, "a.cfg", cfg_text))
        assert cfg.spec.measure_at(1).weight(1) == 1.0
        assert cfg.spec.measure_at(2).weight(0) == 0.5

    def test_list_family_shorter_than_horizon(self, tmp_path, capsys):
        from convergence_lab import delta

        (tmp_path / "measures.txt").write_text("\n\n".join(delta(k).to_text() for k in (0, 1)))
        cfg_text = IID_CFG.replace(
            "kind = iid\nweights = 0.25,0.5,0.25\noffset = -1",
            "kind = list\nmeasures_file = measures.txt",
        )
        path = write(tmp_path, "a.cfg", cfg_text)
        assert validate_config(path) == ["run.horizon: 12 exceeds the 2 measures in measures.txt"]
        assert main(["validate", "--config", path]) == EXIT_CONFIG
        assert main(["convolve", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "run.horizon" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_loading_builds_no_sweepout_factor(self, tmp_path, monkeypatch):
        # The factors are walked by the subcommand that reads them, so a
        # config loads, and validates, at the cost of its parsing alone.
        def refuse(family, n):
            raise AssertionError(f"a factor was built while loading: n = {n}")

        monkeypatch.setattr(SweepoutFamily, "measure_at", refuse)
        path = write(tmp_path, "s.cfg", SWEEPOUT_CFG)
        assert load_config(path).spec.atom_site == 1
        assert validate_config(path) == []


class TestMain:
    def test_check_reports_failure_in_summary(self, tmp_path, capsys):
        cfg = IID_CFG.replace("0.25,0.5,0.25", "0.5,0.5").replace("offset = -1", "offset = 0")
        path = write(tmp_path, "a.cfg", cfg)
        code = main(["check", "--config", path, "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "[FAIL] zero_expectation" in out

    def test_check_passes_for_centered_family(self, tmp_path, capsys):
        path = write(tmp_path, "a.cfg", IID_CFG)
        code = main(["check", "--config", path, "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert "overall: pass" in capsys.readouterr().out
        assert (tmp_path / "out" / "hypothesis_rows.csv").exists()

    def test_check_reports_depth_cap_hits_on_stderr(self, tmp_path, capsys):
        cfg = SWEEPOUT_CFG.replace("horizon = 12", "horizon = 14")
        path = write(tmp_path, "f.cfg", cfg)
        out = tmp_path / "out"
        assert main(["check", "--config", path, "--out", str(out)]) == EXIT_OK
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "depth cap 1 time(s), at prefix n = 14;" in err[0]
        names = sorted(p.name for p in out.iterdir())
        assert names == ["hypothesis_rows.csv", "hypothesis_summary.txt", "sweepout_rows.csv"]

    def test_check_without_cap_hits_is_quiet_on_stderr(self, tmp_path, capsys):
        path = write(tmp_path, "a.cfg", IID_CFG)
        assert main(["check", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_sweepout_writes_three_csvs(self, tmp_path):
        path = write(tmp_path, "f.cfg", SWEEPOUT_CFG)
        out = tmp_path / "out"
        code = main(["sweepout", "--config", path, "--out", str(out)])
        assert code == EXIT_OK
        names = sorted(p.name for p in out.iterdir())
        assert names == ["dissipativity.csv", "floor_scan.csv", "sweepout_simulation.csv"]
        scan = (out / "floor_scan.csv").read_text()
        assert "product_bound_vacuous=false" in scan

    def test_convolve_and_spectrum(self, tmp_path):
        path = write(tmp_path, "a.cfg", IID_CFG)
        out = tmp_path / "out"
        assert main(["convolve", "--config", path, "--out", str(out)]) == EXIT_OK
        assert main(["spectrum", "--config", path, "--out", str(out)]) == EXIT_OK
        assert (out / "prefixes.csv").exists()
        assert (out / "spectrum_mu_0001.csv").exists()
        assert (out / "spectrum_mu_0012.csv").exists()
        header = (out / "spectrum_mu_0012.csv").read_text().splitlines()
        data_start = next(i for i, ln in enumerate(header) if not ln.startswith("#"))
        assert header[data_start] == "t,re,im,abs,abs_d1,abs_d2"

    def test_prefix_rows_match_prefix_chain(self, tmp_path):
        path = write(tmp_path, "f.cfg", SWEEPOUT_CFG)
        out = tmp_path / "out"
        assert main(["convolve", "--config", path, "--out", str(out)]) == EXIT_OK
        lines = [ln for ln in (out / "prefixes.csv").read_text().splitlines() if not ln.startswith("#")]
        config = load_config(path)
        mus = convolve_prefixes(config.spec, config.horizon)
        expected = [
            f"{n},{mu.min_index + i},{float(w)!r}"
            for n, mu in enumerate(mus, start=1)
            for i, w in enumerate(mu.weights)
        ]
        assert lines == ["n,k,weight", *expected]

    def test_config_error_exit_code(self, tmp_path):
        path = write(tmp_path, "a.cfg", IID_CFG.replace("q = 128", "q = 0"))
        assert main(["check", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["check", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_resource_cap_exit_code(self, tmp_path):
        cfg = SWEEPOUT_CFG.replace("a_rule = inverse_square\ncoeff = 1.0", "a_rule = geometric\nratio = 0.5")
        cfg = cfg.replace("horizon = 12", "horizon = 25")
        path = write(tmp_path, "g.cfg", cfg)
        assert main(["convolve", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_RESOURCE

    @pytest.mark.parametrize("subcommand", ["simulate", "sweepout"])
    def test_resource_cap_writes_nothing(self, tmp_path, subcommand):
        # The factor nu_20 alone passes the cap in simulate, whose cyclic
        # recursion forms no mu_n; a cap hit must leave the output directory empty.
        cfg = SWEEPOUT_CFG.replace("a_rule = inverse_square\ncoeff = 1.0", "a_rule = geometric\nratio = 0.5")
        cfg = cfg.replace("kind = rotation\nsamples = 256\nseed = 1", "kind = cyclic\nq = 64")
        cfg = cfg.replace("horizon = 12", "horizon = 25")
        path = write(tmp_path, "g.cfg", cfg)
        out = tmp_path / "o"
        assert main([subcommand, "--config", path, "--out", str(out)]) == EXIT_RESOURCE
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("system", [ROTATION, CYCLIC_64], ids=["rotation", "cyclic"])
    @pytest.mark.parametrize("subcommand", ["convolve", "spectrum", "check", "simulate", "sweepout"])
    def test_every_factor_is_built_once_per_run(self, tmp_path, monkeypatch, subcommand, system):
        # Every reader of the factors in a run (the span walk, the chain, the
        # recursion, the dissipativity rows, the floor scan, the hypothesis
        # checks) shares the spec's one walk.
        built, rule = [], SweepoutFamily.measure_at
        monkeypatch.setattr(SweepoutFamily, "measure_at", lambda family, n: built.append(n) or rule(family, n))
        path = write(tmp_path, "s.cfg", SWEEPOUT_CFG.replace(ROTATION, system))
        assert main([subcommand, "--config", path, "--out", str(tmp_path / "o")]) == EXIT_OK
        assert built == list(range(1, 13))

    @pytest.mark.parametrize(
        "subcommand, horizon, windows", [("convolve", 12, 1), ("sweepout", 12, 2), ("check", 14, 15)]
    )
    def test_a_chain_builds_the_dense_window_of_nu_1_alone(self, tmp_path, monkeypatch, subcommand, horizon, windows):
        # The kernel reads every factor as its atoms, so a chain builds the
        # window of nu_1, its first prefix, and of no other factor.  Rotation
        # sweepout runs two chains, the simulation's and the dissipativity
        # rows'; check also reads the moments of each factor on its window.
        from convergence_lab.measures import Factor

        built, dense = [], Factor.dense
        monkeypatch.setattr(Factor, "dense", lambda nu: built.append(nu) or dense(nu))
        cfg = SWEEPOUT_CFG.replace("horizon = 12", f"horizon = {horizon}")
        assert main([subcommand, "--config", write(tmp_path, "s.cfg", cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert len(built) == windows

    @pytest.mark.parametrize("subcommand", ["simulate", "sweepout"])
    def test_cyclic_recursion_over_the_cap_exits_before_any_work(self, tmp_path, capsys, monkeypatch, subcommand):
        # nu_1000 has diameter 1000001: the recursion forms no prefix, and
        # the walk refuses that factor before the first average is taken.
        from convergence_lab import dynamics

        def no_average(*args):
            raise AssertionError("the recursion ran before the walk was checked")

        monkeypatch.setattr(dynamics, "_apply_factor", no_average)
        monkeypatch.setattr(dynamics, "weighted_average_all", no_average)
        cfg = SWEEPOUT_CFG.replace(ROTATION, CYCLIC_64).replace("horizon = 12", "horizon = 1000")
        out = tmp_path / "o"
        assert main([subcommand, "--config", write(tmp_path, "s.cfg", cfg), "--out", str(out)]) == EXIT_RESOURCE
        assert capsys.readouterr().err == "resource cap: factor diameter 1000001 exceeds cap 1000000\n"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("subcommand", ["simulate", "sweepout"])
    def test_resource_cap_message_on_the_rotation(self, tmp_path, capsys, subcommand):
        # The rotation sizes its cell table from the factors before the first
        # convolution; the walk stops at n = 19, where the chain itself raises.
        cfg = SWEEPOUT_CFG.replace("a_rule = inverse_square\ncoeff = 1.0", "a_rule = geometric\nratio = 0.5")
        path = write(tmp_path, "g.cfg", cfg.replace("horizon = 12", "horizon = 30"))
        out = tmp_path / "o"
        assert main([subcommand, "--config", path, "--out", str(out)]) == EXIT_RESOURCE
        assert capsys.readouterr().err == "resource cap: convolution support 1048613 exceeds cap 1000000\n"
        assert not out.exists() or not any(out.iterdir())

    def test_drifting_windows_keep_one_window_of_cells(self, tmp_path, monkeypatch):
        # mu_n sits on [100000 n, 100001 n]: n + 1 points, each window far past
        # the last.  The cell table holds 33 cells, and the results are the
        # atom-by-atom sums (exact here: every weight is a multiple of 2**-32).
        from convergence_lab import dynamics

        tables = []

        class Recording(dynamics._CellTable):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(self)

        monkeypatch.setattr(dynamics, "_CellTable", Recording)
        cfg = (
            "[family]\nkind = iid\nweights = 0.5,0.5\noffset = 100000\n\n"
            "[system]\nkind = rotation\nsamples = 512\n\n"
            "[run]\nhorizon = 32\ntest_function = block\nlambdas = 0.25,0.4,0.5\n"
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", write(tmp_path, "d.cfg", cfg), "--out", str(out)]) == EXIT_OK
        assert len(tables) == 1 and len(tables[0].cells) == 33
        config = load_config(tmp_path / "d.cfg")
        f = TestFunction.indicator_interval(0.0, config.block_fraction)
        averages = [weighted_average_all(config.system, mu, f) for mu in convolve_prefixes(config.spec, 32)]
        mf = np.max(np.abs(averages), axis=0)
        assert np.array_equal(maximal_function_all(config.system, config.spec, f, 32), mf)
        rows = [ln.split(",") for ln in (out / "weak11.csv").read_text().splitlines() if ln[0].isdigit()]
        assert [float(level) for _, level, _ in rows] == [float(np.mean(mf > lam)) for lam in (0.25, 0.4, 0.5)]
        assert 0.0 < float(rows[1][1]) < float(rows[0][1]) < 1.0

    def test_sweepout_builds_one_prefix_chain(self, tmp_path, convolutions):
        # On the rotation the simulation streams one full-width chain through
        # its lent buffer; on the cyclic system the recursion forms no prefix.
        # The dissipativity rows convolve each prefix cut to its reachable
        # window: every factor ends at 1, so with window_k = 8 the window of
        # mu_n starts at -8 - (12 - n), and mu_n ends at n.
        for system, streamed in ((ROTATION, 12 - 1), (CYCLIC_64, 0)):
            convolutions.clear()
            path = write(tmp_path, "f.cfg", SWEEPOUT_CFG.replace(ROTATION, system))
            assert main(["sweepout", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_OK
            windowed = [(a, b) for a, b, buf, _ in convolutions if buf is None]
            assert len(convolutions) - len(windowed) == streamed and len(windowed) == 12 - 1
            for n, (mu, nu) in enumerate(windowed, start=2):
                assert -8 - (12 - n + 1) <= mu.min_index and mu.max_index <= n - 1
                assert len(mu.weights) + len(nu.weights) - 1 <= 2 * (8 + 12 + 1)

    def test_cyclic_sweepout_runs_past_the_support_cap(self, tmp_path):
        # mu_240 of the inverse-square family would span about 4.6M sites, past
        # the cap, but neither the recursion nor the reachable windows form it.
        cfg = SWEEPOUT_CFG.replace(ROTATION, CYCLIC_64).replace("horizon = 12", "horizon = 240")
        path = write(tmp_path, "c.cfg", cfg)
        out = tmp_path / "o"
        assert main(["sweepout", "--config", path, "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == ["dissipativity.csv", "floor_scan.csv", "sweepout_simulation.csv"]

        def rows(name: str) -> list[list[str]]:
            return [ln.split(",") for ln in (out / name).read_text().splitlines() if ln[0].isdigit()]

        config = load_config(path)
        # A row of mu_n does not depend on the horizon: up to where the full
        # chain fits, the rows are its rows, to the bit.
        disp = rows("dissipativity.csv")
        assert [n for n, _ in disp] == [str(n) for n in range(1, 241)]
        assert [float(v) for _, v in disp[:100]] == [r.window_max for r in full_dissipativity_trace(config.spec, 8, 100)]
        # The running extremes are those of the atom-by-atom recursion, to the bit.
        chain = table_chain(config.system, config.spec, TestFunction.indicator_block(0, 3), 240)
        sim = [[float(v) for v in row[1:]] for row in rows("sweepout_simulation.csv")]
        assert sim == np.column_stack((np.max(chain, axis=0), np.min(chain, axis=0))).tolist()

    @pytest.mark.parametrize(
        "system, prune_eps, expected",
        [(ROTATION, "0", 12 - 1), (CYCLIC_64, "1e-9", 12 - 1), (CYCLIC_64, "0", 0)],
        ids=["rotation", "pruned-cyclic", "cyclic"],
    )
    def test_simulate_builds_at_most_one_prefix_chain(self, tmp_path, convolutions, system, prune_eps, expected):
        # The maximal function and the trace read one pass over the chain; the
        # unpruned cyclic recursion forms no prefix at all.
        cfg = SWEEPOUT_CFG.replace(ROTATION, system) + f"prune_eps = {prune_eps}\n"
        path = write(tmp_path, "f.cfg", cfg)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_OK
        assert len(convolutions) == expected

    def test_cyclic_simulate_runs_past_the_support_cap(self, tmp_path):
        # mu_200 of the inverse-square family would span about 2.7M sites, past
        # the cap, but the cyclic recursion never forms it.
        cfg = SWEEPOUT_CFG.replace(ROTATION, CYCLIC_64).replace("horizon = 12", "horizon = 200")
        path = write(tmp_path, "c.cfg", cfg + "lambdas = 22,22.5,24,32\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_OK

        def rows(name: str) -> list[list[float]]:
            lines = (out / name).read_text().splitlines()
            return [[float(v) for v in ln.split(",")] for ln in lines if ln[0].isdigit()]

        config = load_config(path)
        sys, f = config.system, TestFunction.indicator_block(0, 1, 64.0)
        # weak11.csv: the maximal function of the atom-by-atom recursion, to the bit.
        mf = np.max(np.abs(table_chain(sys, config.spec, f, 200)), axis=0)
        levels = [sys.measure_fraction(mf > lam) for lam in config.lambdas]
        assert rows("weak11.csv") == [[lam, m, lam * m] for lam, m in zip(config.lambdas, levels)]
        assert 0.0 < levels[-1] < levels[0] < 1.0
        trace = rows("convergence_trace.csv")
        assert [n for n, _ in trace] == list(range(1, 201))
        want = [weighted_average(sys, mu, f, 0) for mu in iter_prefixes(config.spec, 100)]
        got = [v for _, v in trace[:100]]
        np.testing.assert_allclose(got, want, rtol=0, atol=RECURSION_TRACE_ATOL * 64.0)
        assert [v == 0.0 for v in got] == [v == 0.0 for v in want]

    def test_validate_subcommand(self, tmp_path, capsys):
        path = write(tmp_path, "a.cfg", IID_CFG)
        assert main(["validate", "--config", path]) == EXIT_OK
        assert "config ok" in capsys.readouterr().out

    def test_reruns_are_byte_identical(self, tmp_path):
        path = write(tmp_path, "a.cfg", IID_CFG)
        outs = []
        for name, threads in (("r1", "1"), ("r2", "1"), ("r4", "4")):
            out = tmp_path / name
            assert main(["simulate", "--config", path, "--out", str(out), "--threads", threads]) == EXIT_OK
            outs.append(out)
        base = (outs[0] / "weak11.csv").read_bytes()
        for out in outs[1:]:
            assert (out / "weak11.csv").read_bytes() == base
        base_tr = (outs[0] / "convergence_trace.csv").read_bytes()
        for out in outs[1:]:
            assert (out / "convergence_trace.csv").read_bytes() == base_tr

    def test_bad_threads_rejected(self, tmp_path):
        path = write(tmp_path, "a.cfg", IID_CFG)
        assert main(["simulate", "--config", path, "--threads", "0"]) == EXIT_CONFIG

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
    def test_outputs_get_the_mode_the_umask_allows(self, tmp_path, umask):
        # Every file of every subcommand, written through a temp file and a
        # rename, has the mode a plain open would give it.
        configs = {"check": IID_CFG, "spectrum": IID_CFG, "convolve": IID_CFG, "simulate": IID_CFG,
                   "sweepout": SWEEPOUT_CFG}
        old = os.umask(umask)
        try:
            for subcommand, cfg in configs.items():
                out = tmp_path / subcommand
                path = write(tmp_path, f"{subcommand}.cfg", cfg)
                assert main([subcommand, "--config", path, "--out", str(out)]) == EXIT_OK
                modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
                assert modes and modes == dict.fromkeys(modes, 0o666 & ~umask)
        finally:
            os.umask(old)

    @pytest.mark.parametrize("subcommand", ["convolve", "spectrum", "check", "simulate", "sweepout"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
    def test_unusable_out_exits_before_any_work(self, tmp_path, capsys, monkeypatch, subcommand, under):
        # An existing file, or a path under one, cannot be made a directory:
        # one line and exit 2, before the subcommand computes anything.
        import convergence_lab.cli as cli_mod

        monkeypatch.setitem(cli_mod._SUBCOMMANDS, subcommand, lambda *a: pytest.fail("the subcommand ran"))
        blocker = tmp_path / "F"
        blocker.write_text("kept\n")
        out = blocker / "sub" if under else blocker
        path = write(tmp_path, "a.cfg", SWEEPOUT_CFG if subcommand == "sweepout" else IID_CFG)
        assert main([subcommand, "--config", path, "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"cannot write output: [^\n]+\n", captured.err)
        assert blocker.read_text() == "kept\n"

    def test_validate_diagnostics_go_to_stdout(self, tmp_path, capsys):
        bad = write(tmp_path, "a.cfg", IID_CFG.replace("q = 128", "q = 0"))
        diagnostic = "system.q: must be a positive integer (got 0)\n"
        assert main(["validate", "--config", bad]) == EXIT_CONFIG
        assert capsys.readouterr() == (diagnostic, "")
        assert main(["simulate", "--config", bad]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", diagnostic)
        for subcommand in ("validate", "simulate"):
            assert main([subcommand, "--config", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("cannot read config: ") and err.count("\n") == 1

    def test_out_dir_from_config(self, tmp_path):
        cfg = IID_CFG + f"out = {tmp_path / 'fromcfg'}\n"
        path = write(tmp_path, "a.cfg", cfg)
        assert main(["convolve", "--config", path]) == EXIT_OK
        assert (tmp_path / "fromcfg" / "prefixes.csv").exists()

    def test_contract_violation_exit_code(self, tmp_path, monkeypatch):
        # wiring check: a (synthetic) violated floor-scan contract fails hard
        import convergence_lab.cli as cli_mod
        from convergence_lab.sweepout import FloorScanResult, ScanRow

        def fake_scan(spec, points, N):
            return FloorScanResult(
                rows=[ScanRow(0.0, 0.1, 0.5)],
                product_bound=0.5,
                vacuous=False,
                window_start=N // 2,
                horizon=N,
            )

        monkeypatch.setattr(cli_mod, "fourier_floor_scan", fake_scan)
        path = write(tmp_path, "f.cfg", SWEEPOUT_CFG)
        code = main(["sweepout", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 4


# Every numeric and enum key broken at once: out of range where the key has a
# range, unparsable where it has none.
ALL_KEYS_BAD_CFG = """\
[family]
kind = iid
weights = 0.5,0.25
offset = x

[system]
kind = torus
q = 0
alpha = 1.5
samples = 0
seed = s

[run]
horizon = 0
grid_size = 15
prune_eps = 1
lambdas = 0,-1,abc,,2
b_measure = 2
window_k = 0
scan_max_denominator = 0
scan_uniform = -1
test_function = gauss
block_fraction = 0
trig_freq = -1
trace_state = t
"""

ALL_KEYS_UNPARSABLE_CFG = """\
[family]
kind = iid
weights = 0.5,w

[system]
q = 1.5
alpha = a
samples = 2.0
seed = 1e3

[run]
horizon = h
grid_size = 1e3
prune_eps = p
lambdas = ,
b_measure = b
window_k = 5.5
scan_max_denominator = x
scan_uniform = y
block_fraction = f
trig_freq = 0.5
trace_state = z
"""

GOLDEN_DIAGNOSTICS = {
    "all_keys_bad": (
        ALL_KEYS_BAD_CFG,
        [
            "system.q: must be a positive integer (got 0)",
            "system.alpha: must lie in (0, 1) (got 1.5)",
            "system.samples: must be positive (got 0)",
            "system.seed: cannot parse 's'",
            "system.kind: must be cyclic or rotation (got 'torus')",
            "run.horizon: must be >= 1 (got 0)",
            "run.grid_size: must be even and >= 16 (got 15)",
            "run.prune_eps: must lie in [0, 1e-8] (got 1)",
            "run.b_measure: must lie in [0, 1] (got 2)",
            "run.window_k: must be >= 1 (got 0)",
            "run.scan_max_denominator: must be >= 1 (got 0)",
            "run.scan_uniform: must be >= 0 (got -1)",
            "run.block_fraction: must lie in (0, 1] (got 0)",
            "run.trig_freq: must be >= 0 (got -1)",
            "run.trace_state: cannot parse 't'",
            "run.test_function: must be point_mass, block or trig (got 'gauss')",
            "run.lambdas: levels must be positive (got 0)",
            "run.lambdas: levels must be positive (got -1)",
            "run.lambdas: cannot parse 'abc'",
            "family.offset: cannot parse 'x'",
            "family.weights: must sum to 1 (got 0.75)",
        ],
    ),
    "all_keys_unparsable": (
        ALL_KEYS_UNPARSABLE_CFG,
        [
            "system.q: cannot parse '1.5'",
            "system.alpha: cannot parse 'a'",
            "system.samples: cannot parse '2.0'",
            "system.seed: cannot parse '1e3'",
            "run.horizon: cannot parse 'h'",
            "run.grid_size: cannot parse '1e3'",
            "run.prune_eps: cannot parse 'p'",
            "run.b_measure: cannot parse 'b'",
            "run.window_k: cannot parse '5.5'",
            "run.scan_max_denominator: cannot parse 'x'",
            "run.scan_uniform: cannot parse 'y'",
            "run.block_fraction: cannot parse 'f'",
            "run.trig_freq: cannot parse '0.5'",
            "run.trace_state: cannot parse 'z'",
            "run.lambdas: at least one level required",
            "family.weights: could not convert string to float: 'w'",
        ],
    ),
    "bad_family_kind": (
        "[family]\nkind = gauss\n",
        ["family.kind: must be iid, sweepout or list (got 'gauss')"],
    ),
    "bad_a_rule": (
        "[family]\nkind = sweepout\na_rule = cubic\n",
        ["family.a_rule: must be inverse_square or geometric (got 'cubic')"],
    ),
    "bad_coeff": (
        "[family]\nkind = sweepout\ncoeff = 0.5\n",
        ["family.coeff: must be >= 1 (got 0.5)"],
    ),
    "unparsable_coeff": (
        "[family]\nkind = sweepout\na_rule = inverse_square\ncoeff = one\n",
        ["family.coeff: cannot parse 'one'"],
    ),
    "bad_ratio": (
        "[family]\nkind = sweepout\na_rule = geometric\nratio = 1.5\n",
        ["family.ratio: must lie in (0,1) (got 1.5)"],
    ),
    "missing_measures_file": (
        "[family]\nkind = list\n",
        ["family.measures_file: required for kind = list"],
    ),
    "negative_weights": (
        "[family]\nkind = iid\nweights = 1.5,-0.5\n",
        ["family.weights: must be nonnegative"],
    ),
    "empty_weights": (
        "[family]\nkind = iid\nweights = ,\n",
        ["family.weights: empty list"],
    ),
    "unknown_section_and_keys": (
        "[family]\nkind = iid\ncolour = red\n\n[extra]\nx = 1\n\n[run]\nhorizon = 3\nspeed = 9\n",
        ["unknown key family.colour", "unknown section [extra]", "unknown key run.speed"],
    ),
    "missing_family": (
        "[system]\nkind = cyclic\n",
        ["missing section [family]", "family.kind: must be iid, sweepout or list (got '')"],
    ),
    "stray_family_keys": (
        "[family]\nkind = sweepout\na_rule = geometric\ncoeff = 0.5\nweights = x\n",
        [
            "family.weights: not read by kind = sweepout, a_rule = geometric (got 'x')",
            "family.coeff: not read by kind = sweepout, a_rule = geometric (got '0.5')",
        ],
    ),
    "stray_key_of_iid": (
        "[family]\nkind = iid\nratio = 0.5\nmeasures_file =\n",
        ["family.ratio: not read by kind = iid (got '0.5')"],
    ),
    "stray_keys_unchecked_without_a_rule": (
        "[family]\nkind = sweepout\na_rule = cubic\ncoeff = 0.5\nweights = x\n",
        ["family.a_rule: must be inverse_square or geometric (got 'cubic')"],
    ),
    "offset_past_2_53": (
        IID_CFG.replace("offset = -1", "offset = 4611686018427387904").replace("horizon = 12", "horizon = 4"),
        ["family.offset: prefix windows up to n = 4 reach |k| = 18446744073709551624, past 2**53"],
    ),
}


class TestGoldenDiagnostics:
    """Exact diagnostics, in order, and the exact config echo."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_DIAGNOSTICS))
    def test_diagnostics(self, tmp_path, name):
        text, expected = GOLDEN_DIAGNOSTICS[name]
        assert validate_config(write(tmp_path, "a.cfg", text)) == expected

    def test_echo_of_all_defaults(self, tmp_path):
        config = load_config(write(tmp_path, "a.cfg", "[family]\nkind = iid\n"))
        assert config.echo == [
            ("family.kind", "iid"),
            ("system.alpha", "0.41421356237309515"),
            ("system.kind", "cyclic"),
            ("system.q", "1024"),
            ("system.samples", "4096"),
            ("system.seed", "0"),
            ("run.b_measure", "0.05"),
            ("run.block_fraction", "0.125"),
            ("run.grid_size", "4096"),
            ("run.horizon", "64"),
            ("run.lambdas", "1,2,4,8"),
            ("run.prune_eps", "0"),
            ("run.scan_max_denominator", "8"),
            ("run.scan_uniform", "0"),
            ("run.test_function", "point_mass"),
            ("run.trace_state", "0"),
            ("run.trig_freq", "1"),
            ("run.window_k", "50"),
        ]

    def test_echo_of_given_keys(self, tmp_path):
        text = SWEEPOUT_CFG.replace("coeff = 1.0", "coeff = 2") + "out = res\n"
        config = load_config(write(tmp_path, "f.cfg", text))
        assert config.echo == [
            ("family.a_rule", "inverse_square"),
            ("family.coeff", "2"),
            ("family.kind", "sweepout"),
            ("system.alpha", "0.41421356237309515"),
            ("system.kind", "rotation"),
            ("system.q", "1024"),
            ("system.samples", "256"),
            ("system.seed", "1"),
            ("run.b_measure", "0.05"),
            ("run.block_fraction", "0.125"),
            ("run.grid_size", "4096"),
            ("run.horizon", "12"),
            ("run.lambdas", "1,2,4,8"),
            ("run.out", "res"),
            ("run.prune_eps", "0"),
            ("run.scan_max_denominator", "5"),
            ("run.scan_uniform", "0"),
            ("run.test_function", "point_mass"),
            ("run.trace_state", "0"),
            ("run.trig_freq", "1"),
            ("run.window_k", "8"),
        ]


NON_FINITE = {
    "trace_state_nan": (IID_CFG + "trace_state = nan\n", ["run.trace_state: must be finite (got nan)"]),
    "trace_state_inf": (IID_CFG + "trace_state = -inf\n", ["run.trace_state: must be finite (got -inf)"]),
    "weights_nan": (
        IID_CFG.replace("0.25,0.5,0.25", "0.5,nan,0.5"),
        ["family.weights: must be finite (got 0.5,nan,0.5)"],
    ),
    "coeff_inf": (
        SWEEPOUT_CFG.replace("coeff = 1.0", "coeff = inf"),
        ["family.coeff: must be finite (got inf)"],
    ),
    "lambdas_inf": (
        IID_CFG.replace("lambdas = 1,2,4", "lambdas = 1,inf"),
        ["run.lambdas: levels must be finite (got inf)"],
    ),
}


class TestRejections:
    @pytest.mark.parametrize("name", sorted(NON_FINITE))
    def test_non_finite_numbers_are_config_errors(self, tmp_path, name):
        text, expected = NON_FINITE[name]
        path = write(tmp_path, "a.cfg", text)
        assert validate_config(path) == expected
        for subcommand in ("validate", "simulate", "check"):
            assert main([subcommand, "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    def test_cyclic_trace_state_is_taken_mod_q(self, tmp_path):
        def trace_rows(state: str) -> list[str]:
            path = write(tmp_path, "a.cfg", IID_CFG + f"trace_state = {state}\n")
            out = tmp_path / state
            assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_OK
            text = (out / "convergence_trace.csv").read_text()
            return [ln for ln in text.splitlines() if not ln.startswith("#")]

        huge = trace_rows("1e300")
        assert huge == trace_rows(str(int(1e300) % 128))
        assert trace_rows("-1") == trace_rows("127")
        assert trace_rows("130.7") == trace_rows("2")

    @pytest.mark.parametrize("subcommand", ["convolve", "spectrum", "check", "simulate", "sweepout"])
    def test_factor_over_the_cap_is_a_resource_error(self, tmp_path, subcommand):
        # b_1 is about 1e10: the first factor alone would need 75 GiB.  Horizon
        # 2, not 1, because check and simulate need two prefixes.
        cfg = SWEEPOUT_CFG.replace("a_rule = inverse_square\ncoeff = 1.0", "a_rule = geometric\nratio = 1e-10")
        path = write(tmp_path, "g.cfg", cfg.replace("horizon = 12", "horizon = 2"))
        assert validate_config(path) == []
        out = tmp_path / "o"
        assert main([subcommand, "--config", path, "--out", str(out)]) == EXIT_RESOURCE
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("family", ["a_rule = inverse_square\ncoeff = 1e17", "a_rule = geometric\nratio = 1e-200"])
    @pytest.mark.parametrize("subcommand", ["convolve", "spectrum", "check", "simulate", "sweepout"])
    def test_rate_that_rounds_to_one_is_a_resource_error(self, tmp_path, capsys, family, subcommand):
        # a_1 = 1 - 1e-17 and 1 - 1e-200 round to 1.0, so b_1 = floor(1/(1 - a_1))
        # is unbounded: no factor fits under the cap.
        path = write(tmp_path, "r.cfg", SWEEPOUT_CFG.replace("a_rule = inverse_square\ncoeff = 1.0", family))
        assert validate_config(path) == []
        out = tmp_path / "o"
        assert main([subcommand, "--config", path, "--out", str(out)]) == EXIT_RESOURCE
        assert capsys.readouterr().err == "resource cap: a_1 rounds to 1.0, so b_1 exceeds cap 1000000\n"
        assert not out.exists() or not any(out.iterdir())

    def test_negative_seed_is_a_config_error(self, tmp_path, capsys):
        path = write(tmp_path, "s.cfg", SWEEPOUT_CFG.replace("seed = 1", "seed = -1"))
        assert validate_config(path) == ["system.seed: must be >= 0 (got -1)"]
        for subcommand in ("simulate", "sweepout"):
            out = tmp_path / subcommand
            assert main([subcommand, "--config", path, "--out", str(out)]) == EXIT_CONFIG
            assert capsys.readouterr().err == "system.seed: must be >= 0 (got -1)\n"
            assert not out.exists()
        with pytest.raises(ValueError, match="seed"):
            DynSystem.rotation(seed=-1)

    def test_test_function_zero_on_every_state_exits_before_any_averaging(self, tmp_path, capsys, monkeypatch):
        # Three states, (i + 0.637) / 3, and none in the block [0, 0.125).
        import convergence_lab.cli as cli_mod

        def no_averaging(*args, **kwargs):
            raise AssertionError("the averages ran before f was checked")

        monkeypatch.setattr(cli_mod, "_averages_pass", no_averaging)
        system = "[system]\nkind = rotation\nsamples = 3\nalpha = 0.5\nseed = 0\n"
        path = write(tmp_path, "z.cfg", f"[family]\nkind = iid\n\n{system}\n[run]\ntest_function = block\n")
        message = "run.test_function: block has zero l1 norm over the system's states"
        assert validate_config(path) == [message]
        out = tmp_path / "o"
        assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()
        # The point mass on the same states holds the first of them.
        assert validate_config(write(tmp_path, "p.cfg", f"[family]\nkind = iid\n\n{system}")) == []

    @pytest.mark.parametrize(
        "subcommand, base, key, value",
        [
            ("check", IID_CFG, "grid_size = 128", "grid_size = 1125899906842624"),
            ("spectrum", IID_CFG, "grid_size = 128", "grid_size = 1125899906842624"),
            ("simulate", IID_CFG, "q = 128", "q = 1000000000000000"),
        ],
        ids=["check-grid", "spectrum-grid", "simulate-q"],
    )
    def test_arrays_too_large_to_allocate_are_resource_errors(self, tmp_path, capsys, subcommand, base, key, value):
        # Each config asks numpy for one array of petabytes, past any address
        # space, so the allocation fails at once under every overcommit policy.
        path = write(tmp_path, "big.cfg", base.replace(key, value))
        assert validate_config(path) == []
        out = tmp_path / "o"
        assert main([subcommand, "--config", path, "--out", str(out)]) == EXIT_RESOURCE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("resource cap: ")
        assert not out.exists() or not any(out.iterdir())

    def test_window_past_every_prefix_is_no_resource_error(self, tmp_path):
        # The rows read the prefixes' own weights, so a window of 2 * 10^15 + 1
        # sites gives the rows of any window that holds every prefix.
        rows = {}
        for k in ("1000", "1000000000000000"):
            path = write(tmp_path, f"w{k}.cfg", SWEEPOUT_CFG.replace("window_k = 8", f"window_k = {k}"))
            assert main(["sweepout", "--config", path, "--out", str(tmp_path / k)]) == EXIT_OK
            text = (tmp_path / k / "dissipativity.csv").read_text()
            rows[k] = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert len(rows["1000"]) == 13 and rows["1000"] == rows["1000000000000000"]

    def test_floor_scan_over_the_cap_exits_before_any_work(self, tmp_path, capsys, monkeypatch):
        # Q = 100000 would enumerate 10^10 fractions; the count is refused
        # before the enumeration, and before the simulation is started.
        import convergence_lab.cli as cli_mod

        def no_simulation(*args, **kwargs):
            raise AssertionError("the simulation ran before the scan was checked")

        monkeypatch.setattr(cli_mod, "sweepout_simulation", no_simulation)
        path = write(tmp_path, "s.cfg", SWEEPOUT_CFG.replace("scan_max_denominator = 5", "scan_max_denominator = 100000"))
        out = tmp_path / "o"
        assert main(["sweepout", "--config", path, "--out", str(out)]) == EXIT_RESOURCE
        assert capsys.readouterr().err == (
            "resource cap: floor scan of 10000200000 candidates and 0 uniform points exceeds cap 1000000\n"
        )
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("config", ["stray_family_keys", "offset_past_2_53"])
    def test_every_subcommand_rejects(self, tmp_path, config):
        path = write(tmp_path, "a.cfg", GOLDEN_DIAGNOSTICS[config][0])
        for subcommand in ("validate", "convolve", "spectrum", "check", "simulate", "sweepout"):
            assert main([subcommand, "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind, key", [("iid", "offset"), ("list", "measures_file")])
    def test_prefix_sites_may_reach_2_53_but_not_past(self, tmp_path, kind, key):
        # Factors at 2**52: the second prefix reaches 2**53, the third 3 * 2**52.
        (tmp_path / "m.txt").write_text("offset 4503599627370496\n1.0\n\n" * 3)
        family = {
            "iid": "kind = iid\nweights = 1\noffset = 4503599627370496\n",
            "list": "kind = list\nmeasures_file = m.txt\n",
        }[kind]

        def diagnostics(horizon: int) -> list[str]:
            return validate_config(write(tmp_path, "a.cfg", f"[family]\n{family}\n[run]\nhorizon = {horizon}\n"))

        assert diagnostics(2) == []
        assert diagnostics(3) == [f"family.{key}: prefix windows up to n = 3 reach |k| = {3 * 2**52}, past 2**53"]

    def test_every_list_prefix_counts_toward_the_reach(self, tmp_path):
        # mu_1 sits at 2**53 + 1, and mu_2 back at 0.
        (tmp_path / "m.txt").write_text("offset 9007199254740993\n1.0\n\noffset -9007199254740993\n1.0\n")
        path = write(tmp_path, "a.cfg", "[family]\nkind = list\nmeasures_file = m.txt\n\n[run]\nhorizon = 2\n")
        assert validate_config(path) == [
            "family.measures_file: prefix windows up to n = 2 reach |k| = 9007199254740993, past 2**53"
        ]

    @pytest.mark.parametrize(
        "subcommand, code",
        [
            ("convolve", EXIT_OK),
            ("spectrum", EXIT_OK),
            ("sweepout", EXIT_OK),
            ("check", EXIT_CONFIG),
            ("simulate", EXIT_CONFIG),
        ],
    )
    def test_horizon_one(self, tmp_path, capsys, subcommand, code):
        # check and simulate need two prefixes; the other subcommands run on one.
        path = write(tmp_path, "a.cfg", "[family]\nkind = iid\n\n[run]\nhorizon = 1\n")
        assert validate_config(path) == []
        out = tmp_path / "o"
        assert main([subcommand, "--config", path, "--out", str(out)]) == code
        if code == EXIT_CONFIG:
            assert capsys.readouterr().err == f"run.horizon: must be >= 2 for {subcommand} (got 1)\n"
            assert not out.exists()
        else:
            assert any(out.iterdir())


def test_cli_import_loads_no_fractions_or_decimal():
    code = "import sys, convergence_lab.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([PYTHON, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_readme_config_block_lists_every_key(tmp_path):
    from convergence_lab.cli import _KEYS

    text = README.read_text()
    start = text.index("```ini\n", text.index("Config files are")) + len("```ini\n")
    block = text[start : text.index("```", start)]
    parsed = configparser.ConfigParser(interpolation=None)
    # Keys that the block's own kind does not read are comment lines "; key = value".
    parsed.read_string(re.sub(r"^; (\w+ = )", r"\1", block, flags=re.M))
    assert {(s, k) for s in parsed.sections() for k in parsed[s]} == set(_KEYS)
    for (section, key), entry in _KEYS.items():
        if entry.default:
            assert parsed[section][key] == entry.default, (section, key)
    assert validate_config(write(tmp_path, "readme.cfg", block)) == []


def test_rotation_sweepout_imports_no_numpy_random(tmp_path):
    # The rotation's state offset is numpy's first double, drawn without
    # numpy.random; a bare import loads neither it nor numpy.fft.
    path = write(
        tmp_path,
        "a.cfg",
        "[family]\nkind = sweepout\na_rule = inverse_square\n\n"
        "[system]\nkind = rotation\nsamples = 64\nseed = 1\n\n[run]\nhorizon = 8\n",
    )
    code = (
        "import sys, convergence_lab.cli as cli\n"
        "print(sorted({'numpy.random', 'numpy.fft'} & set(sys.modules)))\n"
        f"code = cli.main(['sweepout', '--config', {path!r}, '--out', {str(tmp_path / 'o')!r}])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([PYTHON, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == f"[]\n{EXIT_OK} False\n"
    assert (tmp_path / "o" / "sweepout_simulation.csv").exists()


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_chain_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    # Every product of the chain sums in the order the shifted adds fix, so
    # the prefixes, the dissipativity rows and the sweep-out extrema of a
    # 40-atom step are the same bytes under each OpenBLAS kernel.
    # floor_scan.csv is left out: fourier_at's matrix product still takes
    # its last bits from the kernel, and moves under Prescott.
    weights = np.exp(-0.5 * (np.arange(-20, 20) / 6.0) ** 2)
    weights /= weights.sum()
    path = write(
        tmp_path,
        "a.cfg",
        f"[family]\nkind = iid\nweights = {','.join(map(repr, weights.tolist()))}\noffset = -20\n\n"
        f"[system]\n{ROTATION}\n\n[run]\nhorizon = 6\nwindow_k = 8\n",
    )
    names = ("prefixes.csv", "dissipativity.csv", "sweepout_simulation.csv")
    outputs = {}
    for core in ("", "Haswell", "Prescott"):
        out = tmp_path / (core or "default")
        code = (
            "import convergence_lab.cli as cli\n"
            "for sub in ('convolve', 'sweepout'):\n"
            f"    assert cli.main([sub, '--config', {path!r}, '--out', {str(out)!r}]) == 0\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        if core:
            env["OPENBLAS_CORETYPE"] = core
        subprocess.run([PYTHON, "-c", code], env=env, capture_output=True, check=True)
        outputs[core] = [(out / name).read_bytes() for name in names]
    for core in ("Haswell", "Prescott"):
        assert [n for n, a, b in zip(names, outputs[""], outputs[core]) if a != b] == [], core
