from pathlib import Path

import pytest

from convergence_lab import convolve_prefixes
from convergence_lab.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RESOURCE,
    load_config,
    main,
    validate_config,
)

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


def write(tmp_path: Path, name: str, text: str) -> str:
    p = tmp_path / name
    p.write_text(text)
    return str(p)


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
        assert cfg.spec.is_iid
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
        # The maximal function never forms mu_n, but the other results of the
        # same run do: a cap hit must leave the output directory empty.
        cfg = SWEEPOUT_CFG.replace("a_rule = inverse_square\ncoeff = 1.0", "a_rule = geometric\nratio = 0.5")
        cfg = cfg.replace("kind = rotation\nsamples = 256\nseed = 1", "kind = cyclic\nq = 64")
        cfg = cfg.replace("horizon = 12", "horizon = 25")
        path = write(tmp_path, "g.cfg", cfg)
        out = tmp_path / "o"
        assert main([subcommand, "--config", path, "--out", str(out)]) == EXIT_RESOURCE
        assert not out.exists() or not any(out.iterdir())

    def test_sweepout_builds_one_prefix_chain(self, tmp_path, monkeypatch):
        import convergence_lab.measures as measures_mod

        calls = []
        convolve = measures_mod.convolve
        monkeypatch.setattr(measures_mod, "convolve", lambda *a: calls.append(1) or convolve(*a))
        path = write(tmp_path, "f.cfg", SWEEPOUT_CFG)
        assert main(["sweepout", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_OK
        assert len(calls) == 12 - 1

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
