"""Command line behavior: exit codes, output formats, determinism."""
import importlib.metadata
import importlib.util
import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from crouzeix_lab import cli

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
HAVE_TOMLLIB = importlib.util.find_spec("tomllib") is not None


def _distribution_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def console_script(name):
    """The `name` entry of `[project.scripts]`, as an EntryPoint.

    Read from this checkout's pyproject.toml; where `tomllib` is missing
    (Python 3.10), read from the installed distribution's metadata instead.
    """
    if HAVE_TOMLLIB:
        import tomllib
        with PYPROJECT.open("rb") as f:
            value = tomllib.load(f)["project"]["scripts"][name]
        return importlib.metadata.EntryPoint(name=name, value=value,
                                             group="console_scripts")
    return importlib.metadata.entry_points(group="console_scripts")[name]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_in_domain(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--rho", "2", "--r", "1")
        d = json.loads(out)
        assert code == 0
        assert d["region"] == "LargeRhoR"
        assert d["verdict"] is True

    def test_strip_point(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--rho", "10", "--r", "0.76")
        assert code == 0
        assert json.loads(out)["region"] == "Strip"

    def test_out_of_domain_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--rho", "0.5", "--r", "1")
        assert code == 2

    def test_parse_error_exit_4(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--rho", "abc", "--r", "1")
        assert code == 4

    @pytest.mark.parametrize("rho", ["inf", "1e308"])
    def test_non_finite_rho_exit_2(self, capsys, rho):
        code, out, err = run_cli(capsys, "verify", "--rho", rho, "--r", "1")
        assert code == 2
        assert out == ""
        assert "rho" in err

    def test_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--rho", "3.7", "--r", "0.9")
        _, out2, _ = run_cli(capsys, "verify", "--rho", "3.7", "--r", "0.9")
        assert out1 == out2

    def test_seventeen_digit_numbers_roundtrip(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--rho", "3.7", "--r", "0.9")
        d = json.loads(out)
        # printed decimal strings reparse to the exact binary values
        assert float(repr(d["product"])) == d["product"]
        assert float(repr(d["kappa"])) == d["kappa"]


class TestSweep:
    def test_csv_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--rho", "1", "20", "12",
                               "--r", "auto", "--workers", "1")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "rho,r,region,kappa,norm_sq,c_upper,product,verdict"
        assert len(lines) == 1 + 12 * 12
        assert all(line.endswith(",true") for line in lines[1:])

    def test_json_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, _, _ = run_cli(capsys, "sweep", "--rho", "1", "20", "6",
                             "--format", "json", "--out", str(path))
        assert code == 0
        arr = json.loads(path.read_text())
        assert isinstance(arr, list) and len(arr) == 36
        assert all("region" in rec and "X" in rec for rec in arr)
        first = path.read_bytes()
        run_cli(capsys, "sweep", "--rho", "1", "20", "6", "--format", "json",
                "--out", str(path))
        assert path.read_bytes() == first

    def test_out_of_domain_rows_exit_1(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--rho", "1.1", "1.2", "2",
                               "--r", "0.3", "0.5", "2")
        assert code == 1
        assert "OutOfDomain" in out

    def test_single_point_range(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--rho", "2", "2", "1", "--r", "1", "1", "1")
        lines = out.strip().split("\n")
        assert code == 0
        assert len(lines) == 2

    def test_workers_env_identical(self, capsys, monkeypatch):
        code1, out_serial, _ = run_cli(capsys, "sweep", "--rho", "1", "10", "5")
        monkeypatch.setenv("CROUZEIX_LAB_WORKERS", "2")
        code2, out_parallel, _ = run_cli(capsys, "sweep", "--rho", "1", "10", "5")
        assert code1 == code2 == 0
        assert out_serial == out_parallel

    def test_bad_nargs_exit_4(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--rho", "1", "20")
        assert code == 4

    def test_inverted_range_exit_4(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--rho", "20", "1", "5")
        assert code == 4

    def test_io_error_exit_3(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--rho", "1", "2", "2",
                             "--out", "/nonexistent-dir/x.csv")
        assert code == 3


class TestFigures:
    def test_regions_csv(self, capsys):
        code, out, _ = run_cli(capsys, "figures", "--which", "regions", "--grid", "40")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "curve,rho,r"
        rows = [line.split(",") for line in lines[1:]]
        curves = {c for c, _, _ in rows}
        assert curves == {"r_min", "r1", "r3", "strip_rho10", "strip_r075", "strip_r077"}
        r3_rows = [(float(a), float(b)) for c, a, b in rows if c == "r3"]
        assert r3_rows and all(1 < rho <= 2 for rho, _ in r3_rows)
        r1_vals = [float(b) for c, a, b in rows if c == "r1"]
        assert all(y > x for x, y in zip(r1_vals, r1_vals[1:]))

    def test_figure2_json(self, capsys):
        code, out, _ = run_cli(capsys, "figures", "--which", "figure2",
                               "--grid", "50", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert max(row["value"] for row in data) <= 1.0 + 1e-9
        assert abs(data[-1]["rho"] - 10.0) < 1e-9

    def test_bad_grid_exit_4(self, capsys):
        code, _, _ = run_cli(capsys, "figures", "--which", "figure2", "--grid", "1")
        assert code == 4


class TestReplay:
    def test_all_chains_pass(self, capsys):
        code, out, _ = run_cli(capsys, "replay")
        rep = json.loads(out)
        assert code == 0
        assert all(v["pass"] for v in rep.values())


class TestRatio:
    def test_search(self, capsys):
        code, out, _ = run_cli(capsys, "ratio", "--rho", "2", "--r", "1",
                               "--degree", "6", "--budget", "200", "--seed", "7")
        res = json.loads(out)
        assert code == 0
        assert 1.0 <= res["best_ratio"] <= 2.0 + 1e-6
        assert res["seed"] == 7

    def test_byte_identical(self, capsys):
        args = ("ratio", "--rho", "2", "--r", "1", "--degree", "5", "--budget", "80", "--seed", "7")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_bad_domain_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "ratio", "--rho", "0.5", "--r", "1")
        assert code == 2

    @pytest.mark.parametrize("rho", ["inf", "1e308"])
    def test_non_finite_rho_exit_2_before_searching(self, capsys, rho):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "ratio", "--rho", rho, "--r", "1")
        assert code == 2
        assert out == ""
        assert "rho" in err


class TestPerm:
    def test_three_cycle(self, capsys):
        code, out, _ = run_cli(capsys, "perm", "--a", "0", "--diag", "1,2,3",
                               "--perm", "(0 1 2)")
        rep = json.loads(out)
        assert code == 0
        assert rep["passed"] is True
        assert rep["block_sizes"] == [3]

    def test_complex_shift(self, capsys):
        code, out, _ = run_cli(capsys, "perm", "--a", "1+1j", "--diag", "1,2j,-0.5,1",
                               "--perm", "(0 1)(2 3)")
        assert code == 0
        assert json.loads(out)["shift_checked"] is True

    def test_bad_a_exit_4(self, capsys):
        code, _, _ = run_cli(capsys, "perm", "--a", "x", "--diag", "1,2,3",
                             "--perm", "(0 1 2)")
        assert code == 4

    def test_bad_cycle_exit_4(self, capsys):
        code, _, _ = run_cli(capsys, "perm", "--a", "0", "--diag", "1,2,3",
                             "--perm", "(0 9)")
        assert code == 4

    @pytest.mark.parametrize("flags, message", [
        (("--degree", "13"), "degree 13"),
        (("--degree", "-1"), "degree -1"),
        (("--budget", "0"), "budget"),
    ])
    def test_bad_search_settings_exit_2(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "perm", "--a", "0", "--diag", "1,2,3",
                                 "--perm", "(0 1 2)", *flags)
        assert code == 2
        assert out == ""
        assert message in err


class TestEntryPoints:
    def test_unknown_subcommand_exit_4(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 4

    def test_module_invocation(self):
        p = subprocess.run([sys.executable, "-m", "crouzeix_lab.cli",
                            "verify", "--rho", "2", "--r", "1"],
                           capture_output=True, text=True)
        assert p.returncode == 0
        assert json.loads(p.stdout)["verdict"] is True

    @pytest.mark.skipif(
        not HAVE_TOMLLIB and not _distribution_installed("crouzeix-lab"),
        reason="no tomllib to read pyproject.toml and no installed "
               "crouzeix-lab distribution to read the entry point from")
    def test_console_script(self):
        # Run the declared [project.scripts] target the way the wrapper that
        # an install puts on PATH runs it, so no install is needed.
        ep = console_script("crouzeix-lab")
        wrapper = (f"import sys\n"
                   f"from {ep.module} import {ep.attr.split('.')[0]}\n"
                   f"sys.argv[0] = {ep.name!r}\n"
                   f"sys.exit({ep.attr}())\n")
        p = subprocess.run([sys.executable, "-c", wrapper,
                            "verify", "--rho", "2", "--r", "1"],
                           capture_output=True, text=True)
        assert p.returncode == 0
        assert json.loads(p.stdout)["verdict"] is True
