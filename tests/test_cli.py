"""Command line behavior: exit codes, output formats, determinism."""
import importlib.metadata
import importlib.util
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from crouzeix_lab import cli
from crouzeix_lab.region_certifier import SweepTable, certify_points, sweep_table

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

    def test_non_finite_rho_at_small_r_exit_2(self, capsys):
        # classify rules rho = inf out of the domain before r1 sees it
        code, out, err = run_cli(capsys, "verify", "--rho", "inf", "--r", "0.5")
        assert code == 2
        assert out == ""
        assert "admissible domain" in err

    @pytest.mark.parametrize("rho", ["1e77", "1e100", "1e150"])
    def test_huge_rho_certifies(self, capsys, rho):
        # rho**4 overflows above about 1.16e77, where 1 + 4/rho^4 is 1 anyway
        code, out, err = run_cli(capsys, "verify", "--rho", rho, "--r", "0.9")
        d = json.loads(out)
        assert (code, err) == (0, "")
        assert d["verdict"] is True and d["c_upper"] == 2.0 / float(rho)
        assert abs(d["product"] - 0.99671) < 1e-5

    def test_rho_overflowing_psi_exit_2(self, capsys):
        # y^2 is finite at 1.3e154 but psi's 10 y^2 is not
        code, out, err = run_cli(capsys, "verify", "--rho", "1.3e154", "--r", "0.9")
        assert code == 2
        assert out == ""
        assert "rho=1.3e+154" in err

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

    def test_non_finite_rho_rows_are_out_of_domain(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--rho", "2", "inf", "2", "--r", "0.5", "1", "2", "--workers", "1")
        assert code == 1
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [row[:3] for row in rows] == [["inf", "0.75", "OutOfDomain"], ["inf", "1", "OutOfDomain"]] * 2

    def test_overflowing_points_are_uncertified_not_off_domain(self, capsys):
        # every point is admissible, but q^2 overflows at rho near 1.7e308
        argv = ("sweep", "--rho", "1e76", "1.7e308", "4", "--r", "0.05", "1", "4", "--workers", "1")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 16
        assert len({row[0] for row in rows}) == 4
        assert {row[2] for row in rows} == {"Uncertified"}
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 1
        assert all("overflows" in rec["failure_reason"] for rec in json.loads(out))

    @pytest.mark.parametrize("rho", [("-1", "0", "2"), ("-3", "2", "2"), ("0", "1", "2")])
    def test_rows_with_rho_at_most_zero_are_empty(self, capsys, rho):
        # no row with rho <= 1 has an admissible r, nor a finite edge 1/sqrt(rho) if rho <= 0
        code, out, err = run_cli(capsys, "sweep", "--rho", *rho, "--r", "auto", "--workers", "1")
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [row[0] for row in rows] == (["2", "2"] if rho[1] == "2" else [])
        assert not any("nan" in cell for row in rows for cell in row)

    def test_single_point_range(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--rho", "2", "2", "1", "--r", "1", "1", "1")
        lines = out.strip().split("\n")
        assert code == 0
        assert len(lines) == 2

    def test_workers_identical(self, capsys):
        argv = ("sweep", "--rho", "1", "10", "5")
        runs = [run_cli(capsys, *argv, *workers) for workers in ((), ("--workers", "1"), ("--workers", "2"))]
        assert [code for code, _, _ in runs] == [0, 0, 0]
        assert runs[0][1] == runs[1][1] == runs[2][1]

    def test_negative_workers_exit_4(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--rho", "1", "10", "5", "--workers", "-1")
        assert code == 4
        assert out == ""
        assert err == "--workers must not be negative, got -1\n"

    def test_sweep_starts_no_process(self, capsys, monkeypatch):
        import multiprocessing.process

        def refuse(self):
            raise AssertionError("the sweep started a process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        code, out, _ = run_cli(capsys, "sweep", "--rho", "1", "10", "5", "--workers", "2")
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 5 * 5

    @pytest.mark.parametrize("argv, regions", [
        (("--rho", "1.1", "1.2", "2", "--r", "0.5", "1", "2"), {"Diagonalizable", "OutOfDomain"}),
        (("--rho", "1e76", "1.7e308", "2"), {"Uncertified"}),
    ])
    def test_records_share_the_certificate_key_order(self, capsys, argv, regions):
        _, out, _ = run_cli(capsys, "sweep", *argv, "--format", "json")
        records = json.loads(out)
        assert {rec["region"] for rec in records} == regions
        keys = list(cli.certify(2.0, 1.0).to_json())
        assert all(list(rec) == keys for rec in records)

    def test_json_rows_parse_back_to_the_records(self):
        table = certify_points(np.array([2.0, 7.3, 1.2, 20.0, 1e300, 1.1]), np.array([1.0, 0.8, 0.95, 0.5, 0.5, 0.3]))
        assert table.region[-2:] == ["Uncertified", "OutOfDomain"]
        text = cli._sweep_text(table, "json")
        assert json.loads(text) == table.records()
        # every float prints as _fmt prints it, so the text is _dump's
        numbers = re.findall(r"(?<=: )-?[0-9][^,}]*", text)
        assert len(numbers) == 6 * 7 + 4 * 5 and all(n == cli._fmt(float(n)) for n in numbers)
        assert text == cli._dump(table.records()) + "\n"

    @pytest.mark.parametrize("value", [np.True_, np.int64(3), np.float32(0.5), 1j])
    def test_dump_refuses_what_is_not_plain_json(self, value):
        # plain() turns numpy scalars into Python ones before anything is written
        with pytest.raises(TypeError):
            cli._dump([value])

    def test_bad_nargs_exit_4(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--rho", "1", "20")
        assert code == 4

    def test_inverted_range_exit_4(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--rho", "20", "1", "5")
        assert code == 4

    @pytest.mark.parametrize("argv, message", [
        (("--rho", "1", "2", "3", "--r", "0.5", "1"), "--r takes three values"),
        (("--rho", "a", "b", "3"), "cannot parse --rho range"),
    ])
    def test_unreadable_range_exit_4(self, capsys, argv, message):
        code, _, err = run_cli(capsys, "sweep", *argv)
        assert code == 4 and message in err

    def test_io_error_exit_3(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--rho", "1", "2", "2",
                             "--out", "/nonexistent-dir/x.csv")
        assert code == 3


def reference_csv(table) -> str:
    """The sweep CSV written row by row, every float through format(x, ".17g")."""
    lines = ["rho,r,region,kappa,norm_sq,c_upper,product,verdict"]
    for i in range(table.rho.size):
        rho, r, kappa, norm_sq, c_up, product = (
            format(col.item(i), ".17g") for col in (table.rho, table.r, table.kappa, table.norm_sq_upper,
                                                    table.c_upper, table.product))
        verdict = "true" if table.verdict[i] else "false"
        lines.append(f"{rho},{r},{table.region[i]},{kappa},{norm_sq},{c_up},{product},{verdict}")
    return "\n".join(lines) + "\n"


def hand_table(rows) -> SweepTable:
    """A SweepTable from (rho, r, region, kappa, norm_sq, c_upper, product, verdict) rows."""
    cols = list(zip(*rows)) or [()] * 8
    rho, r, kappa, norm_sq, c_up, product = (np.array(cols[j], dtype=float) for j in (0, 1, 3, 4, 5, 6))
    n = rho.size
    return SweepTable(rho, r, list(cols[2]), tuple(np.zeros(n) for _ in range(5)), kappa, norm_sq, c_up,
                      product, np.array(cols[7], dtype=bool), [""] * n)


_SPECIAL = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
            1.7976931348623157e308, 2.0, np.nextafter(2.0, 0.0).item())


class TestSweepCsvWriter:
    """_sweep_text's CSV against a row-by-row writer, byte for byte."""

    @pytest.mark.parametrize("rows", [
        [],
        [(2.0, 1.0, "LargeRhoR", 2.0, 1.5, 0.7, 1.0, True)],
        [(x, x, "SmallR", x, x, x, x, True) for x in (0.0, -0.0, 0.0, -0.0)],
        [(x, y, "Strip", x, y, x, y, False) for x in _SPECIAL for y in _SPECIAL[::-1]],
        [(3.0, 0.2, "OutOfDomain", 0.0, 0.0, 0.0, 0.0, False),
         (1e300, 0.5, "Uncertified", 0.0, 0.0, 0.0, 0.0, False),
         (3.0, 0.9, "Diagonalizable", 1.25, 1.5, 0.5, 0.75, True)],
    ], ids=["empty", "one row", "signed zeros", "special values", "uncertified and out of domain"])
    def test_hand_built_tables(self, rows):
        table = hand_table(rows)
        assert cli._sweep_text(table, "csv") == reference_csv(table)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(19).integers(-2**63, 2**63 - 1, size=(6, 3000), dtype=np.int64)
        # a few values per repeated column, as on a sweep grid, beside all-distinct ones
        bits[3] = bits[3, np.arange(3000) % 7]
        rows = [(rho, r, "SmallR", kappa, norm_sq, c_up, product, True)
                for rho, r, kappa, norm_sq, c_up, product in zip(*bits.view(np.float64).tolist())]
        table = hand_table(rows)
        assert cli._sweep_text(table, "csv") == reference_csv(table)

    @pytest.mark.parametrize("lo", np.random.default_rng(2019).uniform(1.05, 48.0, 5).tolist())
    def test_plane_bands(self, lo):
        table = sweep_table((lo, lo + 2.0, 24), (None, 1.0, 24))
        assert table.rho.size == 24 * 24
        assert cli._sweep_text(table, "csv") == reference_csv(table)


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

    @pytest.mark.parametrize("which, grid", [("regions", "1"), ("regions", "17"), ("figure2", "2"), ("figure2", "33")])
    def test_csv_and_json_carry_the_same_rows(self, capsys, which, grid):
        # one writer: the CSV header is the JSON rows' keys, each cell the JSON string or _fmt of the JSON float
        code_csv, csv_out, _ = run_cli(capsys, "figures", "--which", which, "--grid", grid)
        code_json, json_out, _ = run_cli(capsys, "figures", "--which", which, "--grid", grid, "--format", "json")
        assert code_csv == code_json == 0
        rows = json.loads(json_out)
        header, *lines = csv_out.splitlines()
        assert header.split(",") == list(rows[0])
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            assert list(row) == list(rows[0])
            assert line.split(",") == [v if isinstance(v, str) else cli._fmt(v) for v in row.values()]

    @pytest.mark.parametrize("which, grid", [("figure2", "1"), ("regions", "0"), ("regions", "-3")])
    def test_bad_grid_exit_4(self, capsys, which, grid):
        code, out, _ = run_cli(capsys, "figures", "--which", which, "--grid", grid)
        assert code == 4
        assert out == ""


# `replay` takes no arguments, so its stdout is one fixed text, float for float
REPLAY_STDOUT = (
    '{"q_chain": {"pass": true, "worst_margin": -35.591354770556791, "worst_point": [4]}, '
    '"strip_P": {"pass": true, "worst_margin": 0.029295751323274999, "worst_point": [2.2795000000000001, 10]}, '
    '"p1_p2_p3_chain": {"pass": true, "worst_margin": 1.5625, "worst_point": [0.5]}, '
    '"p4_p5_chain": {"pass": true, "worst_margin": -0.0031380094473349995, "worst_point": [0.5714285714285714]}, '
    '"p6_p7": {"pass": true, "worst_margin": 0.0003483660103271724, "worst_point": [0.5714285714285714]}, '
    '"p8_p9_chain": {"pass": true, "worst_margin": -0.53657057989991586, "worst_point": [0.5714285714285714]}, '
    '"B_sign": {"pass": true, "worst_margin": -0.33827405694702506, "worst_point": [2.5]}, '
    '"F_sign": {"pass": true, "worst_margin": -0.00014693061531204421, "worst_point": [2.96]}, '
    '"Q_sign": {"pass": true, "worst_margin": -3857.1365930323664, "worst_point": [10]}, '
    '"H_table": {"pass": true, "worst_margin": -274.12293545002467, "worst_point": [12, 14]}}\n'
)


class TestReplay:
    def test_all_chains_pass(self, capsys):
        code, out, _ = run_cli(capsys, "replay")
        rep = json.loads(out)
        assert code == 0
        assert all(v["pass"] for v in rep.values())

    def test_stdout_is_byte_for_byte_golden(self, capsys):
        code, out, err = run_cli(capsys, "replay")
        assert (code, out, err) == (0, REPLAY_STDOUT, "")


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

    def test_negative_seed_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "ratio", "--rho", "2", "--r", "1", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "seed -1" in err

    @pytest.mark.parametrize("rho, r, budget", [("1e26", "0.9", "40"), ("1e100", "0.5", "60")])
    def test_rho_above_the_power_ceiling_exit_2(self, capsys, rho, r, budget):
        code, out, err = run_cli(capsys, "ratio", "--rho", rho, "--r", r, "--degree", "12", "--budget", budget)
        assert code == 2
        assert out == ""
        assert f"rho = {float(rho):g} too large at degree 12" in err


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

    def test_empty_diagonal_exit_4(self, capsys):
        code, _, err = run_cli(capsys, "perm", "--diag", ",")
        assert code == 4 and "empty diagonal" in err

    def test_bad_cycle_exit_4(self, capsys):
        code, _, _ = run_cli(capsys, "perm", "--a", "0", "--diag", "1,2,3",
                             "--perm", "(0 9)")
        assert code == 4

    @pytest.mark.parametrize("flags, message", [
        (("--degree", "13"), "degree 13"),
        (("--degree", "-1"), "degree -1"),
        (("--budget", "0"), "budget"),
        (("--seed", "-3"), "seed -3"),
    ])
    def test_bad_search_settings_exit_2(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "perm", "--a", "0", "--diag", "1,2,3",
                                 "--perm", "(0 1 2)", *flags)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("a, diag, message", [
        ("nan", "1,2", "a ="),
        ("0", "1,nan", "diagonal"),
    ])
    def test_non_finite_input_exit_2(self, capsys, a, diag, message):
        code, out, err = run_cli(capsys, "perm", "--a", a, "--diag", diag, "--perm", "(0 1)")
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("a, diag, perm", [
        ("0", "1e200,1", "(0 1)"),
        ("1e308", "1,1", "()"),
    ])
    def test_huge_input_exit_2(self, capsys, a, diag, perm):
        # finite entries whose powers overflow p(A) are out of domain, not a failed check
        code, out, err = run_cli(capsys, "perm", "--a", a, "--diag", diag, "--perm", perm)
        assert code == 2
        assert out == ""
        assert "|a| + max|d_i|" in err

    def test_large_input_still_runs(self, capsys):
        code, out, _ = run_cli(capsys, "perm", "--a", "0", "--diag", "1e10,1", "--perm", "(0 1)")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_large_diagonal_passes_inclusion(self, capsys):
        # the support functions round by about eps * 1e8 here, far above 1e-9
        code, out, _ = run_cli(capsys, "perm", "--a", "0", "--diag", "1e8,1,1", "--perm", "(0 1 2)")
        rep = json.loads(out)
        assert code == 0
        assert rep["inclusion_ok"] is True
        assert rep["passed"] is True


class TestEntryPoints:
    def test_unknown_subcommand_exit_4(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 4

    def test_import_loads_no_polynomial_module(self):
        # numpy.polynomial costs milliseconds to import; the package reaches
        # it only at call time, so startup pays nothing beyond `import numpy`
        code = ("import sys, numpy\n"
                "before = set(sys.modules)\n"
                "import crouzeix_lab\n"
                "print(sorted(m for m in set(sys.modules) - before if m.startswith('numpy.polynomial')))\n")
        p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert p.returncode == 0, p.stderr
        assert p.stdout == "[]\n"

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
