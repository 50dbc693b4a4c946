"""tools/bit_identity.py --diff: float drift passes, anything else is a mismatch."""
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bit_identity.py"


@pytest.fixture(scope="module")
def bit_identity():
    spec = importlib.util.spec_from_file_location("bit_identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _diff(bit_identity, tmp_path, old_csv, new_csv):
    paths = []
    for name, text in (("old", old_csv), ("new", new_csv)):
        path = tmp_path / f"{name}.txt"
        path.write_text("cli figures --which regions\t" + json.dumps([0, text]) + "\n")
        paths.append(str(path))
    return bit_identity.diff(*paths)


OLD = "curve,rho,r\nr_min,2.5,0.63245553203367588\nr1,2.5,0.73303099834937502\n"


def test_float_cells_drift_per_column(bit_identity, tmp_path, capsys):
    new = OLD.replace("0.73303099834937502", "0.73303099834937513")
    assert _diff(bit_identity, tmp_path, OLD, new) == 0
    out = capsys.readouterr().out
    assert "drift cli figures [][].r: abs 1.11e-16" in out
    assert "0 non-float mismatches" in out


@pytest.mark.parametrize("new, what", [
    (OLD.replace("curve,rho,r", "curve,r,rho"), "keys"),
    (OLD.replace("r1,", "r3,"), "'r1' != 'r3'"),
    (OLD + "r1,3,0.75\n", "length 2 != 3"),
])
def test_header_rows_and_text_cells_must_match(bit_identity, tmp_path, capsys, new, what):
    assert _diff(bit_identity, tmp_path, OLD, new) == 1
    assert what in capsys.readouterr().out


@pytest.mark.parametrize("label, group", [
    ("max_abs_poly chebyshev 11", "max_abs_poly chebyshev"),
    ("max_abs_poly search 3", "max_abs_poly search"),
    ("max_abs_poly scaled 1e-320 4", "max_abs_poly scaled"),
    ("max_abs_poly m=8 5", "max_abs_poly m=8"),
    ("criterion6 12", "criterion6"),
    ("domain edge 3", "domain edge"),
    ("cli sweep --rho 1 50 40 --r auto", "cli sweep"),
    ("cli replay", "cli replay"),
])
def test_drift_groups_are_label_kinds(bit_identity, label, group):
    assert bit_identity._group(label) == group


@pytest.mark.skipif(not (TOOL.parents[1] / ".git").exists(), reason="needs the repository's git history")
def test_against_extracts_the_revisions_src(bit_identity, tmp_path):
    src = bit_identity.extract_src("HEAD", tmp_path)
    assert src == tmp_path / "src"
    assert (src / "crouzeix_lab" / "__init__.py").is_file()
