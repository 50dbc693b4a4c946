"""One formula on floats and on arrays: the arithmetic namespaces and the one check."""
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from crouzeix_lab.elementwise import CLAUSES, Arrays, Clause, Floats, array_pass, check, namespace
from crouzeix_lab.errors import DomainError
from crouzeix_lab.region_certifier import certify


def test_namespace_follows_the_input_type():
    assert namespace(2.0) is Floats and namespace(2, 3.0) is Floats
    assert namespace(np.float64(2.0)) is Floats
    assert namespace(np.ones(3)) is Arrays and namespace(2.0, np.ones(3)) is Arrays


@pytest.mark.parametrize("k", [2, 3, 4, 8])
def test_power_is_pythons_float_power_bit_for_bit(k):
    # Arrays.power is np.float_power because its float64 loop calls the C
    # library's pow per element, as Python's float ** does; a numpy that
    # vectorizes float_power fails here instead of changing printed bytes
    rng = np.random.default_rng(k)
    x = np.concatenate([
        rng.uniform(0.01, 100.0, 50000),
        np.exp(rng.uniform(-700.0, 700.0, 50000)),  # huge and tiny, overflowing to inf
        -np.exp(rng.uniform(-700.0, 700.0, 20000)),
        rng.uniform(-100.0, -0.01, 20000),
        rng.uniform(0.999, 1.001, 50000),
        [0.0, -0.0, 1.0, -1.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan],
    ])
    got = Arrays.power(x, k)
    assert [repr(v) for v in got.tolist()] == [repr(Floats.power(v, k)) for v in x.tolist()]
    # the reason for float_power: numpy's own power rounds differently at some points
    if k > 2:
        uniform = x[:50000]
        assert np.any(uniform**k != got[:50000])


def test_power_overflows_to_inf():
    x = np.array([1e200, -1e200, 2.0])
    assert Arrays.power(x, 2).tolist() == [math.inf, math.inf, 4.0]
    assert Arrays.power(x, 3).tolist() == [math.inf, -math.inf, 8.0]
    assert Floats.power(-1e200, 3) == -math.inf


def test_maximum_and_minimum_keep_pythons_rule():
    a = np.array([0.0, math.nan, -0.0, 1.0, 0.0])
    b = np.array([math.nan, 0.0, 0.0, 2.0, -0.0])
    for fa, fb in ((Arrays.maximum, max), (Arrays.minimum, min)):
        assert [repr(v) for v in fa(a, b).tolist()] == [repr(fb(p, q)) for p, q in zip(a.tolist(), b.tolist())]


@pytest.fixture
def clauses(monkeypatch):
    """Three clauses for these tests: x > 0, x <= 1 (NaN passes) and x < 10."""
    for name, clause in (("positive", Clause("domain", ">", "{} is not positive")),
                         ("at_most_one", Clause("witness", "<=", "{} exceeds 1", 0.0, True)),
                         ("below_ten", Clause("domain", "<", "{} is not below 10"))):
        monkeypatch.setitem(CLAUSES, name, clause)


def test_a_clauses_nan_rule_decides_a_nan_value(clauses):
    check("at_most_one", math.nan, 1.0)
    with pytest.raises(DomainError, match="nan"):
        check("positive", math.nan, 0.0, math.nan)


def test_slack_widens_the_bound_by_its_scale_and_a_verdict_is_returned(monkeypatch):
    monkeypatch.setitem(CLAUSES, "near_one", Clause("verdict", "<=", "{} exceeds 1", 0.25))
    x = np.array([1.4, 1.6, math.nan])
    assert check("near_one", 1.4, 1.0, scale=2.0) and not check("near_one", 1.6, 1.0, scale=2.0)
    assert check("near_one", x, 1.0, scale=2.0).tolist() == [True, False, False]
    monkeypatch.setitem(CLAUSES, "near_zero", Clause("witness", ">=", "{} is negative", 0.25, True))
    y = np.array([-0.4, -0.6, math.nan])
    assert check("near_zero", y, 0.0, y, scale=4.0).tolist() == [True, True, True]
    with pytest.raises(DomainError, match="^-0.6 is negative$"):
        check("near_zero", y, 0.0, y, scale=2.0)


def test_a_window_widens_both_ends_and_fails_at_nan(monkeypatch):
    monkeypatch.setitem(CLAUSES, "unit", Clause("witness", "(]", "{} outside (0, 1]", 0.25))
    x = np.array([-0.4, 1.4, -0.6, 1.6, math.nan])
    assert check("unit", x[:2], (0.0, 1.0), x[:2], scale=2.0).tolist() == [True, True]
    assert [check("unit", v, (0.0, 1.0), v, scale=2.0) for v in x[:2].tolist()] == [True, True]
    with array_pass(5) as failure:
        check("unit", x, (0.0, 1.0), x, scale=2.0)
    assert failure.tolist() == [None, None, "-0.6 outside (0, 1]", "1.6 outside (0, 1]", "nan outside (0, 1]"]
    with pytest.raises(DomainError, match="^nan outside"):
        check("unit", math.nan, (0.0, 1.0), math.nan)


def test_only_witness_and_verdict_clauses_carry_a_slack():
    assert {clause.kind for clause in CLAUSES.values()} == {"domain", "witness", "verdict"}
    assert all(clause.slack > 0.0 for clause in CLAUSES.values() if clause.kind != "domain")
    assert all(clause.slack == 0.0 for clause in CLAUSES.values() if clause.kind == "domain")


def test_array_checks_mark_exactly_the_failing_points_of_a_pass(clauses):
    x = np.array([0.5, 2.0, -1.0, 3.0, 0.25, 20.0])
    with array_pass(6) as failure:
        check("positive", x, 0.0, x)
        check("at_most_one", x, 1.0, x)  # -1.0 passes here and keeps its first text
        check("below_ten", x, 10.0, x)  # 20.0 fails a second check
    assert failure.tolist() == [None, "2.0 exceeds 1", "-1.0 is not positive", "3.0 exceeds 1", None,
                                "20.0 exceeds 1"]
    with pytest.raises(DomainError, match="^2.0 exceeds 1$"):
        check("at_most_one", x, 1.0, x)


def test_array_checks_outside_a_pass_raise_at_the_first_failing_point(monkeypatch):
    monkeypatch.setitem(CLAUSES, "positive", Clause("domain", ">", "{} at {}"))
    x = np.array([1.0, 2.0, -1.0, -2.0])
    with pytest.raises(DomainError, match="^-1.0 at 2$"):
        check("positive", x, 0.0, x, np.arange(4))


def test_numpy_scalars_certify_as_python_floats_do():
    # on np.float64 the comparisons give numpy bools, which check returns where they pass
    regions = set()
    for rho, r in ((1.2, 1.0), (3.0, 0.6), (20.0, 0.76), (3.7, 0.9)):
        want, got = certify(rho, r), certify(np.float64(rho), np.float64(r))
        regions.add(want.region)
        assert got == want
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    assert len(regions) == 4


def _fields(cert):
    """Every field of a certificate and of its witness, as (name, type, value)."""
    rows = [(f.name, type(getattr(cert, f.name)), getattr(cert, f.name)) for f in dataclasses.fields(cert)]
    return rows + [("X." + k, type(v), v) for k, v in vars(cert.X).items()]


def test_numpy_scalar_certificates_equal_float_ones_field_for_field():
    rng = np.random.default_rng(37)
    rho = 10.0 ** rng.uniform(0.01, 2.0, 200)
    points = [(1.2, 1.0), (3.0, 0.6), (20.0, 0.76), (3.7, 0.9)]  # one per region, the Strip's too
    points += zip(rho.tolist(), rng.uniform(1.0 / np.sqrt(rho) + 1e-6, 1.0).tolist())
    regions = set()
    for rho, r in points:
        want, got = certify(rho, r), certify(np.float64(rho), np.float64(r))
        regions.add(want.region)
        assert _fields(got) == _fields(want)
        json.dumps(got.to_json())
    assert len(regions) == 4


def test_a_huge_numpy_scalar_raises_only_its_domain_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            certify(np.float64(1e160), np.float64(0.9))


@pytest.mark.parametrize("name, value, bound", [("r", 1.5, (0.0, 1.0)), ("q", -0.25, 0.0),
                                                ("sigma_residual", 2.5e-3, 0.0), ("psi_x", 3.0, (2.0, 2.5)),
                                                ("rho", math.nan, (1.0, math.inf))])
def test_a_failing_numpy_scalar_raises_the_python_floats_text(name, value, bound):
    with pytest.raises(DomainError) as want:
        check(name, value, bound, value)
    with pytest.raises(DomainError) as got:
        check(name, np.float64(value), bound, np.float64(value))
    assert str(got.value) == str(want.value)
