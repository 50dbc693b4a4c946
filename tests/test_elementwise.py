"""One formula on floats and on arrays: the arithmetic namespaces and their checks."""
import math

import numpy as np
import pytest

from crouzeix_lab.elementwise import CLAUSES, Arrays, Clause, Floats, array_pass, namespace
from crouzeix_lab.errors import DomainError


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
    Floats.check("at_most_one", math.nan, 1.0)
    with pytest.raises(DomainError, match="nan"):
        Floats.check("positive", math.nan, 0.0, math.nan)


def test_slack_widens_the_bound_by_its_scale_and_a_verdict_is_returned(monkeypatch):
    monkeypatch.setitem(CLAUSES, "near_one", Clause("verdict", "<=", "{} exceeds 1", 0.25))
    x = np.array([1.4, 1.6, math.nan])
    assert Floats.check("near_one", 1.4, 1.0, scale=2.0) and not Floats.check("near_one", 1.6, 1.0, scale=2.0)
    assert Arrays.check("near_one", x, 1.0, scale=2.0).tolist() == [True, False, False]
    monkeypatch.setitem(CLAUSES, "near_zero", Clause("witness", ">=", "{} is negative", 0.25, True))
    y = np.array([-0.4, -0.6, math.nan])
    assert Arrays.check("near_zero", y, 0.0, y, scale=4.0).tolist() == [True, True, True]
    with pytest.raises(DomainError, match="^-0.6 is negative$"):
        Arrays.check("near_zero", y, 0.0, y, scale=2.0)


def test_a_window_widens_both_ends_and_fails_at_nan(monkeypatch):
    monkeypatch.setitem(CLAUSES, "unit", Clause("witness", "(]", "{} outside (0, 1]", 0.25))
    x = np.array([-0.4, 1.4, -0.6, 1.6, math.nan])
    assert Arrays.check("unit", x[:2], (0.0, 1.0), x[:2], scale=2.0).tolist() == [True, True]
    assert [Floats.check("unit", v, (0.0, 1.0), v, scale=2.0) for v in x[:2].tolist()] == [True, True]
    with array_pass(5) as failure:
        Arrays.check("unit", x, (0.0, 1.0), x, scale=2.0)
    assert failure.tolist() == [None, None, "-0.6 outside (0, 1]", "1.6 outside (0, 1]", "nan outside (0, 1]"]
    with pytest.raises(DomainError, match="^nan outside"):
        Floats.check("unit", math.nan, (0.0, 1.0), math.nan)


def test_only_witness_and_verdict_clauses_carry_a_slack():
    assert {clause.kind for clause in CLAUSES.values()} == {"domain", "witness", "verdict"}
    assert all(clause.slack > 0.0 for clause in CLAUSES.values() if clause.kind != "domain")
    assert all(clause.slack == 0.0 for clause in CLAUSES.values() if clause.kind == "domain")


def test_array_checks_mark_exactly_the_failing_points_of_a_pass(clauses):
    x = np.array([0.5, 2.0, -1.0, 3.0, 0.25, 20.0])
    with array_pass(6) as failure:
        Arrays.check("positive", x, 0.0, x)
        Arrays.check("at_most_one", x, 1.0, x)  # -1.0 passes here and keeps its first text
        Arrays.check("below_ten", x, 10.0, x)  # 20.0 fails a second check
    assert failure.tolist() == [None, "2.0 exceeds 1", "-1.0 is not positive", "3.0 exceeds 1", None,
                                "20.0 exceeds 1"]
    with pytest.raises(DomainError, match="^2.0 exceeds 1$"):
        Arrays.check("at_most_one", x, 1.0, x)


def test_array_checks_outside_a_pass_raise_at_the_first_failing_point(monkeypatch):
    monkeypatch.setitem(CLAUSES, "positive", Clause("domain", ">", "{} at {}"))
    x = np.array([1.0, 2.0, -1.0, -2.0])
    with pytest.raises(DomainError, match="^-1.0 at 2$"):
        Arrays.check("positive", x, 0.0, x, np.arange(4))
