"""One formula on floats and on arrays: the arithmetic namespaces and their checks."""
import math

import numpy as np
import pytest

from crouzeix_lab.elementwise import Arrays, Floats, array_pass, namespace
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


def test_require_and_forbid_differ_at_nan_as_if_not_ok_and_if_bad_do():
    Floats.forbid(math.nan > 1.0, "x")
    with pytest.raises(DomainError, match="nan"):
        Floats.require(math.nan <= 1.0, "got {}", math.nan)


def test_array_checks_mark_exactly_the_failing_points_of_a_pass():
    x = np.array([0.5, 2.0, -1.0, 3.0, 0.25, 20.0])
    with array_pass(6) as failure:
        Arrays.require(x > 0.0, "{} is not positive", x)
        Arrays.forbid(x > 1.0, "{} exceeds 1", x)  # -1.0 passes here and keeps its first text
        Arrays.require(x < 10.0, "{} is not below 10", x)  # 20.0 fails a second check
    assert failure.tolist() == [None, "2.0 exceeds 1", "-1.0 is not positive", "3.0 exceeds 1", None,
                                "20.0 exceeds 1"]
    with pytest.raises(DomainError, match="^2.0 exceeds 1$"):
        Arrays.forbid(x > 1.0, "{} exceeds 1", x)


def test_array_checks_outside_a_pass_raise_at_the_first_failing_point():
    x = np.array([1.0, 2.0, -1.0, -2.0])
    with pytest.raises(DomainError, match="^-1.0 at 2$"):
        Arrays.require(x > 0.0, "{} at {}", x, np.arange(4))
