"""Bernstein operator deviations against the closed-form identities."""

from __future__ import annotations

import numpy as np
import pytest

from opsyslab.korovkin import bernstein_values, bernstein_weights, korovkin_demo


def test_weights_sum_to_one():
    for n in (1, 10, 250, 1000):
        for x in (0.0, 0.1, 0.5, 0.73, 1.0):
            w = bernstein_weights(n, x)
            assert abs(float(np.sum(w)) - 1.0) <= 1e-12


def test_weights_finite_at_the_degree_limit():
    from math import comb

    n = 2000
    w = bernstein_weights(n, 0.5)
    assert np.all(np.isfinite(w))
    assert abs(float(np.sum(w)) - 1.0) <= 1e-12
    exact = np.array([comb(n, k) / 2**n for k in range(n + 1)])
    mass = exact > 1e-300
    assert np.allclose(w[mass], exact[mass], rtol=1e-11, atol=0)
    assert np.all(w[~mass] <= 1e-290)


@pytest.mark.parametrize("x", [1e-9, 0.013, 0.37, 0.73, 1.0 - 1e-9])
def test_weights_finite_at_high_degree(x):
    w = bernstein_weights(1500, x)
    assert np.all(np.isfinite(w)) and np.all(w >= 0)
    assert abs(float(np.sum(w)) - 1.0) <= 1e-12
    # mean of the binomial distribution
    assert float(w @ np.arange(1501)) == pytest.approx(1500 * x, rel=1e-10, abs=1e-10)


def test_weights_match_direct_binomial():
    from math import comb

    n = 12
    x = 0.37
    direct = np.array([comb(n, k) * x**k * (1 - x) ** (n - k) for k in range(n + 1)])
    assert np.allclose(bernstein_weights(n, x), direct, rtol=1e-13, atol=0)


def test_constant_exactly_reproduced():
    table = korovkin_demo(50, 101)
    assert table["1"] <= 1e-12
    assert table["x"] <= 1e-12


def test_x_squared_deviation_closed_form():
    # B_n(x^2) - x^2 = x(1-x)/n with grid maximum at x = 1/2
    for n in (10, 100, 1000):
        table = korovkin_demo(n, 1001)
        assert table["x^2"] == pytest.approx(0.25 / n, abs=1e-12)


def test_cubic_deviation_decreases():
    devs = [korovkin_demo(n, 201, ["x^3"])["x^3"] for n in (10, 100, 1000)]
    assert devs[0] > devs[1] > devs[2]


def test_bernstein_values_pointwise():
    # B_2 f at x: w = [(1-x)^2, 2x(1-x), x^2]
    f = lambda x: np.asarray(x) ** 3
    vals = bernstein_values(f, 2, np.array([0.25]))
    w = np.array([0.75**2, 2 * 0.25 * 0.75, 0.25**2])
    expected = float(w @ (np.array([0.0, 0.5, 1.0]) ** 3))
    assert vals[0] == pytest.approx(expected, abs=1e-15)


def test_unknown_function_rejected():
    with pytest.raises(Exception):
        korovkin_demo(10, 11, ["nope"])
